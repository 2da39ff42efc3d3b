"""Count code lines of Python sources, with the standard library only.

    python scripts/codelines.py src/repro              # per file, then the total
    python scripts/codelines.py --total src/repro      # the total alone
    python scripts/codelines.py src/repro/cli.py ...   # files and directories mix

A line counts when it carries a token other than a comment, a blank or
logical-line break (NL/NEWLINE), an INDENT/DEDENT, or a docstring.  A
docstring is a string literal that forms a whole statement by itself
(module, class and function docstrings, and any other bare string
statement); every line such a literal spans is excluded.  A string that
spans lines inside an expression counts on every line it spans.
"""

from __future__ import annotations

import argparse
import io
import sys
import tokenize
from pathlib import Path

#: Tokens that never make a line count (comments and NL are dropped first).
_LAYOUT = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines in ``source`` (see the module docstring)."""
    tokens = [
        tok for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type not in (tokenize.COMMENT, tokenize.NL)
    ]
    lines: set[int] = set()
    for i, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            continue
        if (
            tok.type == tokenize.STRING
            and (i == 0 or tokens[i - 1].type in _LAYOUT)
            and tokens[i + 1].type in (tokenize.NEWLINE, tokenize.ENDMARKER)
        ):
            continue  # a docstring
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def python_files(paths: list[str]) -> list[Path]:
    files: list[Path] = []
    for name in paths:
        path = Path(name)
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return files


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+", help=".py files or directories to scan")
    parser.add_argument("--total", action="store_true", help="print only the total")
    args = parser.parse_args(argv)
    total = 0
    for path in python_files(args.paths):
        count = code_lines(path.read_text())
        total += count
        if not args.total:
            print(f"{count:7d}  {path}")
    print(total if args.total else f"{total:7d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
