"""The code-line counting rule of ``scripts/codelines.py``."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "codelines.py"


@pytest.fixture(scope="module")
def codelines():
    spec = importlib.util.spec_from_file_location("codelines", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""Module docstring,
over two lines."""

# a comment line
import os  # a trailing comment


class A:
    """Class docstring."""

    x = """a multi-line
string value"""

    def f(self):
        """Function docstring."""
        "a bare string statement"
        return (
            1
        )
'''


def test_counts_code_and_skips_docstrings_comments_and_blanks(codelines):
    # import, class, x (2 lines), def, return ( 1 ) -> 8 lines
    assert codelines.code_lines(SOURCE) == 8


def test_main_prints_the_total(codelines, tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert codelines.main(["--total", str(tmp_path)]) == 0
    assert capsys.readouterr().out.strip() == "9"
