"""Line coverage of a source tree under pytest, with the standard library only.

A pytest plugin: put this directory on ``sys.path`` and load it with ``-p``::

    PYTHONPATH=scripts:src python -m pytest -q -p linecov \\
        --linecov=src/repro --linecov-fail-under=85

Every ``.py`` file under ``--linecov`` is measured, imported or not.  A
file's executable lines are the line numbers its compiled code objects
map instructions to (``co_lines()``), minus statements marked
``# pragma: no cover``; a line counts as covered once a frame of that file
executes it on any thread (``sys.settrace`` and ``threading.settrace``).
Child processes are not traced.  The run fails when the total falls below
``--linecov-fail-under`` percent.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path
from types import CodeType

import pytest

_PRAGMA = "pragma: no cover"


def pytest_addoption(parser):
    group = parser.getgroup("linecov", "stdlib line coverage")
    group.addoption(
        "--linecov", metavar="DIR", default=None,
        help="measure line coverage of the .py files under DIR",
    )
    group.addoption(
        "--linecov-fail-under", metavar="PCT", type=float, default=0.0,
        help="fail the run when total line coverage is below PCT",
    )


def executable_lines(path: Path) -> set[int]:
    """Lines of ``path`` that compiled code maps instructions to."""
    source = path.read_text()
    lines: set[int] = set()
    codes = [compile(source, str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes.extend(c for c in code.co_consts if isinstance(c, CodeType))
    lines_of_text = enumerate(source.splitlines(), 1)
    pragmas = {number for number, text in lines_of_text if _PRAGMA in text}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.stmt) and node.lineno in pragmas:
            lines.difference_update(range(node.lineno, node.end_lineno + 1))
    return lines


class LineCollector:
    """Records executed line numbers of the files under one directory."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.prefix = str(root.resolve()) + os.sep
        self.hits: dict[str, set[int]] = {}
        self.rows: list[tuple[str, int, int]] | None = None
        self._tracers: dict[CodeType, object] = {}

    def _tracer_for(self, code: CodeType):
        filename = code.co_filename
        if not filename.startswith(self.prefix):
            return None
        add = self.hits.setdefault(filename, set()).add

        def local(frame, event, arg):
            add(frame.f_lineno)
            return local

        return local

    def _call(self, frame, event, arg):
        code = frame.f_code
        try:
            local = self._tracers[code]
        except KeyError:
            local = self._tracers[code] = self._tracer_for(code)
        if local is not None:
            local(frame, event, arg)
        return local

    def start(self) -> None:
        threading.settrace(self._call)
        sys.settrace(self._call)

    def finish(self) -> None:
        """Stop tracing and tabulate ``rows``: ``(path, covered, executable)``."""
        sys.settrace(None)
        threading.settrace(None)  # type: ignore[arg-type]
        self.rows = []
        for path in sorted(self.root.rglob("*.py")):
            lines = executable_lines(path)
            hit = self.hits.get(str(path.resolve()), set())
            self.rows.append((str(path), len(lines & hit), len(lines)))
        self.covered = sum(row[1] for row in self.rows)
        self.total = sum(row[2] for row in self.rows)
        self.percent = 100.0 * self.covered / self.total if self.total else 100.0


_COLLECTOR = pytest.StashKey[LineCollector]()


@pytest.hookimpl(tryfirst=True)
def pytest_load_initial_conftests(early_config, parser, args):
    # Before conftest files import the package, so import-time lines count.
    root = early_config.known_args_namespace.linecov
    if root is not None:
        collector = early_config.stash[_COLLECTOR] = LineCollector(Path(root))
        collector.start()


def pytest_sessionfinish(session, exitstatus):
    collector = session.config.stash.get(_COLLECTOR, None)
    if collector is None:
        return
    collector.finish()
    below = collector.percent < session.config.getoption("linecov_fail_under")
    if below and session.exitstatus == pytest.ExitCode.OK:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter, config):
    collector = config.stash.get(_COLLECTOR, None)
    if collector is None or collector.rows is None:
        return
    tr = terminalreporter
    tr.section("line coverage")
    for path, covered, total in collector.rows:
        if covered < total:
            percent = 100.0 * covered / total
            tr.write_line(f"{percent:6.1f}%  {total - covered:5d} missed  {path}")
    percent, floor = collector.percent, config.getoption("linecov_fail_under")
    tr.write_line(
        f"TOTAL {percent:.1f}% ({collector.covered}/{collector.total} lines); "
        f"floor {floor:g}%"
    )
    if percent < floor:
        tr.write_line(f"FAIL: line coverage {percent:.1f}% is below {floor:g}%")
