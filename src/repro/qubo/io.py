"""Plain-text serialization of QUBO and Ising problems (COO format).

A minimal, diff-friendly interchange format so problems can be saved,
versioned, and fed to the CLI:

.. code-block:: text

    # comment lines start with '#'
    qubo 3            # header: kind and variable count
    offset 0.5        # optional
    0 0  1.25         # i i  value  -> linear coefficient
    0 2 -0.75         # i j  value  -> quadratic coefficient (i != j)

Ising files are identical with an ``ising`` header; diagonal entries are the
fields ``h_i`` and off-diagonal entries the couplings ``J_ij``.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from ..exceptions import ValidationError
from .ising import IsingModel
from .qubo import Qubo

__all__ = ["dumps_qubo", "loads_qubo", "dumps_ising", "loads_ising",
           "save_problem", "load_problem"]


def _dump(kind: str, n: int, offset: float, linear, pairs) -> str:
    lines = [f"{kind} {n}"]
    if offset != 0.0:
        lines.append(f"offset {offset!r}")
    for i, v in enumerate(linear):
        if v != 0.0:
            lines.append(f"{i} {i} {float(v)!r}")
    for i, j, v in pairs:
        lines.append(f"{i} {j} {float(v)!r}")
    return "\n".join(lines) + "\n"


def dumps_qubo(qubo: Qubo) -> str:
    """Serialize a :class:`Qubo` to COO text."""
    return _dump("qubo", qubo.num_variables, qubo.offset, qubo.linear,
                 qubo.iter_quadratic())


def dumps_ising(ising: IsingModel) -> str:
    """Serialize an :class:`IsingModel` to COO text."""
    return _dump("ising", ising.num_spins, ising.offset, ising.h,
                 ising.iter_couplings())


def _index(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError as exc:
        raise ValidationError(f"line {lineno}: bad index {token!r}") from exc


def _finite(token: str, lineno: int) -> float:
    try:
        value = float(token)
    except ValueError as exc:
        raise ValidationError(f"line {lineno}: bad value {token!r}") from exc
    if not math.isfinite(value):
        raise ValidationError(f"line {lineno}: value {token!r} is not finite")
    return value


def _parse(text: str) -> tuple[str, float, np.ndarray, dict]:
    kind: str | None = None
    n = 0
    offset = 0.0
    linear: np.ndarray | None = None
    quadratic: dict[tuple[int, int], float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if kind is None:
            if len(parts) != 2 or parts[0] not in ("qubo", "ising"):
                raise ValidationError(
                    f"line {lineno}: expected header 'qubo N' or 'ising N', got {raw!r}"
                )
            kind = parts[0]
            try:
                n = int(parts[1])
            except ValueError as exc:
                raise ValidationError(f"line {lineno}: bad size {parts[1]!r}") from exc
            if n < 0:
                raise ValidationError(f"line {lineno}: negative size {n}")
            linear = np.zeros(n, dtype=np.float64)
            continue
        if parts[0] == "offset":
            if len(parts) != 2:
                raise ValidationError(f"line {lineno}: offset needs one value")
            offset = _finite(parts[1], lineno)
            continue
        if len(parts) != 3:
            raise ValidationError(f"line {lineno}: expected 'i j value', got {raw!r}")
        i, j = _index(parts[0], lineno), _index(parts[1], lineno)
        v = _finite(parts[2], lineno)
        if not (0 <= i < n and 0 <= j < n):
            raise ValidationError(f"line {lineno}: index ({i}, {j}) outside n={n}")
        assert linear is not None
        if i == j:
            total = linear[i] = float(linear[i]) + v
        else:
            key = (min(i, j), max(i, j))
            total = quadratic[key] = quadratic.get(key, 0.0) + v
        if not math.isfinite(total):
            raise ValidationError(f"line {lineno}: entry ({i}, {j}) overflows")
    if kind is None:
        raise ValidationError("empty problem file (no header)")
    assert linear is not None
    return kind, offset, linear, quadratic


def loads_qubo(text: str) -> Qubo:
    """Parse COO text with a ``qubo`` header."""
    kind, offset, linear, quadratic = _parse(text)
    if kind != "qubo":
        raise ValidationError(f"expected a qubo file, got {kind!r}")
    return Qubo(linear, quadratic, offset)


def loads_ising(text: str) -> IsingModel:
    """Parse COO text with an ``ising`` header."""
    kind, offset, linear, quadratic = _parse(text)
    if kind != "ising":
        raise ValidationError(f"expected an ising file, got {kind!r}")
    return IsingModel(linear, quadratic, offset)


def save_problem(problem: Qubo | IsingModel, path: str | Path) -> None:
    """Write a problem to ``path`` in COO text format."""
    if isinstance(problem, Qubo):
        text = dumps_qubo(problem)
    elif isinstance(problem, IsingModel):
        text = dumps_ising(problem)
    else:
        raise ValidationError(f"cannot serialize {type(problem).__name__}")
    Path(path).write_text(text)


def load_problem(path: str | Path) -> Qubo | IsingModel:
    """Read a COO problem file; the header selects the type."""
    kind, offset, linear, quadratic = _parse(Path(path).read_text())
    model = Qubo if kind == "qubo" else IsingModel
    return model(linear, quadratic, offset)
