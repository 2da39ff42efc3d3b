"""Workload generators: the problem instances the tests, examples and kernels run.

The paper prices a split-execution request from its logical problem size,
not from which optimization problem produced the QUBO.  This module holds
the generators that something in the repository runs: random
QUBO / Ising instances (the golden kernel workloads and the default CLI
problem), and two graph reductions from the problem families the paper's
introduction cites (Sec. 2.1) — MAX-CUT, whose energy is minus the cut
weight, and maximum independent set, whose energy is minus the set size.
"""

from __future__ import annotations

import networkx as nx
import numpy as np

from .._rng import as_rng
from ..exceptions import ValidationError
from .ising import IsingModel
from .qubo import Qubo

__all__ = [
    "random_qubo",
    "random_ising",
    "maxcut_qubo",
    "max_independent_set_qubo",
]


def random_qubo(
    n: int,
    density: float = 1.0,
    rng: np.random.Generator | int | None = None,
    scale: float = 1.0,
) -> Qubo:
    """A random QUBO: i.i.d. uniform ``[-scale, scale]`` coefficients.

    Parameters
    ----------
    n:
        Number of binary variables.
    density:
        Probability that each of the ``n*(n-1)/2`` candidate quadratic terms
        is present.  ``density=1`` yields a complete interaction graph — the
        worst case the paper's Stage-1 model assumes.
    """
    if not 0.0 <= density <= 1.0:
        raise ValidationError(f"density must lie in [0, 1], got {density}")
    gen = as_rng(rng)
    linear = gen.uniform(-scale, scale, size=n)
    # Terms are generated in lexicographic order, so from_arrays adopts the
    # arrays without re-sorting (and without the per-term dict round-trip).
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    for i in range(n):
        for j in range(i + 1, n):
            if density >= 1.0 or gen.random() < density:
                rows.append(i)
                cols.append(j)
                vals.append(float(gen.uniform(-scale, scale)))
    return Qubo.from_arrays(linear, rows, cols, vals)


def random_ising(
    n: int,
    density: float = 1.0,
    rng: np.random.Generator | int | None = None,
    h_scale: float = 1.0,
    j_scale: float = 1.0,
) -> IsingModel:
    """A random Ising model with uniform fields and couplings."""
    if not 0.0 <= density <= 1.0:
        raise ValidationError(f"density must lie in [0, 1], got {density}")
    gen = as_rng(rng)
    h = gen.uniform(-h_scale, h_scale, size=n)
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    for i in range(n):
        for j in range(i + 1, n):
            if density >= 1.0 or gen.random() < density:
                rows.append(i)
                cols.append(j)
                vals.append(float(gen.uniform(-j_scale, j_scale)))
    return IsingModel.from_arrays(h, rows, cols, vals)


def _check_simple_graph(graph: nx.Graph) -> list[int]:
    nodes = sorted(graph.nodes())
    if nodes != list(range(len(nodes))):
        raise ValidationError(
            "graph nodes must be exactly range(n); relabel with nx.convert_node_labels_to_integers"
        )
    return nodes


def maxcut_qubo(graph: nx.Graph, weight: str = "weight") -> Qubo:
    """MAX-CUT as a QUBO: ``E(b) = -cut(b)`` so the minimum is minus the max cut.

    For each edge ``(i, j)`` with weight ``w``, the cut indicator is
    ``b_i + b_j - 2 b_i b_j``; minimizing the negated sum yields the
    maximum-weight cut.
    """
    nodes = _check_simple_graph(graph)
    n = len(nodes)
    linear = np.zeros(n, dtype=np.float64)
    quadratic: dict[tuple[int, int], float] = {}
    for u, v, data in graph.edges(data=True):
        w = float(data.get(weight, 1.0))
        linear[u] -= w
        linear[v] -= w
        key = (min(u, v), max(u, v))
        quadratic[key] = quadratic.get(key, 0.0) + 2.0 * w
    return Qubo(linear, quadratic)


def max_independent_set_qubo(graph: nx.Graph, penalty: float = 2.0) -> Qubo:
    """Maximum independent set: ``E(b) = -|S| + penalty * (#violated edges)``.

    With ``penalty > 1`` every minimum-energy assignment is a maximum
    independent set, and its energy equals minus the set size.
    """
    if penalty <= 1.0:
        raise ValidationError(f"penalty must exceed 1 for a faithful encoding, got {penalty}")
    nodes = _check_simple_graph(graph)
    n = len(nodes)
    linear = np.full(n, -1.0)
    quadratic = {
        (min(u, v), max(u, v)): float(penalty) for u, v in graph.edges() if u != v
    }
    return Qubo(linear, quadratic)
