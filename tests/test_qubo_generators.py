"""Tests for the workload generators: each reduction encodes its objective."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.qubo import (
    brute_force_qubo,
    max_independent_set_qubo,
    maxcut_qubo,
    random_ising,
    random_qubo,
)


class TestRandom:
    def test_random_qubo_complete(self):
        q = random_qubo(6, density=1.0, rng=0)
        assert q.num_interactions == 15

    def test_random_qubo_reproducible(self):
        assert random_qubo(5, rng=42) == random_qubo(5, rng=42)

    def test_random_qubo_density_zero(self):
        assert random_qubo(5, density=0.0, rng=0).num_interactions == 0

    def test_bad_density(self):
        with pytest.raises(ValidationError):
            random_qubo(3, density=1.5)
        with pytest.raises(ValidationError):
            random_ising(3, density=-0.1)

    def test_random_ising_scales(self):
        m = random_ising(8, rng=1, h_scale=0.5, j_scale=2.0)
        assert m.max_abs_h <= 0.5
        assert m.max_abs_j <= 2.0


class TestMaxCut:
    def test_path_graph(self):
        # P4 max cut = 3 (alternating partition).
        q = maxcut_qubo(nx.path_graph(4))
        _, e = brute_force_qubo(q)
        assert e[0] == pytest.approx(-3.0)

    def test_complete_graph(self):
        # K4 max cut = 4 (2-2 split).
        q = maxcut_qubo(nx.complete_graph(4))
        _, e = brute_force_qubo(q)
        assert e[0] == pytest.approx(-4.0)

    def test_weighted(self):
        g = nx.Graph()
        g.add_edge(0, 1, weight=5.0)
        g.add_edge(1, 2, weight=1.0)
        q = maxcut_qubo(g)
        _, e = brute_force_qubo(q)
        assert e[0] == pytest.approx(-6.0)  # both edges cuttable

    def test_requires_canonical_labels(self):
        g = nx.Graph()
        g.add_edge("a", "b")
        with pytest.raises(ValidationError, match="range"):
            maxcut_qubo(g)


class TestIndependentSetAndCover:
    def test_mis_on_cycle(self):
        # C5 has maximum independent set of size 2.
        q = max_independent_set_qubo(nx.cycle_graph(5))
        s, e = brute_force_qubo(q)
        assert e[0] == pytest.approx(-2.0)
        chosen = np.flatnonzero(s[0])
        for u, v in nx.cycle_graph(5).edges():
            assert not (u in chosen and v in chosen)

    def test_mis_penalty_guard(self):
        with pytest.raises(ValidationError):
            max_independent_set_qubo(nx.path_graph(3), penalty=1.0)
