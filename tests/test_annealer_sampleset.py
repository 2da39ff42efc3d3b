"""Tests for SampleSet: the Stage-3 readout container."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.annealer import SampleSet
from repro.exceptions import ValidationError
from repro.qubo import IsingModel, random_ising


@pytest.fixture
def model() -> IsingModel:
    return IsingModel([0.5, -0.25], {(0, 1): 1.0})


class TestFromSamples:
    def test_sorted_by_energy(self, model, rng):
        S = (rng.integers(0, 2, size=(20, 2)) * 2 - 1).astype(np.int8)
        ss = SampleSet.from_samples(model, S)
        assert np.all(np.diff(ss.energies) >= 0)
        assert ss.num_reads == 20

    def test_energies_match_model(self, model):
        S = np.array([[1, 1], [-1, 1]], dtype=np.int8)
        ss = SampleSet.from_samples(model, S)
        for row, e in zip(ss.samples, ss.energies):
            assert model.energy(row) == pytest.approx(e)

    def test_rejects_non_spin_values(self, model):
        with pytest.raises(ValidationError, match="-1/\\+1"):
            SampleSet.from_samples(model, np.zeros((2, 2), dtype=np.int8))

    def test_rejects_bad_shape(self, model):
        with pytest.raises(ValidationError):
            SampleSet.from_samples(model, np.ones(4, dtype=np.int8))

    def test_unsorted_construction_rejected(self):
        with pytest.raises(ValidationError, match="sorted"):
            SampleSet(
                np.ones((2, 1), dtype=np.int8),
                np.array([2.0, 1.0]),
                np.ones(2, dtype=np.int64),
            )

    def test_empty(self):
        ss = SampleSet.empty(3)
        assert ss.num_rows == 0 and ss.num_reads == 0
        with pytest.raises(ValidationError):
            _ = ss.first


class TestAggregation:
    def test_aggregated_multiplicities(self, model):
        S = np.array([[1, 1], [1, 1], [-1, -1]], dtype=np.int8)
        agg = SampleSet.from_samples(model, S).aggregated()
        assert agg.num_rows == 2
        assert agg.num_reads == 3
        # Lowest-energy row first; occurrences preserved.
        assert np.all(np.diff(agg.energies) >= 0)
        assert sorted(agg.num_occurrences.tolist()) == [1, 2]

    def test_aggregated_idempotent(self, model, rng):
        S = (rng.integers(0, 2, size=(30, 2)) * 2 - 1).astype(np.int8)
        agg = SampleSet.from_samples(model, S).aggregated()
        agg2 = agg.aggregated()
        assert agg2.num_rows == agg.num_rows
        assert np.array_equal(agg2.num_occurrences, agg.num_occurrences)


class TestStatistics:
    def test_first_and_lowest(self, model, rng):
        S = (rng.integers(0, 2, size=(50, 2)) * 2 - 1).astype(np.int8)
        ss = SampleSet.from_samples(model, S)
        state, energy = ss.first
        assert energy == ss.lowest_energy
        assert model.energy(state) == pytest.approx(energy)

    def test_ground_state_probability(self):
        m = IsingModel([1.0], {})  # ground state: s = -1, E = -1
        S = np.array([[-1], [-1], [1], [-1]], dtype=np.int8)
        ss = SampleSet.from_samples(m, S)
        assert ss.ground_state_probability(-1.0) == pytest.approx(0.75)

    def test_ground_probability_counts_occurrences(self):
        m = IsingModel([1.0], {})
        ss = SampleSet(
            np.array([[-1], [1]], dtype=np.int8),
            np.array([-1.0, 1.0]),
            np.array([9, 1], dtype=np.int64),
        )
        assert ss.ground_state_probability(-1.0) == pytest.approx(0.9)

    def test_ground_probability_empty_rejected(self):
        with pytest.raises(ValidationError):
            SampleSet.empty(1).ground_state_probability(0.0)


@settings(max_examples=30, deadline=None)
@given(
    k=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_property_aggregation_preserves_reads_and_sorting(k, seed):
    gen = np.random.default_rng(seed)
    m = random_ising(4, rng=seed)
    S = (gen.integers(0, 2, size=(k, 4)) * 2 - 1).astype(np.int8)
    ss = SampleSet.from_samples(m, S)
    agg = ss.aggregated()
    assert agg.num_reads == k
    assert np.all(np.diff(agg.energies) >= 0)
    assert agg.lowest_energy == pytest.approx(ss.lowest_energy)
    # Distinct rows only.
    rows = {tuple(r) for r in agg.samples.tolist()}
    assert len(rows) == agg.num_rows
