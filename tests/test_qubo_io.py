"""Tests for COO-format problem serialization."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.qubo import IsingModel, Qubo, random_ising, random_qubo
from repro.qubo.io import (
    dumps_ising,
    dumps_qubo,
    load_problem,
    loads_ising,
    loads_qubo,
    save_problem,
)


class TestRoundTrip:
    def test_qubo(self):
        q = random_qubo(6, density=0.5, rng=0)
        q2 = loads_qubo(dumps_qubo(q))
        assert q2 == q

    def test_ising(self):
        m = random_ising(6, density=0.5, rng=1)
        m2 = loads_ising(dumps_ising(m))
        assert m2 == m

    def test_offset_preserved(self):
        q = Qubo([1.0], {}, offset=2.5)
        assert loads_qubo(dumps_qubo(q)).offset == 2.5

    def test_zero_offset_omitted(self):
        assert "offset" not in dumps_qubo(Qubo([1.0], {}))

    def test_file_round_trip(self, tmp_path):
        q = random_qubo(5, rng=2)
        path = tmp_path / "problem.coo"
        save_problem(q, path)
        assert load_problem(path) == q

    def test_file_round_trip_ising(self, tmp_path):
        m = random_ising(5, rng=3)
        path = tmp_path / "problem.coo"
        save_problem(m, path)
        loaded = load_problem(path)
        assert isinstance(loaded, IsingModel)
        assert loaded == m

    def test_empty_problem(self):
        q = Qubo([])
        assert loads_qubo(dumps_qubo(q)).num_variables == 0


class TestParsing:
    def test_comments_and_blank_lines(self):
        text = "# a comment\n\nqubo 2\n0 0 1.0  # trailing comment\n0 1 -2.0\n"
        q = loads_qubo(text)
        assert q.linear[0] == 1.0
        assert q.quadratic_dict() == {(0, 1): -2.0}

    def test_duplicate_entries_accumulate(self):
        q = loads_qubo("qubo 2\n0 1 1.0\n1 0 2.0\n0 0 0.5\n0 0 0.5\n")
        assert q.quadratic_dict() == {(0, 1): 3.0}
        assert q.linear[0] == 1.0

    def test_errors(self):
        with pytest.raises(ValidationError, match="header"):
            loads_qubo("bogus 3")
        with pytest.raises(ValidationError, match="empty"):
            loads_qubo("# nothing\n")
        with pytest.raises(ValidationError, match="outside"):
            loads_qubo("qubo 2\n0 5 1.0\n")
        with pytest.raises(ValidationError, match="i j value"):
            loads_qubo("qubo 2\n0 1\n")
        with pytest.raises(ValidationError, match="expected a qubo"):
            loads_qubo("ising 2\n0 0 1.0\n")
        with pytest.raises(ValidationError, match="expected an ising"):
            loads_ising("qubo 2\n0 0 1.0\n")
        with pytest.raises(ValidationError, match="bad size"):
            loads_qubo("qubo many\n")
        with pytest.raises(ValidationError, match="line 2: bad index 'x'"):
            loads_qubo("qubo 2\n0 x 1\n")
        with pytest.raises(ValidationError, match="line 2: bad value 'y'"):
            loads_qubo("qubo 2\n0 1 y\n")
        with pytest.raises(ValidationError, match="line 2: bad value 'abc'"):
            loads_qubo("qubo 2\noffset abc\n")
        for bad in ("nan", "inf", "-inf", "1e400"):
            with pytest.raises(ValidationError, match=f"line 2: value '{bad}' is not finite"):
                loads_qubo(f"qubo 2\n0 1 {bad}\n")
            with pytest.raises(ValidationError, match=f"line 2: value '{bad}' is not finite"):
                loads_ising(f"ising 2\n1 1 {bad}\n")
            with pytest.raises(ValidationError, match=f"line 2: value '{bad}' is not finite"):
                loads_qubo(f"qubo 2\noffset {bad}\n")
        with pytest.raises(ValidationError, match="line 3: entry \\(1, 0\\) overflows"):
            loads_qubo("qubo 2\n0 1 1e308\n1 0 1e308\n")

    def test_save_rejects_unknown_type(self, tmp_path):
        with pytest.raises(ValidationError):
            save_problem("not a problem", tmp_path / "x.coo")  # type: ignore[arg-type]


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=8),
    density=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_property_round_trip_preserves_energies(n, density, seed):
    q = random_qubo(n, density=density, rng=seed)
    q2 = loads_qubo(dumps_qubo(q))
    gen = np.random.default_rng(seed)
    B = gen.integers(0, 2, size=(16, n))
    assert np.allclose(q.energies(B), q2.energies(B))
