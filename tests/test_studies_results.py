"""Results-table tests: artifact round trip, slicing, core-powered analysis."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.core import Stage1Model
from repro.exceptions import ValidationError
from repro.studies import ScenarioSpec, StudyResults, run_study
from repro._json import canonical_line
from repro.studies.results import RESULT_COLUMNS, empty_table


@pytest.fixture(scope="module")
def results() -> StudyResults:
    spec = ScenarioSpec(
        axes={
            "lps": list(range(1, 101)),
            "accuracy": [0.9, 0.99],
            "embedding_mode": ["online", "offline"],
        },
        name="analysis",
    )
    return run_study(spec, shard_size=64)


class TestTableShape:
    def test_row_count_and_readonly(self, results):
        assert len(results) == 400
        with pytest.raises(ValueError):
            results.table["total_s"] = 0.0

    def test_unknown_column_rejected(self, results):
        with pytest.raises(ValidationError, match="unknown column"):
            results.column("wall_clock")

    def test_mismatched_table_rejected(self):
        spec = ScenarioSpec(axes={"lps": [1, 2]})
        with pytest.raises(ValidationError, match="rows"):
            StudyResults(spec=spec, table=empty_table(3))


class TestArtifactRoundTrip:
    def test_bytes_stable_and_lossless(self, results, tmp_path):
        path = results.save(tmp_path / "study.json")
        clone = StudyResults.load(path)
        assert clone.spec == results.spec
        for name in results.table.dtype.names:
            equal_nan = results.column(name).dtype.kind == "f"
            assert np.array_equal(
                clone.column(name), results.column(name), equal_nan=equal_nan
            ), name
        assert clone.to_json() == results.to_json()

    def test_no_volatile_fields(self, results):
        payload = results.to_dict()
        assert set(payload) == {"schema_version", "kind", "spec", "num_points", "columns"}

    def test_schema_version_guard(self, results):
        payload = json.loads(results.to_json())
        payload["schema_version"] = 99
        with pytest.raises(ValidationError, match="schema_version"):
            StudyResults.from_dict(payload)

    def test_missing_column_guard(self, results):
        payload = json.loads(results.to_json())
        del payload["columns"]["total_s"]
        with pytest.raises(ValidationError, match="total_s"):
            StudyResults.from_dict(payload)

    def test_nan_serializes_as_null(self, results):
        assert "NaN" not in results.to_json()

    def test_columns_match_the_cell_by_cell_reference(self, results):
        # The column-wise encoder against the per-cell conversion it
        # replaced, on a table with a partly-NaN column and a -0.0.
        table = results.table.copy()
        table["total_s"][::7] = np.nan
        table["stage1_s"][3] = -0.0
        mixed = StudyResults(spec=results.spec, table=table)
        reference = {}
        for name, code in RESULT_COLUMNS:
            values = mixed.table[name]
            if code.startswith("U"):
                reference[name] = [str(v) for v in values]
            elif code == "i8":
                reference[name] = [int(v) for v in values]
            else:
                reference[name] = [None if math.isnan(v) else float(v) for v in values]
        columns = mixed.to_dict()["columns"]
        assert canonical_line(columns) == canonical_line(reference)
        assert columns["total_s"][0] is None and columns["total_s"][1] is not None


class TestSlicing:
    def test_slice_requires_pinning_other_axes(self, results):
        with pytest.raises(ValidationError, match="pinned"):
            results.slice_along("lps")

    def test_slice_values(self, results):
        xs, ys = results.slice_along(
            "lps", "stage2_s", accuracy=0.99, embedding_mode="online"
        )
        assert xs.tolist() == list(range(1, 101))
        # Stage 2 is independent of LPS: one flat line per config.
        assert np.unique(ys).size == 1

    def test_dominance_counts(self, results):
        counts = results.dominance_counts(embedding_mode="online", accuracy=0.99)
        assert sum(counts.values()) == 100
        assert counts["stage1"] == 100  # the paper's headline claim


class TestCorePoweredAnalysis:
    def test_scaling_exponent_matches_direct_fit(self, results):
        """The study slice reproduces Fig. 9(a)'s asymptotic slope regime."""
        slope = results.scaling_exponent(
            "stage1_s", "lps", accuracy=0.99, embedding_mode="online"
        )
        assert 1.5 < slope < 3.5

    def test_crossover_matches_stage1_model(self, results):
        """Study crossover == Stage1Model.crossover_size()'s embedding knee."""
        lps = results.crossover_lps(
            above="stage1_s", below="stage2_s", accuracy=0.99, embedding_mode="online"
        )
        # Stage 1 already includes the 0.32 s init, so it dominates from LPS=1.
        assert lps == 1
        knee = Stage1Model().crossover_size()
        xs, embed = results.slice_along(
            "lps", "stage1_s", accuracy=0.99, embedding_mode="online"
        )
        assert 1 <= knee <= 100

    def test_elasticity_profile_positive_and_growing(self, results):
        prof = results.elasticity_profile(
            "stage1_s", "lps", accuracy=0.99, embedding_mode="online"
        )
        assert prof.shape == (100,)
        assert prof[-1] > prof[0] > 0  # polynomial order climbs toward the n^5 regime

    def test_offline_mode_kills_the_lps_dependence(self, results):
        on = results.scaling_exponent("total_s", "lps", accuracy=0.99, embedding_mode="online")
        off = results.scaling_exponent("total_s", "lps", accuracy=0.99, embedding_mode="offline")
        assert off < 0.1 < on
