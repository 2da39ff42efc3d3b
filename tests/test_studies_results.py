"""Results-table tests: artifact round trip, slicing, core-powered analysis."""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from test_cli_golden import GOLDEN_CASES, _run_case

from repro.core import Stage1Model
from repro.exceptions import ValidationError
from repro.studies import ScenarioSpec, StudyResults, run_study
from repro._json import canonical_dumps, canonical_line
from repro.studies import results as results_module
from repro.studies.cache import ColumnsEntry
from repro.studies.results import RESULT_COLUMNS, empty_table, encode_columns


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


# --------------------------------------------------------------------- #
# The production encoder against the reference, byte for byte
# --------------------------------------------------------------------- #
DATA_DIR = Path(__file__).parent / "data"

#: One value per row, repeated over enough rows that every numeric column
#: takes the deduplicating path.  The floats hold the values a float-level
#: dedup mangles (-0.0 beside 0.0; NaNs with other payloads and signs).
_SPECIAL_FLOATS = np.array(
    [
        np.nan, -0.0, 0.0, np.inf, -np.inf, 5e-324, -5e-324, 1e-310,
        2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1e16, 1e-05,
    ]
    + [np.uint64(bits).view(np.float64) for bits in (0x7FF8000000000001, 0xFFF8000000000000)]
)
_SPECIAL_INTS = np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max, 0, -1, 1])
_SPECIAL_STRINGS = np.array(["", "stage1", 'quote"comma,', "caf\u00e9", "\u2603 snow"])


def _synthetic_results() -> StudyResults:
    spec = ScenarioSpec(axes={"lps": list(range(1, 513))}, name="synthetic")
    table = empty_table(spec.num_points)
    rows = np.arange(spec.num_points)
    for offset, (name, code) in enumerate(RESULT_COLUMNS):
        pool = {"f8": _SPECIAL_FLOATS, "i8": _SPECIAL_INTS}.get(code, _SPECIAL_STRINGS)
        table[name] = pool[(rows + offset) % len(pool)]
    return StudyResults(spec=spec, table=table)


class TestEncoderOracle:
    def test_synthetic_specials_match_the_reference(self):
        results = _synthetic_results()
        assert results.artifact_bytes() == results.to_json().encode("utf-8")
        assert encode_columns(results.table) == canonical_dumps(
            results.to_dict()["columns"]
        ).encode("utf-8")

    def test_synthetic_floats_are_ones_a_value_dedup_merges(self):
        # What makes the oracle above discriminating: deduplicating these
        # floats by value (np.unique on the floats themselves) would merge
        # -0.0 into 0.0 and so write one of them wrong.
        values = _synthetic_results().table["stage1_s"]
        by_value = np.unique(values)
        by_bits = np.unique(values.view(np.uint64))
        assert len(by_value) < len(by_bits)
        assert json.dumps(by_value[by_value == 0.0].tolist()) in ("[0.0]", "[-0.0]")

    def test_study_columns_match_the_reference(self, results):
        # 400 rows: numeric columns deduplicate, stage columns are mostly
        # distinct and dumped whole.
        table = results.table.copy()
        table["total_s"][::7] = np.nan
        table["stage1_s"][3] = -0.0
        mixed = StudyResults(spec=results.spec, table=table)
        assert mixed.artifact_bytes() == mixed.to_json().encode("utf-8")

    def test_service_transcript_artifact_is_reproduced(self, tmp_path, monkeypatch):
        transcript = (DATA_DIR / "service_http.txt").read_text()
        block = transcript.split("### GET /studies/<JOB-ID>/artifact\n", 1)[1]
        body = block.split("\n\n", 1)[0].splitlines()[-1]
        _assert_every_path_reproduces((body + "\n").encode("utf-8"), tmp_path, monkeypatch)

    @pytest.mark.parametrize(
        "fixture", sorted(f for f in GOLDEN_CASES if f.startswith("cli_study"))
    )
    def test_cli_study_golden_artifacts_are_reproduced(self, fixture, tmp_path, monkeypatch):
        out = tmp_path / "artifact.json"
        assert _run_case(GOLDEN_CASES[fixture], out) == (DATA_DIR / fixture).read_text()
        _assert_every_path_reproduces(out.read_bytes(), tmp_path, monkeypatch)


def _assert_every_path_reproduces(artifact: bytes, tmp_path, monkeypatch) -> None:
    """``artifact`` from the reference encoder, from ``artifact_bytes()``,
    from the deduplicating encoder at any column length, and from a
    columns entry both when it misses and when it is spliced."""
    results = StudyResults.from_dict(json.loads(artifact))
    assert results.to_json().encode("utf-8") == artifact
    assert results.artifact_bytes() == artifact
    monkeypatch.setattr(results_module, "_DEDUP_MIN_ROWS", 1)
    entry = ColumnsEntry(tmp_path / "entry.columns")
    cached = dataclasses.replace(results, columns_entry=entry)
    assert cached.artifact_bytes() == artifact  # encodes and stores
    assert entry.load() == encode_columns(results.table)
    assert cached.artifact_bytes() == artifact  # splices


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
