"""The perf-regression harness must keep working (and its schema honest).

The fast tests here exercise the ``--check`` smoke mode on tiny workloads
and the schema validator; the full timing run (which writes nothing from
here) is marked ``perf`` and deselected by default — run it with
``pytest -m perf`` or directly via ``python -m benchmarks.perf_harness``.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from benchmarks import perf_harness  # noqa: E402


class TestCheckMode:
    def test_check_report_validates(self):
        report = perf_harness.run(check=True)
        perf_harness.validate_report(report)
        assert report["mode"] == "check"
        assert set(report["kernels"]) == set(perf_harness.KERNELS)

    def test_main_check_exits_zero_and_writes_nothing(self, tmp_path, capsys):
        marker = tmp_path / "perf.json"
        assert perf_harness.main(["--check", "--output", str(marker)]) == 0
        assert not marker.exists()
        assert "schema OK" in capsys.readouterr().out


class TestSchemaValidation:
    def _valid(self) -> dict:
        return perf_harness.run(check=True)

    def test_missing_top_level_key_rejected(self):
        report = self._valid()
        del report["kernels"]
        with pytest.raises(ValueError, match="kernels"):
            perf_harness.validate_report(report)

    def test_wrong_schema_version_rejected(self):
        report = self._valid()
        report["schema_version"] = 999
        with pytest.raises(ValueError, match="schema_version"):
            perf_harness.validate_report(report)

    def test_too_few_kernels_rejected(self):
        report = self._valid()
        report["kernels"] = {"only_one": report["kernels"]["sa_sample"]}
        with pytest.raises(ValueError, match=">= 5"):
            perf_harness.validate_report(report)

    def test_nonpositive_timing_rejected(self):
        report = self._valid()
        report["kernels"]["sa_sample"]["seconds"] = 0.0
        with pytest.raises(ValueError, match="positive"):
            perf_harness.validate_report(report)

    def test_missing_kernel_field_rejected(self):
        report = self._valid()
        del report["kernels"]["sweep"]["workload"]
        with pytest.raises(ValueError, match="workload"):
            perf_harness.validate_report(report)


class TestCommittedArtifact:
    def test_bench_perf_json_exists_and_validates(self):
        """The repo-root BENCH_PERF.json must stay in sync with the schema."""
        path = REPO_ROOT / "BENCH_PERF.json"
        assert path.exists(), "BENCH_PERF.json missing; run python -m benchmarks.perf_harness"
        report = json.loads(path.read_text())
        perf_harness.validate_report(report)
        assert report["mode"] == "full"

    @pytest.mark.perf
    def test_committed_sa_speedup_meets_target(self):
        """The SA kernel's recorded speedup over the seed implementation.

        Behind the perf marker because the artifact is refreshed from
        whatever machine ran the harness last — wall-clock thresholds do
        not belong in the default suite.
        """
        report = json.loads((REPO_ROOT / "BENCH_PERF.json").read_text())
        entry = report["kernels"]["sa_sample"]
        assert entry["seed_seconds"] is not None
        assert entry["speedup_vs_seed"] >= 3.0

    @pytest.mark.perf
    def test_committed_contended_study_meets_floor(self):
        """The contended-study kernel against its landing-time baseline.

        The baseline is this workload measured when the contention
        subsystem landed, so the ratio starts at ~1.0; the floor catches a
        DES-engine or contention-path regression while tolerating
        machine-to-machine timing noise.
        """
        report = json.loads((REPO_ROOT / "BENCH_PERF.json").read_text())
        entry = report["kernels"]["study_contended"]
        assert entry["seed_seconds"] is not None
        assert entry["speedup_vs_seed"] >= 0.7


    @pytest.mark.perf
    def test_committed_faulted_study_meets_floor(self):
        """The faulted-study kernel prices per-shard fixed cost: 40 shards
        over one study plan, against its per-shard-decode baseline."""
        report = json.loads((REPO_ROOT / "BENCH_PERF.json").read_text())
        entry = report["kernels"]["study_faulted"]
        assert entry["seed_seconds"] is not None
        assert entry["speedup_vs_seed"] >= 1.2

    @pytest.mark.perf
    @pytest.mark.parametrize(
        ("kernel", "floor"), [("service_roundtrip", 2.0), ("artifact_encode", 1.2)]
    )
    def test_committed_service_kernels_meet_floor(self, kernel, floor):
        """The completion long-poll and the column-wise encoder against the
        polling client and the row-wise encoder they replaced."""
        report = json.loads((REPO_ROOT / "BENCH_PERF.json").read_text())
        entry = report["kernels"][kernel]
        assert entry["seed_seconds"] is not None
        assert entry["speedup_vs_seed"] >= floor


@pytest.mark.perf
def test_columns_entry_splice_beats_the_reference_encoder(tmp_path):
    """A cache-served study's ``artifact_bytes()`` splices its grid's
    columns entry; the floor is >= 5x over the reference encoder
    (``canonical_line(to_dict())``).  Both are timed in this process,
    interleaved pair by pair, on a study the size of perfbench's grid_warm
    (6,100 points, shard size 250), so the ratio needs no recorded
    baseline and a host that slows down slows both sides of each pair.
    """
    from repro._json import canonical_line
    from repro.studies import ScenarioSpec, StudyCache, run_study

    spec = ScenarioSpec(
        axes={
            "backend": ["closed_form"],
            "embedding_mode": ["online", "offline"],
            "accuracy": [0.9, 0.99],
            "lps": list(range(1, 1526)),
        },
        name="splice-floor",
        seed=7,
    )
    cache = StudyCache(tmp_path / "cache")
    run_study(spec, shard_size=250, cache=cache)  # computes and stores the shards
    results = run_study(spec, shard_size=250, cache=cache)  # served: carries the entry
    reference = canonical_line(results.to_dict()).encode("utf-8")
    assert results.artifact_bytes() == reference  # encodes and stores the entry
    ratios = []
    for _ in range(9):
        started = time.perf_counter()
        spliced = results.artifact_bytes()
        middle = time.perf_counter()
        canonical_line(results.to_dict()).encode("utf-8")
        ended = time.perf_counter()
        assert spliced == reference
        ratios.append((ended - middle) / (middle - started))
    assert statistics.median(ratios) >= 5.0, sorted(ratios)


@pytest.mark.perf
def test_lease_path_costs_at_most_2_5x_the_inline_loop():
    """The ``study_distributed`` workload (one in-process worker,
    ``poll_s=0``: every shard leased, evaluated, hashed, pushed and
    verified) against an inline ``run_study`` of the same spec, timed
    interleaved pair by pair in this process.  The floor is a median
    ratio of at most 2.5x; both runs must give the same artifact.
    """
    from repro.studies import ScenarioSpec, run_study

    spec = ScenarioSpec(
        axes={
            "lps": list(range(1, 2501)),
            "accuracy": [0.9, 0.99],
            "embedding_mode": ["online", "offline"],
        },
        name="perf-dist",
    )
    shard_size = 250
    ratios = []
    for _ in range(11):
        started = time.perf_counter()
        leased = perf_harness.distributed_study(spec, shard_size)
        middle = time.perf_counter()
        inline = run_study(spec, shard_size=shard_size)
        ended = time.perf_counter()
        assert leased.artifact_bytes() == inline.artifact_bytes()
        ratios.append((middle - started) / (ended - middle))
    assert statistics.median(ratios) <= 2.5, sorted(ratios)


@pytest.mark.perf
class TestFullRun:
    def test_full_run_validates_and_reports_speedups(self, tmp_path):
        out = tmp_path / "perf.json"
        assert perf_harness.main(["--repeats", "3", "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        perf_harness.validate_report(report)
        assert report["mode"] == "full"
        assert report["kernels"]["sa_sample"]["speedup_vs_seed"] > 1.0
