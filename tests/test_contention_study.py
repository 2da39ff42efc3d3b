"""End-to-end tests for contended studies: axes, schema v4, byte identity.

The PR's acceptance criterion: a contended study sweeping
``arrival_rate x sessions x queue_policy`` over the DES backend produces
byte-identical artifacts across worker counts, shard orders, the
scalar/vectorized paths, the distributed coordinator/worker topology,
and cold-vs-cache-served runs — while the contention columns stay NaN
for rows evaluated by backends without the contention axes.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.studies import (
    ScenarioSpec,
    StudyCache,
    StudyResults,
    contention_summary,
    run_study,
    shard_ranges,
)
from repro.studies.results import ARTIFACT_SCHEMA_VERSION

from _fleet import fleet_results

CONTENTION_COLUMNS = (
    "latency_p50_s",
    "latency_p95_s",
    "latency_p99_s",
    "queue_wait_s",
    "utilization",
)

SPEC = ScenarioSpec(
    name="contended",
    axes={
        "backend": ["des"],
        "queue_policy": ["fifo", "priority", "round-robin"],
        "sessions": [4],
        "arrival_rate": [2.0],
        "lps": [10, 30],
    },
    mc_trials=8,
    seed=21,
)
SHARD_SIZE = 3  # 6 points -> 2 shards, splitting the queue_policy blocks


@pytest.fixture(scope="module")
def reference(request) -> StudyResults:
    return run_study(SPEC, shard_size=SHARD_SIZE)


@pytest.fixture(scope="module")
def reference_bytes(reference) -> bytes:
    return reference.artifact_bytes()


class TestSpecAxes:
    def test_axis_order_and_points(self):
        assert SPEC.num_points == 6
        point = SPEC.point(0)
        assert point["queue_policy"] == "fifo"
        assert point["sessions"] == 4
        assert point["arrival_rate"] == 2.0

    def test_unknown_queue_policy_rejected(self):
        with pytest.raises(ValidationError, match="queue_policy"):
            ScenarioSpec(axes={"backend": ["des"], "queue_policy": ["lifo"]})

    def test_bad_sessions_rejected(self):
        with pytest.raises(ValidationError, match="sessions"):
            ScenarioSpec(axes={"backend": ["des"], "sessions": [-1]})
        with pytest.raises(ValidationError, match="sessions"):
            ScenarioSpec(axes={"backend": ["des"], "sessions": [2.5]})

    def test_bad_arrival_rate_rejected(self):
        with pytest.raises(ValidationError, match="arrival_rate"):
            ScenarioSpec(axes={"backend": ["des"], "arrival_rate": [-1.0]})

    def test_empty_workload_grid_point_rejected(self):
        with pytest.raises(ValidationError, match="empty workload"):
            ScenarioSpec(
                axes={
                    "backend": ["des"],
                    "sessions": [0, 4],
                    "arrival_rate": [0.0, 2.0],
                }
            )

    @pytest.mark.parametrize("backend", ["closed_form", "aspen"])
    @pytest.mark.parametrize(
        "axis, values",
        [("queue_policy", ["priority"]), ("sessions", [2]), ("arrival_rate", [1.0])],
    )
    def test_contention_axes_gated_to_des(self, backend, axis, values):
        with pytest.raises(ValidationError, match=f"does not support axis '{axis}'"):
            ScenarioSpec(axes={"backend": [backend], axis: values})

    def test_explicit_defaults_accepted_everywhere(self):
        # Spelling out the operating-point defaults is not a scan, so the
        # capability gate lets any backend through.
        spec = ScenarioSpec(
            axes={
                "backend": ["closed_form", "aspen", "des"],
                "queue_policy": ["fifo"],
                "sessions": [1],
                "arrival_rate": [0.0],
                "lps": [5],
            }
        )
        assert spec.num_points == 3


class TestArtifactSchema:
    def test_schema_v4_carries_contention_columns(self, reference):
        payload = json.loads(reference.to_json())
        assert payload["schema_version"] == ARTIFACT_SCHEMA_VERSION == 4
        for column in ("queue_policy", "sessions", "arrival_rate", *CONTENTION_COLUMNS):
            assert column in payload["columns"], column

    def test_roundtrip_preserves_bytes(self, reference, reference_bytes):
        restored = StudyResults.from_dict(json.loads(reference.to_json()))
        assert restored.artifact_bytes() == reference_bytes

    def test_des_rows_carry_finite_metrics(self, reference):
        assert bool(np.all(reference.contention_rows()))
        for column in CONTENTION_COLUMNS:
            values = reference.column(column)
            assert np.all(np.isfinite(values)), column
        assert np.all(reference.column("utilization") <= 1.0)
        assert np.all(reference.column("queue_wait_s") >= 0.0)

    def test_mixed_backend_rows_are_nan_off_des(self):
        spec = ScenarioSpec(
            axes={"backend": ["closed_form", "des"], "lps": [5, 15]},
            name="mixed",
        )
        results = run_study(spec)
        mask = results.contention_rows()
        assert not mask.any()  # uncontended defaults: no simulated traffic
        for column in CONTENTION_COLUMNS:
            assert np.all(np.isnan(results.column(column))), column

    def test_latency_percentiles_are_ordered(self, reference):
        p50 = reference.column("latency_p50_s")
        p95 = reference.column("latency_p95_s")
        p99 = reference.column("latency_p99_s")
        assert np.all(p50 <= p95) and np.all(p95 <= p99)


class TestByteIdentity:
    """The determinism audit, extended to contended studies."""

    def test_rerun(self, reference_bytes):
        run = run_study(SPEC, shard_size=SHARD_SIZE)
        assert run.artifact_bytes() == reference_bytes

    @pytest.mark.parametrize("workers", [2, 3])
    def test_worker_counts(self, reference_bytes, workers):
        run = fleet_results(SPEC, SHARD_SIZE, workers)
        assert run.artifact_bytes() == reference_bytes

    def test_scalar_vs_vectorized(self, reference_bytes):
        run = run_study(SPEC, shard_size=SHARD_SIZE, vectorize=False)
        assert run.artifact_bytes() == reference_bytes

    def test_shard_order_permutation(self, reference_bytes):
        num_shards = len(shard_ranges(SPEC.num_points, SHARD_SIZE))
        order = list(reversed(range(num_shards)))
        run = run_study(SPEC, shard_size=SHARD_SIZE, shard_order=order)
        assert run.artifact_bytes() == reference_bytes

    def test_shard_size_leaves_contention_columns_alone(self, reference):
        """Contention streams key on the *global* row index, not the shard
        grid, so any slice matches the full run."""
        resharded = run_study(SPEC, shard_size=2)
        for column in CONTENTION_COLUMNS:
            assert np.array_equal(
                reference.column(column), resharded.column(column)
            ), column

    def test_cache_cold_vs_warm(self, reference_bytes, tmp_path):
        cache = StudyCache(tmp_path / "cache")
        cold = run_study(SPEC, shard_size=SHARD_SIZE, cache=cache)
        assert cold.artifact_bytes() == reference_bytes
        warm = run_study(SPEC, shard_size=SHARD_SIZE, cache=cache)
        assert warm.artifact_bytes() == reference_bytes
        assert cache.hits == 2

    @pytest.mark.distributed
    @pytest.mark.parametrize("num_workers", [0, 2])
    def test_distributed_topology(self, reference_bytes, num_workers):
        from repro.distributed import ShardCoordinator, ShardWorker
        from repro.studies.executor import RetryPolicy

        coord = ShardCoordinator(lease_ttl_s=5.0)
        sid = coord.register_study(SPEC, shard_size=SHARD_SIZE)
        if num_workers == 0:
            coord.drain_inline(sid)
            assert coord.wait(sid).artifact_bytes() == reference_bytes
            return
        stop = threading.Event()
        workers = [
            ShardWorker(
                coord,
                worker_id=f"w{i}",
                retry=RetryPolicy(max_attempts=4, base_delay_s=0.0),
                poll_s=0.005,
            )
            for i in range(num_workers)
        ]
        threads = [
            threading.Thread(target=w.run, kwargs={"stop": stop}) for w in workers
        ]
        for t in threads:
            t.start()
        try:
            results = coord.wait(sid, timeout=60.0)
        finally:
            stop.set()
            for t in threads:
                t.join()
        assert results.artifact_bytes() == reference_bytes


class TestShardOrderProperty:
    """Arrival-process streams are a function of the global row index only."""

    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_any_shard_order_reproduces_the_reference(self, data):
        spec = ScenarioSpec(
            name="order-prop",
            axes={
                "backend": ["des"],
                "queue_policy": ["fifo", "priority"],
                "sessions": [2],
                "arrival_rate": [3.0],
                "lps": [8, 16],
            },
            seed=3,
        )
        shard_size = data.draw(st.sampled_from([1, 2, 3, 5]), label="shard_size")
        num_shards = len(shard_ranges(spec.num_points, shard_size))
        order = data.draw(st.permutations(range(num_shards)), label="order")
        reference = run_study(spec, shard_size=shard_size)
        shuffled = run_study(
            spec, shard_size=shard_size, shard_order=list(order)
        )
        assert shuffled.artifact_bytes() == reference.artifact_bytes()


class TestContentionReport:
    def test_summary_lists_every_policy(self, reference):
        summary = reference.contention_summary()
        assert list(summary) == ["fifo", "priority", "round-robin"]
        for stats in summary.values():
            assert stats["rows"] == 2.0
            assert stats["utilization"] > 0.0

    def test_report_table_renders(self, reference):
        table = contention_summary(reference)
        assert "contended workload by queue policy" in table
        for policy in ("fifo", "priority", "round-robin"):
            assert policy in table

    def test_uncontended_results_raise(self):
        results = run_study(ScenarioSpec(axes={"lps": [1, 2]}))
        assert results.contention_summary() == {}
        with pytest.raises(ValidationError, match="contention summary"):
            contention_summary(results)

    def test_study_summary_appends_contention_table(self, reference):
        from repro.studies.reportgen import study_summary

        text = study_summary(reference)
        assert "contended workload by queue policy" in text
        plain = run_study(ScenarioSpec(axes={"lps": [1, 2]}))
        assert "contended workload" not in study_summary(plain)


class TestCliFlags:
    def test_contended_study_flags(self, capsys, tmp_path):
        from repro.cli import main

        out = tmp_path / "contended.json"
        code = main(
            [
                "study",
                "--backend", "des",
                "--queue-policy", "fifo,priority",
                "--sessions", "2",
                "--arrival-rate", "2.0",
                "--lps", "5,15",
                "--out", str(out),
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "contended workload by queue policy" in stdout
        payload = json.loads(out.read_text())
        assert payload["schema_version"] == 4
        assert set(payload["columns"]["queue_policy"]) == {"fifo", "priority"}

    def test_bad_flag_values_exit_2(self, capsys):
        from repro.cli import main

        assert main(["study", "--queue-policy", "lifo", "--backend", "des"]) == 2
        assert "queue_policy" in capsys.readouterr().err
        assert main(["study", "--sessions", "two", "--backend", "des"]) == 2
        assert "--sessions" in capsys.readouterr().err
        assert main(["study", "--arrival-rate", "fast", "--backend", "des"]) == 2
        assert "--arrival-rate" in capsys.readouterr().err
