"""Executor tests: the sharded-determinism contract and the fast path.

The determinism audit required by the study subsystem: one spec, executed
with 1, 2, and 4 workers, with re-ordered shards, and with the vectorized
fast path or the scalar reference loop, must produce *byte-identical*
results artifacts.  See ``repro/_rng.py`` (spawn-stream seeding rule) and
the ``repro.studies.executor`` module docstring for the contract.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import SplitExecutionModel
from repro.exceptions import ValidationError
from repro.studies import ScenarioSpec, run_study, shard_ranges
from repro.studies import executor


@pytest.fixture(scope="module")
def audit_spec() -> ScenarioSpec:
    """Small but multi-block grid: 2 modes x 2 accuracies x 30 sizes = 120 points."""
    return ScenarioSpec(
        axes={
            "lps": list(range(1, 31)),
            "accuracy": [0.9, 0.99],
            "embedding_mode": ["online", "offline"],
        },
        name="audit",
        mc_trials=32,
        seed=11,
    )


@pytest.fixture(scope="module")
def reference_bytes(audit_spec) -> str:
    return run_study(audit_spec, workers=1, shard_size=16).to_json()


class TestShardGrid:
    def test_ranges_cover_points_exactly_once(self):
        ranges = shard_ranges(100, 32)
        assert ranges == [(0, 32), (32, 64), (64, 96), (96, 100)]

    def test_bad_shard_size_rejected(self):
        with pytest.raises(ValidationError, match="shard_size"):
            shard_ranges(10, 0)

    def test_bad_worker_count_rejected(self, audit_spec):
        with pytest.raises(ValidationError, match="workers"):
            run_study(audit_spec, workers=0)

    def test_bad_shard_order_rejected(self, audit_spec):
        with pytest.raises(ValidationError, match="permutation"):
            run_study(audit_spec, shard_size=16, shard_order=[0, 0, 1])


class TestDeterminismAudit:
    """Same spec, any execution strategy -> byte-identical artifacts."""

    @pytest.mark.parametrize("workers", [2, 4])
    def test_worker_counts_bit_identical(self, audit_spec, reference_bytes, workers):
        assert run_study(audit_spec, workers=workers, shard_size=16).to_json() == reference_bytes

    def test_reordered_shards_bit_identical(self, audit_spec, reference_bytes):
        num_shards = len(shard_ranges(audit_spec.num_points, 16))
        order = list(reversed(range(num_shards)))
        assert (
            run_study(audit_spec, workers=1, shard_size=16, shard_order=order).to_json()
            == reference_bytes
        )
        rng = np.random.default_rng(3)
        order = list(rng.permutation(num_shards))
        assert (
            run_study(audit_spec, workers=2, shard_size=16, shard_order=order).to_json()
            == reference_bytes
        )

    def test_scalar_loop_bit_identical(self, audit_spec, reference_bytes):
        assert (
            run_study(audit_spec, workers=1, shard_size=16, vectorize=False).to_json()
            == reference_bytes
        )

    def test_shard_size_changes_only_mc_columns(self, audit_spec, reference_bytes):
        """The shard grid partitions the MC streams; model columns never move.

        The ``sched_*`` columns are, like ``mc_accuracy``, functions of the
        shard grid by definition (they simulate dispatch *over* it), so they
        are the only other columns allowed to move with shard_size.
        """
        r16 = run_study(audit_spec, workers=1, shard_size=16)
        r7 = run_study(audit_spec, workers=1, shard_size=7)
        for name in r16.table.dtype.names:
            if name in ("mc_accuracy", "sched_latency_s", "sched_steals"):
                continue
            a, b = r16.column(name), r7.column(name)
            equal = (
                np.array_equal(a, b, equal_nan=True)
                if a.dtype.kind == "f"
                else np.array_equal(a, b)
            )
            assert equal, name

    def test_seed_changes_only_mc_columns(self, audit_spec):
        respun = ScenarioSpec(
            axes=dict(audit_spec.axes), name=audit_spec.name,
            mc_trials=audit_spec.mc_trials, seed=audit_spec.seed + 1,
        )
        r1 = run_study(audit_spec, shard_size=16)
        r2 = run_study(respun, shard_size=16)
        assert not np.array_equal(r1.column("mc_accuracy"), r2.column("mc_accuracy"))
        assert np.array_equal(r1.column("total_s"), r2.column("total_s"))


class TestAgainstScalarModel:
    """Every table row equals a direct SplitExecutionModel evaluation."""

    def test_rows_match_time_to_solution(self, audit_spec):
        results = run_study(audit_spec, shard_size=16)
        for index in [0, 7, 29, 30, 60, 119]:
            point = audit_spec.point(index)
            model = SplitExecutionModel(embedding_mode=point["embedding_mode"])
            t = model.time_to_solution(point["lps"], point["accuracy"], point["success"])
            row = results.table[index]
            assert row["lps"] == point["lps"]
            assert row["stage1_s"] == t.stage1_seconds
            assert row["stage2_s"] == t.stage2_seconds
            assert row["stage3_s"] == t.stage3_seconds
            assert row["total_s"] == t.total_seconds
            assert row["quantum_fraction"] == t.quantum_fraction
            assert row["dominant_stage"] == t.dominant_stage
            assert row["repetitions"] == t.stage2.repetitions

    def test_machine_override_axes_reach_the_model(self):
        spec = ScenarioSpec(axes={"lps": [40], "clock_hz": [2.7e9, 5.4e9]})
        results = run_study(spec)
        base = SplitExecutionModel()
        fast = base.with_overrides(clock_hz=5.4e9)
        assert results.table[0]["total_s"] == base.time_to_solution(40, 0.99, 0.7).total_seconds
        assert results.table[1]["total_s"] == fast.time_to_solution(40, 0.99, 0.7).total_seconds
        assert results.table[1]["total_s"] < results.table[0]["total_s"]

    def test_anneal_axis_reaches_stage2(self):
        spec = ScenarioSpec(axes={"lps": [10], "anneal_us": [20.0, 200.0]})
        results = run_study(spec)
        assert results.table[1]["stage2_s"] > results.table[0]["stage2_s"]
        assert results.table[1]["stage1_s"] == results.table[0]["stage1_s"]


class TestMonteCarloColumn:
    def test_disabled_by_default(self):
        results = run_study(ScenarioSpec(axes={"lps": [1, 2]}))
        assert np.all(np.isnan(results.column("mc_accuracy")))

    def test_estimates_track_the_analytic_accuracy(self):
        spec = ScenarioSpec(
            axes={"lps": [10], "accuracy": [0.5, 0.99]}, mc_trials=4000, seed=0
        )
        from repro.core import achieved_accuracy, required_repetitions

        results = run_study(spec)
        mc = results.column("mc_accuracy")
        # Eq.-6 rounds repetitions up, so the estimate tracks the *achieved*
        # accuracy (>= the target); 4000 trials puts it within a few percent.
        for row, target in zip(mc, (0.5, 0.99)):
            analytic = achieved_accuracy(required_repetitions(target, 0.7), 0.7)
            assert analytic >= target
            assert row == pytest.approx(analytic, abs=0.03)

    def test_shard_stream_rule_is_spawn_stream(self, audit_spec):
        """Shard k's draws come from spawn_stream(seed, k) — re-derivable."""
        from repro._rng import spawn_stream
        from repro.core import achieved_accuracy

        results = run_study(audit_spec, shard_size=16)
        # Shard 1 covers points [16, 32): tail of the first config block
        # (accuracy=0.9, 14 points) then the head of the second (2 points).
        rng = spawn_stream(audit_spec.seed, 1)
        reps_a = int(results.table[16]["repetitions"])
        expected_a = rng.binomial(32, achieved_accuracy(reps_a, 0.7), size=14) / 32.0
        reps_b = int(results.table[30]["repetitions"])
        expected_b = rng.binomial(32, achieved_accuracy(reps_b, 0.7), size=2) / 32.0
        assert np.array_equal(results.column("mc_accuracy")[16:30], expected_a)
        assert np.array_equal(results.column("mc_accuracy")[30:32], expected_b)


class TestShardFunction:
    def test_run_shard_slice_matches_full_run(self):
        """Row-keyed columns ignore the shard grid.

        With MC off, every column except the two ``sched_*`` columns (which
        simulate dispatch over the shard grid) is byte-equal across shard
        sizes whose boundaries fall in different places — including the
        DES rows' contention columns, keyed per row.
        """
        spec = ScenarioSpec(
            axes={"lps": list(range(1, 11)), "backend": ["closed_form", "des"]},
            name="rows",
        )
        a = run_study(spec, shard_size=16).table
        b = run_study(spec, shard_size=15).table
        for name in a.dtype.names:
            if not name.startswith("sched_"):
                # Bytes: NaN fills have one bit pattern on both sides.
                assert a[name].tobytes() == b[name].tobytes(), name


class TestStudyPlan:
    def test_run_study_decodes_and_simulates_once(self, audit_spec, monkeypatch):
        spec = ScenarioSpec(
            axes={**audit_spec.axes, "scheduler": ["static", "size-aware"]},
            name="plan",
        )
        reference = run_study(spec, shard_size=16).artifact_bytes()
        decoded, simulated = [], []
        decode, schedule = executor.ScenarioSpec.from_dict, executor.shard_schedule
        monkeypatch.setattr(executor, "ScenarioSpec", SimpleNamespace(
            from_dict=lambda payload: decoded.append(payload) or decode(payload)
        ))
        monkeypatch.setattr(
            executor, "shard_schedule",
            lambda s, size, name: simulated.append(name) or schedule(s, size, name),
        )
        results = run_study(spec, shard_size=16)  # 240 points, 15 shards
        assert len(decoded) == 1
        assert sorted(simulated) == ["size-aware", "static"]
        assert results.artifact_bytes() == reference

    def test_plan_holds_the_shard_grid(self, audit_spec):
        plan = executor.StudyPlan.decode(audit_spec.to_dict(), 50)
        assert plan.spec == audit_spec
        assert plan.payload == audit_spec.to_dict()
        assert plan.ranges == tuple(shard_ranges(audit_spec.num_points, 50))
        assert set(plan.traces) == {"static"}
