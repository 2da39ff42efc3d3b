"""Topology independence: 0/1/N workers, faults and all, same bytes.

The acceptance contract of the distributed subsystem — a study artifact
is a pure function of (spec, shard grid), so coordinator/worker runs of
any fleet size, through any injected fault (worker death, transport
failures, evaluation errors) must reproduce the local inline
``run_study`` byte for byte.  Dispatch has one rule (largest modeled
shard first), so no strategy varies with the topology.
"""

import sys
import threading
import time
from types import SimpleNamespace

import pytest

pytestmark = [pytest.mark.distributed, pytest.mark.faults]

from repro.distributed import ShardCoordinator, ShardWorker, WorkerStats
from repro.exceptions import DistributedError, PushRejected
from repro.faults import (
    SITE_SHARD_EVAL,
    SITE_WORKER_DEATH,
    SITE_WORKER_PULL,
    SITE_WORKER_PUSH,
    FaultPlan,
    FaultRule,
)
from repro.studies import ScenarioSpec, executor, run_study, shard_ranges, study_key
from repro.studies.executor import RetryPolicy

from _fleet import run_with_workers, tally_workers


SPEC = ScenarioSpec(
    name="topology",
    axes={
        "lps": list(range(1, 10)),
        "accuracy": [0.9, 0.99],
        "backend": ["closed_form", "des"],
    },
    mc_trials=4,
    seed=13,
)
SHARD_SIZE = 5  # 36 points -> 8 shards

#: No backoff sleeps in-process: retries should be instant in tests.
FAST = RetryPolicy(max_attempts=4, base_delay_s=0.0)

NO_FAULTS = FaultPlan([])


@pytest.fixture(scope="module")
def reference_bytes():
    return run_study(SPEC, shard_size=SHARD_SIZE).artifact_bytes()


class PauseCappedClock:
    """Real elapsed time, but no reading runs more than ``max_step_s``
    past the one before it.  ``wait`` reads the clock every 0.05 s, so a
    host pause of the whole test process (descheduling, a GC sweep) moves
    this clock by at most one step: lease expiry stays fast, while the
    stall rule only fires after a second the workers could have used."""

    def __init__(self, max_step_s=0.1):
        self.max_step_s = max_step_s
        self._lock = threading.Lock()
        self._last = time.monotonic()
        self._now = 0.0

    def __call__(self):
        with self._lock:
            real = time.monotonic()
            self._now += min(real - self._last, self.max_step_s)
            self._last = real
            return self._now


def run_distributed(num_workers, worker_plans=None, spec=SPEC, progress=None):
    """One coordinated run with ``num_workers`` in-process worker threads.

    ``wait`` applies the stall rule (inline drain after 1 s without a
    lease, a landing or a new worker), which the attribution assertions
    must not see; the coordinator runs on a :class:`PauseCappedClock` so
    a host pause cannot trip it."""
    coord = ShardCoordinator(lease_ttl_s=0.2, clock=PauseCappedClock())
    sid = coord.register_study(spec, shard_size=SHARD_SIZE, progress=progress)
    if num_workers == 0:
        coord.drain_inline(sid, faults=NO_FAULTS)
        return coord.wait(sid).artifact_bytes(), coord, []
    workers = [
        ShardWorker(
            coord,
            worker_id=f"w{i}",
            faults=(worker_plans or {}).get(i, NO_FAULTS),
            retry=FAST,
            poll_s=0.005,
        )
        for i in range(num_workers)
    ]
    results = run_with_workers(coord, sid, workers)
    return results.artifact_bytes(), coord, workers


class TestTopologyByteIdentity:
    @pytest.mark.parametrize("num_workers", [0, 1, 3])
    def test_worker_count_is_invisible_in_the_bytes(
        self, num_workers, reference_bytes
    ):
        artifact, _, _ = run_distributed(num_workers)
        assert artifact == reference_bytes

    def test_scheduler_axis_changes_bytes_but_not_topology(self):
        # The axis is real data: a different modeled strategy, different
        # sched columns.  Dispatch ignores it, and the artifact stays
        # topology-free.
        spec = ScenarioSpec(
            name="axis",
            axes={**{k: list(v) for k, v in SPEC.axes.items()},
                  "scheduler": ["work-stealing"]},
            mc_trials=4,
            seed=13,
        )
        local = run_study(spec, shard_size=SHARD_SIZE).artifact_bytes()
        assert local != run_study(SPEC, shard_size=SHARD_SIZE).artifact_bytes()
        artifact, _, _ = run_distributed(2, spec=spec)
        assert artifact == local

    def test_worker_attribution_covers_every_computed_shard(self):
        attribution = {}
        _, coord, workers = run_distributed(3, progress=tally_workers(attribution))
        assert sum(attribution.values()) == 8
        assert set(attribution) <= {"w0", "w1", "w2"}
        assert sum(w.stats.shards_completed for w in workers) == 8


    def test_inline_drain_racing_workers_lands_each_shard_once(self, reference_bytes):
        # drain_inline and the worker threads share one ShardRun.  With more
        # threads than cores and a tiny switch interval, every shard must
        # still land exactly once, and the bytes must not move.
        coord = ShardCoordinator(lease_ttl_s=30.0)
        attribution = {}
        sid = coord.register_study(
            SPEC, shard_size=SHARD_SIZE, progress=tally_workers(attribution)
        )
        stop = threading.Event()
        workers = [
            ShardWorker(
                coord, worker_id=f"w{i}", faults=NO_FAULTS, retry=FAST, poll_s=0.001
            )
            for i in range(4)
        ]
        threads = [
            threading.Thread(target=w.run, kwargs={"stop": stop}) for w in workers
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            coord.drain_inline(sid, faults=NO_FAULTS)
            results = coord.wait(sid, timeout=60.0)
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=60.0)
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results.artifact_bytes() == reference_bytes
        health = coord.health()
        assert health["inline_shards"] + sum(attribution.values()) == 8
        assert health["duplicate_pushes"] == 0


class TestFaultedTopologies:
    def test_worker_death_requeues_and_converges(self, reference_bytes):
        # w0 dies on its first shard; its lease expires and a survivor
        # (or w0's replacement pulls — here the surviving threads) land it.
        plans = {0: FaultPlan([FaultRule(site=SITE_WORKER_DEATH, times=1)])}
        artifact, coord, workers = run_distributed(3, worker_plans=plans)
        assert artifact == reference_bytes
        assert workers[0].stats.died
        assert coord.stats.requeues >= 1

    def test_transport_faults_are_absorbed_by_backoff(self, reference_bytes):
        plans = {
            0: FaultPlan(
                [
                    FaultRule(site=SITE_WORKER_PULL, times=2),
                    FaultRule(site=SITE_WORKER_PUSH, keys=(0, 3), times=1),
                ]
            )
        }
        artifact, _, workers = run_distributed(2, worker_plans=plans)
        assert artifact == reference_bytes
        assert workers[0].stats.pull_faults >= 2
        assert workers[0].stats.push_faults >= 1

    def test_eval_failure_reports_and_requeues(self, reference_bytes):
        plans = {
            0: FaultPlan([FaultRule(site=SITE_SHARD_EVAL, keys=(2,), times=1)]),
            1: FaultPlan([FaultRule(site=SITE_SHARD_EVAL, keys=(2,), times=1)]),
        }
        artifact, coord, workers = run_distributed(2, worker_plans=plans)
        assert artifact == reference_bytes
        # Attempt numbers are coordinator-owned: after the first failure
        # requeues shard 2 at attempt 1, a times=1 rule must NOT re-fire,
        # whichever worker pulls it next.
        assert coord.stats.worker_failures == 1
        assert sum(w.stats.eval_failures for w in workers) == 1

    def test_faulted_run_matches_fault_free_run(self, reference_bytes):
        # The distributed entry in the faults determinism suite: a pile of
        # faults across every new site, still the same bytes.  The keyed
        # death and eval rules sit in every worker's plan: they fire only
        # on a shard's first (coordinator-owned) attempt, so each fires
        # exactly once whichever worker leases the shard.
        keyed = [
            FaultRule(site=SITE_WORKER_DEATH, keys=(1, 5), times=1),
            FaultRule(site=SITE_SHARD_EVAL, keys=(6,), times=1),
        ]
        plans = {
            0: FaultPlan([FaultRule(site=SITE_WORKER_PULL, times=1), *keyed]),
            1: FaultPlan(
                [FaultRule(site=SITE_WORKER_PUSH, keys=(4,), times=2), *keyed]
            ),
            2: FaultPlan(keyed),
        }
        artifact, coord, _ = run_distributed(3, worker_plans=plans)
        assert artifact == reference_bytes
        health = coord.health()
        assert health["requeues"] >= 3          # two deaths and a failure cost time...
        assert health["worker_failures"] == 1
        assert health["studies_active"] == 0    # ...but never completion

    def test_probabilistic_seeded_plan_is_deterministic(self):
        # Same seeded plan, same bytes, run after run — the distributed
        # case of the faults-suite determinism property.
        plan = {
            "seed": 77,
            "rules": [
                {"site": SITE_WORKER_PULL, "probability": 0.3},
                {"site": SITE_WORKER_PUSH, "probability": 0.3},
            ],
        }
        runs = []
        for _ in range(2):
            plans = {i: FaultPlan.from_dict(plan) for i in range(2)}
            artifact, _, _ = run_distributed(2, worker_plans=plans)
            runs.append(artifact)
        assert runs[0] == runs[1]
        assert runs[0] == run_study(SPEC, shard_size=SHARD_SIZE).artifact_bytes()


class TestWorkerLoop:
    def test_max_shards_bounds_the_loop(self):
        coord = ShardCoordinator()
        coord.register_study(SPEC, shard_size=SHARD_SIZE)
        worker = ShardWorker(coord, worker_id="w0", faults=NO_FAULTS, poll_s=0.0)
        stats = worker.run(max_shards=3)
        assert isinstance(stats, WorkerStats)
        assert stats.shards_completed == 3

    def test_max_idle_ends_an_idle_worker(self):
        coord = ShardCoordinator()  # nothing registered
        worker = ShardWorker(
            coord, worker_id="w0", faults=NO_FAULTS, poll_s=0.001, max_idle_s=0.01
        )
        stats = worker.run()
        assert stats.shards_completed == 0
        assert stats.empty_pulls >= 1

    def test_dead_transport_exhausts_the_retry_budget(self):
        class DeadTransport:
            def lease(self, worker_id):
                raise DistributedError("connection refused")

        worker = ShardWorker(
            DeadTransport(), worker_id="w0", faults=NO_FAULTS, retry=FAST
        )
        with pytest.raises(DistributedError, match="after 4 attempts"):
            worker.run()
        assert worker.stats.pull_faults == FAST.max_attempts

    def test_rejected_push_is_raised_after_one_push(self):
        coord = ShardCoordinator()
        coord.register_study(SPEC, shard_size=SHARD_SIZE)

        class WrongDigest:
            """Pushes the right bytes under a digest they never hash to."""

            pushes = 0

            def lease(self, worker_id):
                return coord.lease(worker_id)

            def push(self, study_id, shard_index, data, digest, **kwargs):
                self.pushes += 1
                return coord.push(study_id, shard_index, data, "0" * 64, **kwargs)

        transport = WrongDigest()
        worker = ShardWorker(
            transport, worker_id="w0", faults=NO_FAULTS,
            retry=RetryPolicy(base_delay_s=0.0),
        )
        with pytest.raises(PushRejected):
            worker.run()
        assert transport.pushes == 1
        assert worker.stats.push_faults == 0
        assert coord.stats.rejected_pushes == 1

    def test_worker_decodes_each_study_once(self, monkeypatch):
        decoded = []
        decode = executor.ScenarioSpec.from_dict
        monkeypatch.setattr(executor, "ScenarioSpec", SimpleNamespace(
            from_dict=lambda payload: decoded.append(payload) or decode(payload)
        ))
        coord = ShardCoordinator()
        worker = ShardWorker(coord, worker_id="w0", faults=NO_FAULTS, poll_s=0.0)
        other = ScenarioSpec(name="other", axes={"lps": list(range(1, 12))})
        # Two studies under one id, one after the other: the worker must
        # notice the new spec although the id repeats.
        for spec in (SPEC, other):
            coord.register_study(spec, shard_size=SHARD_SIZE, study_id="same")
            decoded.clear()  # count the worker's decodes only
            shards = len(shard_ranges(spec.num_points, SHARD_SIZE))
            assert worker.run(max_shards=shards).died is False
            assert len(decoded) == 1
            expected = run_study(spec, shard_size=SHARD_SIZE).artifact_bytes()
            assert coord.wait("same").artifact_bytes() == expected

    def test_push_for_a_handed_back_study_is_dropped(self):
        # A rival lands the worker's shard first and the study is handed
        # back: the worker's own push is a late duplicate the coordinator
        # refuses.  The worker drops it and completes its next lease.
        coord = ShardCoordinator()
        late = ScenarioSpec(name="late", axes={"lps": [1, 2, 3]})  # one shard
        after = ScenarioSpec(name="after", axes={"lps": [4, 5, 6]})
        first = coord.register_study(late, shard_size=SHARD_SIZE)

        class RivalLandsFirst:
            def lease(self, worker_id):
                return coord.lease(worker_id)

            def push(self, study_id, shard_index, data, digest, **kwargs):
                if study_id == first and first in coord._studies:
                    coord.push(study_id, shard_index, data, digest, worker_id="rival")
                    coord.wait(first)
                    coord.register_study(after, shard_size=SHARD_SIZE)
                return coord.push(study_id, shard_index, data, digest, **kwargs)

        worker = ShardWorker(RivalLandsFirst(), worker_id="w0", faults=NO_FAULTS, poll_s=0.0)
        stats = worker.run(max_shards=2)
        assert stats.dropped_shards == 1
        assert stats.shards_completed == 1
        assert first not in coord._studies
        expected = run_study(after, shard_size=SHARD_SIZE).artifact_bytes()
        assert coord.wait(study_key(after, SHARD_SIZE)).artifact_bytes() == expected
