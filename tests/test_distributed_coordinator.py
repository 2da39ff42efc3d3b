"""The shard coordinator: leases, verification, requeue, and the cache."""

import hashlib
import threading
import time

import numpy as np
import pytest

pytestmark = pytest.mark.distributed

from repro.distributed import ShardCoordinator
from repro.exceptions import PushRejected, ShardError, UnknownStudy, ValidationError
from repro.faults import SITE_SHARD_EVAL, FaultPlan, FaultRule
from repro.studies import ScenarioSpec, StudyCache, run_study, study_key
from repro.studies.executor import StudyPlan, _run_shard

from _fleet import tally_workers


SPEC = ScenarioSpec(
    name="coord",
    axes={"lps": list(range(1, 13)), "backend": ["closed_form"]},
)
SHARD_SIZE = 3  # 12 points -> 4 shards


class FakeClock:
    """An advanceable monotonic clock for deterministic lease expiry."""

    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


def make(clock=None, **kwargs):
    return ShardCoordinator(clock=clock or FakeClock(), **kwargs)


def shard_bytes(spec, k, shard_size=SHARD_SIZE):
    data = _run_shard(StudyPlan.decode(spec.to_dict(), shard_size), k, True).tobytes()
    return data, hashlib.sha256(data).hexdigest()


class TestLeasing:
    def test_lease_descriptor_is_self_describing(self):
        coord = make()
        sid = coord.register_study(SPEC, shard_size=SHARD_SIZE)
        lease = coord.lease("w0")
        assert lease["study_id"] == sid
        assert lease["shard_size"] == SHARD_SIZE
        assert lease["attempt"] == 0
        assert 0 <= lease["shard_index"] < 4
        assert "start" not in lease and "stop" not in lease  # the plan has the range
        assert ScenarioSpec.from_dict(lease["spec"]).cache_identity() == (
            SPEC.cache_identity()
        )

    def test_idle_coordinator_leases_none(self):
        assert make().lease("w0") is None

    def test_each_shard_leased_once_while_unexpired(self):
        coord = make()
        coord.register_study(SPEC, shard_size=SHARD_SIZE)
        indices = [coord.lease("w0")["shard_index"] for _ in range(4)]
        assert sorted(indices) == [0, 1, 2, 3]
        assert coord.lease("w0") is None  # all leased, none expired

    def test_empty_worker_id_rejected(self):
        with pytest.raises(ValidationError, match="worker_id"):
            make().lease("")

    def test_default_study_id_is_the_content_address(self):
        coord = make()
        sid = coord.register_study(SPEC, shard_size=SHARD_SIZE)
        assert sid == study_key(SPEC, SHARD_SIZE)

    def test_active_duplicate_registration_rejected(self):
        coord = make()
        coord.register_study(SPEC, shard_size=SHARD_SIZE)
        with pytest.raises(ValidationError, match="already registered"):
            coord.register_study(SPEC, shard_size=SHARD_SIZE)

    def test_handed_back_study_reregisters(self):
        coord = make()
        sid = coord.register_study(SPEC, shard_size=SHARD_SIZE)
        coord.drain_inline(sid)
        assert coord.wait(sid).num_points == SPEC.num_points
        # A handed-back id re-registers cleanly (the evicted-job resubmission).
        assert coord.register_study(SPEC, shard_size=SHARD_SIZE) == sid
        fresh = coord._study(sid).run
        assert len(fresh.done) == 0
        assert not fresh.settled.is_set()

    def test_settled_study_is_held_until_waited(self):
        coord = make()
        sid = coord.register_study(SPEC, shard_size=SHARD_SIZE)
        coord.drain_inline(sid)
        with pytest.raises(ValidationError, match="already registered"):
            coord.register_study(SPEC, shard_size=SHARD_SIZE)


#: Two backends: shards 0-2 are closed-form points, 4-6 DES points, shard 3
#: mixes both and shard 7 is one DES point, so modeled costs differ.
MIXED = ScenarioSpec(
    name="mixed",
    axes={"lps": list(range(1, 10)), "accuracy": [0.9, 0.99],
          "backend": ["closed_form", "des"]},
)
MIXED_SHARD_SIZE = 5  # 36 points -> 8 shards


def lease_order(coord, workers):
    """Shard indices leased by ``workers`` taking turns until none is left."""
    order = []
    while (lease := coord.lease(workers[len(order) % len(workers)])) is not None:
        order.append(lease["shard_index"])
    return order


class TestDispatchRule:
    """One rule: the pending shard with the largest modeled cost, ties to
    the lowest index (LPT), whoever asks and whatever the spec pins."""

    @pytest.mark.parametrize("workers", [["w0"], ["w0", "w1"]])
    def test_one_backend_grid_leases_in_ascending_order(self, workers):
        coord = make()
        coord.register_study(SPEC, shard_size=SHARD_SIZE)
        assert lease_order(coord, workers) == [0, 1, 2, 3]

    def test_mixed_grid_leases_the_des_shards_first(self):
        coord = make()
        coord.register_study(MIXED, shard_size=MIXED_SHARD_SIZE)
        assert lease_order(coord, ["w0", "w1"]) == [4, 5, 6, 3, 7, 0, 1, 2]

    def test_a_requeued_shard_goes_back_to_its_place_in_the_rule(self):
        coord = make()
        coord.register_study(MIXED, shard_size=MIXED_SHARD_SIZE)
        first = coord.lease("w0")
        assert coord.lease("w1")["shard_index"] == 5
        coord.fail(first["lease_id"], "worker exploded")
        retry = coord.lease("w1")
        assert (retry["shard_index"], retry["attempt"]) == (4, 1)
        assert lease_order(coord, ["w0"]) == [6, 3, 7, 0, 1, 2]

    def test_a_pinned_scheduler_axis_is_dispatched_by_the_same_rule(self):
        pinned = ScenarioSpec(
            name="pinned",
            axes={**{k: list(v) for k, v in MIXED.axes.items()},
                  "scheduler": ["work-stealing"]},
        )
        coord = make()
        sid = coord.register_study(pinned, shard_size=MIXED_SHARD_SIZE)
        order = lease_order(coord, ["w0"])
        assert order == [4, 5, 6, 3, 7, 0, 1, 2]
        for k in order:
            data, digest = shard_bytes(pinned, k, MIXED_SHARD_SIZE)
            coord.push(sid, k, data, digest, worker_id="w0")
        results = coord.wait(sid, timeout=5.0)
        local = run_study(pinned, shard_size=MIXED_SHARD_SIZE)
        assert results.artifact_bytes() == local.artifact_bytes()
        # The axis still models its own strategy in the sched_* columns.
        static = run_study(MIXED, shard_size=MIXED_SHARD_SIZE)
        assert results.column("sched_latency_s").tolist() != (
            static.column("sched_latency_s").tolist()
        )


class TestLeaseExpiry:
    def test_expired_lease_requeues_with_bumped_attempt(self):
        clock = FakeClock()
        coord = make(clock=clock, lease_ttl_s=10.0)
        sid = coord.register_study(SPEC, shard_size=SHARD_SIZE)
        first = coord.lease("w0")
        k = first["shard_index"]
        clock.now += 11.0  # past the deadline
        second = coord.lease("w0")
        assert second["shard_index"] == k  # the shard comes back to its owner
        assert second["attempt"] == first["attempt"] + 1
        assert coord.stats.requeues == 1
        assert len(coord._study(sid).run.done) == 0

    def test_unexpired_lease_blocks_redispatch(self):
        clock = FakeClock()
        coord = make(clock=clock, lease_ttl_s=10.0)
        coord.register_study(
            ScenarioSpec(name="one", axes={"lps": [1, 2]}), shard_size=2
        )
        assert coord.lease("w0") is not None
        clock.now += 9.0
        assert coord.lease("w1") is None

    def test_requeue_budget_exhaustion_fails_the_study(self):
        clock = FakeClock()
        coord = make(clock=clock, lease_ttl_s=1.0, max_requeues=2)
        sid = coord.register_study(
            ScenarioSpec(name="one", axes={"lps": [1, 2]}), shard_size=2
        )
        for _ in range(3):
            coord.lease("w0")
            clock.now += 2.0
        with pytest.raises(ShardError, match="expired"):
            coord.wait(sid, timeout=1.0)

    def test_cooperative_fail_requeues_immediately(self):
        coord = make()
        sid = coord.register_study(SPEC, shard_size=SHARD_SIZE)
        lease = coord.lease("w0")
        coord.fail(lease["lease_id"], "worker exploded")
        again = coord.lease("w0")
        assert again["shard_index"] == lease["shard_index"]
        assert again["attempt"] == 1
        assert coord.stats.worker_failures == 1
        assert len(coord._study(sid).run.pending) == 3


class TestRequeueAccounting:
    """Every path that puts a shard back in the queue — lease expiry,
    cooperative ``fail()``, rejected push — lands in the same ``requeues``
    gauge and consumes the same per-shard budget."""

    def test_cooperative_fail_bumps_requeue_gauge(self):
        coord = make()
        coord.register_study(SPEC, shard_size=SHARD_SIZE)
        lease = coord.lease("w0")
        coord.fail(lease["lease_id"], "worker exploded")
        assert coord.stats.requeues == 1
        assert coord.stats.worker_failures == 1
        assert coord.health()["requeues"] == 1

    def test_rejected_push_bumps_requeue_gauge(self):
        coord = make()
        sid = coord.register_study(SPEC, shard_size=SHARD_SIZE)
        lease = coord.lease("w0")
        k = lease["shard_index"]
        data, digest = shard_bytes(SPEC, k)
        corrupted = bytes([data[0] ^ 0xFF]) + data[1:]
        with pytest.raises(PushRejected):
            coord.push(
                sid, k, corrupted, digest,
                worker_id="w0", lease_id=lease["lease_id"],
            )
        assert coord.stats.requeues == 1
        assert coord.stats.rejected_pushes == 1

    def test_repeated_corrupt_pushes_exhaust_requeue_budget(self):
        # A worker that keeps pushing corrupt bytes must burn through the
        # requeue budget and fail the study — never retry forever.
        coord = make(max_requeues=3)
        sid = coord.register_study(SPEC, shard_size=SHARD_SIZE)
        rejections = 0
        while True:
            lease = coord.lease("w0")
            if lease is None:
                break
            k = lease["shard_index"]
            data, digest = shard_bytes(SPEC, k)
            corrupted = bytes([data[0] ^ 0xFF]) + data[1:]
            with pytest.raises(PushRejected):
                coord.push(
                    sid, k, corrupted, digest,
                    worker_id="w0", lease_id=lease["lease_id"],
                )
            rejections += 1
            assert rejections <= 4 * (coord.max_requeues + 1), (
                "requeue budget did not bound the corrupt-push loop"
            )
        with pytest.raises(ShardError, match="rejected"):
            coord.wait(sid)
        assert coord.stats.rejected_pushes == rejections
        assert coord.stats.requeues == rejections

    def test_corrupt_push_without_lease_id_consumes_budget(self):
        # A push that presents no lease id still resolves the shard's held
        # lease and routes through the same attempt accounting.
        coord = make(max_requeues=2)
        sid = coord.register_study(SPEC, shard_size=SHARD_SIZE)
        study = coord._study(sid)
        lease = coord.lease("w0")
        k = lease["shard_index"]
        data, digest = shard_bytes(SPEC, k)
        corrupted = bytes([data[0] ^ 0xFF]) + data[1:]
        with pytest.raises(PushRejected):
            coord.push(sid, k, corrupted, digest, worker_id="w1")
        assert coord.stats.requeues == 1
        assert study.run.attempts[k] == 1
        # The shard is back in the queue with its attempt bumped.
        again = coord.lease("w0")
        assert again["shard_index"] == k
        assert again["attempt"] == 1


    def test_inline_drain_failures_share_the_requeue_budget(self):
        # Two remote failures and the inline ones spend one budget: the
        # failure that takes the shard past max_requeues fails the study,
        # which then settles instead of staying active forever.
        coord = ShardCoordinator(max_requeues=10)  # real clock: no expiry
        sid = coord.register_study(SPEC, shard_size=SHARD_SIZE)
        lease = coord.lease("w0")
        k = lease["shard_index"]
        coord.fail(lease["lease_id"], "remote evaluation failed")
        lease = coord.lease("w0")
        assert lease["shard_index"] == k
        coord.fail(lease["lease_id"], "remote evaluation failed")
        plan = FaultPlan([FaultRule(site=SITE_SHARD_EVAL, keys=(k,), times=1000)])
        with pytest.raises(ShardError) as excinfo:
            coord.drain_inline(sid, faults=plan)
        err = excinfo.value
        assert err.shard_index == k
        assert len(err.attempts) == coord.max_requeues + 1
        assert sum("remote evaluation failed" in a for a in err.attempts) == 2
        assert sum("shard-eval" in a for a in err.attempts) == coord.max_requeues - 1
        started = time.monotonic()
        with pytest.raises(ShardError) as waited:
            coord.wait(sid, timeout=5.0)
        assert waited.value is err
        assert time.monotonic() - started < 1.0
        assert coord.health()["studies_active"] == 0
        assert coord.register_study(SPEC, shard_size=SHARD_SIZE) == sid
        fresh = coord._study(sid).run
        assert len(fresh.done) == 0
        assert not fresh.settled.is_set()


class TestPushVerification:
    def setup_method(self):
        self.coord = make()
        self.attribution = {}
        self.sid = self.coord.register_study(
            SPEC, shard_size=SHARD_SIZE, progress=tally_workers(self.attribution)
        )
        self.study = self.coord._study(self.sid)

    def test_verified_push_lands(self):
        lease = self.coord.lease("w0")
        k = lease["shard_index"]
        data, digest = shard_bytes(SPEC, k)
        out = self.coord.push(
            self.sid, k, data, digest, worker_id="w0", lease_id=lease["lease_id"]
        )
        assert out == {"accepted": True, "duplicate": False, "done": 1, "total": 4}
        assert self.attribution == {"w0": 1}

    def test_duplicate_push_is_idempotent_accept(self):
        lease = self.coord.lease("w0")
        k = lease["shard_index"]
        data, digest = shard_bytes(SPEC, k)
        self.coord.push(self.sid, k, data, digest, worker_id="w0")
        before = bytes(self.study.run.table)
        out = self.coord.push(self.sid, k, data, digest, worker_id="w1")
        assert out["accepted"] and out["duplicate"]
        assert bytes(self.study.run.table) == before  # first landing wins
        assert self.coord.stats.duplicate_pushes == 1
        # The late pusher gets no attribution: the shard landed once.
        assert self.attribution == {"w0": 1}

    def test_hash_mismatch_rejected_and_requeued(self):
        lease = self.coord.lease("w0")
        k = lease["shard_index"]
        data, _ = shard_bytes(SPEC, k)
        with pytest.raises(PushRejected, match="hash") as excinfo:
            self.coord.push(
                self.sid, k, data, "0" * 64,
                worker_id="w0", lease_id=lease["lease_id"],
            )
        assert excinfo.value.reason == "hash-mismatch"
        assert self.coord.stats.rejected_pushes == 1
        # The shard went straight back in the queue, attempt bumped.
        again = self.coord.lease("w0")
        assert again["shard_index"] == k
        assert again["attempt"] == 1

    def test_corrupted_payload_rejected(self):
        lease = self.coord.lease("w0")
        k = lease["shard_index"]
        data, digest = shard_bytes(SPEC, k)
        corrupted = bytes([data[0] ^ 0xFF]) + data[1:]
        with pytest.raises(PushRejected, match="hash"):
            self.coord.push(self.sid, k, corrupted, digest, worker_id="w0")

    def test_wrong_size_rejected(self):
        lease = self.coord.lease("w0")
        k = lease["shard_index"]
        data, _ = shard_bytes(SPEC, k)
        short = data[:-8]
        digest = hashlib.sha256(short).hexdigest()
        with pytest.raises(PushRejected, match="bytes") as excinfo:
            self.coord.push(self.sid, k, short, digest, worker_id="w0")
        assert excinfo.value.reason == "wrong-size"

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValidationError, match="out of range"):
            self.coord.push(
                self.sid, 99, b"", hashlib.sha256(b"").hexdigest(), worker_id="w0"
            )

    def test_anonymous_push_is_refused(self):
        # None in the progress feed means an inline drain; a push that
        # names no worker must not land under that attribution.
        lease = self.coord.lease("w0")
        k = lease["shard_index"]
        data, digest = shard_bytes(SPEC, k)
        with pytest.raises(ValidationError, match="worker_id"):
            self.coord.push(self.sid, k, data, digest, worker_id="", lease_id=lease["lease_id"])
        assert self.attribution == {}
        assert self.study.run.done == set()
        assert self.coord.stats.inline_shards == 0
        self.coord.push(self.sid, k, data, digest, worker_id="w0", lease_id=lease["lease_id"])
        assert self.attribution == {"w0": 1}

    def test_unknown_study_rejected(self):
        with pytest.raises(UnknownStudy, match="unknown study"):
            self.coord.push("nope", 0, b"", "", worker_id="w0")
        assert "nope" not in self.coord._studies
        assert self.sid in self.coord._studies


class TestInlineAndCache:
    def test_drain_inline_matches_run_study_bytes(self):
        coord = make()
        sid = coord.register_study(SPEC, shard_size=SHARD_SIZE)
        coord.drain_inline(sid)
        local = run_study(SPEC, shard_size=SHARD_SIZE)
        assert coord.wait(sid).table.tobytes() == local.table.tobytes()
        assert coord.stats.inline_shards == 4

    def test_registration_pre_pass_serves_cached_shards(self, tmp_path):
        cache = StudyCache(tmp_path / "cache")
        run_study(SPEC, shard_size=SHARD_SIZE, cache=cache)  # warm it
        coord = make(cache=cache)
        sid = coord.register_study(SPEC, shard_size=SHARD_SIZE)
        assert coord.stats.cache_served_shards == 4
        assert coord.lease("w0") is None  # nothing left to dispatch
        local = run_study(SPEC, shard_size=SHARD_SIZE)
        assert coord.wait(sid).table.tobytes() == local.table.tobytes()

    def test_pushed_shards_populate_the_shared_cache(self, tmp_path):
        cache = StudyCache(tmp_path / "cache")
        coord = make(cache=cache)
        sid = coord.register_study(SPEC, shard_size=SHARD_SIZE)
        while (lease := coord.lease("w0")) is not None:
            k = lease["shard_index"]
            data, digest = shard_bytes(SPEC, k)
            coord.push(sid, k, data, digest, worker_id="w0")
        results = coord.wait(sid, timeout=5.0)
        # A local run over the same cache now re-serves every shard.
        warm = run_study(SPEC, shard_size=SHARD_SIZE, cache=cache)
        assert cache.hits == 4
        assert warm.table.tobytes() == results.table.tobytes()

    def test_waited_results_share_the_grid_columns_entry(self, tmp_path):
        grid = ScenarioSpec(
            axes={"lps": list(range(1, 513)), "accuracy": [0.9, 0.99]}, name="entry", seed=5
        )
        cache = StudyCache(tmp_path / "cache")
        coord = make(cache=cache)
        sid = coord.register_study(grid, shard_size=256)
        coord.drain_inline(sid)
        assert coord.wait(sid).columns_entry is None  # computed here: no entry
        # The grid again: the pre-pass serves every shard, so the entry rides.
        sid = coord.register_study(grid, shard_size=256)
        coordinated = coord.wait(sid)
        entry = coordinated.columns_entry
        assert entry == cache.columns_entry(grid, 256)
        reference = run_study(grid, shard_size=256).to_json().encode()
        assert coordinated.artifact_bytes() == reference  # encodes and stores
        assert entry.load() is not None
        # A local run over the cache splices the coordinator's entry.
        warm = run_study(grid, shard_size=256, cache=cache)
        assert warm.columns_entry == entry
        assert warm.artifact_bytes() == reference

    def test_progress_callback_sees_every_landing(self):
        events = []
        coord = make()
        sid = coord.register_study(
            SPEC, shard_size=SHARD_SIZE,
            progress=lambda k, cached, done, total, wid: events.append(
                (k, cached, done, total, wid)
            ),
        )
        lease = coord.lease("w7")
        k = lease["shard_index"]
        data, digest = shard_bytes(SPEC, k)
        coord.push(sid, k, data, digest, worker_id="w7", lease_id=lease["lease_id"])
        coord.drain_inline(sid)
        assert len(events) == 4
        assert events[0] == (k, False, 1, 4, "w7")
        assert all(wid is None for _, _, _, _, wid in events[1:])  # inline

    def test_study_settles_only_after_its_last_landing_is_published(self):
        # A job reads its progress record once wait() returns, so the study
        # must not settle while the final shard's progress is still running.
        entered, release = threading.Event(), threading.Event()
        attribution = {}
        tally = tally_workers(attribution)

        def progress(k, cached, done, total, wid):
            tally(k, cached, done, total, wid)
            if done == total:
                entered.set()
                release.wait(10.0)

        coord = make()
        sid = coord.register_study(SPEC, shard_size=SHARD_SIZE, progress=progress)
        for k in range(3):
            data, digest = shard_bytes(SPEC, k)
            coord.push(sid, k, data, digest, worker_id="w0")
        data, digest = shard_bytes(SPEC, 3)
        pusher = threading.Thread(
            target=coord.push, args=(sid, 3, data, digest), kwargs={"worker_id": "w0"}
        )
        pusher.start()
        try:
            assert entered.wait(10.0)
            assert coord.health()["studies_active"] == 1
        finally:
            release.set()
            pusher.join(10.0)
        assert not pusher.is_alive()
        assert coord.wait(sid, timeout=5.0).num_points == SPEC.num_points
        assert attribution == {"w0": 4}

    def test_health_reports_fleet_and_dispatch_state(self):
        coord = make()
        coord.register_study(SPEC, shard_size=SHARD_SIZE)
        coord.lease("w0")
        coord.lease("w1")
        coord.lease("w0")
        health = coord.health()
        assert health["workers"] == 2
        assert health["outstanding_leases"] == 3
        assert health["studies_active"] == 1
        assert health["leases_granted"] == 3
        for gauge in ("requeues", "rejected_pushes", "inline_shards"):
            assert health[gauge] == 0
        # One dispatch rule: no strategy to report, no static home to steal from.
        assert "scheduler" not in health and "steals" not in health


class TestLifecycle:
    """A study lives from ``register_study`` to ``wait``: ``wait`` owns the
    stall rule on the coordinator's clock and forgets the study it hands
    back, with every lease that still names it."""

    def test_wait_drains_a_stalled_study_on_the_coordinator_clock(self):
        clock = FakeClock()
        coord = make(clock=clock, lease_ttl_s=30.0)  # stall interval: 30 s
        sid = coord.register_study(SPEC, shard_size=SHARD_SIZE)
        handed_back = []
        waiter = threading.Thread(
            target=lambda: handed_back.append(coord.wait(sid)), daemon=True
        )
        started = time.monotonic()
        waiter.start()
        waiter.join(0.3)
        assert waiter.is_alive()  # the fake clock has not moved: no stall yet
        assert coord.stats.inline_shards == 0
        clock.now += 30.5
        waiter.join(10.0)
        assert not waiter.is_alive()
        assert time.monotonic() - started < 10.0  # far less than 30 s of real time
        local = run_study(SPEC, shard_size=SHARD_SIZE)
        assert handed_back[0].artifact_bytes() == local.artifact_bytes()
        assert coord.stats.inline_shards == 4
        assert sid not in coord._studies

    def test_wait_timeout_leaves_the_study_registered(self):
        clock = FakeClock()
        coord = make(clock=clock, lease_ttl_s=30.0)
        sid = coord.register_study(SPEC, shard_size=SHARD_SIZE)
        caught = []

        def waiter():
            try:
                coord.wait(sid, timeout=5.0)
            except TimeoutError as exc:
                caught.append(exc)

        thread = threading.Thread(target=waiter, daemon=True)
        thread.start()
        thread.join(0.2)
        clock.now += 6.0  # past the timeout, short of the stall interval
        thread.join(10.0)
        assert not thread.is_alive()
        assert len(caught) == 1
        assert sid in coord._studies
        assert coord.stats.inline_shards == 0

    def test_lease_out_at_hand_back_is_forgotten_with_its_study(self):
        clock = FakeClock()
        coord = make(clock=clock, lease_ttl_s=10.0, max_requeues=1)
        sid = coord.register_study(SPEC, shard_size=SHARD_SIZE)
        held = coord.lease("w0")
        k = held["shard_index"]
        doomed = (k + 1) % 4
        plan = FaultPlan([FaultRule(site=SITE_SHARD_EVAL, keys=(doomed,), times=1000)])
        with pytest.raises(ShardError):
            coord.drain_inline(sid, faults=plan)
        with pytest.raises(ShardError):
            coord.wait(sid)
        assert sid not in coord._studies
        assert coord.health()["outstanding_leases"] == 0
        clock.now += 11.0  # the held lease's deadline passes
        assert coord.lease("w1") is None  # expiry runs and finds nothing to requeue
        assert coord.stats.requeues == 0
        # The worker that held it comes back late: refused, not a KeyError.
        data, digest = shard_bytes(SPEC, k)
        with pytest.raises(UnknownStudy):
            coord.push(sid, k, data, digest, worker_id="w0", lease_id=held["lease_id"])
        coord.fail(held["lease_id"], "too late")  # a no-op, not an error
        assert coord.stats.worker_failures == 0
