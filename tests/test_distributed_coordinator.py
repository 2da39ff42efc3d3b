"""The shard coordinator: leases, verification, requeue, and the cache."""

import hashlib
import threading
import time

import numpy as np
import pytest

pytestmark = pytest.mark.distributed

from repro.distributed import ShardCoordinator
from repro.exceptions import PushRejected, ShardError, ValidationError
from repro.faults import SITE_SHARD_EVAL, FaultPlan, FaultRule
from repro.studies import ScenarioSpec, StudyCache, run_study, study_key
from repro.studies.executor import StudyPlan, _run_shard


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

    def test_settled_study_is_replaced_on_reregistration(self):
        coord = make()
        sid = coord.register_study(SPEC, shard_size=SHARD_SIZE)
        coord.drain_inline(sid)
        assert coord.results(sid).num_points == SPEC.num_points
        # A settled id re-registers cleanly (the evicted-job resubmission).
        assert coord.register_study(SPEC, shard_size=SHARD_SIZE) == sid
        assert coord.progress_snapshot(sid)["done"] == 0


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
        assert coord.progress_snapshot(sid)["done"] == 0

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
        assert coord.progress_snapshot(sid)["pending"] == 3


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
            coord.results(sid)
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
        assert coord.progress_snapshot(sid)["done"] == 0


class TestPushVerification:
    def setup_method(self):
        self.coord = make()
        self.sid = self.coord.register_study(SPEC, shard_size=SHARD_SIZE)
        self.study = self.coord._study(self.sid)

    def test_verified_push_lands(self):
        lease = self.coord.lease("w0")
        k = lease["shard_index"]
        data, digest = shard_bytes(SPEC, k)
        out = self.coord.push(
            self.sid, k, data, digest, worker_id="w0", lease_id=lease["lease_id"]
        )
        assert out == {"accepted": True, "duplicate": False, "done": 1, "total": 4}
        assert self.coord.worker_shards(self.sid) == {"w0": 1}

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
        assert self.coord.worker_shards(self.sid) == {"w0": 1}

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
            self.coord.push(self.sid, k, corrupted, digest)

    def test_wrong_size_rejected(self):
        lease = self.coord.lease("w0")
        k = lease["shard_index"]
        data, _ = shard_bytes(SPEC, k)
        short = data[:-8]
        digest = hashlib.sha256(short).hexdigest()
        with pytest.raises(PushRejected, match="bytes") as excinfo:
            self.coord.push(self.sid, k, short, digest)
        assert excinfo.value.reason == "wrong-size"

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValidationError, match="out of range"):
            self.coord.push(self.sid, 99, b"", hashlib.sha256(b"").hexdigest())

    def test_unknown_study_rejected(self):
        with pytest.raises(ValidationError, match="unknown study"):
            self.coord.push("nope", 0, b"", "")
        assert not self.coord.has_study("nope")
        assert self.coord.has_study(self.sid)


class TestInlineAndCache:
    def test_drain_inline_matches_run_study_bytes(self):
        coord = make()
        sid = coord.register_study(SPEC, shard_size=SHARD_SIZE)
        coord.drain_inline(sid)
        local = run_study(SPEC, shard_size=SHARD_SIZE)
        assert coord.results(sid).table.tobytes() == local.table.tobytes()
        assert coord.stats.inline_shards == 4

    def test_registration_pre_pass_serves_cached_shards(self, tmp_path):
        cache = StudyCache(tmp_path / "cache")
        run_study(SPEC, shard_size=SHARD_SIZE, cache=cache)  # warm it
        coord = make(cache=cache)
        sid = coord.register_study(SPEC, shard_size=SHARD_SIZE)
        assert coord.stats.cache_served_shards == 4
        assert coord.lease("w0") is None  # nothing left to dispatch
        local = run_study(SPEC, shard_size=SHARD_SIZE)
        assert coord.results(sid).table.tobytes() == local.table.tobytes()

    def test_pushed_shards_populate_the_shared_cache(self, tmp_path):
        cache = StudyCache(tmp_path / "cache")
        coord = make(cache=cache)
        sid = coord.register_study(SPEC, shard_size=SHARD_SIZE)
        while (lease := coord.lease("w0")) is not None:
            k = lease["shard_index"]
            data, digest = shard_bytes(SPEC, k)
            coord.push(sid, k, data, digest, worker_id="w0")
        coord.wait(sid, timeout=5.0)
        # A local run over the same cache now re-serves every shard.
        warm = run_study(SPEC, shard_size=SHARD_SIZE, cache=cache)
        assert cache.hits == 4
        assert warm.table.tobytes() == coord.results(sid).table.tobytes()

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

        def progress(k, cached, done, total, wid):
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
        assert coord.worker_shards(sid) == {"w0": 4}

    def test_health_reports_fleet_and_dispatch_state(self):
        coord = make()
        coord.register_study(SPEC, shard_size=SHARD_SIZE)
        coord.lease("w0")
        coord.lease("w1")
        health = coord.health()
        assert health["workers"] == 2
        assert health["outstanding_leases"] == 2
        assert health["studies_active"] == 1
        assert health["leases_granted"] == 2
        assert health["scheduler"] == "static"
