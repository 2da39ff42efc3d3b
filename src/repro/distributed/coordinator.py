"""The shard coordinator: lease bookkeeping for distributed studies.

A :class:`ShardCoordinator` owns the authoritative state of every
registered study: which shards are pending, which are leased out (and
until when), which have landed.  Workers interact through three verbs —

``lease(worker_id)``
    Hand the calling worker one shard descriptor, chosen by the study's
    :class:`~repro.distributed.scheduler.Scheduler` strategy.  The lease
    carries a deadline: a worker that never comes back (crash, SIGKILL,
    network partition) simply lets the deadline pass and the shard is
    *requeued* with its attempt number bumped — the coordinator-owned
    analogue of the executor's parent-owned retry attempts, so fault
    schedules converge across worker respawns.
``push(study_id, shard_index, data, digest, ...)``
    Deliver computed shard bytes.  The payload is verified before
    acceptance — recomputed sha256 against the worker's digest, byte
    length against the shard's row count — and a failed check requeues
    the shard (:class:`~repro.exceptions.PushRejected`).  Pushing an
    already-landed shard is an idempotent accept: late duplicates from a
    slow worker whose lease expired are harmless by design, because both
    copies are byte-identical by the executor's determinism contract.
``fail(lease_id, message)``
    A cooperative worker reporting an evaluation error; the shard
    requeues immediately instead of waiting out the deadline.

Each study's shard state lives in one
:class:`~repro.studies.executor.ShardRun` — the same engine
``run_study`` runs on — and the coordinator keeps only lease state on
top of it: the lease table, TTLs, worker slots, scheduler selection,
payload verification and :class:`CoordinatorStats`.  ``lease`` takes
from the engine's pending queue, ``push`` verifies and then lands
through the engine's landing path (table, the shared
:class:`~repro.studies.cache.StudyCache`, progress), and every requeue —
lease expiry, ``fail()``, a rejected push — charges the shard's one
attempt ledger, as do failures in :meth:`ShardCoordinator.drain_inline`,
the engine's inline loop that is both the 0-worker execution path and
the liveness fallback when every worker is gone.  A shard fails the
study on the failure that takes its attempts past ``max_requeues``,
whichever path charged it.  The cache pre-pass runs once, before the
study becomes leasable, so a distributed run leaves behind exactly the
entries a local ``run_study`` would and artifacts are byte-identical
regardless of topology.

The coordinator never computes shards itself (outside ``drain_inline``)
and holds no wall-clock state in results: all timing lives in leases and
stats, outside the artifact.  Once closed (:meth:`ShardCoordinator.close`,
when its server stops) it grants no leases and each ``wait`` drains its
study inline.
"""

from __future__ import annotations

import functools
import hashlib
import threading
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, field

import numpy as np

from ..exceptions import PushRejected, ValidationError
from ..faults import FaultPlan
from ..studies.cache import StudyCache, study_key
from ..studies.executor import DEFAULT_SHARD_SIZE, ShardRun
from ..studies.results import StudyResults, table_dtype
from ..studies.spec import ScenarioSpec
from .scheduler import (
    DEFAULT_SCHEDULER,
    Scheduler,
    get_scheduler,
    preferred_slot,
    shard_costs,
)

__all__ = ["ShardCoordinator", "CoordinatorStats", "DistProgress"]

#: Per-shard progress feed of a coordinated study:
#: ``progress(shard_index, from_cache, done, total, worker_id)`` —
#: the executor's ProgressCallback plus the worker attribution
#: (``None`` for cache-served and inline-drained shards).
DistProgress = Callable[[int, bool, int, int, "str | None"], None]


@dataclass
class CoordinatorStats:
    """Dispatch telemetry — deliberately *outside* the artifact bytes."""

    leases_granted: int = 0
    steals: int = 0               # leases dispatched off their static home slot
    requeues: int = 0             # shards put back in the queue (any path)
    worker_failures: int = 0      # cooperative fail() reports
    duplicate_pushes: int = 0     # idempotent re-accepts of landed shards
    rejected_pushes: int = 0      # hash/size verification failures
    inline_shards: int = 0        # shards completed by drain_inline
    cache_served_shards: int = 0  # shards served by the registration pre-pass

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class _Lease:
    lease_id: str
    study_id: str
    shard_index: int
    worker_id: str
    attempt: int
    deadline: float  # coordinator-clock absolute time


@dataclass
class _Study:
    run: ShardRun          # the shard state: table, queue, ledger
    scheduler: Scheduler
    costs: list
    progress: "DistProgress | None"
    leased: dict = field(default_factory=dict)    # shard_index -> lease_id
    worker_shards: dict = field(default_factory=dict)  # worker_id -> count


class ShardCoordinator:
    """Thread-safe lease table over any number of registered studies.

    Parameters
    ----------
    cache:
        Optional shared :class:`StudyCache`.  Registration pre-serves
        cached shards; accepted pushes are stored, so the cache remains
        the single store across topologies.
    scheduler:
        Default dispatch strategy (name or :class:`Scheduler`).  A study
        whose spec pins the ``scheduler`` axis to one non-default value
        is dispatched with *that* strategy instead — the axis means what
        it says when the study actually runs distributed.
    lease_ttl_s:
        Lease lifetime.  An unexpired lease blocks re-dispatch of its
        shard; expiry requeues it with the attempt number bumped.
    max_requeues:
        Per-shard budget of failed attempts — lease expiries, ``fail()``
        reports, rejected pushes and inline-drain failures all charge the
        same ledger — before the study is declared failed (faults must
        converge, not spin forever).
    clock:
        Injectable monotonic clock — tests drive lease expiry
        deterministically instead of sleeping.
    """

    def __init__(
        self,
        cache: StudyCache | None = None,
        scheduler: Scheduler | str = DEFAULT_SCHEDULER,
        lease_ttl_s: float = 30.0,
        max_requeues: int = 10,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if lease_ttl_s <= 0:
            raise ValidationError(f"lease_ttl_s must be positive, got {lease_ttl_s}")
        if max_requeues < 1:
            raise ValidationError(f"max_requeues must be >= 1, got {max_requeues}")
        self.cache = cache
        self.default_scheduler = (
            get_scheduler(scheduler) if isinstance(scheduler, str) else scheduler
        )
        self.lease_ttl_s = float(lease_ttl_s)
        self.max_requeues = int(max_requeues)
        self.stats = CoordinatorStats()
        self._clock = clock
        self._lock = threading.RLock()
        self._studies: dict[str, _Study] = {}
        self._order: list[str] = []            # registration order (dispatch FIFO)
        self._leases: dict[str, _Lease] = {}
        self._workers: dict[str, int] = {}     # worker_id -> slot (arrival order)
        self._lease_seq = 0
        self._closed = False

    # ------------------------------------------------------------------ #
    # Registration / completion
    # ------------------------------------------------------------------ #
    def register_study(
        self,
        spec: ScenarioSpec,
        shard_size: int = DEFAULT_SHARD_SIZE,
        study_id: str | None = None,
        scheduler: Scheduler | str | None = None,
        progress: DistProgress | None = None,
    ) -> str:
        """Enqueue a study's shard grid for dispatch; returns its id.

        The id defaults to the study's content address
        (:func:`~repro.studies.cache.study_key`) — the same identity the
        job server dedups on.  Re-registering an id whose study is still
        in flight is rejected (the caller already dedups identical
        submissions); a *settled* study — complete or failed — is
        replaced, which is how an evicted-then-resubmitted job reruns.
        The cache pre-pass runs before the study becomes leasable.
        """
        study_id = study_key(spec, shard_size) if study_id is None else study_id
        if scheduler is None:
            axis = spec.axis_values("scheduler")
            strategy = get_scheduler(axis[0]) if len(axis) == 1 else self.default_scheduler
        elif isinstance(scheduler, str):
            strategy = get_scheduler(scheduler)
        else:
            strategy = scheduler
        run = ShardRun(
            spec,
            shard_size,
            budget=self.max_requeues,
            cache=self.cache,
            lock=self._lock,
        )
        study = _Study(
            run=run,
            scheduler=strategy,
            costs=shard_costs(spec, shard_size),
            progress=progress,
        )
        run.progress = functools.partial(self._landed, study)
        # Refuse an active duplicate before the pre-pass reports progress;
        # the check repeats under the lock because the pre-pass does not
        # hold it.
        self._check_replaceable(study_id)
        run.serve_cached()
        with self._lock:
            if self._check_replaceable(study_id):
                self._order.remove(study_id)
            self._studies[study_id] = study
            self._order.append(study_id)
        return study_id

    def wait(self, study_id: str, timeout: float | None = None) -> StudyResults:
        """Block until the study completes; raises its ShardError on failure.

        Polls so lease expiry advances even when no worker traffic is
        arriving (the all-workers-dead case must still converge to a
        requeue, then to a requeue-budget failure or an inline drain).
        """
        run = self._study(study_id).run
        deadline = None if timeout is None else self._clock() + timeout
        while not run.settled.wait(timeout=0.05):
            if self._closed:
                self.drain_inline(study_id)
            with self._lock:
                self._expire()
            if deadline is not None and self._clock() > deadline:
                raise TimeoutError(
                    f"study {study_id} incomplete after {timeout}s "
                    f"({len(run.done)}/{run.total} shards)"
                )
        return self.results(study_id)

    def results(self, study_id: str) -> StudyResults:
        """The completed study's results (ValidationError while incomplete)."""
        run = self._study(study_id).run
        with self._lock:
            if run.error is not None:
                raise run.error
            if len(run.done) < run.total:
                raise ValidationError(
                    f"study {study_id} is incomplete "
                    f"({len(run.done)}/{run.total} shards)"
                )
            return StudyResults(spec=run.plan.spec, table=run.table.copy())

    # ------------------------------------------------------------------ #
    # The worker-facing verbs
    # ------------------------------------------------------------------ #
    def lease(self, worker_id: str) -> dict | None:
        """One shard descriptor for ``worker_id``, or None when idle.

        The descriptor is self-describing — spec payload, shard_size,
        shard index, coordinator-owned attempt number — everything a
        worker needs to build the study's plan and run the shard.
        """
        if not worker_id:
            raise ValidationError("worker_id must be non-empty")
        with self._lock:
            self._expire()
            if self._closed:
                return None
            slot = self._workers.setdefault(worker_id, len(self._workers))
            num_slots = len(self._workers)
            for study_id in self._order:
                study = self._studies[study_id]
                run = study.run
                if run.error is not None or not run.pending:
                    continue
                k = study.scheduler.select(run.pending, slot, num_slots, study.costs)
                run.pending.remove(k)
                stolen = preferred_slot(k, run.total, num_slots) != slot
                self._lease_seq += 1
                lease = _Lease(
                    lease_id=f"lease-{self._lease_seq:08d}",
                    study_id=study_id,
                    shard_index=k,
                    worker_id=worker_id,
                    attempt=run.attempts.get(k, 0),
                    deadline=self._clock() + self.lease_ttl_s,
                )
                study.leased[k] = lease.lease_id
                self._leases[lease.lease_id] = lease
                self.stats.leases_granted += 1
                if stolen:
                    self.stats.steals += 1
                return {
                    "lease_id": lease.lease_id,
                    "study_id": study_id,
                    "shard_index": k,
                    "shard_size": run.plan.shard_size,
                    "attempt": lease.attempt,
                    "ttl_s": self.lease_ttl_s,
                    "spec": run.plan.payload,
                }
            return None

    def push(
        self,
        study_id: str,
        shard_index: int,
        data: bytes,
        digest: str,
        worker_id: str = "",
        lease_id: str | None = None,
    ) -> dict:
        """Verify and land one computed shard; idempotent for landed shards."""
        study = self._study(study_id)
        run = study.run
        with self._lock:
            if not 0 <= shard_index < run.total:
                raise ValidationError(
                    f"shard index {shard_index} out of range for "
                    f"{run.total} shards"
                )
            if shard_index in run.done:
                self.stats.duplicate_pushes += 1
                self._release(study, shard_index, lease_id)
                return self._accepted(run, duplicate=True)
            actual = hashlib.sha256(data).hexdigest()
            if actual != digest:
                self._reject(study, shard_index, lease_id)
                raise PushRejected(
                    "hash-mismatch",
                    f"shard {shard_index} payload hashes to {actual[:12]}..., "
                    f"push declared {str(digest)[:12]}...; shard requeued",
                )
            start, stop = run.plan.ranges[shard_index]
            expected = (stop - start) * table_dtype().itemsize
            if len(data) != expected:
                self._reject(study, shard_index, lease_id)
                raise PushRejected(
                    "wrong-size",
                    f"shard {shard_index} payload is {len(data)} bytes, "
                    f"expected {expected}; shard requeued",
                )
            shard = np.frombuffer(data, dtype=table_dtype()).copy()
            done = run.place(shard_index, shard)
            self._release(study, shard_index, lease_id)
        run.publish(shard_index, shard, done, worker_id)
        return self._accepted(run, duplicate=False)

    def fail(self, lease_id: str, message: str = "worker reported failure") -> None:
        """Cooperative failure report: requeue the lease's shard now."""
        with self._lock:
            lease = self._leases.pop(lease_id, None)
            if lease is None:
                return  # already expired/landed; nothing to do
            self.stats.worker_failures += 1
            self._requeue(lease, f"worker {lease.worker_id}: {message}")

    # ------------------------------------------------------------------ #
    # Inline completion (0 workers / liveness fallback)
    # ------------------------------------------------------------------ #
    def drain_inline(self, study_id: str, faults: FaultPlan | None = None) -> None:
        """Complete every still-pending shard in-process.

        With no workers attached this *is* the execution path (and lands
        byte-identical results, since it is the engine's inline loop).
        With workers attached it races them benignly: landed shards are
        skipped, duplicates are idempotent.  Inline failures are charged
        to the study's one attempt ledger, without backoff, like every
        other requeue; the failure that spends the budget fails the study
        and raises its :class:`~repro.exceptions.ShardError`.
        """
        run = self._study(study_id).run
        plan = FaultPlan.from_env() if faults is None else faults
        with self._lock:
            self._expire()
        run.drain(plan.to_dict() if plan is not None else None)

    def close(self) -> None:
        """Stop dispatching, for good: grant no more leases, expire every
        outstanding one now, and have each :meth:`wait` finish its study
        inline — a stopping server never waits out a lease TTL."""
        with self._lock:
            self._closed = True
            self._expire()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def health(self) -> dict:
        """The /healthz payload fragment: fleet + lease + requeue state."""
        with self._lock:
            self._expire()
            active = sum(
                1 for s in self._studies.values() if not s.run.settled.is_set()
            )
            return {
                "workers": len(self._workers),
                "outstanding_leases": len(self._leases),
                "studies_registered": len(self._studies),
                "studies_active": active,
                "scheduler": self.default_scheduler.name,
                **self.stats.as_dict(),
            }

    def has_study(self, study_id: str) -> bool:
        """Whether ``study_id`` names a registered study (any state)."""
        with self._lock:
            return study_id in self._studies

    def worker_shards(self, study_id: str) -> dict[str, int]:
        """Per-worker shard attribution of one study (telemetry, not bytes)."""
        with self._lock:
            return dict(self._study(study_id).worker_shards)

    def progress_snapshot(self, study_id: str) -> dict:
        study = self._study(study_id)
        with self._lock:
            return {
                "done": len(study.run.done),
                "total": study.run.total,
                "pending": len(study.run.pending),
                "leased": len(study.leased),
                "workers": dict(study.worker_shards),
            }

    # ------------------------------------------------------------------ #
    # Internals (call with the lock held)
    # ------------------------------------------------------------------ #
    def _study(self, study_id: str) -> _Study:
        with self._lock:
            try:
                return self._studies[study_id]
            except KeyError:
                raise ValidationError(f"unknown study {study_id!r}") from None

    def _check_replaceable(self, study_id: str) -> bool:
        """Whether ``study_id`` is registered; raises while it is active."""
        with self._lock:
            existing = self._studies.get(study_id)
            if existing is not None and not existing.run.settled.is_set():
                raise ValidationError(
                    f"study {study_id!r} is already registered and active"
                )
            return existing is not None

    def _landed(
        self, study: _Study, k: int, from_cache: bool, done: int, total: int,
        worker_id: str | None,
    ) -> None:
        """Every landing's telemetry, then the study's progress feed.

        ``worker_id`` is None for an inline-drained shard and ``""`` for
        a push that named no worker (counted nowhere).
        """
        with self._lock:
            if from_cache:
                self.stats.cache_served_shards += 1
            elif worker_id is None:
                self.stats.inline_shards += 1
            elif worker_id:
                shards = study.worker_shards
                shards[worker_id] = shards.get(worker_id, 0) + 1
        if study.progress is not None:
            study.progress(k, from_cache, done, total, worker_id or None)

    def _accepted(self, run: ShardRun, duplicate: bool) -> dict:
        return {
            "accepted": True,
            "duplicate": duplicate,
            "done": len(run.done),
            "total": run.total,
        }

    def _release(self, study: _Study, shard_index: int, lease_id: str | None) -> None:
        """Drop the lease covering a landed/duplicate shard, if any."""
        held = study.leased.pop(shard_index, None)
        if held is not None:
            self._leases.pop(held, None)
        elif lease_id is not None:
            self._leases.pop(lease_id, None)

    def _reject(self, study: _Study, shard_index: int, lease_id: str | None) -> None:
        """Account a failed verification and requeue the shard."""
        self.stats.rejected_pushes += 1
        held = study.leased.pop(shard_index, None)
        lease = self._leases.pop(held or lease_id or "", None)
        if lease is not None:
            self._requeue(lease, "push rejected by verification")
        elif shard_index not in study.run.pending and shard_index not in study.run.done:
            # No live lease to charge (it already expired, or the push never
            # held one) but the shard is off the queue: re-enqueue through
            # the same attempt accounting, so corrupt pushes consume the
            # requeue budget instead of retrying forever.
            self._requeue_shard(
                study, shard_index, "push rejected by verification (no live lease)"
            )

    def _requeue(self, lease: _Lease, reason: str) -> None:
        """Put an abandoned/failed lease's shard back in its study's queue."""
        study = self._studies[lease.study_id]
        study.leased.pop(lease.shard_index, None)
        if lease.shard_index not in study.run.done:
            self._requeue_shard(study, lease.shard_index, reason)

    def _requeue_shard(self, study: _Study, shard_index: int, reason: str) -> None:
        """Every lease-side requeue — expiry, ``fail()``, push rejection —
        bumps the ``requeues`` gauge and charges the shard's ledger here."""
        self.stats.requeues += 1
        study.run.charge(shard_index, reason)

    def _expire(self) -> None:
        """Requeue every lease whose deadline has passed (every lease, once
        the coordinator is closed)."""
        now = self._clock()
        expired = [lid for lid, ls in self._leases.items() if self._closed or ls.deadline < now]
        for lease_id in expired:
            lease = self._leases.pop(lease_id)
            self._requeue(
                lease,
                f"lease {lease.lease_id} expired on worker {lease.worker_id}",
            )
