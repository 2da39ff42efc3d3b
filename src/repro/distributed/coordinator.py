"""The shard coordinator: lease bookkeeping for distributed studies.

A :class:`ShardCoordinator` owns the authoritative state of every
registered study: which shards are pending, which are leased out (and
until when), which have landed.  Workers interact through three verbs —

``lease(worker_id)``
    Hand the calling worker one shard descriptor: the pending shard with
    the largest modeled cost, ties to the lowest index
    (:func:`~repro.distributed.scheduler.largest_first`, the one dispatch
    rule).  The lease carries a deadline: a worker that never comes back
    (crash, SIGKILL, network partition) simply lets the deadline pass and
    the shard is *requeued* with its attempt number bumped — the
    coordinator-owned analogue of the executor's parent-owned retry
    attempts, so fault schedules converge across worker respawns.
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
top of it: the lease table, TTLs, the attached-worker set, the dispatch
rule, payload verification and :class:`CoordinatorStats`.  ``lease``
takes from the engine's pending queue, ``push`` verifies and then lands
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

A study lives from :meth:`ShardCoordinator.register_study` to
:meth:`ShardCoordinator.wait`, and ``wait`` owns its liveness: every
poll it expires leases, and when the fleet goes quiet — no lease granted,
no shard landed and no worker attached for ``max(lease_ttl_s, 1.0)``
seconds on the coordinator's clock — it drains the study inline.  Once
the study settles, ``wait`` hands back its results (or raises its
:class:`~repro.exceptions.ShardError`) and forgets it, with every lease
that still names it; a later push for it is refused with
:class:`~repro.exceptions.UnknownStudy`, which a worker drops.

The coordinator never computes shards itself (outside ``drain_inline``)
and holds no wall-clock state in results: all timing lives in leases and
stats, outside the artifact.  Once closed (:meth:`ShardCoordinator.close`,
when its server stops) it grants no leases and each ``wait`` drains its
study inline.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import threading
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, field

import numpy as np

from ..exceptions import PushRejected, ShardError, UnknownStudy, ValidationError
from ..faults import FaultPlan
from ..studies.cache import StudyCache, study_key
from ..studies.executor import DEFAULT_SHARD_SIZE, ShardRun
from ..studies.results import StudyResults, table_dtype
from ..studies.spec import ScenarioSpec
from .scheduler import largest_first, shard_costs

__all__ = ["ShardCoordinator", "CoordinatorStats", "DistProgress"]

#: Per-shard progress feed of a coordinated study:
#: ``progress(shard_index, from_cache, done, total, worker_id)`` —
#: the executor's ProgressCallback plus the worker attribution
#: (``None`` for cache-served and inline-drained shards).
DistProgress = Callable[[int, bool, int, int, "str | None"], None]

#: How often :meth:`ShardCoordinator.wait` wakes to expire leases and
#: check for a stalled fleet.
_WAIT_POLL_S = 0.05


@dataclass
class CoordinatorStats:
    """Dispatch telemetry — deliberately *outside* the artifact bytes."""

    leases_granted: int = 0
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
    progress: "DistProgress | None"
    leased: dict = field(default_factory=dict)    # shard_index -> lease_id


class ShardCoordinator:
    """Thread-safe lease table over any number of registered studies.

    Parameters
    ----------
    cache:
        Optional shared :class:`StudyCache`.  Registration pre-serves
        cached shards; accepted pushes are stored, so the cache remains
        the single store across topologies.
    lease_ttl_s:
        Lease lifetime.  An unexpired lease blocks re-dispatch of its
        shard; expiry requeues it with the attempt number bumped.
    max_requeues:
        Per-shard budget of failed attempts — lease expiries, ``fail()``
        reports, rejected pushes and inline-drain failures all charge the
        same ledger — before the study is declared failed (faults must
        converge, not spin forever).
    clock:
        Injectable monotonic clock for lease expiry, the stall rule and
        ``wait`` timeouts — tests drive all three deterministically
        instead of sleeping.
    """

    def __init__(
        self,
        cache: StudyCache | None = None,
        lease_ttl_s: float = 30.0,
        max_requeues: int = 10,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if lease_ttl_s <= 0:
            raise ValidationError(f"lease_ttl_s must be positive, got {lease_ttl_s}")
        if max_requeues < 1:
            raise ValidationError(f"max_requeues must be >= 1, got {max_requeues}")
        self.cache = cache
        self.lease_ttl_s = float(lease_ttl_s)
        self.max_requeues = int(max_requeues)
        self.stats = CoordinatorStats()
        self._clock = clock
        self._lock = threading.RLock()
        self._studies: dict[str, _Study] = {}  # insertion order is the dispatch FIFO
        self._leases: dict[str, _Lease] = {}
        self._workers: set[str] = set()        # every worker that ever leased
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
        progress: DistProgress | None = None,
    ) -> str:
        """Enqueue a study's shard grid for dispatch; returns its id.

        The id defaults to the study's content address
        (:func:`~repro.studies.cache.study_key`) — the same identity the
        job server dedups on.  Re-registering an id the coordinator still
        holds is rejected (the caller already dedups identical
        submissions); once :meth:`wait` has handed a study back its id is
        free again, which is how an evicted-then-resubmitted job reruns.
        The cache pre-pass runs before the study becomes leasable.
        """
        study_id = study_key(spec, shard_size) if study_id is None else study_id
        costs = shard_costs(spec, shard_size)
        run = ShardRun(
            spec,
            shard_size,
            budget=self.max_requeues,
            # The dispatch rule as the run's queue order, which a requeue
            # keeps: the head of the queue is the largest pending shard.
            order=sorted(range(len(costs)), key=largest_first(costs)),
            cache=self.cache,
            lock=self._lock,
        )
        study = _Study(run=run, progress=progress)
        run.progress = functools.partial(self._landed, study)
        # Refuse a duplicate before the pre-pass reports progress; the
        # check repeats under the lock because the pre-pass does not hold it.
        self._refuse_held(study_id)
        run.serve_cached()
        with self._lock:
            self._refuse_held(study_id)
            self._studies[study_id] = study
        return study_id

    def wait(self, study_id: str, timeout: float | None = None) -> StudyResults:
        """Block until the study settles, then hand it back and forget it.

        Every poll expires leases, so the all-workers-dead case converges
        to a requeue, and applies the stall rule: when the lease count,
        the study's landed count and the attached-worker count have not
        moved for ``max(lease_ttl_s, 1.0)`` seconds (every poll, once
        closed) the pending shards drain inline.  A settled study is
        dropped with every lease that still names it; its results are
        returned, or its :class:`~repro.exceptions.ShardError` raised.  A
        :class:`TimeoutError` (``timeout`` on the coordinator's clock)
        leaves the study registered.
        """
        study = self._study(study_id)
        run = study.run
        stall_s = max(self.lease_ttl_s, 1.0)
        started = self._clock()
        activity = quiet_since = None
        while not run.settled.is_set():
            with self._lock:
                self._expire()
                now = self._clock()
                seen = (self.stats.leases_granted, len(run.done), len(self._workers))
            if seen != activity:
                activity, quiet_since = seen, now
            if timeout is not None and now - started > timeout:
                raise TimeoutError(
                    f"study {study_id} incomplete after {timeout}s "
                    f"({len(run.done)}/{run.total} shards)"
                )
            if self._closed or now - quiet_since >= stall_s:
                with contextlib.suppress(ShardError):  # settled: raised below
                    self.drain_inline(study_id)
            run.settled.wait(_WAIT_POLL_S)
        with self._lock:
            if self._studies.get(study_id) is study:
                del self._studies[study_id]
                for lease_id in study.leased.values():
                    self._leases.pop(lease_id, None)
        if run.error is not None:
            raise run.error
        return run.results()

    # ------------------------------------------------------------------ #
    # The worker-facing verbs
    # ------------------------------------------------------------------ #
    def lease(self, worker_id: str) -> dict | None:
        """One shard descriptor for ``worker_id``, or None when idle.

        The shard comes from the oldest registered study with pending
        work, chosen by the one dispatch rule (:func:`largest_first`).
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
            self._workers.add(worker_id)
            for study_id, study in self._studies.items():
                run = study.run
                k = run.take()
                if k is None:
                    continue
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
        worker_id: str,
        lease_id: str | None = None,
    ) -> dict:
        """Verify and land one computed shard; idempotent for landed shards.

        ``worker_id`` must be non-empty, as for :meth:`lease`: the
        progress feed's ``None`` is kept for inline-drained shards.
        Raises :class:`~repro.exceptions.UnknownStudy` once the study has
        been handed back (or was never registered)."""
        if not worker_id:
            raise ValidationError("worker_id must be non-empty")
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
            shard = np.frombuffer(data, dtype=table_dtype())  # place() copies it
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
        with self._lock:
            self._expire()
        run.drain(FaultPlan.from_env() if faults is None else faults)

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
                "studies_active": active,
                **self.stats.as_dict(),
            }

    # ------------------------------------------------------------------ #
    # Internals (call with the lock held)
    # ------------------------------------------------------------------ #
    def _study(self, study_id: str) -> _Study:
        with self._lock:
            try:
                return self._studies[study_id]
            except KeyError:
                raise UnknownStudy(f"unknown study {study_id!r}") from None

    def _refuse_held(self, study_id: str) -> None:
        with self._lock:
            if study_id in self._studies:
                raise ValidationError(f"study {study_id!r} is already registered")

    def _landed(
        self, study: _Study, k: int, from_cache: bool, done: int, total: int,
        worker_id: str | None,
    ) -> None:
        """Every landing's telemetry, then the study's progress feed (the
        one place per-worker attribution is kept).  ``worker_id`` is None
        for a cache-served or inline-drained shard."""
        with self._lock:
            if from_cache:
                self.stats.cache_served_shards += 1
            elif worker_id is None:
                self.stats.inline_shards += 1
        if study.progress is not None:
            study.progress(k, from_cache, done, total, worker_id)

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
