"""The study job manager: a bounded queue of deterministic study runs.

A :class:`Job` is one execution of :func:`repro.studies.run_study` for one
:class:`~repro.studies.ScenarioSpec`.  Its identity *is* the study's
content address (:func:`repro.studies.cache.study_key` over the effective
grid + shard grid + column schema + code version), which buys three
properties the HTTP layer leans on:

* **idempotent submission** — the same grid submitted twice is the same
  job; the second submission attaches to the first (``deduplicated``),
  whatever state it is in, and never re-executes anything;
* **deterministic state transitions** — ``queued -> running -> done``
  or ``queued -> running -> failed``, enforced by :meth:`Job.transition`;
  a job can never move backwards or skip ``running``;
* **honest cache accounting** — per-shard progress distinguishes shards
  served from the content-addressed :class:`~repro.studies.StudyCache`
  from shards actually computed, so an artifact response can truthfully
  declare whether it was answered without re-execution.

Execution happens on a small pool of daemon worker threads consuming a
bounded :class:`queue.Queue`; a full queue rejects the submission (the
HTTP layer maps that to 429) instead of buffering unboundedly.  Finished
jobs are equally bounded: beyond ``max_retained_jobs`` the oldest-finished
entries (artifact bytes included) are evicted — with a ``StudyCache``
configured their bytes remain reproducible for free, so an evicted grid
simply resubmits as a fresh cache-served job.

With a :class:`~repro.service.journal.JobJournal` configured, every
lifecycle event is durably appended before it is acknowledged, and a
fresh manager over the same journal *recovers* the job table: failed
jobs are restored as failed (error preserved), everything else —
queued, interrupted ``running``, and finished ``done`` jobs alike — is
re-queued and re-executed.  Through a shared ``StudyCache`` that
re-execution is a byte-identical re-serve of every previously computed
shard, which is exactly how a restarted server re-serves finished grids
with identical bytes and completes the interrupted ones.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from ..exceptions import ValidationError
from ..studies import ScenarioSpec, StudyCache, run_study, shard_ranges, study_key
from ..studies.executor import DEFAULT_SHARD_SIZE
from .journal import JobJournal
from .protocol import ERR_EXECUTION, ERR_QUEUE_FULL, ServiceError

__all__ = ["Job", "JobManager", "JobState"]


class JobState(str, Enum):
    """Lifecycle of one study job (transitions only ever move rightwards)."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"


_TERMINAL_STATES = frozenset({JobState.DONE, JobState.FAILED})

#: The legal transition edges.  Everything else is a programming error.
_TRANSITIONS: dict[JobState, frozenset[JobState]] = {
    JobState.QUEUED: frozenset({JobState.RUNNING}),
    JobState.RUNNING: frozenset({JobState.DONE, JobState.FAILED}),
    JobState.DONE: frozenset(),
    JobState.FAILED: frozenset(),
}


@dataclass
class Job:
    """One study execution and its observable progress.

    Mutable fields are only touched under the owning manager's lock; the
    HTTP layer reads consistent snapshots via :meth:`snapshot`.
    """

    job_id: str
    spec: ScenarioSpec
    shard_size: int
    state: JobState = JobState.QUEUED
    shards_total: int = 0
    shards_done: int = 0
    shards_from_cache: int = 0
    artifact: bytes | None = None
    error: dict | None = None
    #: Shards landed per worker id (distributed dispatch only; cache-served
    #: shards attribute to ``"<cache>"``, inline-drained ones to
    #: ``"<coordinator>"``).  Empty for local ProcessPool execution.
    worker_shards: dict = field(default_factory=dict)
    #: Wall-clock submission/finish times (unix seconds).  Observability
    #: only — they live in status snapshots and the journal, never in the
    #: artifact, which stays free of volatile fields.
    submitted_unix: float = 0.0
    finished_unix: float | None = None

    def transition(self, new_state: JobState) -> None:
        """Move to ``new_state``; illegal edges raise (never silently skip)."""
        if new_state not in _TRANSITIONS[self.state]:
            raise ValidationError(
                f"illegal job transition {self.state.value} -> {new_state.value}"
            )
        self.state = new_state

    @property
    def shards_computed(self) -> int:
        return self.shards_done - self.shards_from_cache

    @property
    def served_from_cache(self) -> bool:
        """Whether this job's bytes were produced without executing a shard."""
        return self.state is JobState.DONE and self.shards_computed == 0

    def snapshot(self) -> dict:
        """A JSON-ready status view (no artifact bytes; those have their own route)."""
        return {
            "job_id": self.job_id,
            "name": self.spec.name,
            "state": self.state.value,
            "num_points": self.spec.num_points,
            "shard_size": self.shard_size,
            "progress": {
                "shards_done": self.shards_done,
                "shards_total": self.shards_total,
                "shards_from_cache": self.shards_from_cache,
                "workers": dict(sorted(self.worker_shards.items())),
            },
            "served_from_cache": self.served_from_cache,
            "error": self.error,
            "submitted_unix": self.submitted_unix,
            "finished_unix": self.finished_unix,
        }


class JobManager:
    """Owns the job table, the bounded queue, and the worker threads.

    Parameters
    ----------
    cache:
        Optional shard store shared by every job.  With a cache, a job
        whose grid was ever computed before (by any prior job, process, or
        server) is served byte-identically without re-executing shards.
    queue_size:
        Bound on jobs waiting to run.  A full queue rejects submissions
        with :data:`~repro.service.protocol.ERR_QUEUE_FULL`.
    job_workers:
        Worker threads executing jobs.  ``0`` starts none — submissions
        queue up but never run (used by tests to observe ``queued`` state
        and queue overflow deterministically).
    executor_workers / shard_size:
        Passed through to :func:`repro.studies.run_study` for every job.
        ``shard_size`` is part of each job's identity (it partitions the
        Monte-Carlo streams), so one service instance uses one value.
    max_retained_jobs:
        Retention bound on *finished* jobs (done or failed).  Beyond it the
        oldest-finished jobs (artifact bytes included) are evicted from the
        in-memory table, so a long-running server cannot grow without
        bound; an evicted grid resubmits as a fresh job whose shards the
        ``StudyCache`` serves byte-identically.
    coordinator:
        Optional :class:`~repro.distributed.ShardCoordinator`.  With one,
        jobs execute by *registering* their shard grid for distributed
        dispatch instead of calling :func:`run_study` — attached workers
        pull leases and push verified shard bytes, and the job's progress
        gains per-worker attribution.  Liveness is never hostage to the
        fleet: with no workers attached (or a stalled fleet — no lease or
        landing activity for a full lease TTL) the manager drains the
        remaining shards inline, which is byte-identical by construction.
    journal:
        Optional :class:`~repro.service.journal.JobJournal` (or a path to
        back one).  Lifecycle events are durably appended, and this
        constructor *replays* any existing journal into the job table
        before the workers start: failed jobs are restored as failed,
        everything else is re-queued (recovered jobs that would overflow
        the bounded queue are left in the journal for a roomier restart).
        Recovery skips entries whose recorded job id no longer matches the
        recomputed content hash — a code-version bump retires stale
        journal entries exactly like it retires stale cache entries.
    """

    def __init__(
        self,
        cache: StudyCache | None = None,
        queue_size: int = 64,
        job_workers: int = 2,
        executor_workers: int = 1,
        shard_size: int = DEFAULT_SHARD_SIZE,
        max_retained_jobs: int = 1024,
        journal: JobJournal | str | Path | None = None,
        coordinator=None,
    ) -> None:
        if queue_size < 1:
            raise ValidationError(f"queue_size must be >= 1, got {queue_size}")
        if job_workers < 0:
            raise ValidationError(f"job_workers must be >= 0, got {job_workers}")
        if max_retained_jobs < 1:
            raise ValidationError(
                f"max_retained_jobs must be >= 1, got {max_retained_jobs}"
            )
        self.cache = cache
        self.shard_size = shard_size
        self.executor_workers = executor_workers
        self.max_retained_jobs = max_retained_jobs
        self.coordinator = coordinator
        self._queue: queue.Queue[Job | None] = queue.Queue(maxsize=queue_size)
        self._jobs: dict[str, Job] = {}
        self._finished_order: deque[str] = deque()
        self._lock = threading.RLock()
        #: Notified whenever a job settles (done or failed), whenever
        #: retirement evicts jobs, and by :meth:`stop`: the one event
        #: :meth:`wait_settled` blocks on.
        self._settled = threading.Condition(self._lock)
        self._threads: list[threading.Thread] = []
        self._job_workers = job_workers
        self._started = False
        self._stopping = False
        #: Total shards actually computed (not cache-served) across all jobs —
        #: what the "no re-execution" tests assert against.
        self.executed_shards = 0
        if isinstance(journal, (str, Path)):
            journal = JobJournal(journal)
        self.journal = journal
        #: Jobs rebuilt from the journal by this manager (health telemetry).
        self.recovered_jobs = 0
        if self.journal is not None:
            self._recover()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        with self._lock:
            if self._started:
                return
            self._started = True
            for i in range(self._job_workers):
                thread = threading.Thread(
                    target=self._worker, name=f"study-job-worker-{i}", daemon=True
                )
                thread.start()
                self._threads.append(thread)

    def stop(self) -> None:
        """Stop the workers (idle ones exit immediately; busy ones finish
        their current job first).  Queued jobs stay queued — the backlog
        is *not* executed on the way down.  A running distributed job does
        not wait for its fleet: the coordinator is closed, so its leases
        expire now and its pending shards drain inline.  Pending
        :meth:`wait_settled` calls return at once with the job's current
        snapshot."""
        with self._lock:
            threads, self._threads = self._threads, []
            self._started = False
            self._stopping = True
            self._settled.notify_all()
        try:
            # Drain unstarted jobs so the sentinel puts below cannot block on
            # a full queue and no worker picks up new work (jobs stay QUEUED
            # in the table); a worker that races a job out of the queue here
            # sees the stopping flag and re-queues nothing.
            while True:
                try:
                    self._queue.get_nowait()
                except queue.Empty:
                    break
            if self.coordinator is not None:
                self.coordinator.close()
            for _ in threads:
                self._queue.put(None)
            for thread in threads:
                thread.join()
        finally:
            self._stopping = False

    # ------------------------------------------------------------------ #
    # Submission / lookup
    # ------------------------------------------------------------------ #
    def submit(self, spec: ScenarioSpec) -> tuple[dict, bool]:
        """Enqueue ``spec``; returns ``(status_snapshot, deduplicated)``.

        Identical grids (same :func:`study_key`) deduplicate onto the
        existing job regardless of its state.  A full queue raises
        :class:`ServiceError` with :data:`ERR_QUEUE_FULL`.
        """
        job_id = study_key(spec, self.shard_size)
        with self._lock:
            existing = self._jobs.get(job_id)
            if existing is not None:
                return existing.snapshot(), True
            job = Job(
                job_id=job_id,
                spec=spec,
                shard_size=self.shard_size,
                shards_total=len(shard_ranges(spec.num_points, self.shard_size)),
                submitted_unix=time.time(),
            )
            try:
                self._queue.put_nowait(job)
            except queue.Full:
                raise ServiceError(
                    ERR_QUEUE_FULL,
                    f"job queue is full ({self._queue.maxsize} pending); retry later",
                    status=429,
                ) from None
            self._jobs[job_id] = job
            self._journal_event(
                "submitted",
                job,
                spec=spec.to_dict(),
                shard_size=job.shard_size,
                unix=job.submitted_unix,
            )
            return job.snapshot(), False

    def status(self, job_id: str) -> dict | None:
        """Status snapshot of ``job_id``, or ``None`` if unknown."""
        with self._lock:
            job = self._jobs.get(job_id)
            return None if job is None else job.snapshot()

    def wait_settled(self, job_id: str, timeout: float) -> dict | None:
        """Block until ``job_id`` is done or failed, or ``timeout`` seconds pass.

        Returns the job's snapshot at that point (terminal or not), or
        ``None`` if the job is unknown or is evicted while waiting.  The
        wait sleeps on the settle condition, never in a poll loop; a
        manager that is not started returns at once, so :meth:`stop` cuts
        every pending wait short.
        """

        def settled_or_gone() -> bool:
            job = self._jobs.get(job_id)
            return job is None or job.state in _TERMINAL_STATES or not self._started

        with self._settled:
            self._settled.wait_for(settled_or_gone, timeout)
            job = self._jobs.get(job_id)
            return None if job is None else job.snapshot()

    def artifact(self, job_id: str) -> tuple[bytes, dict] | None:
        """``(artifact_bytes, status_snapshot)`` of ``job_id``, or ``None``.

        Only meaningful for ``done`` jobs; callers branch on the snapshot's
        state for the not-ready/failed responses.
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return None
            return job.artifact, job.snapshot()

    def counts(self) -> dict[str, int]:
        """Jobs per state (the health endpoint's queue gauge)."""
        with self._lock:
            out = {state.value: 0 for state in JobState}
            for job in self._jobs.values():
                out[job.state.value] += 1
            return out

    def list_jobs(self) -> list[dict]:
        """Status snapshots of every known job, oldest submission first."""
        with self._lock:
            snapshots = [job.snapshot() for job in self._jobs.values()]
        snapshots.sort(key=lambda s: (s["submitted_unix"], s["job_id"]))
        return snapshots

    @property
    def queue_capacity(self) -> int:
        return self._queue.maxsize

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def _worker(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                return
            if self._stopping:
                continue  # shutdown in progress: leave the job queued, await sentinel
            self._run_job(job)

    def _run_job(self, job: Job) -> None:
        with self._lock:
            job.transition(JobState.RUNNING)
            self._journal_event("running", job)

        def on_progress(
            shard_index: int, from_cache: bool, done: int, total: int,
            worker_id: str | None = None,
        ) -> None:
            with self._lock:
                job.shards_done = done
                job.shards_total = total
                if from_cache:
                    job.shards_from_cache += 1
                else:
                    self.executed_shards += 1
                if self.coordinator is not None:
                    owner = "<cache>" if from_cache else (worker_id or "<coordinator>")
                    job.worker_shards[owner] = job.worker_shards.get(owner, 0) + 1

        try:
            if self.coordinator is not None:
                results = self._run_distributed(job, on_progress)
            else:
                results = run_study(
                    job.spec,
                    workers=self.executor_workers,
                    shard_size=job.shard_size,
                    cache=self.cache,
                    progress=on_progress,
                )
            artifact = results.artifact_bytes()
        except Exception as exc:  # noqa: BLE001 - jobs must never kill a worker
            with self._lock:
                job.error = {"code": ERR_EXECUTION, "message": str(exc)}
                job.finished_unix = time.time()
                job.transition(JobState.FAILED)
                self._journal_event("failed", job, error=job.error, unix=job.finished_unix)
                self._retire(job)
            return
        with self._lock:
            job.artifact = artifact
            job.finished_unix = time.time()
            job.transition(JobState.DONE)
            self._journal_event("done", job, unix=job.finished_unix)
            self._retire(job)

    def _run_distributed(self, job: Job, on_progress):
        """Execute one job through the shard coordinator.

        Registers the study under the job's content-address id with
        ``on_progress`` (which records worker attribution) as its
        per-shard feed, and waits.  If the fleet goes quiet — no worker
        ever attached, or a full lease TTL passes with no lease or
        landing activity — the pending shards are drained inline, so a
        distributed server never hangs a job on an absent fleet; a lease
        still outstanding then expires and is drained on a later slice,
        and a straggling worker's late duplicates stay idempotent.
        """
        coordinator = self.coordinator
        coordinator.register_study(
            job.spec,
            shard_size=job.shard_size,
            study_id=job.job_id,
            progress=on_progress,
        )
        stall_s = max(coordinator.lease_ttl_s, 1.0)
        last_activity = None
        while True:
            try:
                return coordinator.wait(job.job_id, timeout=stall_s)
            except TimeoutError:
                snapshot = coordinator.progress_snapshot(job.job_id)
                health = coordinator.health()
                activity = (
                    snapshot["done"], health["leases_granted"], health["workers"]
                )
                if health["workers"] == 0 or activity == last_activity:
                    coordinator.drain_inline(job.job_id)
                last_activity = activity

    def _retire(self, job: Job) -> None:
        """Record a settled job, evict beyond the retention bound and wake
        every :meth:`wait_settled` caller (locked)."""
        self._finished_order.append(job.job_id)
        while len(self._finished_order) > self.max_retained_jobs:
            self._jobs.pop(self._finished_order.popleft(), None)
        self._settled.notify_all()

    # ------------------------------------------------------------------ #
    # Durability
    # ------------------------------------------------------------------ #
    def _journal_event(self, event: str, job: Job, **fields) -> None:
        if self.journal is not None:
            self.journal.append({"event": event, "job_id": job.job_id, **fields})

    def _recover(self) -> None:
        """Rebuild the job table from the journal (constructor-time, unlocked).

        Failed jobs come back as failed records.  Every other journaled
        job — queued, interrupted ``running``, or ``done`` — is re-queued
        for execution: artifact bytes are never journaled, but they are a
        pure function of the spec, so re-running (through the shared
        ``StudyCache``, a pure re-serve for finished grids) reproduces
        them byte-identically.
        """
        for job_id, record in JobJournal.replay(self.journal.load()).items():
            try:
                spec = ScenarioSpec.from_dict(record["spec"])
            except ValidationError:
                continue  # e.g. a custom backend not registered in this process
            shard_size = record["shard_size"]
            if not isinstance(shard_size, int) or study_key(spec, shard_size) != job_id:
                continue  # stale code version or hand-edited journal: distrust
            job = Job(
                job_id=job_id,
                spec=spec,
                shard_size=shard_size,
                shards_total=len(shard_ranges(spec.num_points, shard_size)),
                submitted_unix=float(record["submitted_unix"] or 0.0),
            )
            if record["state"] == "failed":
                job.state = JobState.FAILED
                job.error = record["error"]
                finished = record["finished_unix"]
                job.finished_unix = None if finished is None else float(finished)
                self._jobs[job_id] = job
                self._finished_order.append(job_id)
            else:
                try:
                    self._queue.put_nowait(job)
                except queue.Full:
                    continue  # stays in the journal for a roomier restart
                self._jobs[job_id] = job
            self.recovered_jobs += 1
