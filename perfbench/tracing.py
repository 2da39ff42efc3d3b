"""In-memory span tracer and the timing shims of the benchmark's traced run.

Every shim wraps a layer's entry point *at the place the service calls it*
(a module global, a class attribute or an instance attribute) and restores
it afterwards; nothing under ``src/`` is edited.  A span records its layer,
the study it belongs to, its thread, wall-clock start and end, and its self
time: its duration minus the part of it that its child spans (same thread,
nested inside it) cover.  Spans stay in memory until :meth:`Tracer.dump`.

Study attribution is by the spec's display name, which the benchmark makes
unique per request: a thread is *bound* to a study while it works for one
(a job thread inside ``JobManager._run_job``, a client thread inside one
request, a fleet worker between a lease and its push), and every span the
thread opens inherits that binding.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from collections import defaultdict


class _Frame:
    __slots__ = ("layer", "study", "start", "child_s")

    def __init__(self, layer: str, study: str | None, start: float) -> None:
        self.layer = layer
        self.study = study
        self.start = start
        self.child_s = 0.0


class Tracer:
    """Spans plus per-study counters, recorded only while ``enabled``."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[tuple] = []  # (study, layer, thread, start, end, self_s)
        self.counts: dict[tuple[str | None, str], float] = defaultdict(float)
        self.job_names: dict[str, str] = {}  # job id -> study name
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- attribution ----------------------------------------------------- #
    def current(self) -> str | None:
        return getattr(self._local, "study", None)

    @contextlib.contextmanager
    def bind(self, study: str | None):
        previous = self.current()
        self._local.study = study
        try:
            yield
        finally:
            self._local.study = previous

    def rebind(self, study: str | None) -> None:
        self._local.study = study

    # -- recording ------------------------------------------------------- #
    @contextlib.contextmanager
    def span(self, layer: str, study: str | None = None):
        if not self.enabled:
            yield None
            return
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if study is None:
            study = stack[-1].study if stack else self.current()
        frame = _Frame(layer, study, time.time())
        stack.append(frame)
        try:
            yield frame
        finally:
            end = time.time()
            stack.pop()
            duration = end - frame.start
            if stack:
                stack[-1].child_s += duration
            record = (
                frame.study, layer, threading.get_ident(),
                frame.start, end, duration - frame.child_s,
            )
            with self._lock:
                self.spans.append(record)

    def record(self, layer: str, study: str | None, start: float, end: float) -> None:
        """A leaf span timed by the caller, on a thread with no open span."""
        if self.enabled:
            with self._lock:
                self.spans.append(
                    (study, layer, threading.get_ident(), start, end, end - start)
                )

    def add(self, study: str | None, key: str, value: float = 1.0) -> None:
        if self.enabled:
            with self._lock:
                self.counts[(study, key)] += value

    def dump(self, path) -> None:
        """Write every span as one JSON line (the end-of-run trace file)."""
        with open(path, "w", encoding="utf-8") as handle:
            for study, layer, thread, start, end, self_s in self.spans:
                handle.write(json.dumps({
                    "study": study, "layer": layer, "thread": thread,
                    "start": start, "end": end, "self_s": self_s,
                }) + "\n")


class Shims:
    """Installs timing wrappers and puts every original back on restore."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: list[tuple[object, str, object, bool]] = []

    @staticmethod
    def _require(owner, attr: str) -> None:
        # A missing attribute means the layer moved or was renamed; patching
        # it anyway would create a new name nobody calls and silently zero
        # the layer, so refuse loudly.
        if not hasattr(owner, attr):
            raise RuntimeError(f"trace shim target {owner!r}.{attr} does not exist")

    def patch(self, owner, attr: str, replacement) -> None:
        self._require(owner, attr)
        own = attr in vars(owner)
        self._saved.append((owner, attr, vars(owner).get(attr), own))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, layer: str, study_of=None, after=None) -> None:
        """Replace ``owner.attr`` with a timed call of the current callable.

        ``study_of(*args)`` names the study a call works for (default: the
        thread's binding); ``after(study, result, *args)`` records counters.
        """
        self._require(owner, attr)
        original = getattr(owner, attr)
        tracer = self.tracer

        @functools.wraps(original)
        def timed(*args, **kwargs):
            study = study_of(*args, **kwargs) if study_of is not None else None
            with tracer.span(layer, study) as frame:
                result = original(*args, **kwargs)
                if after is not None and frame is not None:
                    after(frame.study, result, *args, **kwargs)
            return result

        self.patch(owner, attr, timed)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value, own = self._saved.pop()
            if own:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)


class _TimedBackend:
    """A registry backend whose batched ``sweep`` is timed."""

    def __init__(self, backend, tracer: Tracer) -> None:
        self._backend = backend
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._backend, name)

    def sweep(self, config, lps):
        with self._tracer.span("backends.sweep") as frame:
            columns = self._backend.sweep(config, lps)
            if frame is not None:
                self._tracer.add(frame.study, "backends.points", len(lps))
        return columns


class _SpecNamespace:
    """Stands in for ``ScenarioSpec`` inside the executor module only."""

    def __init__(self, spec_cls) -> None:
        self._spec_cls = spec_cls
        self.from_dict = spec_cls.from_dict

    def __getattr__(self, name):
        return getattr(self._spec_cls, name)


def _spec_name(spec, *args, **kwargs) -> str:
    return spec.name


def install_service_shims(shims: Shims) -> None:
    """Module- and class-level shims on the server's execution path."""
    from repro.service import jobs
    from repro.studies import executor
    from repro.studies.results import StudyResults

    tracer = shims.tracer

    def run_job(manager, job):
        # The job thread works for this study until the job finishes; the
        # wait since submission is the job's queue time.
        name = job.spec.name
        tracer.job_names[job.job_id] = name
        with tracer.bind(name), tracer.span("jobs.run_job", name):
            tracer.add(name, "jobs.queue_wait_s", time.time() - job.submitted_unix)
            return original_run_job(manager, job)

    original_run_job = jobs.JobManager._run_job
    shims.patch(jobs.JobManager, "_run_job", run_job)
    shims.wrap(jobs, "run_study", "executor.run_study", study_of=_spec_name)
    shims.wrap(jobs, "study_key", "cache.key", study_of=_spec_name)

    def encoded(study, body, results):
        tracer.add(study, "results.artifact_bytes", len(body))

    shims.wrap(
        StudyResults, "artifact_bytes", "results.encode",
        study_of=lambda results: results.spec.name, after=encoded,
    )

    holder = _SpecNamespace(executor.ScenarioSpec)
    shims.wrap(holder, "from_dict", "spec.decode")
    shims.patch(executor, "ScenarioSpec", holder)

    original_get = executor.get_backend
    shims.patch(executor, "get_backend", lambda name: _TimedBackend(original_get(name), tracer))
    shims.wrap(executor, "shard_schedule", "scheduler.shard_schedule")

    def simulated(study, columns, config, lps_run, *args, **kwargs):
        tracer.add(study, "contention.rows", len(lps_run))

    shims.wrap(executor, "contention_columns", "contention.simulate", after=simulated)


def install_cache_shims(shims: Shims, cache) -> None:
    """Instance shims on the server's ``StudyCache``."""
    tracer = shims.tracer

    def loaded(study, table, *args, **kwargs):
        tracer.add(study, "cache.hits" if table is not None else "cache.misses")

    def stored(study, path, spec, shard_size, shard_index, table):
        tracer.add(study, "cache.store_bytes", table.nbytes)

    shims.wrap(cache, "shard_key", "cache.key", study_of=_spec_name)
    shims.wrap(cache, "load_shard", "cache.load", study_of=_spec_name, after=loaded)
    shims.wrap(cache, "store_shard", "cache.store", study_of=_spec_name, after=stored)


def install_coordinator_shims(shims: Shims, coordinator) -> None:
    """Instance shims on the server's ``ShardCoordinator`` (fleet only)."""
    tracer = shims.tracer
    shims.wrap(coordinator, "register_study", "coordinator.register", study_of=_spec_name)
    shims.wrap(coordinator, "wait", "coordinator.wait")
    shims.wrap(
        coordinator, "push", "coordinator.push",
        study_of=lambda study_id, *a, **kw: tracer.job_names.get(study_id),
    )


class TimedTransport:
    """``HttpCoordinatorTransport`` with its lease and push verbs timed.

    A lease binds the worker thread to the leased study until the next
    pull, so the evaluation spans in between are attributed to it.
    """

    def __init__(self, transport, tracer: Tracer) -> None:
        self._transport = transport
        self._tracer = tracer

    def lease(self, worker_id):
        tracer = self._tracer
        tracer.rebind(None)
        start = time.time()
        lease = self._transport.lease(worker_id)
        if lease is None:
            tracer.add(None, "worker.empty_pulls")
            return None
        # The study is known only once the lease arrives, so the span is
        # recorded afterwards (a leaf at the top of the worker's stack).
        study = lease["spec"].get("name")
        tracer.record("worker.lease", study, start, time.time())
        tracer.rebind(study)
        return lease

    def push(self, study_id, shard_index, data, digest, **kwargs):
        with self._tracer.span("worker.push") as frame:
            body = self._transport.push(study_id, shard_index, data, digest, **kwargs)
            if frame is not None:
                self._tracer.add(frame.study, "worker.push_bytes", len(data))
        return body

    def fail(self, lease_id, message="worker reported failure"):
        return self._transport.fail(lease_id, message)


def wrap_client(shims: Shims, client) -> None:
    """Instance shims on one ``StudyServiceClient``: submit, polls, fetch."""
    tracer = shims.tracer

    def polled(study, snapshot, job_id):
        if snapshot.get("state") in ("done", "failed"):
            tracer.add(study, "client.done_seen_unix", time.time())

    def fetched(study, artifact, job_id):
        tracer.add(study, "client.fetch_bytes", len(artifact.body))

    shims.wrap(client, "submit", "client.submit")
    shims.wrap(client, "status", "client.status", after=polled)
    shims.wrap(client, "artifact", "client.fetch", after=fetched)
