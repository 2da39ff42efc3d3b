"""The shard worker: pull a lease, evaluate, push verified bytes.

A :class:`ShardWorker` is the distributed counterpart of one ProcessPool
worker: it runs the *same* top-level ``_run_shard`` the pool path runs,
so the bytes it pushes are the bytes a local run would have written.
Everything study-specific arrives in the lease descriptor (spec payload,
shard_size, shard index, coordinator-owned attempt number).  Between
pulls the worker keeps only its identity and the
:class:`~repro.studies.executor.StudyPlan` of its last lease, reused
while the next lease names the same spec payload and shard_size.

Transport is pluggable: hand it a :class:`ShardCoordinator` directly
(in-process topology tests) or an :class:`HttpCoordinatorTransport`
(the ``cli worker`` process path).  Both expose the same three verbs —
``lease`` / ``push`` / ``fail`` — and both can fail, which is where the
``worker-pull`` / ``worker-push`` fault sites and the executor's
:class:`~repro.studies.executor.RetryPolicy` backoff come in: transport
faults are retried with seeded-jitter exponential backoff, evaluation
errors are reported via ``fail`` (immediate requeue), and an injected
``worker-death`` abandons the loop outright — silently, so the
coordinator's lease deadline (not worker goodwill) is what recovers the
shard.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass

from .._json import canonical_line
from .._rng import spawn_stream
from ..exceptions import DistributedError, PushRejected, ValidationError
from ..faults import (
    SITE_SHARD_EVAL,
    SITE_WORKER_DEATH,
    SITE_WORKER_PULL,
    SITE_WORKER_PUSH,
    FaultInjected,
    FaultPlan,
)
from ..service.protocol import (
    ERR_SHARD_REJECTED,
    HEADER_LEASE_ID,
    HEADER_SHARD_DIGEST,
    HEADER_SHARD_INDEX,
    HEADER_SHARD_STUDY,
    HEADER_WORKER_ID,
    ServiceError,
    exchange,
)
from ..studies.executor import _WORKER_DEATH_EXIT, RetryPolicy, StudyPlan, _run_shard

__all__ = ["ShardWorker", "WorkerStats", "HttpCoordinatorTransport"]

#: Spawn-key domain for worker transport-backoff jitter — distinct from
#: the executor's MC (one component) and backoff (``_BACKOFF_DOMAIN``)
#: stream families, so worker retries can never perturb either.
_TRANSPORT_DOMAIN = 0x90BB


@dataclass
class WorkerStats:
    """One worker loop's lifetime accounting."""

    pulls: int = 0              # lease requests that reached the coordinator
    empty_pulls: int = 0        # pulls answered "no work"
    shards_completed: int = 0   # accepted pushes (duplicates included)
    duplicate_pushes: int = 0   # accepted pushes that were already landed
    pull_faults: int = 0        # injected/real pull transport failures absorbed
    push_faults: int = 0        # injected/real push transport failures absorbed
    eval_failures: int = 0      # evaluation errors reported via fail()
    died: bool = False          # the loop ended via an injected worker death

    def as_dict(self) -> dict:
        return asdict(self)


class HttpCoordinatorTransport:
    """The lease/push/fail verbs over the study service's HTTP protocol.

    Raises :class:`DistributedError` for transport-level failures (the
    worker's retry loop absorbs those), :class:`PushRejected` for a 409
    ``shard-rejected`` verification failure, and :class:`ValidationError`
    for protocol misuse (unknown study, not a coordinator).
    """

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # -- verbs ---------------------------------------------------------- #
    def lease(self, worker_id: str) -> dict | None:
        body = self._post_json(
            "/distributed/lease", canonical_line({"worker_id": worker_id}).encode()
        )
        return body.get("lease")

    def push(
        self,
        study_id: str,
        shard_index: int,
        data: bytes,
        digest: str,
        worker_id: str = "",
        lease_id: str | None = None,
    ) -> dict:
        headers = {
            "Content-Type": "application/octet-stream",
            HEADER_SHARD_STUDY: study_id,
            HEADER_SHARD_INDEX: str(shard_index),
            HEADER_SHARD_DIGEST: digest,
            HEADER_WORKER_ID: worker_id,
        }
        if lease_id is not None:
            headers[HEADER_LEASE_ID] = lease_id
        return self._post_json("/distributed/push", data, headers)

    def fail(self, lease_id: str, message: str = "worker reported failure") -> None:
        self._post_json(
            "/distributed/fail",
            canonical_line({"lease_id": lease_id, "message": message}).encode(),
        )

    # -- plumbing ------------------------------------------------------- #
    def _post_json(
        self, path: str, data: bytes, headers: dict[str, str] | None = None
    ) -> dict:
        try:
            _, _, body = exchange(
                f"{self.base_url}{path}",
                "POST",
                data,
                {"Content-Type": "application/json", **(headers or {})},
                self.timeout,
            )
            payload = json.loads(body or b"{}")
        except ServiceError as exc:
            if exc.code == ERR_SHARD_REJECTED:
                raise PushRejected(exc.details.get("reason", "rejected"), exc.message) from exc
            if exc.status in (400, 404, 409):
                raise ValidationError(
                    f"coordinator rejected {path}: [{exc.code}] {exc.message}"
                ) from exc
            raise DistributedError(f"coordinator failed on {path}: {exc}") from exc
        except ValueError as exc:
            raise DistributedError(f"coordinator sent a non-JSON body on {path}: {exc}") from exc
        if not isinstance(payload, dict):
            raise DistributedError(f"coordinator sent a non-object body on {path}")
        return payload


class ShardWorker:
    """The pull/evaluate/push loop over one coordinator transport.

    Parameters
    ----------
    transport:
        A :class:`~repro.distributed.coordinator.ShardCoordinator` or an
        :class:`HttpCoordinatorTransport` — anything with the three verbs.
    worker_id:
        Identity reported to the coordinator (attribution + slot
        assignment).  Defaults to ``worker-<pid>``.
    faults:
        Optional :class:`FaultPlan`; defaults to the ``REPRO_FAULTS``
        environment hook, which is how a stock ``cli worker`` process is
        chaos-tested.  Sites honored here: ``worker-pull`` /
        ``worker-push`` (transport, retried), ``shard-eval`` (reported
        via ``fail``), ``worker-death`` (abandon — or ``os._exit`` in
        process mode, the real SIGKILL-shaped death).
    retry:
        Backoff budget for consecutive transport failures of one verb.
    poll_s:
        Sleep between empty pulls.
    max_idle_s:
        Exit the loop after this long without work (``None`` = spin
        until stopped or the coordinator goes away).
    exit_on_death:
        When true (the CLI process mode), an injected worker death calls
        ``os._exit`` — indistinguishable from SIGKILL to the coordinator.
        In-process tests leave it false: the loop just returns.
    """

    def __init__(
        self,
        transport,
        worker_id: str | None = None,
        faults: FaultPlan | None = None,
        retry: RetryPolicy | None = None,
        poll_s: float = 0.05,
        max_idle_s: float | None = None,
        exit_on_death: bool = False,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if poll_s < 0:
            raise ValidationError(f"poll_s must be >= 0, got {poll_s}")
        self.transport = transport
        self.worker_id = worker_id or f"worker-{os.getpid()}"
        self.faults = FaultPlan.from_env() if faults is None else faults
        self.retry = RetryPolicy() if retry is None else retry
        self.poll_s = poll_s
        self.max_idle_s = max_idle_s
        self.exit_on_death = exit_on_death
        self.stats = WorkerStats()
        self._clock = clock
        self._sleep = sleep
        self._pull_seq = 0
        self._plan: StudyPlan | None = None
        # Jitter stream for transport backoff: keyed on nothing study-
        # specific (delays shape timing, never bytes).
        self._rng = spawn_stream(0, _TRANSPORT_DOMAIN)

    # ------------------------------------------------------------------ #
    def run(self, max_shards: int | None = None, stop=None) -> WorkerStats:
        """Pull and evaluate shards until idle/stop/death; returns stats.

        ``stop`` is an optional ``threading.Event``-like object checked
        between shards.  Raises :class:`DistributedError` when the
        transport stays down through the whole retry budget, and its
        subclass :class:`PushRejected` at once when the coordinator
        refuses a pushed shard.
        """
        completed = 0
        last_work = self._clock()
        while True:
            if stop is not None and stop.is_set():
                return self.stats
            if max_shards is not None and completed >= max_shards:
                return self.stats
            lease = self._pull()
            if lease is None:
                self.stats.empty_pulls += 1
                if (
                    self.max_idle_s is not None
                    and self._clock() - last_work > self.max_idle_s
                ):
                    return self.stats
                if self.poll_s > 0:
                    self._sleep(self.poll_s)
                continue
            last_work = self._clock()
            if not self._execute(lease):
                return self.stats  # injected death: abandon the lease silently
            completed += 1

    # ------------------------------------------------------------------ #
    def _pull(self) -> dict | None:
        """One lease request under the worker-pull fault site + retries."""
        self._pull_seq += 1
        for attempt in range(self.retry.max_attempts):
            try:
                if (
                    self.faults is not None
                    and self.faults.fires_counted(SITE_WORKER_PULL) is not None
                ):
                    raise FaultInjected(
                        f"injected worker-pull failure (pull {self._pull_seq})"
                    )
                body = self.transport.lease(self.worker_id)
            except (FaultInjected, DistributedError) as exc:
                self.stats.pull_faults += 1
                if attempt + 1 >= self.retry.max_attempts:
                    raise DistributedError(
                        f"lease pull failed after {attempt + 1} attempts: {exc}"
                    ) from exc
                self._backoff(attempt)
            else:
                self.stats.pulls += 1
                return body
        raise AssertionError("unreachable")  # pragma: no cover

    def _execute(self, lease: dict) -> bool:
        """Evaluate one lease and push it; False = die (abandon lease)."""
        k = int(lease["shard_index"])
        attempt = int(lease.get("attempt", 0))
        if self.faults is not None:
            if self.faults.fires(SITE_WORKER_DEATH, key=k, attempt=attempt) is not None:
                self.stats.died = True
                if self.exit_on_death:
                    os._exit(_WORKER_DEATH_EXIT)
                return False
            if self.faults.fires(SITE_SHARD_EVAL, key=k, attempt=attempt) is not None:
                self.stats.eval_failures += 1
                self._fail(lease, f"injected shard-eval failure (attempt {attempt})")
                return True
        try:
            shard = _run_shard(self._plan_for(lease), k, True)
        except Exception as exc:  # noqa: BLE001 - report, don't crash the loop
            self.stats.eval_failures += 1
            self._fail(lease, f"evaluation raised: {exc!r}")
            return True
        data = shard.tobytes()
        digest = hashlib.sha256(data).hexdigest()
        self._push(lease, data, digest)
        return True

    def _plan_for(self, lease: dict) -> StudyPlan:
        """The lease's study plan: the last one while it names the same
        spec payload and shard_size, else a fresh decode.  Keyed on the
        payload, not the study id, which a direct ``register_study``
        caller may reuse for a different spec."""
        payload, shard_size = lease["spec"], int(lease["shard_size"])
        plan = self._plan
        if plan is None or plan.shard_size != shard_size or plan.payload != payload:
            plan = self._plan = StudyPlan.decode(payload, shard_size)
        return plan

    def _push(self, lease: dict, data: bytes, digest: str) -> None:
        """One shard push under the worker-push fault site + retries."""
        k = int(lease["shard_index"])
        for attempt in range(self.retry.max_attempts):
            try:
                if (
                    self.faults is not None
                    and self.faults.fires_counted(SITE_WORKER_PUSH, key=k) is not None
                ):
                    raise FaultInjected(f"injected worker-push failure (shard {k})")
                body = self.transport.push(
                    lease["study_id"],
                    k,
                    data,
                    digest,
                    worker_id=self.worker_id,
                    lease_id=lease.get("lease_id"),
                )
            except PushRejected:
                # Verification failed coordinator-side; the shard is
                # requeued there — nothing useful to retry with the same
                # bytes, so surface it.  Caught ahead of its base class.
                raise
            except (FaultInjected, DistributedError) as exc:
                self.stats.push_faults += 1
                if attempt + 1 >= self.retry.max_attempts:
                    raise DistributedError(
                        f"shard {k} push failed after {attempt + 1} attempts: {exc}"
                    ) from exc
                self._backoff(attempt)
            else:
                self.stats.shards_completed += 1
                if body.get("duplicate"):
                    self.stats.duplicate_pushes += 1
                return

    def _fail(self, lease: dict, message: str) -> None:
        lease_id = lease.get("lease_id")
        if lease_id is None:
            return
        try:
            self.transport.fail(lease_id, message)
        except DistributedError:
            pass  # the lease deadline recovers the shard without us

    def _backoff(self, attempt: int) -> None:
        delay = self.retry.delay(self._rng, attempt)
        if delay > 0:
            self._sleep(delay)
