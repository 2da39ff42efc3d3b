"""Stdlib client for the study job service.

A thin, dependency-free wrapper over :func:`repro.service.protocol.exchange`
speaking the wire protocol of :mod:`repro.service.protocol`: submit a spec,
wait for its job, fetch the canonical artifact.  Every structured error the
server returns is raised as :class:`~repro.service.protocol.ServiceError`
carrying the machine-readable code, so callers dispatch on ``exc.code``
instead of parsing message text; transport failures raise the same type
with the client-side ``connection-failed`` code.

Transient failures are retried with bounded exponential backoff:
connection failures, 5xx responses, and 429 (honoring the server's
``Retry-After`` hint).  Other 4xx responses are *never* retried — the
request itself is wrong, and repeating it cannot help.  Retrying a
submission is always safe because job ids are content hashes: re-sending
the same spec lands on the same job (idempotent by construction), so the
client cannot double-execute a study by retrying.

Waiting is a long-poll, not a poll loop: :meth:`StudyServiceClient.wait`
parks on ``GET /studies/<id>?wait=S``, which the server answers the moment
the job settles, then reads the terminal status once.  So the client sees
completion one round trip after it happens, whatever the job's length,
and a settled study costs exactly two status requests.  A server that
ignores ``wait`` answers at once; ``poll_interval`` then spaces the reads.

The blocking convenience :meth:`StudyServiceClient.run` is submit + wait +
fetch in one call::

    client = StudyServiceClient("http://127.0.0.1:8321")
    artifact = client.run(spec)            # ArtifactResponse
    results = artifact.results()           # parsed StudyResults
    artifact.served_from_cache             # True iff no shard was executed
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

from ..studies import ScenarioSpec, StudyResults
from .protocol import (
    ERR_CONNECTION,
    ERR_TIMEOUT,
    HEADER_CACHE_SHARDS,
    HEADER_SERVED_FROM_CACHE,
    MAX_WAIT_S,
    ServiceError,
    exchange,
)

__all__ = ["ArtifactResponse", "StudyServiceClient"]

#: Job states that will never change again — waiting can stop.
_TERMINAL_STATES = frozenset({"done", "failed"})

#: HTTP statuses worth retrying: server-side trouble (5xx) and explicit
#: backpressure (429).  No other 4xx ever qualifies.
_RETRYABLE_STATUSES = frozenset({429, 500, 502, 503, 504})


@dataclass(frozen=True)
class ArtifactResponse:
    """One fetched artifact: the canonical bytes plus the cache accounting."""

    job_id: str
    body: bytes
    served_from_cache: bool
    cache_shards: str
    etag: str

    def results(self) -> StudyResults:
        """The artifact parsed back into a :class:`StudyResults`."""
        return StudyResults.from_dict(json.loads(self.body))


class StudyServiceClient:
    """A client bound to one service base URL.

    Parameters
    ----------
    base_url:
        ``http://host:port`` of a running :class:`~repro.service.StudyServer`.
    timeout:
        Per-request socket timeout in seconds.
    retries:
        Transient-failure retries per request (on top of the first
        attempt).  ``0`` disables retrying.
    backoff:
        Base delay of the exponential retry schedule
        (``backoff * 2**attempt``, capped at ``backoff_cap``); a 429's
        ``Retry-After`` hint takes precedence when larger.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        retries: int = 2,
        backoff: float = 0.1,
        backoff_cap: float = 2.0,
    ) -> None:
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if backoff < 0 or backoff_cap < 0:
            raise ValueError("backoff delays must be >= 0")
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.backoff_cap = backoff_cap

    # ------------------------------------------------------------------ #
    # Transport
    # ------------------------------------------------------------------ #
    def _retry_delay(self, attempt: int, exc: ServiceError) -> float:
        delay = min(self.backoff * (2.0 ** attempt), self.backoff_cap)
        if exc.retry_after is not None:
            delay = max(delay, exc.retry_after)
        return delay

    def _request(self, method: str, path: str, payload: dict | None = None):
        """``(status, headers, body_bytes)`` of one exchange; 4xx/5xx raise.

        Connection failures, 5xx, and 429 are retried up to ``retries``
        times with exponential backoff — safe even for POST, because job
        ids are content hashes (resubmission deduplicates server-side).
        Any other 4xx raises immediately.
        """
        for attempt in range(self.retries + 1):
            try:
                return self._request_once(method, path, payload)
            except ServiceError as exc:
                retryable = exc.code == ERR_CONNECTION or exc.status in _RETRYABLE_STATUSES
                if not retryable or attempt >= self.retries:
                    raise
                delay = self._retry_delay(attempt, exc)
                if delay > 0:
                    time.sleep(delay)

    def _request_once(self, method: str, path: str, payload: dict | None = None):
        data = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            data = json.dumps(payload, sort_keys=True).encode("utf-8")
            headers["Content-Type"] = "application/json"
        return exchange(f"{self.base_url}{path}", method, data, headers, self.timeout)

    def _get_json(self, path: str) -> dict:
        _, _, body = self._request("GET", path)
        return json.loads(body)

    # ------------------------------------------------------------------ #
    # Endpoints
    # ------------------------------------------------------------------ #
    def healthz(self) -> dict:
        return self._get_json("/healthz")

    def backends(self) -> dict:
        """The server's performance-backend registry listing."""
        return self._get_json("/backends")

    def submit(self, spec: ScenarioSpec | dict) -> dict:
        """Submit a spec (instance or payload dict); returns the job snapshot.

        The snapshot's ``deduplicated`` field is ``True`` when the server
        already knew this grid and attached the submission to the existing
        job instead of enqueueing a new one.
        """
        payload = spec.to_dict() if isinstance(spec, ScenarioSpec) else spec
        _, _, body = self._request("POST", "/studies", payload)
        return json.loads(body)

    def status(self, job_id: str) -> dict:
        return self._get_json(f"/studies/{job_id}")

    def list_studies(self) -> dict:
        """Every job the server knows (state + timestamps), oldest first."""
        return self._get_json("/studies")

    def artifact(self, job_id: str) -> ArtifactResponse:
        """Fetch the canonical artifact of a ``done`` job."""
        _, headers, body = self._request("GET", f"/studies/{job_id}/artifact")
        return ArtifactResponse(
            job_id=job_id,
            body=body,
            served_from_cache=headers.get(HEADER_SERVED_FROM_CACHE) == "true",
            cache_shards=headers.get(HEADER_CACHE_SHARDS, ""),
            etag=headers.get("ETag", ""),
        )

    # ------------------------------------------------------------------ #
    # Convenience
    # ------------------------------------------------------------------ #
    def wait(self, job_id: str, timeout: float = 60.0, poll_interval: float = 0.05) -> dict:
        """Wait until the job reaches a terminal state; returns its snapshot.

        Each round parks on the server's settle event
        (``?wait=min(remaining, MAX_WAIT_S, timeout/2)``, half the socket
        timeout so the long-poll never trips it); once that reports the
        job settled, :meth:`status` reads the terminal snapshot that is
        returned.  ``poll_interval`` is only the minimum spacing between
        two rounds on an unsettled job, so a server that answers ``wait``
        at once (one that predates it) is never spun on.  Raises
        :class:`ServiceError` with the client-side ``client-timeout`` code
        when the deadline expires first (the job keeps running server
        side — a later :meth:`wait` can pick it back up).
        """
        deadline = time.monotonic() + timeout
        while True:
            started = time.monotonic()
            wait_s = max(min(deadline - started, MAX_WAIT_S, self.timeout / 2), 0.0)
            settled = self._get_json(f"/studies/{job_id}?wait={wait_s:.3f}")
            if settled["state"] in _TERMINAL_STATES:
                snapshot = self.status(job_id)
                if snapshot["state"] in _TERMINAL_STATES:
                    return snapshot
            now = time.monotonic()
            if now >= deadline:
                raise ServiceError(
                    ERR_TIMEOUT,
                    f"job {job_id} still {settled['state']} after {timeout:g}s",
                )
            time.sleep(min(max(started + poll_interval - now, 0.0), deadline - now))

    def run(
        self, spec: ScenarioSpec | dict, timeout: float = 60.0, poll_interval: float = 0.05
    ) -> ArtifactResponse:
        """Submit, wait, and fetch in one blocking call.

        A failed job raises :class:`ServiceError` with the server's
        recorded execution error.
        """
        submitted = self.submit(spec)
        snapshot = self.wait(submitted["job_id"], timeout, poll_interval)
        if snapshot["state"] == "failed":
            error = snapshot.get("error") or {}
            raise ServiceError(
                error.get("code", "execution-error"),
                error.get("message", "study execution failed"),
            )
        return self.artifact(snapshot["job_id"])
