"""The study service's wire protocol: routes, headers, and error bodies.

One module both sides import, so the server's responses and the client's
expectations can never drift apart — and so tests can assert against the
same constants the implementation uses.

**Endpoints** (all bodies are JSON):

========  ===========================  ==========================================
method    path                         meaning
========  ===========================  ==========================================
POST      ``/studies``                 submit a :class:`~repro.studies.ScenarioSpec`
                                       payload; 202 with the job id (200 when the
                                       identical grid is already a known job)
GET       ``/studies``                 list every known job (state + timestamps),
                                       oldest submission first — the view that
                                       makes journal recovery observable
GET       ``/studies/<id>``            job status + per-shard progress
GET       ``/studies/<id>?wait=S``     the same status body, sent once the job is
                                       done or failed, or after ``S`` seconds
                                       (clamped to :data:`MAX_WAIT_S`) if it is
                                       not; 400 ``invalid-query`` unless ``S`` is
                                       a finite number ``>= 0``
GET       ``/studies/<id>/artifact``   the canonical byte-stable results artifact
GET       ``/backends``                the performance-backend registry
GET       ``/healthz``                 liveness + job-queue counters (plus the
                                       coordinator's fleet/lease gauges when
                                       distributed dispatch is enabled)
POST      ``/distributed/lease``       worker pull: one shard lease descriptor,
                                       or ``{"lease": null}`` when idle
POST      ``/distributed/push``        worker push: raw shard bytes (the
                                       ``X-Shard-*`` headers carry identity and
                                       digest); 409 ``shard-rejected`` on a
                                       failed verification, which requeues
POST      ``/distributed/fail``        cooperative failure report for a lease
========  ===========================  ==========================================

The three ``/distributed`` routes exist only on a coordinator-enabled
server (``cli coordinate`` / ``StudyServer(distributed=True)``); a plain
job server answers them with 409 ``not-distributed``.  Push bodies are
raw structured-array shard bytes, not JSON — their size bound is
:data:`MAX_PUSH_BYTES`, separate from the spec-sized default body limit.

**Completion is pushed, not polled.**  ``?wait=S`` is a bounded long-poll
served from the job's settle event: the response leaves the moment the
job settles, so a client learns of completion one round trip after it
happens instead of on its next poll tick.  A status GET without ``wait``
is answered at once, exactly as before, so old clients keep working; a
server that predates ``wait`` ignores the query and answers at once too,
which is why the client still spaces its reads of an unsettled job.

**Backpressure is advertised.**  A 429 (``queue-full``) response carries
``Retry-After: <seconds>`` (:data:`RETRY_AFTER_SECONDS`); the client's
bounded retry loop honors it before its own backoff schedule.

**Job ids are content addresses.**  A job id is
:func:`repro.studies.cache.study_key` — the sha256 of the spec's effective
grid, the shard grid, the column schema, and the code version.  Identical
grids map to the same job by construction (submission is idempotent), and
an artifact response can be cached forever under its id.

**Errors are structured.**  Every non-2xx response body is::

    {"error": {"code": "<machine-readable-slug>", "message": "<human text>"}}

(plus optional detail fields), with the code drawn from the ``ERR_*``
constants below.  Clients dispatch on the code, never on message text.

**One exchange per side.**  The server renders every error through
:func:`error_body` in one dispatcher; every client-side round trip — the
study client's and the worker transport's — goes through
:func:`exchange`, which decodes that body back into a
:class:`ServiceError`.
"""

from __future__ import annotations

import http.client
import json
import re
import urllib.error
import urllib.request

from .._json import canonical_line

__all__ = [
    "API_VERSION",
    "RETRY_AFTER_SECONDS",
    "HEADER_CACHE_SHARDS",
    "HEADER_SERVED_FROM_CACHE",
    "ERR_INVALID_JSON",
    "ERR_INVALID_SPEC",
    "ERR_INVALID_QUERY",
    "ERR_UNKNOWN_BACKEND",
    "ERR_UNKNOWN_JOB",
    "ERR_JOB_NOT_READY",
    "ERR_JOB_FAILED",
    "ERR_QUEUE_FULL",
    "ERR_NOT_FOUND",
    "ERR_METHOD_NOT_ALLOWED",
    "ERR_EXECUTION",
    "ERR_CONNECTION",
    "ERR_TIMEOUT",
    "ERR_SHARD_REJECTED",
    "ERR_UNKNOWN_STUDY",
    "ERR_NOT_DISTRIBUTED",
    "HEADER_SHARD_STUDY",
    "HEADER_SHARD_INDEX",
    "HEADER_SHARD_DIGEST",
    "HEADER_LEASE_ID",
    "HEADER_WORKER_ID",
    "MAX_PUSH_BYTES",
    "MAX_WAIT_S",
    "JOB_ID_PATTERN",
    "ServiceError",
    "dump_body",
    "error_body",
    "exchange",
    "job_links",
]

API_VERSION = 1

#: Seconds a 429 response tells the client to wait (the Retry-After header).
RETRY_AFTER_SECONDS = 1

#: ``true`` on an artifact response whose job executed zero shards — every
#: shard was served from the content-addressed :class:`StudyCache` (or the
#: request deduplicated onto an already-completed job), i.e. the bytes were
#: answered without re-execution.
HEADER_SERVED_FROM_CACHE = "X-Study-Served-From-Cache"

#: ``"<cache-served>/<total>"`` shard accounting for the artifact's job.
HEADER_CACHE_SHARDS = "X-Study-Cache-Shards"

# Error codes (4xx unless noted).
ERR_INVALID_JSON = "invalid-json"            # 400: body is not JSON
ERR_INVALID_SPEC = "invalid-spec"            # 400: JSON is not a valid spec
ERR_INVALID_QUERY = "invalid-query"          # 400: malformed query parameter (?wait=)
ERR_UNKNOWN_BACKEND = "unknown-backend"      # 400: backend axis names nobody registered
ERR_UNKNOWN_JOB = "unknown-job"              # 404: no such job id
ERR_JOB_NOT_READY = "job-not-ready"          # 409: artifact requested before done
ERR_JOB_FAILED = "job-failed"                # 409: artifact of a failed job
ERR_QUEUE_FULL = "queue-full"                # 429: bounded job queue is full
ERR_NOT_FOUND = "not-found"                  # 404: no such route
ERR_METHOD_NOT_ALLOWED = "method-not-allowed"  # 405
ERR_EXECUTION = "execution-error"            # job-status error field: run_study raised
ERR_CONNECTION = "connection-failed"         # client side: server unreachable
ERR_TIMEOUT = "client-timeout"               # client side: wait() deadline expired
ERR_SHARD_REJECTED = "shard-rejected"        # 409: push failed hash/size verification
ERR_UNKNOWN_STUDY = "unknown-study"          # 404: push/fail names no registered study
ERR_NOT_DISTRIBUTED = "not-distributed"      # 409: /distributed/* on a plain server

#: Identity and verification headers of a raw-bytes shard push.
HEADER_SHARD_STUDY = "X-Shard-Study"
HEADER_SHARD_INDEX = "X-Shard-Index"
HEADER_SHARD_DIGEST = "X-Shard-Digest"
HEADER_LEASE_ID = "X-Lease-Id"
HEADER_WORKER_ID = "X-Worker-Id"

#: Body bound for /distributed/push — raw shard bytes, not a spec.  The
#: largest legal shard is DEFAULT_SHARD_SIZE rows of the results dtype
#: (well under a MB), but custom shard sizes get generous headroom.
MAX_PUSH_BYTES = 64 << 20

#: Upper bound on one ``GET /studies/<id>?wait=S`` long-poll; larger ``S``
#: is clamped to it, so no request holds a handler thread for longer.
MAX_WAIT_S = 10.0

#: Job ids are full hex sha256 digests (see :func:`repro.studies.cache.study_key`).
JOB_ID_PATTERN = re.compile(r"^[0-9a-f]{64}$")


class ServiceError(Exception):
    """A structured study-service error (server-detected or client-side).

    Carries the machine-readable ``code`` (an ``ERR_*`` constant), the
    human ``message``, and the HTTP ``status`` (0 for client-side errors
    that never reached the server, e.g. connection failures).
    ``retry_after`` is the server's Retry-After hint in seconds, when the
    response carried one (429 does).  Keyword ``details`` (``reason``,
    ``job_error``, ``state``) are the error body's extra fields.
    """

    def __init__(
        self,
        code: str,
        message: str,
        status: int = 0,
        retry_after: float | None = None,
        **details,
    ) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.message = message
        self.status = status
        self.retry_after = retry_after
        self.details = details


def error_body(code: str, message: str, **details) -> dict:
    """The canonical error-response payload."""
    body = {"error": {"code": code, "message": message}}
    if details:
        body["error"].update(details)
    return body


def dump_body(payload: dict) -> bytes:
    """Serialize a response/request body (canonical JSON, one line)."""
    return canonical_line(payload).encode("utf-8")


def job_links(job_id: str) -> dict:
    """The hypermedia links a submission response advertises."""
    return {
        "status": f"/studies/{job_id}",
        "artifact": f"/studies/{job_id}/artifact",
    }


def exchange(
    url: str,
    method: str = "GET",
    data: bytes | None = None,
    headers: dict[str, str] | None = None,
    timeout: float = 30.0,
) -> tuple[int, dict, bytes]:
    """One HTTP round trip: ``(status, headers, body)`` of a 2xx response.

    Any other status raises :class:`ServiceError` with the error body's
    code, message and details (code ``http-error`` and the raw text when
    the body is not the structured format), the status and any
    Retry-After hint.  A failure to connect, a timeout, or a response that
    breaks off mid-way raises it with code ``connection-failed``.
    """
    request = urllib.request.Request(url, data=data, headers=headers or {}, method=method)
    try:
        try:
            with urllib.request.urlopen(request, timeout=timeout) as response:
                return response.status, dict(response.headers), response.read()
        except urllib.error.HTTPError as exc:
            with exc:
                status, retry_after, body = exc.code, exc.headers.get("Retry-After"), exc.read()
    except urllib.error.URLError as exc:
        raise ServiceError(ERR_CONNECTION, f"cannot reach {url}: {exc.reason}") from exc
    except (http.client.HTTPException, OSError) as exc:
        # urlopen only wraps *connect*-phase failures in URLError; a socket
        # that times out or drops mid-response raises raw socket/http.client
        # errors.  Same structured type either way.
        raise ServiceError(
            ERR_CONNECTION, f"transport failure talking to {url}: {exc!r}"
        ) from exc
    try:
        details = dict(json.loads(body)["error"])
        code, message = details.pop("code"), details.pop("message")
    except (ValueError, KeyError, TypeError):
        code, message, details = "http-error", body.decode("utf-8", "replace").strip(), {}
    try:
        retry_after = float(retry_after)
    except (TypeError, ValueError):
        retry_after = None
    raise ServiceError(code, message, status=status, retry_after=retry_after, **details)
