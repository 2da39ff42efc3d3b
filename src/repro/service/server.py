"""The study job server: ``http.server`` over the study executor.

Stdlib only — a :class:`ThreadingHTTPServer` accepting connections, a
:class:`~repro.service.jobs.JobManager` executing studies on a bounded
worker pool, and the canonical byte-stable artifact as the one response
payload that matters.  The determinism stack underneath (byte-identical
artifacts, content-addressed shard cache, content-hash job ids) is what
makes this server boring in the best way: responses are pure functions of
the submitted grid, submission is idempotent, and "serve it from cache"
is always byte-identical to "compute it again".

Request handling is thread-per-connection (``ThreadingHTTPServer``);
everything mutable lives behind the job manager's lock.  Study execution
never happens on a request thread — requests only enqueue, poll, and
serve bytes, so a heavy study cannot stall the health endpoint.  A
``?wait=`` status long-poll parks only its own handler thread, on the job
manager's settle condition.

Embedding in-process (tests, notebooks)::

    with StudyServer(cache=StudyCache(dir)) as server:
        client = StudyServiceClient(server.url)
        ...

Standalone (the CLI's ``serve`` subcommand)::

    StudyServer(host, port, cache=...).run_forever()
"""

from __future__ import annotations

import json
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs

from .. import __version__
from ..backends import DEFAULT_BACKEND, available_backends, capabilities
from ..distributed.scheduler import DEFAULT_SCHEDULER
from ..exceptions import PushRejected, ValidationError
from ..faults import SITE_HTTP_CONNECTION, SITE_HTTP_SLOW, FaultPlan
from ..studies import StudyCache
from ..studies.executor import DEFAULT_SHARD_SIZE
from .jobs import JobManager, JobState
from .journal import JobJournal
from .protocol import (
    API_VERSION,
    ERR_INVALID_JSON,
    ERR_INVALID_QUERY,
    ERR_INVALID_SPEC,
    ERR_JOB_FAILED,
    ERR_JOB_NOT_READY,
    ERR_METHOD_NOT_ALLOWED,
    ERR_NOT_DISTRIBUTED,
    ERR_NOT_FOUND,
    ERR_SHARD_REJECTED,
    ERR_UNKNOWN_BACKEND,
    ERR_UNKNOWN_JOB,
    ERR_UNKNOWN_STUDY,
    HEADER_CACHE_SHARDS,
    HEADER_LEASE_ID,
    HEADER_SERVED_FROM_CACHE,
    HEADER_SHARD_DIGEST,
    HEADER_SHARD_INDEX,
    HEADER_SHARD_STUDY,
    HEADER_WORKER_ID,
    JOB_ID_PATTERN,
    MAX_PUSH_BYTES,
    MAX_WAIT_S,
    RETRY_AFTER_SECONDS,
    ServiceError,
    dump_body,
    error_body,
    job_links,
)

__all__ = ["StudyServer"]

#: Reject request bodies larger than this (a spec is a few KB; anything
#: bigger is a mistake or abuse, not a study).
MAX_BODY_BYTES = 1 << 20

#: ``serve_forever``'s shutdown poll: ``stop()`` waits up to this long for
#: the listener loop to notice (the stdlib default of 0.5 s made every stop
#: cost half a second).
_SERVE_POLL_S = 0.05


def _parse_spec(raw: bytes):
    """Decode and validate a submitted spec; raises :class:`ServiceError`."""
    from ..studies import ScenarioSpec

    try:
        payload = json.loads(raw)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ServiceError(
            ERR_INVALID_JSON, f"request body is not valid JSON: {exc}", status=400
        ) from exc
    # Distinguish "you asked for a backend nobody registered" from every
    # other way a spec can be malformed — it is the one error a client can
    # fix by consulting GET /backends.
    if isinstance(payload, dict) and isinstance(payload.get("axes"), dict):
        requested = payload["axes"].get("backend")
        if isinstance(requested, (list, tuple)):
            known = available_backends()
            unknown = sorted(
                {str(v) for v in requested if not isinstance(v, str) or v not in known}
            )
            if unknown:
                raise ServiceError(
                    ERR_UNKNOWN_BACKEND,
                    f"unknown backends {unknown}; registered backends: {list(known)}",
                    status=400,
                )
    try:
        return ScenarioSpec.from_dict(payload)
    except ValidationError as exc:
        raise ServiceError(ERR_INVALID_SPEC, str(exc), status=400) from exc


def _wait_seconds(query: str) -> float | None:
    """The ``wait`` of a status query clamped to :data:`MAX_WAIT_S`, or
    ``None`` when the query has none; raises :class:`ServiceError` unless
    it is one finite number ``>= 0``."""
    values = parse_qs(query, keep_blank_values=True).get("wait")
    if values is None:
        return None
    try:
        seconds = float(values[0]) if len(values) == 1 else math.nan
    except ValueError:
        seconds = math.nan
    if not (math.isfinite(seconds) and seconds >= 0):
        raise ServiceError(
            ERR_INVALID_QUERY,
            f"wait must be one finite number of seconds >= 0, got {values}",
            status=400,
        )
    return min(seconds, MAX_WAIT_S)


def _unknown_job(job_id: str) -> ServiceError:
    return ServiceError(ERR_UNKNOWN_JOB, f"no job with id {job_id!r}", status=404)


class _Handler(BaseHTTPRequestHandler):
    """Routes requests to the owning server's job manager."""

    protocol_version = "HTTP/1.1"
    server_version = f"repro-study-service/{__version__}"
    sys_version = ""
    #: Per-connection socket timeout (covers request reads) so an abandoned
    #: or glacial connection cannot pin a handler thread forever; the
    #: instance value comes from ``StudyServer(request_timeout=)``.
    timeout = 60.0

    def setup(self) -> None:
        self.timeout = self.server.study_server.request_timeout  # type: ignore[attr-defined]
        super().setup()

    # -- plumbing ------------------------------------------------------- #
    @property
    def manager(self) -> JobManager:
        return self.server.study_server.manager  # type: ignore[attr-defined]

    def _inject_http_fault(self) -> bool:
        """Apply any active HTTP-site fault; True when the request was eaten.

        ``http-connection`` closes the connection before a status line is
        written (the client observes a reset / empty response);
        ``http-slow`` sleeps before normal handling continues.
        """
        plan = self.server.study_server.faults  # type: ignore[attr-defined]
        if plan is None:
            return False
        rule = plan.fires_counted(SITE_HTTP_CONNECTION)
        if rule is not None:
            self.close_connection = True
            try:
                self.connection.close()
            except OSError:  # pragma: no cover - already torn down
                pass
            return True
        rule = plan.fires_counted(SITE_HTTP_SLOW)
        if rule is not None:
            time.sleep(rule.delay_s)
        return False

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        log = self.server.study_server.log  # type: ignore[attr-defined]
        if log is not None:
            log(f"{self.address_string()} - {format % args}")

    def _dispatch(self, route) -> None:
        """Answer one request: ``route()`` returns ``(status, body,
        headers)`` (a dict body is sent as canonical JSON) or raises
        :class:`ServiceError`, which is rendered here and only here."""
        if self._inject_http_fault():
            return
        try:
            status, body, headers = route()
        except ServiceError as exc:
            status = exc.status
            body = error_body(exc.code, exc.message, **exc.details)
            # 429 advertises when to come back; the client's retry loop honors it.
            headers = {"Retry-After": str(RETRY_AFTER_SECONDS)} if status == 429 else {}
        if isinstance(body, dict):
            body = dump_body(body)
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json; charset=utf-8")
            self.send_header("Content-Length", str(len(body)))
            for name, value in headers.items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            # The client hung up before its reply was written: there is
            # no one left to tell, so count it instead of a traceback.
            self.close_connection = True
            server = self.server.study_server  # type: ignore[attr-defined]
            with server._dropped_lock:
                server.dropped_replies += 1

    def _read_body(self, limit: int = MAX_BODY_BYTES) -> bytes:
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if not 0 <= length <= limit:
            raise ServiceError(
                ERR_INVALID_JSON,
                f"Content-Length must be between 0 and {limit} bytes",
                status=400,
            )
        return self.rfile.read(length)

    def _coordinator(self):
        coordinator = self.server.study_server.coordinator  # type: ignore[attr-defined]
        if coordinator is None:
            raise ServiceError(
                ERR_NOT_DISTRIBUTED,
                "this server has no shard coordinator; "
                "start it with distributed dispatch enabled",
                status=409,
            )
        return coordinator

    # -- routing -------------------------------------------------------- #
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch(self._route_get)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch(self._route_post)

    def _method_not_allowed(self) -> None:
        self._dispatch(self._refuse_method)

    do_PUT = do_DELETE = do_PATCH = _method_not_allowed

    def _route_get(self):
        path, _, query = self.path.partition("?")
        path = path.rstrip("/") or "/"
        if path == "/healthz":
            return self._get_healthz()
        if path == "/backends":
            return self._get_backends()
        if path == "/studies":
            return self._get_studies()
        parts = path.strip("/").split("/")
        if parts[0] == "studies" and len(parts) == 2:
            return self._get_status(parts[1], query)
        if parts[0] == "studies" and len(parts) == 3 and parts[2] == "artifact":
            return self._get_artifact(parts[1])
        raise ServiceError(ERR_NOT_FOUND, f"no route for {path!r}", status=404)

    def _route_post(self):
        path = self.path.split("?", 1)[0].rstrip("/")
        if path == "/studies":
            return self._post_study()
        if path == "/distributed/lease":
            return self._post_lease()
        if path == "/distributed/push":
            return self._post_push()
        if path == "/distributed/fail":
            return self._post_fail()
        raise ServiceError(ERR_NOT_FOUND, f"no route for {path!r}", status=404)

    def _refuse_method(self):
        raise ServiceError(
            ERR_METHOD_NOT_ALLOWED,
            f"{self.command} is not supported on {self.path!r}",
            status=405,
        )

    # -- endpoints ------------------------------------------------------ #
    def _post_study(self):
        snapshot, deduplicated = self.manager.submit(_parse_spec(self._read_body()))
        body = {
            "api_version": API_VERSION,
            "deduplicated": deduplicated,
            "links": job_links(snapshot["job_id"]),
            **snapshot,
        }
        return (200 if deduplicated else 202), body, {}

    def _post_lease(self):
        coordinator = self._coordinator()
        raw = self._read_body()
        try:
            payload = json.loads(raw or b"{}")
            worker_id = payload.get("worker_id", "") if isinstance(payload, dict) else ""
            lease = coordinator.lease(str(worker_id))
        except (json.JSONDecodeError, UnicodeDecodeError, ValidationError) as exc:
            raise ServiceError(ERR_INVALID_JSON, str(exc), status=400) from exc
        return 200, {"api_version": API_VERSION, "lease": lease}, {}

    def _post_push(self):
        coordinator = self._coordinator()
        raw = self._read_body(limit=MAX_PUSH_BYTES)
        study_id = self.headers.get(HEADER_SHARD_STUDY, "")
        if not coordinator.has_study(study_id):
            raise ServiceError(
                ERR_UNKNOWN_STUDY, f"no registered study {study_id!r}", status=404
            )
        try:
            shard_index = int(self.headers.get(HEADER_SHARD_INDEX, ""))
        except ValueError:
            raise ServiceError(
                ERR_INVALID_JSON, f"{HEADER_SHARD_INDEX} must be an integer", status=400
            ) from None
        try:
            body = coordinator.push(
                study_id,
                shard_index,
                raw,
                self.headers.get(HEADER_SHARD_DIGEST, ""),
                worker_id=self.headers.get(HEADER_WORKER_ID, ""),
                lease_id=self.headers.get(HEADER_LEASE_ID),
            )
        except PushRejected as exc:
            raise ServiceError(
                ERR_SHARD_REJECTED, str(exc), status=409, reason=exc.reason
            ) from exc
        except ValidationError as exc:
            raise ServiceError(ERR_INVALID_JSON, str(exc), status=400) from exc
        return 200, {"api_version": API_VERSION, **body}, {}

    def _post_fail(self):
        coordinator = self._coordinator()
        raw = self._read_body()
        try:
            payload = json.loads(raw or b"{}")
        except ValueError as exc:
            raise ServiceError(ERR_INVALID_JSON, str(exc), status=400) from exc
        lease_id = payload.get("lease_id", "") if isinstance(payload, dict) else ""
        message = payload.get("message", "") if isinstance(payload, dict) else ""
        coordinator.fail(str(lease_id), str(message) or "worker reported failure")
        return 200, {"api_version": API_VERSION, "ok": True}, {}

    def _get_healthz(self):
        coordinator = self.server.study_server.coordinator  # type: ignore[attr-defined]
        body = {
            "status": "ok",
            "api_version": API_VERSION,
            "jobs": self.manager.counts(),
            "queue_capacity": self.manager.queue_capacity,
            "recovered_jobs": self.manager.recovered_jobs,
            "distributed": None if coordinator is None else coordinator.health(),
        }
        return 200, body, {}

    def _get_studies(self):
        jobs = self.manager.list_jobs()
        return 200, {"api_version": API_VERSION, "count": len(jobs), "jobs": jobs}, {}

    def _get_backends(self):
        entries = []
        for name in available_backends():
            caps = capabilities(name)
            entries.append(
                {
                    "name": name,
                    "description": caps.description,
                    "rtol": caps.rtol,
                    "atol": caps.atol,
                    "supported_axes": sorted(caps.supported_axes),
                }
            )
        body = {"api_version": API_VERSION, "default": DEFAULT_BACKEND, "backends": entries}
        return 200, body, {}

    def _get_status(self, job_id: str, query: str):
        wait_s = _wait_seconds(query) if query else None
        snapshot = None
        if JOB_ID_PATTERN.match(job_id):
            if wait_s is None:
                snapshot = self.manager.status(job_id)
            else:
                snapshot = self.manager.wait_settled(job_id, wait_s)
        if snapshot is None:
            raise _unknown_job(job_id)
        return 200, {"api_version": API_VERSION, "links": job_links(job_id), **snapshot}, {}

    def _get_artifact(self, job_id: str):
        found = None
        if JOB_ID_PATTERN.match(job_id):
            found = self.manager.artifact(job_id)
        if found is None:
            raise _unknown_job(job_id)
        artifact, snapshot = found
        state = snapshot["state"]
        if state == JobState.FAILED.value:
            raise ServiceError(
                ERR_JOB_FAILED,
                f"job {job_id} failed; see its status error field",
                status=409,
                job_error=snapshot["error"],
            )
        if artifact is None:
            raise ServiceError(
                ERR_JOB_NOT_READY,
                f"job {job_id} is {state}; poll its status until done",
                status=409,
                state=state,
            )
        progress = snapshot["progress"]
        headers = {
            "ETag": f'"{job_id}"',
            HEADER_SERVED_FROM_CACHE: "true" if snapshot["served_from_cache"] else "false",
            HEADER_CACHE_SHARDS: f"{progress['shards_from_cache']}/{progress['shards_total']}",
        }
        return 200, artifact, headers


class StudyServer:
    """The assembled service: HTTP front end + job manager back end.

    Parameters
    ----------
    host, port:
        Bind address.  ``port=0`` picks an ephemeral port (read it back
        from :attr:`port` / :attr:`url`) — what the tests and the CI smoke
        use so parallel runs never collide.
    cache:
        A :class:`StudyCache`, a directory path to back one, or ``None``
        to serve without a shard store (jobs still deduplicate in-process
        by content-hash id).
    queue_size, job_workers, executor_workers, shard_size:
        Forwarded to :class:`JobManager`.
    journal:
        Optional :class:`~repro.service.journal.JobJournal` (or path):
        durable job state, replayed on construction so a restarted server
        re-serves finished grids and completes interrupted ones (see
        :class:`JobManager`).
    request_timeout:
        Per-connection socket timeout in seconds, covering request reads —
        a client that connects and never sends a request cannot pin a
        handler thread.
    faults:
        Optional :class:`~repro.faults.FaultPlan` for the HTTP injection
        sites (connection reset, slow response).  Defaults to the
        ``REPRO_FAULTS`` environment hook, which is how the e2e chaos
        smoke injects faults into a stock server process.
    distributed:
        Enable the shard coordinator: jobs execute by leasing shards to
        pulled workers (the ``/distributed/*`` routes) instead of the
        in-process executor pool, with an inline drain guaranteeing
        liveness when no fleet is attached.  The artifact bytes are
        identical either way — that is the point.
    scheduler, lease_ttl_s:
        Coordinator dispatch strategy and lease lifetime (distributed
        mode only); see :class:`~repro.distributed.ShardCoordinator`.
    log:
        Optional callable receiving one line per handled request; ``None``
        keeps the server silent (the test default).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        cache: StudyCache | str | Path | None = None,
        queue_size: int = 64,
        job_workers: int = 2,
        executor_workers: int = 1,
        shard_size: int = DEFAULT_SHARD_SIZE,
        max_retained_jobs: int = 1024,
        journal: JobJournal | str | Path | None = None,
        request_timeout: float = 60.0,
        faults: FaultPlan | None = None,
        log=None,
        distributed: bool = False,
        scheduler: str = DEFAULT_SCHEDULER,
        lease_ttl_s: float = 30.0,
    ) -> None:
        if isinstance(cache, (str, Path)):
            cache = StudyCache(cache)
        self.cache = cache
        self.log = log
        if request_timeout <= 0:
            raise ValidationError(f"request_timeout must be > 0, got {request_timeout}")
        self.request_timeout = request_timeout
        self.faults = FaultPlan.from_env() if faults is None else faults
        if distributed:
            from ..distributed import ShardCoordinator

            self.coordinator = ShardCoordinator(
                cache=cache,
                scheduler=scheduler,
                lease_ttl_s=lease_ttl_s,
            )
        else:
            self.coordinator = None
        self.manager = JobManager(
            cache=cache,
            queue_size=queue_size,
            job_workers=job_workers,
            executor_workers=executor_workers,
            shard_size=shard_size,
            max_retained_jobs=max_retained_jobs,
            journal=journal,
            coordinator=self.coordinator,
        )
        #: Replies dropped because the client disconnected first.
        self.dropped_replies = 0
        self._dropped_lock = threading.Lock()
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.study_server = self  # type: ignore[attr-defined]
        self._serve_thread: threading.Thread | None = None

    # ------------------------------------------------------------------ #
    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------ #
    def start(self) -> "StudyServer":
        """Start the job workers and serve requests on a background thread."""
        self.manager.start()
        if self._serve_thread is None:
            self._serve_thread = threading.Thread(
                target=self._httpd.serve_forever,
                args=(_SERVE_POLL_S,),
                name="study-http-server",
                daemon=True,
            )
            self._serve_thread.start()
        return self

    def stop(self) -> None:
        """Shut down the listener and the job workers (in that order).

        Stopping the manager wakes every in-flight ``?wait=`` long-poll,
        which then answers with the job's current status.
        """
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._serve_thread is not None:
            self._serve_thread.join()
            self._serve_thread = None
        self.manager.stop()

    def run_forever(self) -> None:
        """Serve on the calling thread until interrupted (the CLI path)."""
        self.manager.start()
        try:
            self._httpd.serve_forever(_SERVE_POLL_S)
        except KeyboardInterrupt:
            pass
        finally:
            self._httpd.server_close()
            self.manager.stop()

    def __enter__(self) -> "StudyServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
