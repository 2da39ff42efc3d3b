"""End-to-end tests of the study job service over live HTTP.

Every test here talks to a real :class:`StudyServer` bound to an ephemeral
port through raw ``http.client`` — deliberately *not* through
``repro.service.client``, so the server is pinned against the wire
protocol itself (the client library gets its own suite in
``tests/test_service_client.py``).

The load-bearing assertions, mirroring the acceptance criteria:

* an HTTP-served artifact is byte-identical to a direct ``run_study``
  artifact of the same spec;
* a repeated submission deduplicates onto the same content-hash job id and
  never re-executes a shard; a fresh server over a warm ``StudyCache``
  serves the whole job from cache and says so in the marker header;
* concurrent submissions of distinct specs all complete with correct
  artifacts;
* invalid specs, unknown backends, and unknown job ids produce structured
  4xx bodies with machine-readable codes.

A golden HTTP transcript (``tests/data/service_http.txt``) pins the exact
response surface, following the ``cli_*.txt`` fixture pattern.  Regenerate
after an intentional protocol change with::

    PYTHONPATH=src python tests/test_service.py --regen
"""

from __future__ import annotations

import http.client
import json
import re
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.exceptions import ValidationError
from repro.service import StudyServer
from repro.service.jobs import Job, JobState
from repro.service.protocol import (
    ERR_INVALID_JSON,
    ERR_INVALID_SPEC,
    ERR_JOB_NOT_READY,
    ERR_METHOD_NOT_ALLOWED,
    ERR_NOT_FOUND,
    ERR_QUEUE_FULL,
    ERR_UNKNOWN_BACKEND,
    ERR_UNKNOWN_JOB,
    HEADER_CACHE_SHARDS,
    HEADER_SERVED_FROM_CACHE,
    JOB_ID_PATTERN,
)
from repro.studies import ScenarioSpec, run_study

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_FIXTURE = DATA_DIR / "service_http.txt"

#: The suite's standard small spec: 10 points, one shard.
SPEC_PAYLOAD = {
    "name": "e2e",
    "axes": {"lps": [1, 2, 3, 4, 5], "accuracy": [0.9, 0.99]},
    "mc_trials": 0,
    "seed": 0,
}

NO_SUCH_JOB = "0" * 64


def request(server, method: str, path: str, payload=None, raw_body: bytes | None = None):
    """One HTTP exchange; returns ``(status, headers_dict, body_bytes)``."""
    conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        body = raw_body
        headers = {}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
        if body is not None:
            headers["Content-Type"] = "application/json"
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        conn.close()


def wait_done(server, job_id: str, timeout: float = 60.0) -> dict:
    """Poll the status endpoint until the job is terminal."""
    deadline = time.monotonic() + timeout
    while True:
        status, _, body = request(server, "GET", f"/studies/{job_id}")
        assert status == 200
        snapshot = json.loads(body)
        if snapshot["state"] in ("done", "failed"):
            return snapshot
        assert time.monotonic() < deadline, f"job {job_id} stuck {snapshot['state']}"
        time.sleep(0.02)


def direct_artifact(payload: dict, shard_size: int | None = None) -> bytes:
    """The reference bytes: a local run_study of the same spec."""
    from repro.studies.executor import DEFAULT_SHARD_SIZE

    spec = ScenarioSpec.from_dict(payload)
    results = run_study(spec, shard_size=shard_size or DEFAULT_SHARD_SIZE)
    return results.artifact_bytes()


@pytest.fixture()
def server(tmp_path):
    with StudyServer(cache=tmp_path / "cache", job_workers=2) as srv:
        yield srv


@pytest.fixture()
def paused_server():
    """A server whose jobs never run (no workers): queued state is observable."""
    with StudyServer(job_workers=0, queue_size=1) as srv:
        yield srv


# --------------------------------------------------------------------- #
# Happy path
# --------------------------------------------------------------------- #
def test_submit_poll_fetch_happy_path(server):
    status, _, body = request(server, "POST", "/studies", SPEC_PAYLOAD)
    assert status == 202
    submitted = json.loads(body)
    assert JOB_ID_PATTERN.match(submitted["job_id"])
    assert submitted["deduplicated"] is False
    assert submitted["state"] == "queued"
    assert submitted["num_points"] == 10
    assert submitted["links"]["artifact"].endswith("/artifact")

    snapshot = wait_done(server, submitted["job_id"])
    assert snapshot["state"] == "done"
    progress = snapshot["progress"]
    assert progress["shards_done"] == progress["shards_total"] == 1
    assert progress["shards_from_cache"] == 0
    assert snapshot["error"] is None

    status, headers, artifact = request(
        server, "GET", submitted["links"]["artifact"]
    )
    assert status == 200
    assert headers["Content-Type"].startswith("application/json")
    assert headers["ETag"] == f'"{submitted["job_id"]}"'
    assert headers[HEADER_SERVED_FROM_CACHE] == "false"
    assert headers[HEADER_CACHE_SHARDS] == "0/1"
    assert artifact == direct_artifact(SPEC_PAYLOAD)


def test_served_artifact_parses_as_study_results(server):
    from repro.studies import StudyResults

    _, _, body = request(server, "POST", "/studies", SPEC_PAYLOAD)
    job_id = json.loads(body)["job_id"]
    wait_done(server, job_id)
    _, _, artifact = request(server, "GET", f"/studies/{job_id}/artifact")
    results = StudyResults.from_dict(json.loads(artifact))
    assert results.num_points == 10
    assert list(results.column("lps")[:5]) == [1, 2, 3, 4, 5]


def test_progress_reports_every_shard(tmp_path):
    # shard_size 4 over 10 points -> 3 shards, all visible in the status feed.
    with StudyServer(cache=tmp_path / "cache", shard_size=4) as srv:
        _, _, body = request(srv, "POST", "/studies", SPEC_PAYLOAD)
        submitted = json.loads(body)
        assert submitted["progress"]["shards_total"] == 3
        snapshot = wait_done(srv, submitted["job_id"])
        assert snapshot["progress"] == {
            "shards_done": 3,
            "shards_total": 3,
            "shards_from_cache": 0,
            "workers": {},
        }
        _, _, artifact = request(srv, "GET", f"/studies/{submitted['job_id']}/artifact")
        assert artifact == direct_artifact(SPEC_PAYLOAD, shard_size=4)


def test_healthz_and_backends(server):
    status, _, body = request(server, "GET", "/healthz")
    assert status == 200
    health = json.loads(body)
    assert health["status"] == "ok"
    assert health["jobs"] == {"queued": 0, "running": 0, "done": 0, "failed": 0}
    assert health["queue_capacity"] == 64

    status, _, body = request(server, "GET", "/backends")
    assert status == 200
    listing = json.loads(body)
    names = [entry["name"] for entry in listing["backends"]]
    assert names == sorted(names)
    assert {"aspen", "closed_form", "des"} <= set(names)
    assert listing["default"] == "closed_form"
    for entry in listing["backends"]:
        assert entry["rtol"] >= 0 and entry["atol"] >= 0
        assert entry["supported_axes"]


# --------------------------------------------------------------------- #
# Dedup / cache service
# --------------------------------------------------------------------- #
def test_repeat_submission_deduplicates_without_reexecution(server):
    _, _, body = request(server, "POST", "/studies", SPEC_PAYLOAD)
    first = json.loads(body)
    wait_done(server, first["job_id"])
    executed_before = server.manager.executed_shards
    _, _, artifact_one = request(server, "GET", f"/studies/{first['job_id']}/artifact")

    status, _, body = request(server, "POST", "/studies", SPEC_PAYLOAD)
    assert status == 200  # attached to the known job, not 202-created
    second = json.loads(body)
    assert second["deduplicated"] is True
    assert second["job_id"] == first["job_id"]
    assert second["state"] == "done"

    _, _, artifact_two = request(server, "GET", f"/studies/{second['job_id']}/artifact")
    assert artifact_two == artifact_one
    assert server.manager.executed_shards == executed_before
    _, _, body = request(server, "GET", "/healthz")
    assert json.loads(body)["jobs"]["done"] == 1


def test_relabelled_spec_is_a_distinct_job_with_identical_cache_shards(server):
    # The display name is not part of the grid identity for *shards* (the
    # StudyCache serves them) but it is part of the artifact, so the job id
    # (and bytes) legitimately differ.
    _, _, body = request(server, "POST", "/studies", SPEC_PAYLOAD)
    first = json.loads(body)
    wait_done(server, first["job_id"])

    relabelled = {**SPEC_PAYLOAD, "name": "e2e-relabelled"}
    _, _, body = request(server, "POST", "/studies", relabelled)
    second = json.loads(body)
    assert second["deduplicated"] is False
    assert second["job_id"] != first["job_id"]
    snapshot = wait_done(server, second["job_id"])
    # Every shard of the relabelled grid came from the cache: no re-execution.
    assert snapshot["progress"]["shards_from_cache"] == 1
    _, headers, _ = request(server, "GET", f"/studies/{second['job_id']}/artifact")
    assert headers[HEADER_SERVED_FROM_CACHE] == "true"


def test_fresh_server_serves_known_grid_from_study_cache(tmp_path):
    cache_dir = tmp_path / "shared-cache"
    with StudyServer(cache=cache_dir) as first_server:
        _, _, body = request(first_server, "POST", "/studies", SPEC_PAYLOAD)
        job_id = json.loads(body)["job_id"]
        wait_done(first_server, job_id)
        _, _, cold_artifact = request(first_server, "GET", f"/studies/{job_id}/artifact")
        assert first_server.manager.executed_shards == 1

    # A brand-new server process over the same cache directory: the job
    # table is empty, but the shard store answers everything.
    with StudyServer(cache=cache_dir) as second_server:
        status, _, body = request(second_server, "POST", "/studies", SPEC_PAYLOAD)
        assert status == 202
        submitted = json.loads(body)
        assert submitted["deduplicated"] is False
        assert submitted["job_id"] == job_id  # content-hash ids are portable
        wait_done(second_server, job_id)
        status, headers, warm_artifact = request(
            second_server, "GET", f"/studies/{job_id}/artifact"
        )
        assert status == 200
        assert headers[HEADER_SERVED_FROM_CACHE] == "true"
        assert headers[HEADER_CACHE_SHARDS] == "1/1"
        assert warm_artifact == cold_artifact
        assert second_server.manager.executed_shards == 0


# --------------------------------------------------------------------- #
# Concurrency
# --------------------------------------------------------------------- #
def test_concurrent_distinct_submissions_all_complete_correctly(tmp_path):
    payloads = [
        {"name": f"conc-{i}", "axes": {"lps": list(range(1, 4 + i)), "success": [0.6, 0.7]}}
        for i in range(6)
    ]
    with StudyServer(cache=tmp_path / "cache", job_workers=4) as srv:
        responses: dict[int, dict] = {}
        errors: list[Exception] = []

        def submit(index: int) -> None:
            try:
                _, _, body = request(srv, "POST", "/studies", payloads[index])
                responses[index] = json.loads(body)
            except Exception as exc:  # noqa: BLE001 - surfaced via the errors list
                errors.append(exc)

        threads = [threading.Thread(target=submit, args=(i,)) for i in range(len(payloads))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(responses) == len(payloads)
        job_ids = {i: r["job_id"] for i, r in responses.items()}
        assert len(set(job_ids.values())) == len(payloads)  # all distinct grids

        for index, payload in enumerate(payloads):
            snapshot = wait_done(srv, job_ids[index])
            assert snapshot["state"] == "done", snapshot
            _, _, artifact = request(srv, "GET", f"/studies/{job_ids[index]}/artifact")
            assert artifact == direct_artifact(payload), f"artifact {index} drifted"


# --------------------------------------------------------------------- #
# Structured errors
# --------------------------------------------------------------------- #
def _error_code(body: bytes) -> str:
    payload = json.loads(body)
    assert set(payload) == {"error"}
    assert "message" in payload["error"]
    return payload["error"]["code"]


def test_invalid_json_body_is_structured_400(server):
    status, _, body = request(
        server, "POST", "/studies", raw_body=b"{not json"
    )
    assert status == 400
    assert _error_code(body) == ERR_INVALID_JSON


def test_invalid_spec_is_structured_400(server):
    for payload in (
        {"axes": {"lps": []}},                      # empty axis
        {"axes": {"nonsense_axis": [1]}},           # unknown axis
        {"axes": {"accuracy": [1.5]}},              # out of range
        {"axes": {"lps": [1]}, "bogus_key": 1},     # unknown spec key
        [1, 2, 3],                                  # not an object
    ):
        status, _, body = request(server, "POST", "/studies", payload)
        assert status == 400, payload
        assert _error_code(body) == ERR_INVALID_SPEC, payload


def test_unknown_backend_is_structured_400(server):
    status, _, body = request(
        server, "POST", "/studies", {"axes": {"lps": [1], "backend": ["warp_drive"]}}
    )
    assert status == 400
    payload = json.loads(body)
    assert payload["error"]["code"] == ERR_UNKNOWN_BACKEND
    assert "warp_drive" in payload["error"]["message"]
    assert "closed_form" in payload["error"]["message"]  # points at the registry


def test_unknown_job_id_is_structured_404(server):
    for path in (
        f"/studies/{NO_SUCH_JOB}",
        f"/studies/{NO_SUCH_JOB}/artifact",
        "/studies/not-even-hex",
        "/studies/not-even-hex/artifact",
    ):
        status, _, body = request(server, "GET", path)
        assert status == 404, path
        assert _error_code(body) == ERR_UNKNOWN_JOB, path


def test_artifact_before_done_is_structured_409(paused_server):
    _, _, body = request(paused_server, "POST", "/studies", SPEC_PAYLOAD)
    submitted = json.loads(body)
    assert submitted["state"] == "queued"
    status, _, body = request(
        paused_server, "GET", f"/studies/{submitted['job_id']}/artifact"
    )
    assert status == 409
    payload = json.loads(body)
    assert payload["error"]["code"] == ERR_JOB_NOT_READY
    assert payload["error"]["state"] == "queued"


def test_bounded_queue_rejects_with_structured_429(paused_server):
    # Capacity 1, no workers draining: the second distinct grid must bounce.
    _, _, _ = request(paused_server, "POST", "/studies", SPEC_PAYLOAD)
    other = {"axes": {"lps": [7, 8, 9]}}
    status, _, body = request(paused_server, "POST", "/studies", other)
    assert status == 429
    assert _error_code(body) == ERR_QUEUE_FULL
    # The rejected grid was not half-registered: resubmitting the *first*
    # spec still deduplicates, the second is still unknown.
    status, _, body = request(paused_server, "POST", "/studies", SPEC_PAYLOAD)
    assert status == 200 and json.loads(body)["deduplicated"] is True
    _, _, body = request(paused_server, "GET", "/healthz")
    assert json.loads(body)["jobs"] == {"queued": 1, "running": 0, "done": 0, "failed": 0}


def test_unknown_route_and_method_not_allowed(server):
    status, _, body = request(server, "GET", "/nope")
    assert status == 404
    assert _error_code(body) == ERR_NOT_FOUND

    status, _, body = request(server, "POST", "/healthz")
    assert status == 404
    assert _error_code(body) == ERR_NOT_FOUND

    for method in ("DELETE", "PUT", "PATCH"):
        status, _, body = request(server, method, "/healthz")
        assert status == 405, method
        assert _error_code(body) == ERR_METHOD_NOT_ALLOWED, method


# --------------------------------------------------------------------- #
# Retention / shutdown
# --------------------------------------------------------------------- #
def test_finished_jobs_are_evicted_beyond_the_retention_bound(tmp_path):
    payloads = [{"name": f"evict-{i}", "axes": {"lps": [1, 2]}} for i in range(3)]
    with StudyServer(cache=tmp_path / "cache", max_retained_jobs=2) as srv:
        job_ids = []
        for payload in payloads:
            _, _, body = request(srv, "POST", "/studies", payload)
            job_id = json.loads(body)["job_id"]
            wait_done(srv, job_id)
            job_ids.append(job_id)
        # The oldest finished job fell off the table ...
        status, _, body = request(srv, "GET", f"/studies/{job_ids[0]}")
        assert status == 404 and _error_code(body) == ERR_UNKNOWN_JOB
        # ... the newer two are still served ...
        for job_id in job_ids[1:]:
            status, _, _ = request(srv, "GET", f"/studies/{job_id}/artifact")
            assert status == 200
        # ... and the evicted grid resubmits as a fresh, fully cache-served job.
        _, _, body = request(srv, "POST", "/studies", payloads[0])
        resubmitted = json.loads(body)
        assert resubmitted["deduplicated"] is False
        assert resubmitted["job_id"] == job_ids[0]
        snapshot = wait_done(srv, job_ids[0])
        assert snapshot["served_from_cache"] is True


def test_stop_leaves_the_backlog_queued_instead_of_executing_it():
    from repro.service import JobManager

    # No workers consume while we fill the queue; stop() must come back
    # promptly without running anything.
    manager = JobManager(job_workers=0, queue_size=4)
    job_ids = []
    for i in range(3):
        snapshot, _ = manager.submit(ScenarioSpec(axes={"lps": [1, 2]}, name=f"bk-{i}"))
        job_ids.append(snapshot["job_id"])
    manager.start()
    manager.stop()
    assert manager.executed_shards == 0
    for job_id in job_ids:
        assert manager.status(job_id)["state"] == "queued"


class _HungUp:
    """A socket writer whose peer is gone after ``ok`` successful writes."""

    def __init__(self, ok: int, exc: type[OSError]) -> None:
        self.ok, self.exc = ok, exc

    def write(self, data: bytes) -> int:
        if self.ok == 0:
            raise self.exc()
        self.ok -= 1
        return len(data)


@pytest.mark.parametrize(
    ("ok_writes", "exc"), [(0, BrokenPipeError), (1, ConnectionResetError)],
    ids=["headers", "body"],
)
def test_reply_to_a_disconnected_client_is_dropped_quietly(server, ok_writes, exc):
    from repro.service.server import _Handler

    handler = _Handler.__new__(_Handler)  # no socket: drive _dispatch directly
    handler.server = SimpleNamespace(study_server=server)
    handler.wfile = _HungUp(ok_writes, exc)
    handler.client_address = ("127.0.0.1", 0)
    handler.request_version = "HTTP/1.1"
    handler.requestline = "GET /healthz HTTP/1.1"
    handler.command = "GET"
    handler.close_connection = False
    before = server.dropped_replies
    handler._dispatch(lambda: (200, {"ok": True}, {}))
    assert server.dropped_replies == before + 1
    assert handler.close_connection


# --------------------------------------------------------------------- #
# Job-state machine (unit)
# --------------------------------------------------------------------- #
def test_job_transitions_are_deterministic():
    spec = ScenarioSpec(axes={"lps": [1]})
    job = Job(job_id="a" * 64, spec=spec, shard_size=64, shards_total=1)
    assert job.state is JobState.QUEUED
    with pytest.raises(ValidationError):
        job.transition(JobState.DONE)  # cannot skip running
    job.transition(JobState.RUNNING)
    with pytest.raises(ValidationError):
        job.transition(JobState.QUEUED)  # cannot move backwards
    job.transition(JobState.DONE)
    for state in JobState:
        with pytest.raises(ValidationError):
            job.transition(state)  # terminal states are terminal


# --------------------------------------------------------------------- #
# Golden HTTP transcript
# --------------------------------------------------------------------- #
#: Headers worth pinning (everything else — Date, Content-Length — is
#: either volatile or redundant with the body line).
_PINNED_HEADERS = ("Content-Type", "ETag", HEADER_SERVED_FROM_CACHE, HEADER_CACHE_SHARDS)

_JOB_ID_RE = re.compile(r"[0-9a-f]{64}")

#: Wall-clock job timestamps are volatile by nature; the transcript pins
#: their *presence* (and null-ness before completion), never their value.
_TIMESTAMP_RE = re.compile(r'"(submitted|finished)_unix":\s?[0-9]+(?:\.[0-9]+)?(?:e[+-]?[0-9]+)?')

GOLDEN_SPEC = {"name": "golden-service", "axes": {"lps": [1, 2]}, "mc_trials": 0, "seed": 0}


def _normalize(text: str) -> str:
    text = _JOB_ID_RE.sub("<JOB-ID>", text)
    return _TIMESTAMP_RE.sub(r'"\1_unix":"<UNIX-TIME>"', text)


def _transcript() -> str:
    """Run the pinned exchange sequence against a fresh server."""
    lines: list[str] = []
    with StudyServer(job_workers=2, queue_size=8) as srv:

        def record(method: str, path: str, payload=None, raw_body=None) -> None:
            status, headers, body = request(srv, method, path, payload, raw_body)
            lines.append(f"### {method} {_normalize(path)}")
            lines.append(str(status))
            for name in _PINNED_HEADERS:
                if name in headers:
                    lines.append(f"{name}: {_normalize(headers[name])}")
            lines.append(_normalize(body.decode("utf-8").rstrip("\n")))
            lines.append("")

        record("GET", "/healthz")
        record("GET", "/backends")
        record("POST", "/studies", GOLDEN_SPEC)
        _, _, body = request(srv, "POST", "/studies", GOLDEN_SPEC)
        job_id = json.loads(body)["job_id"]
        wait_done(srv, job_id)
        record("GET", f"/studies/{job_id}")
        record("GET", f"/studies/{job_id}/artifact")
        record("GET", "/studies")                       # the job listing
        record("POST", "/studies", GOLDEN_SPEC)          # deduplicated, done
        record("POST", "/studies", {"axes": {"lps": []}})  # invalid spec
        record("POST", "/studies", {"axes": {"lps": [1], "backend": ["warp_drive"]}})
        record("GET", f"/studies/{NO_SUCH_JOB}")
        record("GET", "/nope")
        record("DELETE", "/healthz")
    return "\n".join(lines)


def test_http_responses_match_golden_transcript():
    assert GOLDEN_FIXTURE.exists(), (
        f"missing golden fixture {GOLDEN_FIXTURE}; generate it with "
        f"`PYTHONPATH=src python tests/test_service.py --regen` and review the diff"
    )
    actual = _transcript()
    expected = GOLDEN_FIXTURE.read_text()
    assert actual == expected, (
        "service HTTP responses drifted from the golden transcript; if the "
        "protocol change is intentional, regenerate via "
        "`PYTHONPATH=src python tests/test_service.py --regen` and review the diff"
    )


def _regen() -> None:
    DATA_DIR.mkdir(exist_ok=True)
    GOLDEN_FIXTURE.write_text(_transcript())
    print(f"regenerated {GOLDEN_FIXTURE}")


if __name__ == "__main__":
    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)
