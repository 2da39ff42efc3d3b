"""Service durability and resilience: journal recovery, backpressure, chaos.

The acceptance story: a study server killed mid-queue and restarted over
the same journal + cache re-serves every finished grid **byte-identically
without re-executing a shard** and completes the interrupted ones.  The
real ``kill -9`` version lives in ``scripts/ci_check.sh``; here the same
machinery is pinned in-process (a second manager/server over the first
one's journal is exactly what a restarted process sees), plus the HTTP
fault sites, the 429 ``Retry-After`` contract, the client's bounded
retry, and the ``?wait=`` settle long-poll that ``wait()`` rides on.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time

import pytest

from repro import backends
from repro.exceptions import ValidationError
from repro.faults import (
    FaultPlan,
    FaultRule,
    SITE_HTTP_CONNECTION,
    SITE_HTTP_SLOW,
)
from repro.service import (
    JobJournal,
    JobManager,
    ServiceError,
    StudyServer,
    StudyServiceClient,
)
from repro.service.protocol import (
    ERR_CONNECTION,
    ERR_INVALID_QUERY,
    ERR_QUEUE_FULL,
    ERR_TIMEOUT,
    ERR_UNKNOWN_JOB,
    MAX_WAIT_S,
    dump_body,
    job_links,
)
from repro.studies import ScenarioSpec, StudyCache, run_study

pytestmark = pytest.mark.faults

SPEC = ScenarioSpec(
    axes={"lps": [1, 2, 3, 4, 5], "accuracy": [0.9, 0.99]}, name="durability"
)
OTHER_SPEC = ScenarioSpec(axes={"lps": [7, 8, 9]}, name="durability-other")


def wait_state(manager: JobManager, job_id: str, state: str, timeout: float = 30.0) -> dict:
    deadline = time.monotonic() + timeout
    while True:
        snapshot = manager.status(job_id)
        assert snapshot is not None
        if snapshot["state"] == state:
            return snapshot
        assert time.monotonic() < deadline, f"job never reached {state}: {snapshot}"
        time.sleep(0.02)


# --------------------------------------------------------------------- #
# Journal unit behavior
# --------------------------------------------------------------------- #
class TestJobJournal:
    def test_append_load_roundtrip_in_order(self, tmp_path):
        journal = JobJournal(tmp_path / "jobs.jsonl")
        events = [
            {"event": "submitted", "job_id": "a" * 64, "spec": {"axes": {}}, "unix": 1.0},
            {"event": "running", "job_id": "a" * 64},
            {"event": "done", "job_id": "a" * 64, "unix": 2.0},
        ]
        for event in events:
            journal.append(event)
        journal.close()
        assert JobJournal(journal.path).load() == events

    def test_missing_file_loads_empty(self, tmp_path):
        assert JobJournal(tmp_path / "never-written.jsonl").load() == []

    def test_corrupt_tail_is_dropped_and_prefix_trusted(self, tmp_path):
        journal = JobJournal(tmp_path / "jobs.jsonl")
        journal.append({"event": "submitted", "job_id": "a" * 64, "spec": {}})
        journal.append({"event": "running", "job_id": "a" * 64})
        journal.close()
        with open(journal.path, "ab") as f:
            f.write(b'{"event": "done", "job_id": "aaa')  # torn by kill -9
        records = JobJournal(journal.path).load()
        assert [r["event"] for r in records] == ["submitted", "running"]

    def test_non_event_line_stops_the_read(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        path.write_bytes(
            b'{"event": "submitted", "job_id": "x", "spec": {}}\n'
            b'[1, 2, 3]\n'
            b'{"event": "running", "job_id": "x"}\n'
        )
        records = JobJournal(path).load()
        assert [r["event"] for r in records] == ["submitted"]

    def test_replay_folds_lifecycle_and_ignores_orphans(self):
        spec = {"axes": {"lps": [1]}}
        records = [
            {"event": "submitted", "job_id": "j1", "spec": spec, "shard_size": 8, "unix": 1.0},
            {"event": "submitted", "job_id": "j2", "spec": spec, "shard_size": 8, "unix": 2.0},
            {"event": "running", "job_id": "j1"},
            {"event": "done", "job_id": "j1", "unix": 3.0},
            {"event": "running", "job_id": "j2"},
            {"event": "failed", "job_id": "j2", "error": {"code": "x"}, "unix": 4.0},
            {"event": "done", "job_id": "never-submitted", "unix": 5.0},
            {"event": "submitted", "job_id": "j3", "spec": "not-a-dict"},
        ]
        jobs = JobJournal.replay(records)
        assert list(jobs) == ["j1", "j2"]  # orphan and junk-spec entries dropped
        assert jobs["j1"]["state"] == "done" and jobs["j1"]["finished_unix"] == 3.0
        assert jobs["j2"]["state"] == "failed" and jobs["j2"]["error"] == {"code": "x"}
        assert jobs["j1"]["submitted_unix"] == 1.0

    def test_replay_handles_recovery_cycles(self):
        # A recovered job legitimately appends running/done again.
        spec = {"axes": {"lps": [1]}}
        records = [
            {"event": "submitted", "job_id": "j", "spec": spec, "shard_size": 8, "unix": 1.0},
            {"event": "running", "job_id": "j"},
            {"event": "done", "job_id": "j", "unix": 2.0},
            {"event": "running", "job_id": "j"},
            {"event": "done", "job_id": "j", "unix": 9.0},
        ]
        jobs = JobJournal.replay(records)
        assert jobs["j"]["state"] == "done" and jobs["j"]["finished_unix"] == 9.0


# --------------------------------------------------------------------- #
# Manager recovery
# --------------------------------------------------------------------- #
class TestManagerRecovery:
    def test_finished_job_reserves_byte_identically_without_execution(self, tmp_path):
        journal_path = tmp_path / "journal.jsonl"
        cache = tmp_path / "cache"
        first = JobManager(cache=StudyCache(cache), journal=journal_path, job_workers=2)
        first.start()
        snapshot, _ = first.submit(SPEC)
        job_id = snapshot["job_id"]
        wait_state(first, job_id, "done")
        original, _ = first.artifact(job_id)
        first.stop()
        first.journal.close()

        second = JobManager(cache=StudyCache(cache), journal=journal_path, job_workers=2)
        assert second.recovered_jobs == 1
        assert second.status(job_id)["state"] == "queued"  # re-queued for re-serve
        second.start()
        wait_state(second, job_id, "done")
        recovered, recovered_snapshot = second.artifact(job_id)
        assert recovered == original == run_study(SPEC).artifact_bytes()
        assert second.executed_shards == 0  # pure cache re-serve
        assert recovered_snapshot["served_from_cache"] is True
        second.stop()

    def test_interrupted_queued_job_completes_after_restart(self, tmp_path):
        journal_path = tmp_path / "journal.jsonl"
        stalled = JobManager(journal=journal_path, job_workers=0)
        snapshot, _ = stalled.submit(SPEC)
        job_id = snapshot["job_id"]
        assert stalled.status(job_id)["state"] == "queued"
        stalled.journal.close()  # never ran: the journal holds only "submitted"

        revived = JobManager(journal=journal_path, job_workers=2)
        assert revived.recovered_jobs == 1
        revived.start()
        assert wait_state(revived, job_id, "done")["error"] is None
        artifact, _ = revived.artifact(job_id)
        assert artifact == run_study(SPEC).artifact_bytes()
        revived.stop()

    def test_recovery_preserves_submission_metadata(self, tmp_path):
        journal_path = tmp_path / "journal.jsonl"
        first = JobManager(journal=journal_path, job_workers=0)
        submitted_unix = first.submit(SPEC)[0]["submitted_unix"]
        first.journal.close()
        second = JobManager(journal=journal_path, job_workers=0)
        recovered = second.list_jobs()[0]
        assert recovered["submitted_unix"] == submitted_unix

    def test_failed_job_is_restored_as_failed(self, tmp_path):
        class _Exploding(backends.PerformanceBackend):
            name = "durability_boom"
            capabilities = backends.BackendCapabilities(
                supported_axes=frozenset(backends.DEFAULT_OPERATING_POINT),
                rtol=0.0,
                atol=0.0,
                description="always raises (recovery test double)",
            )

            def evaluate(self, point):
                raise RuntimeError("boom")

        backends.register(_Exploding)
        try:
            journal_path = tmp_path / "journal.jsonl"
            doomed = ScenarioSpec(
                axes={"lps": [1], "backend": ["durability_boom"]}, name="doomed"
            )
            first = JobManager(journal=journal_path, job_workers=2)
            first.start()
            job_id = first.submit(doomed)[0]["job_id"]
            failed = wait_state(first, job_id, "failed")
            first.stop()
            first.journal.close()

            second = JobManager(journal=journal_path, job_workers=2)
            assert second.recovered_jobs == 1
            restored = second.status(job_id)
            assert restored["state"] == "failed"
            assert restored["error"] == failed["error"]
            assert restored["finished_unix"] == failed["finished_unix"]

            # With the backend gone, the same journal recovers nothing: the
            # spec no longer validates, so the entry is distrusted and skipped.
            backends.unregister("durability_boom")
            third = JobManager(journal=journal_path, job_workers=0)
            assert third.recovered_jobs == 0
        finally:
            if "durability_boom" in backends.available_backends():
                backends.unregister("durability_boom")

    def test_tampered_job_id_is_distrusted(self, tmp_path):
        journal_path = tmp_path / "journal.jsonl"
        journal = JobJournal(journal_path)
        journal.append(
            {
                "event": "submitted",
                "job_id": "f" * 64,  # not the content hash of this spec
                "spec": SPEC.to_dict(),
                "shard_size": 4096,
                "unix": 1.0,
            }
        )
        journal.close()
        manager = JobManager(journal=journal_path, job_workers=0)
        assert manager.recovered_jobs == 0
        assert manager.status("f" * 64) is None

    def test_recovery_beyond_queue_capacity_skips_the_overflow(self, tmp_path):
        journal_path = tmp_path / "journal.jsonl"
        first = JobManager(journal=journal_path, job_workers=0, queue_size=4)
        first.submit(SPEC)
        first.submit(OTHER_SPEC)
        first.journal.close()
        cramped = JobManager(journal=journal_path, job_workers=0, queue_size=1)
        assert cramped.recovered_jobs == 1  # the second stays in the journal
        roomy = JobManager(journal=journal_path, job_workers=0, queue_size=4)
        assert roomy.recovered_jobs == 2


# --------------------------------------------------------------------- #
# Restart over HTTP (the full server)
# --------------------------------------------------------------------- #
def test_restarted_server_reserves_and_lists_recovered_jobs(tmp_path):
    journal_path = tmp_path / "journal.jsonl"
    cache = tmp_path / "cache"
    with StudyServer(cache=cache, journal=journal_path) as first:
        client = StudyServiceClient(first.url)
        original = client.run(SPEC)
        assert client.healthz()["recovered_jobs"] == 0
    first.manager.journal.close()

    with StudyServer(cache=cache, journal=journal_path) as second:
        client = StudyServiceClient(second.url)
        assert client.healthz()["recovered_jobs"] == 1
        listing = client.list_studies()
        assert listing["count"] == 1
        assert listing["jobs"][0]["job_id"] == original.job_id
        client.wait(original.job_id, timeout=30.0)
        recovered = client.artifact(original.job_id)
        assert recovered.body == original.body
        assert recovered.served_from_cache is True
        assert second.manager.executed_shards == 0


def test_list_studies_orders_by_submission(tmp_path):
    with StudyServer(cache=tmp_path / "cache") as server:
        client = StudyServiceClient(server.url)
        first = client.submit(SPEC)["job_id"]
        second = client.submit(OTHER_SPEC)["job_id"]
        listing = client.list_studies()
        assert [j["job_id"] for j in listing["jobs"]] == [first, second]
        assert listing["count"] == 2
        for job in listing["jobs"]:
            assert {"state", "submitted_unix", "finished_unix", "progress"} <= set(job)


# --------------------------------------------------------------------- #
# Backpressure: Retry-After on 429
# --------------------------------------------------------------------- #
def test_queue_full_carries_retry_after_hint():
    with StudyServer(job_workers=0, queue_size=1) as server:
        client = StudyServiceClient(server.url, retries=0)
        client.submit(SPEC)
        with pytest.raises(ServiceError) as excinfo:
            client.submit(OTHER_SPEC)
        assert excinfo.value.code == ERR_QUEUE_FULL
        assert excinfo.value.status == 429
        assert excinfo.value.retry_after == 1.0


def test_client_retries_429_until_budget_exhausted():
    with StudyServer(job_workers=0, queue_size=1) as server:
        client = StudyServiceClient(server.url, retries=2, backoff=0.0, backoff_cap=0.0)
        client.submit(SPEC)
        calls = {"n": 0}
        original = client._request_once

        def counting(method, path, payload=None):
            calls["n"] += 1
            return original(method, path, payload)

        client._request_once = counting
        start = time.monotonic()
        with pytest.raises(ServiceError) as excinfo:
            client.submit(OTHER_SPEC)
        assert excinfo.value.code == ERR_QUEUE_FULL
        assert calls["n"] == 3  # first attempt + 2 retries
        # Each retry honored the server's 1s Retry-After hint.
        assert time.monotonic() - start >= 2.0


# --------------------------------------------------------------------- #
# HTTP fault sites + client retry
# --------------------------------------------------------------------- #
def test_connection_reset_fault_is_absorbed_by_client_retry():
    plan = FaultPlan([FaultRule(site=SITE_HTTP_CONNECTION, times=1)])
    with StudyServer(faults=plan) as server:
        fragile = StudyServiceClient(server.url, retries=0, timeout=5.0)
        with pytest.raises(ServiceError) as excinfo:
            fragile.healthz()  # eats the injected reset head-on
        assert excinfo.value.code == ERR_CONNECTION
        # The plan fired its single reset; a retrying client started *after*
        # a fresh identical plan sails through without the caller noticing.
    plan = FaultPlan([FaultRule(site=SITE_HTTP_CONNECTION, times=1)])
    with StudyServer(faults=plan) as server:
        resilient = StudyServiceClient(server.url, retries=2, backoff=0.01, timeout=5.0)
        assert resilient.healthz()["status"] == "ok"


def test_slow_response_fault_delays_but_serves():
    plan = FaultPlan([FaultRule(site=SITE_HTTP_SLOW, times=1, delay_s=0.3)])
    with StudyServer(faults=plan) as server:
        client = StudyServiceClient(server.url)
        start = time.monotonic()
        assert client.healthz()["status"] == "ok"
        assert time.monotonic() - start >= 0.3
        # Only the first request was slowed.
        start = time.monotonic()
        client.healthz()
        assert time.monotonic() - start < 0.3


def test_server_faults_default_to_env_hook(monkeypatch):
    monkeypatch.setenv(
        "REPRO_FAULTS", '{"rules": [{"site": "http-connection", "times": 1}]}'
    )
    with StudyServer() as server:
        assert server.faults is not None
        client = StudyServiceClient(server.url, retries=2, backoff=0.01, timeout=5.0)
        assert client.healthz()["status"] == "ok"


# --------------------------------------------------------------------- #
# Request read timeout
# --------------------------------------------------------------------- #
def test_idle_connection_is_reaped_by_request_timeout():
    with StudyServer(request_timeout=0.3) as server:
        with socket.create_connection((server.host, server.port), timeout=10) as sock:
            sock.settimeout(10)
            start = time.monotonic()
            # Never send a request: the handler's read must time out and
            # close the connection rather than pin the thread forever.
            assert sock.recv(1) == b""
            assert time.monotonic() - start < 5.0


def test_request_timeout_is_validated():
    with pytest.raises(ValidationError, match="request_timeout"):
        StudyServer(request_timeout=0.0)


# --------------------------------------------------------------------- #
# Settle-wait long-poll (GET /studies/<id>?wait=S)
# --------------------------------------------------------------------- #
def get(server: StudyServer, path: str) -> tuple[int, bytes]:
    """One raw GET exchange: ``(status, body)``."""
    conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def error_code(body: bytes) -> str:
    return json.loads(body)["error"]["code"]


def parked_waiters(manager: JobManager) -> int:
    """Threads currently asleep on the manager's settle condition."""
    with manager._lock:
        return len(manager._settled._waiters)


def await_parked(manager: JobManager, count: int = 1) -> None:
    deadline = time.monotonic() + 30.0
    while parked_waiters(manager) < count:
        assert time.monotonic() < deadline, "long-poll never parked on the settle event"
        time.sleep(0.005)


def run_queued(manager: JobManager) -> None:
    """Execute the next queued job on this thread (a ``job_workers=0`` manager)."""
    manager._run_job(manager._queue.get_nowait())


def in_thread(target, *args) -> tuple[threading.Thread, list]:
    out: list = []
    thread = threading.Thread(target=lambda: out.append(target(*args)), daemon=True)
    thread.start()
    return thread, out


@pytest.mark.parametrize("value", ["abc", "nan", "inf", "-1", "", "1&wait=2"])
def test_wait_query_must_be_one_finite_nonnegative_number(value):
    with StudyServer(job_workers=0) as server:
        job_id = StudyServiceClient(server.url).submit(SPEC)["job_id"]
        status, body = get(server, f"/studies/{job_id}?wait={value}")
        assert status == 400
        assert error_code(body) == ERR_INVALID_QUERY


def test_huge_wait_is_clamped_to_the_protocol_bound(monkeypatch):
    with StudyServer(job_workers=0) as server:
        manager = server.manager
        job_id = StudyServiceClient(server.url).submit(SPEC)["job_id"]
        asked: list[float] = []
        monkeypatch.setattr(
            manager, "wait_settled",
            lambda job, timeout: (asked.append(timeout), manager.status(job))[1],
        )
        status, body = get(server, f"/studies/{job_id}?wait=1e300")
        assert status == 200 and json.loads(body)["state"] == "queued"
        assert asked == [MAX_WAIT_S]


def test_wait_on_an_unknown_job_is_404_without_waiting():
    with StudyServer(job_workers=0) as server:
        start = time.monotonic()
        status, body = get(server, f"/studies/{'f' * 64}?wait={MAX_WAIT_S}")
        assert status == 404 and error_code(body) == ERR_UNKNOWN_JOB
        assert time.monotonic() - start < MAX_WAIT_S / 2


def test_wait_settled_wakes_when_the_job_settles():
    manager = JobManager(job_workers=0)
    manager.start()
    job_id = manager.submit(SPEC)[0]["job_id"]
    waiter, out = in_thread(manager.wait_settled, job_id, 60.0)
    await_parked(manager)
    run_queued(manager)
    waiter.join(30.0)
    assert not waiter.is_alive()
    assert out[0]["state"] == "done"
    manager.stop()


def test_job_evicted_mid_wait_is_404():
    with StudyServer(job_workers=0, max_retained_jobs=1) as server:
        manager = server.manager
        client = StudyServiceClient(server.url)
        first = client.submit(SPEC)["job_id"]
        client.submit(OTHER_SPEC)
        waiter, out = in_thread(get, server, f"/studies/{first}?wait={MAX_WAIT_S}")
        await_parked(manager)
        start = time.monotonic()
        # Holding the lock, settle the waited-on job and then a second one,
        # whose retirement evicts the first before the waiter can look.
        with manager._lock:
            run_queued(manager)
            run_queued(manager)
        waiter.join(30.0)
        assert not waiter.is_alive()
        assert time.monotonic() - start < MAX_WAIT_S / 2
        status, body = out[0]
        assert status == 404 and error_code(body) == ERR_UNKNOWN_JOB


def test_stop_wakes_an_in_flight_long_poll():
    server = StudyServer(job_workers=0).start()
    job_id = StudyServiceClient(server.url).submit(SPEC)["job_id"]
    waiter, out = in_thread(get, server, f"/studies/{job_id}?wait={MAX_WAIT_S}")
    await_parked(server.manager)
    start = time.monotonic()
    server.stop()
    waiter.join(30.0)
    assert not waiter.is_alive()
    assert time.monotonic() - start < MAX_WAIT_S / 2
    status, body = out[0]
    assert status == 200 and json.loads(body)["state"] == "queued"


def test_plain_status_get_is_unchanged_and_never_waits(monkeypatch):
    with StudyServer() as server:
        manager = server.manager
        job_id = StudyServiceClient(server.url).run(SPEC).job_id
        settled = get(server, f"/studies/{job_id}?wait=0")

        def refuse(*args):
            raise AssertionError("a plain status GET must not wait")

        monkeypatch.setattr(manager, "wait_settled", refuse)
        status, body = get(server, f"/studies/{job_id}")
        expected = {"api_version": 1, "links": job_links(job_id), **manager.status(job_id)}
        assert (status, body) == (200, dump_body(expected))
        assert settled == (200, body)


def request_lines(log: list[str], job_id: str) -> tuple[int, int]:
    """``(?wait= requests, plain status reads)`` of ``job_id`` in a server log."""
    waits = sum(f"GET /studies/{job_id}?wait=" in line for line in log)
    plain = sum(f"GET /studies/{job_id} HTTP" in line for line in log)
    return waits, plain


def test_a_settling_job_costs_one_long_poll_and_one_status_read():
    log: list[str] = []
    with StudyServer(log=log.append) as server:
        client = StudyServiceClient(server.url)
        job_id = client.submit(SPEC)["job_id"]
        assert client.wait(job_id, timeout=30.0)["state"] == "done"
        assert request_lines(log, job_id) == (1, 1)


def test_wait_never_spins_on_a_server_that_answers_wait_at_once(monkeypatch):
    # A server predating ?wait= ignores it and answers at once; the client
    # must then space its rounds by poll_interval instead of spinning.
    log: list[str] = []
    with StudyServer(job_workers=0, log=log.append) as server:
        manager = server.manager
        monkeypatch.setattr(manager, "wait_settled", lambda job, timeout: manager.status(job))
        client = StudyServiceClient(server.url)
        job_id = client.submit(SPEC)["job_id"]
        with pytest.raises(ServiceError) as excinfo:
            client.wait(job_id, timeout=0.3, poll_interval=0.05)
        assert excinfo.value.code == ERR_TIMEOUT
        waits, plain = request_lines(log, job_id)
        assert plain == 0  # the job never settled, so status() was never read
        assert 1 <= waits <= 0.3 / 0.05 + 2


def test_client_constructor_validation():
    with pytest.raises(ValueError, match="retries"):
        StudyServiceClient("http://x", retries=-1)
    with pytest.raises(ValueError, match="backoff"):
        StudyServiceClient("http://x", backoff=-0.1)
