"""The distributed service over live HTTP: lease/push/fail, health, bytes.

A :class:`StudyServer` with ``distributed=True`` executes submitted jobs
by leasing shards to HTTP workers.  This suite pins the wire protocol of
the three ``/distributed/*`` routes (raw ``http.client``, mirroring
``test_service.py``), the healthz/status observability additions, and —
the point of it all — that the served artifact is byte-identical to a
plain single-process server's artifact for the same spec.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import threading
import time

import pytest

pytestmark = pytest.mark.distributed

from repro.distributed.worker import HttpCoordinatorTransport, ShardWorker
from repro.exceptions import PushRejected, ValidationError
from repro.faults import FaultPlan
from repro.service import StudyServer
from repro.service.protocol import (
    ERR_NOT_DISTRIBUTED,
    ERR_SHARD_REJECTED,
    ERR_UNKNOWN_STUDY,
    HEADER_LEASE_ID,
    HEADER_SHARD_DIGEST,
    HEADER_SHARD_INDEX,
    HEADER_SHARD_STUDY,
    HEADER_WORKER_ID,
)
from repro.studies import ScenarioSpec, run_study

SPEC_PAYLOAD = {
    "name": "dist-e2e",
    "axes": {"lps": [1, 2, 3, 4, 5, 6], "accuracy": [0.9, 0.99]},
    "mc_trials": 2,
    "seed": 3,
}
SHARD_SIZE = 4  # 12 points -> 3 shards

NO_FAULTS = FaultPlan([])


def request(server, method, path, payload=None, raw_body=None, headers=None):
    conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        body = raw_body
        send_headers = dict(headers or {})
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            send_headers.setdefault("Content-Type", "application/json")
        conn.request(method, path, body=body, headers=send_headers)
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        conn.close()


def wait_done(server, job_id, timeout=60.0):
    deadline = time.monotonic() + timeout
    while True:
        status, _, body = request(server, "GET", f"/studies/{job_id}")
        assert status == 200
        snapshot = json.loads(body)
        if snapshot["state"] in ("done", "failed"):
            return snapshot
        assert time.monotonic() < deadline, f"job {job_id} stuck {snapshot['state']}"
        time.sleep(0.02)


def wait_for_workers(server, count, timeout=30.0):
    """Block until ``/healthz`` reports ``count`` attached workers."""
    deadline = time.monotonic() + timeout
    while True:
        _, _, body = request(server, "GET", "/healthz")
        if json.loads(body)["distributed"]["workers"] >= count:
            return
        assert time.monotonic() < deadline, "workers never attached"
        time.sleep(0.01)


@pytest.fixture()
def server(tmp_path):
    with StudyServer(
        cache=tmp_path / "cache",
        shard_size=SHARD_SIZE,
        distributed=True,
        lease_ttl_s=0.3,
    ) as srv:
        yield srv


@pytest.fixture()
def plain_server():
    with StudyServer(job_workers=0) as srv:
        yield srv


def attach_workers(server, count, **worker_kwargs):
    """HTTP worker threads against ``server``; returns (stop_event, join)."""
    stop = threading.Event()
    workers = [
        ShardWorker(
            HttpCoordinatorTransport(server.url),
            worker_id=f"hw{i}",
            faults=NO_FAULTS,
            poll_s=0.01,
            **worker_kwargs,
        )
        for i in range(count)
    ]
    threads = [
        threading.Thread(target=w.run, kwargs={"stop": stop}) for w in workers
    ]
    for t in threads:
        t.start()

    def join():
        stop.set()
        for t in threads:
            t.join()

    return workers, join


# --------------------------------------------------------------------- #
# End to end
# --------------------------------------------------------------------- #
def test_distributed_job_is_byte_identical_to_local(server):
    reference = run_study(
        ScenarioSpec.from_dict(SPEC_PAYLOAD), shard_size=SHARD_SIZE
    ).artifact_bytes()
    workers, join = attach_workers(server, 2)
    try:
        # Submit only once both workers have pulled: a fleet that has not
        # attached by the first stall check would be bypassed by the
        # inline drain, which attributes shards to "<coordinator>".
        wait_for_workers(server, 2)
        status, _, body = request(server, "POST", "/studies", SPEC_PAYLOAD)
        assert status == 202
        job_id = json.loads(body)["job_id"]
        snapshot = wait_done(server, job_id)
        assert snapshot["state"] == "done"
        # Per-worker attribution in the status progress.
        attribution = snapshot["progress"]["workers"]
        assert sum(attribution.values()) == 3
        assert set(attribution) <= {"hw0", "hw1"}
        _, _, artifact = request(server, "GET", f"/studies/{job_id}/artifact")
        assert artifact == reference
    finally:
        join()
    # The workers really did the work over HTTP.
    assert sum(w.stats.shards_completed for w in workers) == 3
    assert server.manager.executed_shards == 3


def test_workerless_distributed_server_drains_inline(tmp_path):
    # Liveness: no fleet attached -> the job still completes (and matches).
    with StudyServer(
        cache=tmp_path / "cache",
        shard_size=SHARD_SIZE,
        distributed=True,
        lease_ttl_s=0.2,  # short stall slice: drain kicks in fast
    ) as srv:
        status, _, body = request(srv, "POST", "/studies", SPEC_PAYLOAD)
        assert status == 202
        job_id = json.loads(body)["job_id"]
        snapshot = wait_done(srv, job_id)
        assert snapshot["state"] == "done"
        assert snapshot["progress"]["workers"] == {"<coordinator>": 3}
        _, _, artifact = request(srv, "GET", f"/studies/{job_id}/artifact")
    reference = run_study(
        ScenarioSpec.from_dict(SPEC_PAYLOAD), shard_size=SHARD_SIZE
    ).artifact_bytes()
    assert artifact == reference


# --------------------------------------------------------------------- #
# The wire protocol of the three verbs
# --------------------------------------------------------------------- #
def submit_and_lease(server):
    """Submit the standard spec and pull one lease once it is registered."""
    request(server, "POST", "/studies", SPEC_PAYLOAD)
    deadline = time.monotonic() + 10.0
    while True:
        status, _, body = request(
            server, "POST", "/distributed/lease", {"worker_id": "probe"}
        )
        assert status == 200
        lease = json.loads(body)["lease"]
        if lease is not None:
            return lease
        assert time.monotonic() < deadline, "study never became leasable"
        time.sleep(0.02)


def push_headers(lease, data, worker_id="probe"):
    return {
        "Content-Type": "application/octet-stream",
        HEADER_SHARD_STUDY: lease["study_id"],
        HEADER_SHARD_INDEX: str(lease["shard_index"]),
        HEADER_SHARD_DIGEST: hashlib.sha256(data).hexdigest(),
        HEADER_WORKER_ID: worker_id,
        HEADER_LEASE_ID: lease["lease_id"],
    }


def evaluate_lease(lease):
    from repro.studies.executor import StudyPlan, _run_shard

    plan = StudyPlan.decode(lease["spec"], lease["shard_size"])
    return _run_shard(plan, lease["shard_index"], True).tobytes()


def test_lease_push_round_trip_over_http(server):
    lease = submit_and_lease(server)
    assert lease["shard_size"] == SHARD_SIZE
    data = evaluate_lease(lease)
    status, _, body = request(
        server, "POST", "/distributed/push",
        raw_body=data, headers=push_headers(lease, data),
    )
    assert status == 200
    accepted = json.loads(body)
    assert accepted["accepted"] is True
    assert accepted["duplicate"] is False
    assert accepted["total"] == 3


def test_duplicate_push_accepted_idempotently(server):
    lease = submit_and_lease(server)
    data = evaluate_lease(lease)
    for expect_dup in (False, True):
        status, _, body = request(
            server, "POST", "/distributed/push",
            raw_body=data, headers=push_headers(lease, data),
        )
        assert status == 200
        assert json.loads(body)["duplicate"] is expect_dup


def test_corrupt_push_rejected_with_409(server):
    lease = submit_and_lease(server)
    data = evaluate_lease(lease)
    headers = push_headers(lease, data)  # digest of the good bytes
    corrupted = bytes([data[0] ^ 0xFF]) + data[1:]
    status, _, body = request(
        server, "POST", "/distributed/push", raw_body=corrupted, headers=headers
    )
    assert status == 409
    error = json.loads(body)["error"]
    assert error["code"] == ERR_SHARD_REJECTED
    assert error["reason"] == "hash-mismatch"
    # The shard survived the bad push: the coordinator requeued it.
    assert server.coordinator.stats.rejected_pushes == 1


def test_push_to_unknown_study_is_404(server):
    status, _, body = request(
        server, "POST", "/distributed/push",
        raw_body=b"x",
        headers={
            HEADER_SHARD_STUDY: "f" * 64,
            HEADER_SHARD_INDEX: "0",
            HEADER_SHARD_DIGEST: hashlib.sha256(b"x").hexdigest(),
        },
    )
    assert status == 404
    assert json.loads(body)["error"]["code"] == ERR_UNKNOWN_STUDY


def test_cooperative_fail_requeues_over_http(server):
    lease = submit_and_lease(server)
    status, _, body = request(
        server, "POST", "/distributed/fail",
        {"lease_id": lease["lease_id"], "message": "probe gave up"},
    )
    assert status == 200
    assert json.loads(body)["ok"] is True
    assert server.coordinator.stats.worker_failures == 1
    # Cooperative failure is a requeue like any other: the /healthz gauge
    # must count it, not just lease-expiry requeues.
    _, _, body = request(server, "GET", "/healthz")
    dist = json.loads(body)["distributed"]
    assert dist["worker_failures"] == 1
    assert dist["requeues"] == 1


def test_plain_server_answers_distributed_routes_with_409(plain_server):
    for path, payload in (
        ("/distributed/lease", {"worker_id": "w"}),
        ("/distributed/fail", {"lease_id": "lease-1"}),
    ):
        status, _, body = request(plain_server, "POST", path, payload)
        assert status == 409
        assert json.loads(body)["error"]["code"] == ERR_NOT_DISTRIBUTED
    status, _, body = request(
        plain_server, "POST", "/distributed/push", raw_body=b"",
        headers={HEADER_SHARD_STUDY: "x", HEADER_SHARD_INDEX: "0"},
    )
    assert status == 409
    assert json.loads(body)["error"]["code"] == ERR_NOT_DISTRIBUTED


def test_transport_maps_rejection_and_unknown_study(server):
    transport = HttpCoordinatorTransport(server.url)
    lease = submit_and_lease(server)
    data = evaluate_lease(lease)
    with pytest.raises(PushRejected) as excinfo:
        transport.push(
            lease["study_id"], lease["shard_index"], data, "0" * 64,
            worker_id="probe", lease_id=lease["lease_id"],
        )
    assert excinfo.value.reason == "hash-mismatch"
    with pytest.raises(ValidationError, match="unknown-study"):
        transport.push("e" * 64, 0, data, hashlib.sha256(data).hexdigest())


# --------------------------------------------------------------------- #
# Observability
# --------------------------------------------------------------------- #
def test_healthz_reports_coordinator_state(server):
    status, _, body = request(server, "GET", "/healthz")
    assert status == 200
    health = json.loads(body)
    dist = health["distributed"]
    assert dist["workers"] == 0
    assert dist["outstanding_leases"] == 0
    assert dist["scheduler"] == "static"
    lease = submit_and_lease(server)
    assert lease is not None
    _, _, body = request(server, "GET", "/healthz")
    dist = json.loads(body)["distributed"]
    assert dist["workers"] == 1
    assert dist["outstanding_leases"] == 1
    assert dist["leases_granted"] == 1


def test_plain_healthz_reports_distributed_null(plain_server):
    _, _, body = request(plain_server, "GET", "/healthz")
    assert json.loads(body)["distributed"] is None


def test_stop_finishes_an_in_flight_job_without_waiting_out_leases():
    # One shard leased to a worker that never pushes: stop() reclaims the
    # lease and drains the study inline instead of waiting two lease TTLs.
    spec = ScenarioSpec(name="stop-drain", axes={"lps": list(range(1, 11))})
    server = StudyServer(
        distributed=True, lease_ttl_s=2.0, shard_size=5, job_workers=1
    ).start()
    try:
        snapshot, _ = server.manager.submit(spec)
        job_id = snapshot["job_id"]
        deadline = time.monotonic() + 10.0
        while not server.coordinator.has_study(job_id):
            assert time.monotonic() < deadline, "job never registered its study"
            time.sleep(0.005)
        assert server.coordinator.lease("ghost") is not None
    finally:
        started = time.monotonic()
        server.stop()
        elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"stop() took {elapsed:.2f}s"
    artifact, status = server.manager.artifact(job_id)
    assert status["state"] == "done"
    assert artifact == run_study(spec, shard_size=5).artifact_bytes()
