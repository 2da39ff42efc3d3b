"""The worker's HTTP transport against a coordinator that answers badly.

A raw-socket stub plays the coordinator so a test can send replies no
:class:`StudyServer` would: a 200 whose body breaks off before its
``Content-Length``, a 200 that is not JSON, a 503.  Every such reply must
reach the worker as :class:`DistributedError` — the one transport failure
its retry budget absorbs — and never as a raw ``http.client`` or JSON
exception that ends the worker loop.
"""

from __future__ import annotations

import contextlib
import socket
import threading

import pytest

pytestmark = pytest.mark.distributed

from repro.distributed.worker import HttpCoordinatorTransport, ShardWorker
from repro.exceptions import DistributedError
from repro.faults import FaultPlan
from repro.studies.executor import RetryPolicy


def _reply(status: bytes, body: bytes, length: int | None = None) -> bytes:
    length = len(body) if length is None else length
    return (
        b"HTTP/1.1 " + status + b"\r\nContent-Type: application/json\r\n"
        b"Content-Length: " + str(length).encode() + b"\r\n\r\n" + body
    )


#: 9 of the 100 bytes the headers promise, then the connection closes.
TRUNCATED = _reply(b"200 OK", b'{"lease":', length=100)
NOT_JSON = _reply(b"200 OK", b"<html>not json</html>")
NOT_OBJECT = _reply(b"200 OK", b"[1, 2]")
UNAVAILABLE = _reply(b"503 Service Unavailable", b"")
IDLE = _reply(b"200 OK", b'{"api_version":1,"lease":null}')


def _read_request(conn: socket.socket) -> None:
    """Consume one whole request, so closing the socket sends FIN, not RST."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = conn.recv(65536)
        if not chunk:
            return
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    length = 0
    for line in head.split(b"\r\n")[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    while len(body) < length:
        chunk = conn.recv(65536)
        if not chunk:
            return
        body += chunk


@contextlib.contextmanager
def stub_coordinator(*replies: bytes):
    """Serve the n-th connection ``replies[n]`` (the last one repeats),
    closing each connection after its reply; yields the base URL."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.05)
    stop = threading.Event()

    def serve() -> None:
        served = 0
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except TimeoutError:
                continue
            with conn:
                conn.settimeout(5.0)
                _read_request(conn)
                conn.sendall(replies[min(served, len(replies) - 1)])
            served += 1

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{listener.getsockname()[1]}"
    finally:
        stop.set()
        thread.join(timeout=5.0)
        listener.close()
        assert not thread.is_alive()


@pytest.mark.parametrize(
    "reply",
    [TRUNCATED, NOT_JSON, NOT_OBJECT, UNAVAILABLE],
    ids=["truncated", "not-json", "not-object", "unavailable"],
)
def test_bad_reply_raises_distributed_error(reply):
    with stub_coordinator(reply) as url:
        transport = HttpCoordinatorTransport(url, timeout=5.0)
        with pytest.raises(DistributedError):
            transport.lease("w0")
        with pytest.raises(DistributedError):
            transport.push("a" * 64, 0, b"\x00" * 8, "0" * 64, worker_id="w0")


def test_worker_retries_through_bad_lease_replies():
    with stub_coordinator(TRUNCATED, NOT_JSON, IDLE) as url:
        worker = ShardWorker(
            HttpCoordinatorTransport(url, timeout=5.0),
            worker_id="w0",
            faults=FaultPlan([]),
            retry=RetryPolicy(max_attempts=3, base_delay_s=0.0),
            poll_s=0.0,
            max_idle_s=0.0,
        )
        stats = worker.run()
    assert stats.pull_faults == 2
    assert stats.pulls == 1
    assert stats.empty_pulls == 1


def test_exchange_reports_a_truncated_reply_as_connection_failure():
    from repro.service.protocol import ERR_CONNECTION, ServiceError, exchange

    with stub_coordinator(TRUNCATED) as url:
        with pytest.raises(ServiceError) as excinfo:
            exchange(f"{url}/distributed/lease", "POST", b"{}", timeout=5.0)
    assert excinfo.value.code == ERR_CONNECTION
    assert excinfo.value.status == 0
