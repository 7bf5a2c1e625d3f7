"""One HTTP frontend, two apps: replica and router answer the shared
paths identically, a keep-alive connection answers without transport
stalls, and a burst of new connections does not stall on the listen
backlog."""

import contextlib
import http.client
import json
import re
import socket
import statistics
import threading
import time

import pytest

from repro.serve import Router, RouterConfig, ServeConfig, Server
from repro.serve.http import _MAX_BODY, JSONHandler


@contextlib.contextmanager
def replica_and_router(artifact):
    """``{"replica": url, "router": url}``: one replica, one router in
    front of it."""
    config = ServeConfig(max_batch=4)
    with Server(artifact=artifact, config=config) as server:
        replica = server.serve_http(port=0).url
        router = Router(endpoints=[("r0", replica)],
                        config=RouterConfig(rejoin_after=1))
        router.probe_once()
        try:
            yield {"replica": replica, "router": router.serve_http(port=0).url}
        finally:
            router.stop()


def request(url, method, path, body=None, headers=()):
    """``(status, Connection header, parsed JSON body)`` of one request
    on a fresh connection; ``body=None`` sends only the headers."""
    host, port = url.split("://", 1)[1].rsplit(":", 1)
    conn = http.client.HTTPConnection(host, int(port), timeout=10)
    try:
        conn.putrequest(method, path)
        for name, value in headers:
            conn.putheader(name, value)
        if body is not None:
            conn.putheader("Content-Length", str(len(body)))
        conn.endheaders(body)
        response = conn.getresponse()
        return (response.status, response.getheader("Connection"),
                json.loads(response.read()))
    finally:
        conn.close()


class TestFrontendParity:
    def test_same_404_envelope(self, artifact):
        with replica_and_router(artifact) as urls:
            for method, body in (("GET", None), ("POST", b"{}")):
                answers = {role: request(url, method, "/nope", body)
                           for role, url in urls.items()}
                assert answers["replica"] == answers["router"]
                assert answers["replica"][0] == 404
                assert answers["replica"][2] == {
                    "error": "unknown path /nope"}

    def test_same_400_and_close_for_oversized_content_length(self, artifact):
        with replica_and_router(artifact) as urls:
            answers = {
                role: request(url, "POST", "/v1/predict", headers=[
                    ("Content-Type", "application/json"),
                    ("Content-Length", str(_MAX_BODY + 1))])
                for role, url in urls.items()}
        assert answers["replica"] == answers["router"]
        status, connection, payload = answers["replica"]
        assert status == 400
        assert connection == "close"
        assert "Content-Length" in payload["error"]

    def test_same_drain_answer(self, artifact):
        with replica_and_router(artifact) as urls:
            for url in urls.values():
                assert request(url, "POST", "/admin/drain", b"{}")[::2] == (
                    200, {"status": "draining"})
                status, _, health = request(url, "GET", "/healthz")
                assert status == 503
                assert health["status"] == "draining"


    def test_same_411_and_close_for_chunked_body(self, artifact):
        # A chunked body has no Content-Length; read as empty, its chunk
        # bytes would stay on the socket and be parsed as the next
        # request.  The frontend answers once and closes instead.
        body = b'{"inputs": [[0.0]]}'
        raw = (b"POST /v1/predict HTTP/1.1\r\nHost: test\r\n"
               b"Content-Type: application/json\r\n"
               b"Transfer-Encoding: chunked\r\n\r\n"
               + b"%x\r\n" % len(body) + body + b"\r\n0\r\n\r\n"
               + b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n")
        with replica_and_router(artifact) as urls:
            for url in urls.values():
                host, port = url.split("://", 1)[1].rsplit(":", 1)
                with socket.create_connection((host, int(port)),
                                              timeout=10) as sock:
                    sock.sendall(raw)
                    received = b""
                    while chunk := sock.recv(65536):  # until EOF
                        received += chunk
                head, _, payload = received.partition(b"\r\n\r\n")
                assert head.startswith(b"HTTP/1.1 411 "), received
                assert b"\r\nConnection: close" in head
                # Exactly one response, then EOF: nothing follows the
                # declared body.
                length = re.search(rb"\r\nContent-Length: (\d+)", head)
                assert len(payload) == int(length.group(1)), received
                assert "Content-Length" in json.loads(payload)["error"]


KEEPALIVE_REQUESTS = (
    ("GET", "/healthz", None),
    ("POST", "/v1/predict", {"inputs": [[0.5] * 16] * 16}),
    # Detector-plane intensity: a body much larger than the headers.
    ("POST", "/v1/intensity", {"inputs": [[0.5] * 16] * 16}),
)


def test_both_frontends_disable_nagle_on_accepted_sockets(artifact,
                                                          monkeypatch):
    # The cause of the delayed-ACK stall below, checked without a
    # clock: TCP_NODELAY is set on every socket either frontend accepts.
    nodelay = {}
    setup = JSONHandler.setup

    def recording_setup(self):
        setup(self)
        nodelay[self.connection.getsockname()[1]] = \
            self.connection.getsockopt(socket.IPPROTO_TCP,
                                       socket.TCP_NODELAY)

    monkeypatch.setattr(JSONHandler, "setup", recording_setup)
    with replica_and_router(artifact) as urls:
        for url in urls.values():
            assert request(url, "GET", "/healthz")[0] == 200
    seen = {role: nodelay.get(int(url.rsplit(":", 1)[1]))
            for role, url in urls.items()}
    assert all(seen.values()), seen


@pytest.mark.parametrize("method,path,payload", KEEPALIVE_REQUESTS,
                         ids=[path for _, path, _ in KEEPALIVE_REQUESTS])
def test_keepalive_requests_answer_without_delayed_ack_stall(
        artifact, method, path, payload):
    # With Nagle on, a response's body write waits for the ACK of its
    # header write, which the client delays ~40 ms on a reused
    # connection; TCP_NODELAY on the frontend removes the stall.  The
    # bound sits between scheduling noise on a busy shared box (medians
    # of 10-15 ms seen) and the stall.
    body = None if payload is None else json.dumps(payload).encode()
    headers = {} if body is None else {"Content-Type": "application/json"}
    with replica_and_router(artifact) as urls:
        for role, url in urls.items():
            host, port = url.split("://", 1)[1].rsplit(":", 1)
            conn = http.client.HTTPConnection(host, int(port), timeout=10)
            elapsed = []
            try:
                for _ in range(20):
                    begin = time.perf_counter()
                    conn.request(method, path, body, headers)
                    response = conn.getresponse()
                    response.read()
                    elapsed.append(time.perf_counter() - begin)
                    assert response.status == 200
            finally:
                conn.close()
            assert statistics.median(elapsed) < 0.025, (role, elapsed)


def test_connection_burst_does_not_stall_on_backlog(artifact):
    # 64 clients connecting in the same instant overflow a listen
    # backlog of 5; every overflowed SYN waits ~1 s to be retransmitted.
    clients = 64
    with Server(artifact=artifact) as server:
        url = server.serve_http(port=0).url
        start = threading.Barrier(clients)
        elapsed = [None] * clients
        errors = []

        def client(index):
            start.wait()
            begin = time.perf_counter()
            try:
                status, _, _ = request(url, "GET", "/healthz")
                assert status == 200
            except Exception as exc:  # noqa: BLE001 — reported below
                errors.append(exc)
            elapsed[index] = time.perf_counter() - begin

        threads = [threading.Thread(target=client, args=(index,))
                   for index in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert max(elapsed) < 0.9, sorted(elapsed)[-5:]
