"""Retry behavior of :func:`repro.serve.bench.http_sender`.

The sender is the client side of every chaos benchmark, so its retry
contract — retry exactly what the server invites (429/503 + connection
errors), honor Retry-After, give up after ``max_retries`` — gets pinned
here against a scripted stub server rather than a live :class:`Server`.
"""

import http.server
import json
import socket
import threading
import time
import urllib.error

import numpy as np
import pytest

from repro.serve.bench import http_sender

SAMPLE = np.zeros((2, 2))


class ScriptedServer:
    """HTTP stub that answers POSTs from a per-test status script.

    ``script`` is a list of ``(status, headers)`` pairs consumed one per
    request; once exhausted every request gets a 200 with a canned
    predictions payload.
    """

    def __init__(self, script=()):
        self.script = list(script)
        self.requests = 0
        self._lock = threading.Lock()
        stub = self

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                self.rfile.read(length)
                with stub._lock:
                    stub.requests += 1
                    step = stub.script.pop(0) if stub.script else None
                if step is None:
                    body = json.dumps({"predictions": [7]}).encode()
                    self.send_response(200)
                    self.send_header("Content-Type", "application/json")
                    self.send_header("Content-Length", str(len(body)))
                    self.end_headers()
                    self.wfile.write(body)
                    return
                status, headers = step
                body = json.dumps({"error": "scripted",
                                   "status": status}).encode()
                self.send_response(status)
                for name, value in headers.items():
                    self.send_header(name, value)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        self._httpd = http.server.ThreadingHTTPServer(
            ("127.0.0.1", 0), Handler)
        self.url = f"http://127.0.0.1:{self._httpd.server_address[1]}"
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, daemon=True)
        self._thread.start()

    def close(self):
        self._httpd.shutdown()
        self._httpd.server_close()


@pytest.fixture
def scripted():
    servers = []

    def make(script=()):
        server = ScriptedServer(script)
        servers.append(server)
        return server

    yield make
    for server in servers:
        server.close()


class TestHTTPSenderRetries:
    def test_429_retried_until_success(self, scripted):
        server = scripted([(429, {"Retry-After": "0.01"})] * 2)
        send = http_sender(server.url, max_retries=3, backoff=0.01)
        assert send(SAMPLE)["predictions"] == [7]
        assert server.requests == 3

    def test_retry_after_header_is_honored(self, scripted):
        server = scripted([(429, {"Retry-After": "0.2"})])
        send = http_sender(server.url, max_retries=1, backoff=0.001,
                           backoff_cap=5.0)
        start = time.monotonic()
        assert send(SAMPLE)["predictions"] == [7]
        # One retry, told to wait 0.2s: far above the 0.002s the
        # exponential schedule alone would have slept.
        assert time.monotonic() - start >= 0.15

    def test_retry_after_capped_by_backoff_cap(self, scripted):
        server = scripted([(503, {"Retry-After": "30"})])
        send = http_sender(server.url, max_retries=1, backoff_cap=0.05)
        start = time.monotonic()
        assert send(SAMPLE)["predictions"] == [7]
        assert time.monotonic() - start < 2.0

    def test_503_during_drain_retried(self, scripted):
        server = scripted([(503, {"Retry-After": "0.01"})] * 2)
        send = http_sender(server.url, max_retries=2, backoff=0.01)
        assert send(SAMPLE)["predictions"] == [7]
        assert server.requests == 3

    def test_retry_budget_exhausted_raises(self, scripted):
        server = scripted([(429, {"Retry-After": "0.01"})] * 5)
        send = http_sender(server.url, max_retries=2, backoff=0.01)
        with pytest.raises(urllib.error.HTTPError) as info:
            send(SAMPLE)
        assert info.value.code == 429
        assert server.requests == 3  # initial try + 2 retries

    def test_client_errors_propagate_immediately(self, scripted):
        server = scripted([(400, {})])
        send = http_sender(server.url, max_retries=3)
        with pytest.raises(urllib.error.HTTPError) as info:
            send(SAMPLE)
        assert info.value.code == 400
        assert server.requests == 1

    def test_connection_refused_retried_then_raises(self):
        # Grab a port nobody is listening on.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        send = http_sender(f"http://127.0.0.1:{port}",
                           max_retries=2, backoff=0.01)
        start = time.monotonic()
        with pytest.raises(urllib.error.URLError):
            send(SAMPLE)
        # Two backoff sleeps happened before giving up.
        assert time.monotonic() - start >= 0.01

    def test_zero_retries_means_single_attempt(self, scripted):
        server = scripted([(429, {"Retry-After": "0.01"})])
        send = http_sender(server.url, max_retries=0)
        with pytest.raises(urllib.error.HTTPError):
            send(SAMPLE)
        assert server.requests == 1

    @pytest.mark.parametrize("retry_after", ["soon", "-1", "nan"])
    def test_garbage_retry_after_falls_back_to_backoff(self, scripted,
                                                       retry_after):
        # Not a finite number >= 0: time.sleep would raise on -1/NaN.
        server = scripted([(429, {"Retry-After": retry_after})])
        send = http_sender(server.url, max_retries=1, backoff=0.01)
        assert send(SAMPLE)["predictions"] == [7]
        assert server.requests == 2
