"""Stdlib HTTP/JSON plumbing for replicas and the router.

No framework, no dependency: :class:`HTTPFrontend` is a
``ThreadingHTTPServer`` whose handler threads block on the programmatic
API — which routes through the micro-batcher, so concurrent HTTP clients
are coalesced into engine batches exactly like programmatic callers.
The same frontend serves a :class:`~repro.serve.Server` replica and the
:class:`~repro.serve.router.Router`: :class:`JSONHandler` owns what the
two share (response writing, ``/healthz``, ``/metrics``,
``/admin/drain``, the 404 envelope and the request-framing guard),
and each subclass adds only its own routes.  Every accepted socket has
``TCP_NODELAY`` set, so a response's header and body writes leave at
once instead of waiting out the client's delayed ACK.  A client that
hangs up before its answer costs one log line and one count in
``repro_http_client_disconnects_total``, not a traceback.  :func:`fetch`
is the one-shot client call the router probes with (it forwards over
pooled keep-alive connections instead).

Endpoints
---------
``GET  /healthz``        health model (``ok``/``degraded``/``unhealthy``/
                         ``draining``) + per-shard state + counters;
                         HTTP 200 while traffic is served, 503 otherwise
``GET  /metrics``        Prometheus text exposition of the deployment's
                         metrics registry (see :mod:`repro.obs.metrics`)
``GET  /v1/model``       artifact + deployment description
``POST /v1/predict``     ``{"inputs": <2-D sample or 3-D batch>}`` -> labels
``POST /v1/logits``      same request shape -> per-class logits
``POST /v1/intensity``   same request shape -> detector-plane intensity
``POST /admin/drain``    begin a graceful drain: in-flight work finishes,
                         new requests get 503 + ``Retry-After``

Raw images may be any resolution (they go through the model's amplitude
encoder); pre-encoded complex fields are sent as
``{"inputs": <real part>, "inputs_imag": <imag part>}`` with shape
``(n, n)`` / ``(batch, n, n)``.  A request may carry a deadline —
``"deadline_ms"`` in the JSON body or an ``X-Deadline-Ms`` header (the
header wins) — after which it fails fast with **504** instead of
queueing forever.  Errors come back as ``{"error": "..."}``:

* 400 — malformed request (bad JSON, shapes, types, ``Content-Length``)
* 411 — a ``Transfer-Encoding`` (chunked) body; send ``Content-Length``
* 429 — admission window full (``max_inflight``); honors ``Retry-After``
* 503 — draining, or no healthy shard left; honors ``Retry-After``
* 504 — the request's deadline expired before a result was produced
* 500 — anything else (including injected chaos faults)

``Retry-After`` values are *jittered*: each response draws uniformly
from ``[0.75, 1.25) x`` the error's suggested wait, so N clients that
all hit a 429/503 in the same instant don't come back in lockstep and
re-saturate the admission window (thundering herd).
"""

from __future__ import annotations

import json
import logging
import math
import random
import sys
import threading
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Mapping, Optional, Tuple, Type

import numpy as np

from .errors import (
    DeadlineExceeded,
    Draining,
    FaultInjected,
    NoHealthyShards,
    Overloaded,
)

__all__ = ["HTTPFrontend", "JSONHandler", "fetch", "jittered_retry_after",
           "RETRY_AFTER_JITTER"]

_log = logging.getLogger(__name__)

#: ``Retry-After`` jitter band: responses draw uniformly from
#: ``[low, high) x suggested``.  Tests enforce this range.
RETRY_AFTER_JITTER = (0.75, 1.25)

# Seeded for reproducible chaos runs; per-call draws still differ, which
# is the whole point — synchronized clients get *different* waits.
_retry_after_rng = random.Random(0x5EED)
_retry_after_lock = threading.Lock()


def jittered_retry_after(suggested: float) -> str:
    """A ``Retry-After`` header value near ``suggested`` seconds.

    Uniform over ``[0.75, 1.25) x max(suggested, 0.05)`` — close enough
    to the server's intent to be honest, spread enough that a herd of
    synchronized clients desynchronizes after one backoff round.
    Formatted as a short decimal (our clients parse floats; integer
    seconds would quantize sub-second waits back into lockstep).
    """
    base = max(float(suggested), 0.05)
    low, high = RETRY_AFTER_JITTER
    with _retry_after_lock:
        factor = low + (high - low) * _retry_after_rng.random()
    return f"{base * factor:.3f}"


def fetch(url: str, method: str = "GET", body: Optional[bytes] = None,
          headers: Optional[Mapping[str, str]] = None,
          timeout: float = 30.0) -> Tuple[int, Mapping[str, str], bytes]:
    """One HTTP request on a fresh connection; returns ``(status,
    headers, body)``.

    Error statuses are answers like any other (urllib's ``HTTPError`` is
    unwrapped into the tuple); only connection-level failures — refused,
    reset, timed out — raise.
    """
    request = urllib.request.Request(url, data=body,
                                     headers=dict(headers or {}),
                                     method=method)
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, response.headers, response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.headers or {}, exc.read()


#: POST route -> (request kind, response field name).
_ROUTES = {
    "/v1/predict": ("predict", "predictions"),
    "/v1/logits": ("logits", "logits"),
    "/v1/intensity": ("intensity_map", "intensity"),
}

_MAX_BODY = 64 * 1024 * 1024  # refuse absurd request bodies outright


class _BadRequest(ValueError):
    """A client error that should produce a 400, not a 500."""


#: Request failures -> HTTP status, first match wins (see
#: :mod:`repro.serve.errors`); a bare ``ValueError`` is a shape or
#: validation error surfaced by the engine.  Anything else is a 500.
_ERROR_STATUS = (
    (_BadRequest, 400),
    (DeadlineExceeded, 504),
    (Overloaded, 429),
    (Draining, 503),
    (NoHealthyShards, 503),
    (FaultInjected, 500),
    (ValueError, 400),
)


def _parse_deadline_ms(payload: dict,
                       header: Optional[str]) -> Optional[float]:
    """The request deadline in milliseconds: ``X-Deadline-Ms`` header
    over a ``deadline_ms`` body field, else None."""
    raw = header if header is not None else payload.get("deadline_ms")
    if raw is None:
        return None
    try:
        deadline_ms = float(raw)
    except (TypeError, ValueError) as exc:
        raise _BadRequest(
            f"deadline_ms is not a number: {raw!r}"
        ) from exc
    if not math.isfinite(deadline_ms) or deadline_ms < 0:
        raise _BadRequest(
            f"deadline_ms must be a finite value >= 0, got {deadline_ms}"
        )
    return deadline_ms


def _parse_inputs(payload: dict) -> np.ndarray:
    if not isinstance(payload, dict) or "inputs" not in payload:
        raise _BadRequest('request body must be {"inputs": ...}')
    try:
        inputs = np.asarray(payload["inputs"], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise _BadRequest(f"inputs are not a numeric array: {exc}") from exc
    if "inputs_imag" in payload:
        try:
            imag = np.asarray(payload["inputs_imag"], dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise _BadRequest(
                f"inputs_imag is not a numeric array: {exc}"
            ) from exc
        if imag.shape != inputs.shape:
            raise _BadRequest(
                f"inputs_imag shape {imag.shape} does not match inputs "
                f"shape {inputs.shape}"
            )
        inputs = inputs + 1j * imag
    if inputs.ndim not in (2, 3):
        raise _BadRequest(
            f"inputs must be a 2-D sample or a 3-D batch, got shape "
            f"{inputs.shape}"
        )
    return inputs


class JSONHandler(BaseHTTPRequestHandler):
    """What every frontend answers the same way.

    ``self.server.app`` is the served object — anything with
    ``health()``, ``metrics_text()``, ``metrics.content_type`` and
    ``begin_drain()``.  Subclasses answer every other path in
    :meth:`route_get` / :meth:`route_post`; both default to the 404
    envelope.
    """

    protocol_version = "HTTP/1.1"
    server_version = "repro-serve"
    # TCP_NODELAY on every accepted socket.  A response is two writes
    # (headers, then body); with Nagle on, the body waits for the ACK of
    # the headers, which a keep-alive client delays ~40 ms.
    disable_nagle_algorithm = True

    def log_message(self, format, *args):  # noqa: A002 — stdlib signature
        pass  # request logging is the operator's job, not stderr's

    @property
    def app(self):
        return self.server.app

    def send_body(self, status: int, body: bytes,
                  headers: Optional[Mapping[str, str]] = None) -> None:
        """Write one response; ``Content-Type`` defaults to JSON."""
        self.send_response(status)
        headers = {"Content-Type": "application/json", **(headers or {}),
                   "Content-Length": str(len(body))}
        for name, value in headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def send_json(self, status: int, payload: dict,
                  headers: Optional[Dict[str, str]] = None) -> None:
        self.send_body(status, json.dumps(payload).encode("utf-8"), headers)

    def not_found(self) -> None:
        self.send_json(404, {"error": f"unknown path {self.path}"})

    def do_GET(self) -> None:  # noqa: N802 — stdlib naming
        if self._read_body() is None:
            return
        if self.path == "/healthz":
            health = self.app.health()
            # ok/degraded still serve traffic (200); draining/unhealthy
            # tell load balancers to route elsewhere (503).
            status = 200 if health.get("status") in ("ok", "degraded") \
                else 503
            self.send_json(status, health)
        elif self.path == "/metrics":
            self.send_body(200, self.app.metrics_text().encode("utf-8"),
                           {"Content-Type": self.app.metrics.content_type})
        else:
            self.route_get()

    def do_POST(self) -> None:  # noqa: N802 — stdlib naming
        body = self._read_body()
        if body is None:
            return
        if self.path == "/admin/drain":
            # Graceful drain: the request is a signal, not a payload —
            # any body was drained off the keep-alive socket above.
            self.app.begin_drain()
            self.send_json(200, {"status": "draining"})
        else:
            self.route_post(body)

    def _read_body(self) -> Optional[bytes]:
        """The request body, or None after refusing it: 411 for a
        ``Transfer-Encoding`` (chunked) body, 400 for a malformed or
        oversized ``Content-Length``.  A refused body is never read, so
        its bytes would sit on the keep-alive socket to be misparsed as
        the next request: the refusal closes the connection
        (``Connection: close``)."""
        if "Transfer-Encoding" in self.headers:
            self.send_json(411, {"error": "Transfer-Encoding bodies are "
                                          "not accepted; send "
                                          "Content-Length"},
                           {"Connection": "close"})
            return None
        raw = self.headers.get("Content-Length", "0")
        try:
            length = int(raw)
        except ValueError:
            length = -1
        if not 0 <= length <= _MAX_BODY:
            self.send_json(400, {"error": f"Content-Length {raw!r} is not "
                                          f"in 0..{_MAX_BODY} bytes"},
                           {"Connection": "close"})
            return None
        return self.rfile.read(length) if length else b""

    def route_get(self) -> None:
        self.not_found()

    def route_post(self, body: bytes) -> None:
        self.not_found()


class _Handler(JSONHandler):
    """A replica's model routes; the serving ``Server`` is the app."""

    def route_get(self) -> None:
        if self.path == "/v1/model":
            self.send_json(200, self.app.info())
        else:
            self.not_found()

    def route_post(self, body: bytes) -> None:
        route = _ROUTES.get(self.path)
        if route is None:
            self.not_found()
            return
        kind, field = route
        try:
            if not body:
                raise _BadRequest("empty request body")
            try:
                payload = json.loads(body)
            except json.JSONDecodeError as exc:
                raise _BadRequest(f"invalid JSON: {exc}") from exc
            deadline_ms = _parse_deadline_ms(
                payload, self.headers.get("X-Deadline-Ms")
            )
            inputs = _parse_inputs(payload)
            result = getattr(self.app, kind)(inputs, deadline_ms=deadline_ms)
        except Exception as exc:  # noqa: BLE001 — must answer the client
            status = next((code for error, code in _ERROR_STATUS
                           if isinstance(exc, error)), 500)
            message = f"{type(exc).__name__}: {exc}" if status == 500 \
                else str(exc)
            headers = None
            if isinstance(exc, (Overloaded, Draining)):
                headers = {"Retry-After":
                           jittered_retry_after(exc.retry_after)}
            self.send_json(status, {"error": message}, headers)
        else:
            self.send_json(200, {field: np.asarray(result).tolist()})


class _ThreadingServer(ThreadingHTTPServer):
    daemon_threads = True
    # The stdlib backlog of 5 overflows when dozens of clients connect at
    # once (every http_sender request and every router probe is a fresh
    # connection); each dropped SYN stalls its client ~1 s on retransmit.
    request_queue_size = 128

    def handle_error(self, request, client_address) -> None:
        """A client that hung up before its answer is counted and
        logged in one line; any other failure keeps the stdlib
        traceback."""
        exc = sys.exc_info()[1]
        if not isinstance(exc, (ConnectionResetError, BrokenPipeError)):
            super().handle_error(request, client_address)
            return
        self.disconnects.inc()
        _log.warning("client %s disconnected before its answer (%s)",
                     client_address, exc)


class HTTPFrontend:
    """Serve ``app`` over HTTP on a daemon thread.

    ``handler`` picks the routes: the default serves a
    :class:`~repro.serve.Server` replica; the router passes its relay
    handler.  ``port=0`` binds an ephemeral port; read the result from
    ``.url``.
    """

    def __init__(self, app, host: str = "127.0.0.1", port: int = 8000,
                 handler: Type[JSONHandler] = _Handler) -> None:
        self.httpd = _ThreadingServer((host, port), handler)
        self.httpd.app = app
        self.httpd.disconnects = app.metrics.counter(
            "repro_http_client_disconnects_total",
            "Connections the client closed before its answer was sent.")
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> Tuple[str, int]:
        host, port = self.httpd.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "HTTPFrontend":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self.httpd.serve_forever, name="repro-http",
                daemon=True,
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is not None:
            self.httpd.shutdown()
            self._thread.join(timeout=10)
            self._thread = None
        self.httpd.server_close()

    def __repr__(self) -> str:
        return f"HTTPFrontend(url={self.url!r})"
