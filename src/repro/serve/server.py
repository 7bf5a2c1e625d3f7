"""The programmatic serving API: one object tying the stack together.

``model artifact -> InferenceEngine shards -> MicroBatcher -> you``

:class:`Server` owns a :class:`~repro.serve.workers.ShardedPool` (N
engines), an asyncio event loop running on a background thread, and a
:class:`~repro.serve.batching.MicroBatcher` on that loop.  Its public
``predict`` / ``logits`` / ``intensity_map`` methods are thread-safe and
blocking; every sample travels through the batching frontend, so
concurrent callers are coalesced into engine-sized batches
transparently.  ``serve_http`` optionally exposes the same API over
stdlib HTTP/JSON (see :mod:`repro.serve.http`).

Typical use::

    from repro.serve import ServeConfig, Server

    artifact = model.save("artifacts/mnist.npz")   # or a run directory
    with Server(artifact=artifact,
                config=ServeConfig(shards=2, max_batch=32)) as server:
        labels = server.predict(images)          # programmatic
        frontend = server.serve_http(port=8000)  # ... or HTTP
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Union

import numpy as np

from ..obs.metrics import MetricsRegistry
from ..pipeline.runs import resolve_artifact
from ..utils.serialization import read_model_header, serving_precision
from .batching import MicroBatcher
from .errors import DeadlineExceeded, Draining, Overloaded
from .faults import FaultPlan
from .workers import REQUEST_KINDS, ShardedPool

__all__ = ["ServeConfig", "Server"]


def _package_version() -> Optional[str]:
    """The installed ``repro`` version, looked up lazily: the package
    ``__init__`` sets ``__version__`` *after* importing this module, so
    a module-level import would observe it unset."""
    try:
        import repro

        return getattr(repro, "__version__", None)
    except Exception:  # pragma: no cover — defensive
        return None


@dataclass(frozen=True)
class ServeConfig:
    """Knobs of one serving deployment.

    ``precision=None`` (the default) means "whatever the artifact was
    trained at": the artifact header's recorded training precision, or
    ``"double"`` when it carries none.

    Batching (see :class:`~repro.serve.batching.MicroBatcher`): a
    request that finds one of the ``shards`` free is dispatched at once.
    Requests that arrive while every shard is busy coalesce into
    batches of at most ``max_batch``; ``max_delay`` is the longest such
    a request waits for a busy pool before its group is dispatched
    anyway.

    Fault tolerance (see ``docs/serving.md``):

    * ``max_inflight`` bounds admitted-but-unanswered requests; beyond
      it :meth:`Server.submit` sheds load with
      :class:`~repro.serve.errors.Overloaded` (HTTP 429 + Retry-After)
      instead of queueing until the process falls over.  ``None`` means
      unbounded.
    * ``default_deadline_ms`` applies to requests that carry no explicit
      deadline; expired requests fail fast with
      :class:`~repro.serve.errors.DeadlineExceeded` (HTTP 504).
    * ``max_retries`` / ``max_restarts`` parameterize the shard
      supervisor (retry budget per batch, respawn budget per shard).
    * ``faults`` is a :class:`~repro.serve.faults.FaultPlan` spec string
      for chaos testing; when ``None`` the ``REPRO_FAULTS`` environment
      variable is consulted.
    """

    precision: Optional[str] = None
    max_batch: int = 32
    max_delay: float = 0.002
    shards: int = 1
    backend: str = "thread"
    host: str = "127.0.0.1"
    port: int = 8000
    max_inflight: Optional[int] = None
    default_deadline_ms: Optional[float] = None
    max_retries: int = 3
    max_restarts: int = 2
    faults: Optional[str] = None
    replica_id: Optional[str] = None

    def resolved_faults(self) -> Optional[FaultPlan]:
        """The configured fault plan: ``faults`` wins, else the
        ``REPRO_FAULTS`` environment variable, else nothing."""
        if self.faults is not None:
            return FaultPlan.parse(self.faults)
        return FaultPlan.from_env()


class Server:
    """Batched, sharded inference over one model artifact.

    ``artifact`` is a :func:`~repro.utils.serialization.save_model` file
    or a run directory (see :func:`~repro.pipeline.runs.resolve_artifact`);
    its header is validated here, before anything is served.
    """

    def __init__(self, artifact: Union[str, Path],
                 config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        self.artifact = resolve_artifact(artifact)
        self._header: Dict[str, Any] = read_model_header(self.artifact)
        self._pool: Optional[ShardedPool] = None
        self._batcher: Optional[MicroBatcher] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._loop_thread: Optional[threading.Thread] = None
        self._http = None
        self._started = False
        self._started_at: Optional[float] = None
        self._closed = False
        self._draining = False
        self._inflight = 0
        self._lock = threading.Lock()
        # Per-deployment registry: two Servers in one process must never
        # double-count, so each owns its own (the pool and batcher
        # register their instruments here in start()).  It is the
        # only store of the serving tallies; stats() reads it back.
        self.metrics = MetricsRegistry()
        self._m_requests = self.metrics.counter(
            "repro_server_requests_total",
            "Requests admitted past admission control, by kind.",
            labelnames=("kind",))
        self._m_rejects = self.metrics.counter(
            "repro_server_admission_rejects_total",
            "Requests refused at admission, by reason (overloaded -> "
            "HTTP 429, draining -> HTTP 503).",
            labelnames=("reason",))
        self._m_deadline = self.metrics.counter(
            "repro_server_deadline_expired_total",
            "Requests that failed with DeadlineExceeded (HTTP 504).")
        self._m_latency = self.metrics.histogram(
            "repro_server_request_latency_seconds",
            "End-to-end request latency (admission to resolution), by "
            "kind.", labelnames=("kind",))
        self._m_inflight = self.metrics.gauge(
            "repro_server_inflight",
            "Admitted requests not yet resolved.")
        self.metrics.add_collector(
            lambda: self._m_inflight.set(self._inflight))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "Server":
        """Build the shard pool, the event loop and the batcher (idempotent)."""
        with self._lock:
            if self._started:
                return self
            if self._closed:
                raise RuntimeError(
                    "server was stopped; build a new Server to serve again"
                )
            cfg = self.config
            self._pool = ShardedPool(
                self.artifact,
                shards=cfg.shards,
                backend=cfg.backend,
                precision=self.resolved_precision(),
                # A full frontend flush runs as one engine chunk.
                engine_batch=max(64, cfg.max_batch),
                faults=cfg.resolved_faults(),
                max_retries=cfg.max_retries,
                max_restarts=cfg.max_restarts,
                metrics=self.metrics,
            )
            self._loop = asyncio.new_event_loop()
            self._loop_thread = threading.Thread(
                target=self._loop.run_forever, name="repro-serve-loop",
                daemon=True,
            )
            self._loop_thread.start()
            self._batcher = MicroBatcher(
                self._pool, self._loop,
                max_batch=cfg.max_batch, max_delay=cfg.max_delay,
                metrics=self.metrics,
            )
            self._started = True
            self._started_at = time.monotonic()
        return self

    def warmup(self) -> "Server":
        """Spin up every shard (process spawn, first-call allocations)."""
        self.start()
        self._pool.warmup()
        return self

    def begin_drain(self) -> None:
        """Refuse new requests (they fail with
        :class:`~repro.serve.errors.Draining` → HTTP 503 + Retry-After)
        while already-admitted ones finish.  ``/healthz`` reports
        ``draining`` so load balancers stop routing here.  Idempotent;
        :meth:`stop` drains first."""
        with self._lock:
            self._draining = True

    def stop(self) -> None:
        """Tear the stack down; safe to call twice (and before start)."""
        self.begin_drain()
        with self._lock:
            self._closed = True
            started = self._started
            self._started = False
        if started:
            if self._http is not None:
                self._http.stop()
                self._http = None
            loop = self._loop
            # Refuse new requests and flush what is queued; closing the
            # pool then waits for every in-flight batch (rows are
            # delivered from the worker threads, so nothing depends on
            # the loop here).
            self._batcher.close()
            self._pool.close()
            loop.call_soon_threadsafe(loop.stop)
            self._loop_thread.join(timeout=10)
            loop.close()
            self._loop = self._batcher = self._pool = None

    def __enter__(self) -> "Server":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Request path (thread-safe, blocking)
    # ------------------------------------------------------------------
    def resolved_precision(self) -> str:
        """The engine precision this deployment serves at.

        See :func:`~repro.utils.serialization.serving_precision`.
        """
        return serving_precision(self._header, self.config.precision)

    def submit(self, kind: str, sample, deadline_ms: Optional[float] = None):
        """Enqueue one sample; returns a ``concurrent.futures.Future``
        resolving to its row of the coalesced result.

        ``deadline_ms`` (or ``ServeConfig.default_deadline_ms``) bounds
        how long the request may take end to end: once it passes, the
        request fails with
        :class:`~repro.serve.errors.DeadlineExceeded` instead of
        waiting — whether it is queued, or burning the supervisor's
        retry budget after a shard death.

        Admission control: with ``max_inflight`` set, a submit beyond
        the window raises :class:`~repro.serve.errors.Overloaded`
        immediately (shed early, not after queueing); a draining server
        raises :class:`~repro.serve.errors.Draining`.
        """
        self.start()
        with self._lock:
            if self._draining:
                self._m_rejects.inc(reason="draining")
                raise Draining(
                    "server is draining and refuses new requests"
                )
            limit = self.config.max_inflight
            if limit is not None and self._inflight >= limit:
                self._m_rejects.inc(reason="overloaded")
                raise Overloaded(
                    f"admission window full ({self._inflight} >= "
                    f"max_inflight={limit})",
                    retry_after=max(0.05, 4 * self.config.max_delay),
                )
            self._inflight += 1
        self._m_requests.inc(kind=kind)
        admitted_at = time.monotonic()
        batcher = self._batcher  # stop() may null the attribute anytime
        if batcher is None:
            with self._lock:
                self._inflight -= 1
            raise RuntimeError(
                "server was stopped; build a new Server to serve again"
            )
        if deadline_ms is None:
            deadline_ms = self.config.default_deadline_ms
        deadline = (
            time.monotonic() + float(deadline_ms) / 1e3
            if deadline_ms is not None else None
        )

        def _admit_done(done) -> None:
            with self._lock:
                self._inflight -= 1
            self._m_latency.observe(time.monotonic() - admitted_at,
                                    kind=kind)
            try:
                exc = done.exception()
            except BaseException:  # noqa: BLE001 — cancelled future
                return
            if isinstance(exc, DeadlineExceeded):
                self._m_deadline.inc()

        try:
            future = batcher.submit_nowait(kind, sample, deadline=deadline)
        except BaseException:
            with self._lock:
                self._inflight -= 1
            raise
        future.add_done_callback(_admit_done)
        return future

    def _request(self, kind: str, inputs,
                 deadline_ms: Optional[float] = None) -> np.ndarray:
        inputs = np.asarray(getattr(inputs, "data", inputs))
        if inputs.ndim == 2:
            return np.asarray(
                self.submit(kind, inputs, deadline_ms=deadline_ms).result()
            )
        if inputs.ndim == 3:
            futures = [self.submit(kind, sample, deadline_ms=deadline_ms)
                       for sample in inputs]
            return np.stack([np.asarray(f.result()) for f in futures])
        raise ValueError(
            f"inputs must be one sample (2-D) or a batch (3-D), got shape "
            f"{inputs.shape}"
        )

    def predict(self, inputs,
                deadline_ms: Optional[float] = None) -> np.ndarray:
        """Predicted labels; batches fan out as independent requests
        through the micro-batcher (byte-identical to serial
        ``DONN.predict`` — see :mod:`repro.serve.batching`)."""
        return self._request("predict", inputs, deadline_ms=deadline_ms)

    def logits(self, inputs,
               deadline_ms: Optional[float] = None) -> np.ndarray:
        return self._request("logits", inputs, deadline_ms=deadline_ms)

    def intensity_map(self, inputs,
                      deadline_ms: Optional[float] = None) -> np.ndarray:
        return self._request("intensity_map", inputs,
                             deadline_ms=deadline_ms)

    # ------------------------------------------------------------------
    # HTTP
    # ------------------------------------------------------------------
    def serve_http(self, host: Optional[str] = None,
                   port: Optional[int] = None):
        """Expose this server over HTTP/JSON; returns the frontend
        (``frontend.url`` has the bound address — ``port=0`` picks a
        free one)."""
        from .http import HTTPFrontend

        self.start()
        if self._http is None:
            self._http = HTTPFrontend(
                self,
                host=self.config.host if host is None else host,
                port=self.config.port if port is None else port,
            )
            self._http.start()
        return self._http

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def info(self) -> Dict[str, Any]:
        """Model + deployment description (the ``/v1/model`` payload)."""
        cfg = self.config
        header = self._header
        return {
            "artifact": str(self.artifact),
            "precision": self.resolved_precision(),
            "max_batch": cfg.max_batch,
            "max_delay": cfg.max_delay,
            "shards": cfg.shards,
            "backend": cfg.backend,
            "kinds": list(REQUEST_KINDS),
            "model": {
                "config": header["config"],
                "num_layers": header["num_layers"],
                "metadata": header.get("metadata", {}),
            },
        }

    def stats(self) -> Dict[str, Any]:
        """One JSON-safe snapshot with a fixed shape: ``started``,
        ``batcher`` / ``pool`` sub-dicts (``None`` before :meth:`start`),
        plus a merged flat ``counters`` dict — the admission, batcher
        and supervision tallies in one place, read from :attr:`metrics`.
        """
        with self._lock:
            started = self._started
            batcher, pool = self._batcher, self._pool
            inflight = self._inflight
        rejects = self._m_rejects
        batcher_stats = batcher.stats() if batcher else None
        pool_stats = pool.stats() if pool else None
        counters: Dict[str, Any] = {
            # "requests" counts admission; "batched" only what reached
            # the micro-batcher.
            "requests": int(self._m_requests.total()),
            "batched": batcher_stats["requests"] if batcher_stats else 0,
            "batches": batcher_stats["batches"] if batcher_stats else 0,
            "expired": batcher_stats["expired"] if batcher_stats else 0,
            "failures": pool_stats["failures"] if pool_stats else 0,
            "retries": pool_stats["retries"] if pool_stats else 0,
            "restarts": sum(pool_stats["restarts"]) if pool_stats else 0,
            "rejected_overloaded": int(rejects.value(reason="overloaded")),
            "rejected_draining": int(rejects.value(reason="draining")),
            "deadline_expired": int(self._m_deadline.value()),
            "inflight": inflight,
        }
        return {
            "started": started,
            "batcher": batcher_stats,
            "pool": pool_stats,
            "counters": counters,
        }

    def metrics_text(self) -> str:
        """The Prometheus text exposition of this deployment — what
        ``GET /metrics`` serves (content type
        ``server.metrics.content_type``)."""
        return self.metrics.render()

    def health(self) -> Dict[str, Any]:
        """The ``/healthz`` payload: overall ``status`` (``ok`` /
        ``degraded`` / ``unhealthy`` / ``draining``), per-shard state
        and restart counters, admission occupancy, batcher counters —
        plus identity fields a replica router can attribute membership
        decisions to: a stable ``replica_id`` (``None`` outside a
        :class:`~repro.serve.cluster.ReplicaSet`), ``uptime_s`` since
        :meth:`start`, and the package ``version``.

        ``degraded`` means traffic is still served while at least one
        shard is down, respawning or catching up.  ``/healthz`` answers
        it with HTTP 200 like ``ok``, so a replica router's probe counts
        the instance as healthy and keeps routing to it; the router only
        records the reported status (``last_status``) for display.
        """
        with self._lock:
            started, draining = self._started, self._draining
            started_at = self._started_at
            inflight = self._inflight
            pool, batcher = self._pool, self._batcher
        identity = {
            "replica_id": self.config.replica_id,
            "version": _package_version(),
        }
        if not started or pool is None:
            return {
                "status": "draining" if draining else "unhealthy",
                "started": False,
                "uptime_s": 0.0,
                **identity,
            }
        payload: Dict[str, Any] = pool.health()
        if draining:
            payload["status"] = "draining"
        payload["started"] = True
        payload["uptime_s"] = round(time.monotonic() - started_at, 3)
        payload.update(identity)
        payload["inflight"] = inflight
        payload["max_inflight"] = self.config.max_inflight
        payload["batcher"] = batcher.stats()
        return payload

    def settle(self, timeout: float = 30.0) -> bool:
        """Wait for in-progress shard respawns to finish (chaos tests
        and orderly benchmarks); ``True`` when the pool settled."""
        with self._lock:
            pool = self._pool
        return pool.settle(timeout) if pool is not None else True

    def __repr__(self) -> str:
        return (
            f"Server(artifact={str(self.artifact)!r}, "
            f"config={self.config}, started={self._started})"
        )
