"""Micro-batching frontend: coalesce concurrent requests into batches.

A DONN engine amortizes per-call overhead (Python dispatch, scratch
setup, FFT passes' fixed cost) across the batch axis, so serving one
request per engine call throws most of the throughput away.
:class:`MicroBatcher` is the request queue in front of a
:class:`~repro.serve.workers.ShardedPool`, and it is work-conserving:
a request that finds a shard free is dispatched at once, and requests
that arrive while every shard is busy accumulate until a shard frees,
``max_batch`` of them are waiting, or the oldest has waited
``max_delay`` seconds.  Each group runs as one engine batch and each
caller gets its own row back.

The queue is deliberately split across two planes so the per-request
cost stays at "one lock, one future":

* the **hot path** (:meth:`submit_nowait`) runs on the *caller's*
  thread — append under a mutex, flush inline the moment a group
  reaches ``max_batch`` or a shard is free, deliver rows straight from
  the worker's done-callback, which also hands the freed shard to the
  oldest waiting group.  No event-loop hop per request.
* the **timer plane** is an asyncio loop: the first request of a group
  that has to wait for a busy pool arms ``loop.call_later(max_delay)``
  (one loop wake-up per batch, not per request), which flushes whatever
  is still waiting when it fires, busy pool or not.

Correctness: every per-sample stage of the engine (amplitude encoding,
the per-sample 2-D FFT passes, the modulation multiply, the detector
argmax) is independent of the batch axis, so a coalesced ``predict`` is
byte-identical to running each request alone — the contract that makes
batching transparent to clients (test-enforced across batch boundaries
in both precisions).

Requests are grouped by ``(kind, shape, dtype-kind)``: a raw 28 x 28
image and a pre-encoded complex field never land in the same stack.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import Future, InvalidStateError
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..obs.metrics import DEFAULT_SIZE_BUCKETS, MetricsRegistry
from .errors import DeadlineExceeded
from .workers import REQUEST_KINDS

__all__ = ["MicroBatcher"]


#: One waiting request: its payload, the future its row resolves, and
#: its absolute ``time.monotonic()`` deadline (or None).
_Pending = Tuple[np.ndarray, Future, Optional[float]]


class MicroBatcher:
    """Coalesce single-sample requests into engine-sized batches.

    Parameters
    ----------
    pool:
        Anything with ``submit(kind, fields) -> concurrent Future`` —
        in production a :class:`~repro.serve.workers.ShardedPool`.  Its
        ``shards`` count (1 if it has none) is how many batches the
        batcher keeps in flight before requests start to wait.
    loop:
        A *running* asyncio event loop used for the max-latency timers
        (:class:`~repro.serve.server.Server` owns one on a background
        thread).  Requests themselves never block on the loop.
    max_batch:
        Flush as soon as this many requests of one group are waiting,
        busy pool or not.
    max_delay:
        Seconds the *first* request of a group may wait for a busy pool
        before the group is dispatched anyway.  A request that reaches
        a free shard never waits for it.  ``0`` still coalesces requests
        that arrive while every shard is busy.
    metrics:
        The registry the batcher counts into (``None``: a private one);
        :meth:`stats` reads its tallies back from it.
    """

    def __init__(self, pool, loop: asyncio.AbstractEventLoop,
                 max_batch: int = 32, max_delay: float = 0.002,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_delay < 0:
            raise ValueError(f"max_delay must be >= 0, got {max_delay}")
        self.pool = pool
        self.loop = loop
        self.max_batch = int(max_batch)
        self.max_delay = float(max_delay)
        self._lock = threading.Lock()
        self._pending: Dict[tuple, List[_Pending]] = {}
        self._timers: Dict[tuple, object] = {}
        self._born: Dict[tuple, float] = {}
        # Batches dispatched but not yet delivered, against one slot per
        # shard; both read and written under ``_lock``.
        self._busy = 0
        self._slots = int(getattr(pool, "shards", 1))
        self._closed = False
        self._max_batch_seen = 0  # no instrument records a maximum
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._m_requests = self.metrics.counter(
            "repro_batcher_requests_total",
            "Single-sample requests accepted by the micro-batcher.")
        self._m_expired = self.metrics.counter(
            "repro_batcher_expired_total",
            "Requests whose deadline passed while queued for batching.")
        self._m_flushes = self.metrics.counter(
            "repro_batcher_flushes_total",
            "Coalesced batch flushes by trigger.", labelnames=("reason",))
        self._m_batch_size = self.metrics.histogram(
            "repro_batcher_batch_size",
            "Rows per coalesced engine batch.",
            buckets=DEFAULT_SIZE_BUCKETS)
        self._m_flush_latency = self.metrics.histogram(
            "repro_batcher_flush_latency_seconds",
            "Seconds between a group's first enqueue and its flush.")
        self._m_queue_depth = self.metrics.gauge(
            "repro_batcher_queue_depth",
            "Requests currently waiting to be coalesced.")
        self.metrics.add_collector(self._collect_metrics)

    def _collect_metrics(self) -> None:
        """Scrape-time gauge refresh (collector callback)."""
        with self._lock:
            depth = sum(len(g) for g in self._pending.values())
        self._m_queue_depth.set(depth)

    def stats(self) -> Dict[str, Any]:
        """How well coalescing is working, read back from the batcher's
        instruments."""
        sizes = self._m_batch_size.snapshot()
        batches = sizes["count"]
        return {
            "requests": int(self._m_requests.value()),
            "batches": batches,
            "mean_batch": round(sizes["sum"] / batches, 3) if batches
            else 0.0,
            "max_batch": self._max_batch_seen,
            "full_flushes": int(self._m_flushes.value(reason="full")),
            "timer_flushes": int(self._m_flushes.value(reason="timer")),
            "drain_flushes": int(self._m_flushes.value(reason="drain")),
            "idle_flushes": int(self._m_flushes.value(reason="idle")),
            "expired": int(self._m_expired.value()),
        }

    # ------------------------------------------------------------------
    # Hot path (any thread)
    # ------------------------------------------------------------------
    def submit_nowait(self, kind: str, sample,
                      deadline: Optional[float] = None) -> Future:
        """Enqueue one sample; the returned future resolves to its row
        of the coalesced result.

        ``deadline`` is an absolute ``time.monotonic()`` instant.  A
        request that is still queued when its deadline passes fails
        with :class:`~repro.serve.errors.DeadlineExceeded` — an expiry
        timer on the loop sweeps it out of its group, so it fails *at*
        the deadline, not whenever the group happens to flush.
        """
        if kind not in REQUEST_KINDS:
            raise ValueError(
                f"unknown request kind {kind!r}; expected one of "
                f"{REQUEST_KINDS}"
            )
        sample = np.asarray(sample)
        if sample.ndim != 2:
            raise ValueError(
                f"batched requests are single samples (2-D), got shape "
                f"{sample.shape}"
            )
        future: Future = Future()
        if deadline is not None and deadline <= time.monotonic():
            self._m_expired.inc()
            future.set_exception(DeadlineExceeded(
                "deadline expired before the request was enqueued"
            ))
            return future
        key = (kind, sample.shape, sample.dtype.kind)
        flush_now = None
        with self._lock:
            if self._closed:
                raise RuntimeError("batcher is closed")
            group = self._pending.setdefault(key, [])
            group.append((sample, future, deadline))
            self._m_requests.inc()
            if len(group) == 1:
                self._born[key] = time.monotonic()
            if len(group) >= self.max_batch:
                self._m_flushes.inc(reason="full")
                flush_now = self._take(key)
            elif self._busy < self._slots:
                self._m_flushes.inc(reason="idle")
                flush_now = self._take(key)
            elif len(group) == 1:
                self.loop.call_soon_threadsafe(self._arm_timer, key)
        if deadline is not None:
            self.loop.call_soon_threadsafe(self._arm_expiry, key, deadline)
        if flush_now is not None:
            self._dispatch(key[0], flush_now)
        return future

    # ------------------------------------------------------------------
    # Timer plane (event-loop thread)
    # ------------------------------------------------------------------
    def _arm_timer(self, key: tuple) -> None:
        with self._lock:
            # The group may have gone out before the loop got here (a
            # shard freed); an earlier incarnation's live timer is
            # reused.
            if key not in self._pending or key in self._timers:
                return
            if self.max_delay == 0.0:
                handle = self.loop.call_soon(self._timer_fired, key)
            else:
                handle = self.loop.call_later(self.max_delay,
                                              self._timer_fired, key)
            self._timers[key] = handle

    def _timer_fired(self, key: tuple) -> None:
        with self._lock:
            self._timers.pop(key, None)
            taken = self._take(key) if self._pending.get(key) else None
            if taken is not None:
                self._m_flushes.inc(reason="timer")
        if taken is not None:
            self._dispatch(key[0], taken)

    def _arm_expiry(self, key: tuple, deadline: float) -> None:
        """One ``call_later`` per deadlined request: when it fires, any
        entries of the group past their deadline are swept out and
        failed.  Stale timers (the request was already flushed) find
        nothing expired and do nothing."""
        self.loop.call_later(max(0.0, deadline - time.monotonic()),
                             self._expiry_fired, key)

    def _expiry_fired(self, key: tuple) -> None:
        now = time.monotonic()
        expired: List[_Pending] = []
        with self._lock:
            group = self._pending.get(key)
            if not group:
                return
            live = [entry for entry in group
                    if entry[2] is None or entry[2] > now]
            expired = [entry for entry in group
                       if entry[2] is not None and entry[2] <= now]
            if not expired:
                return
            self._m_expired.inc(len(expired))
            if live:
                self._pending[key] = live
            else:
                self._pending.pop(key)
                self._born.pop(key, None)
                timer = self._timers.pop(key, None)
                if timer is not None:
                    timer.cancel()
        for _, future, _ in expired:
            try:
                future.set_exception(DeadlineExceeded(
                    "deadline expired while queued for batching"
                ))
            except InvalidStateError:
                pass

    # ------------------------------------------------------------------
    # Flush & delivery
    # ------------------------------------------------------------------
    def _take(self, key: tuple) -> List[_Pending]:
        """Pop a group for dispatch and claim a slot for it (caller
        holds the lock; :meth:`_release` gives the slot back)."""
        group = self._pending.pop(key)
        self._busy += 1
        self._max_batch_seen = max(self._max_batch_seen, len(group))
        self._m_batch_size.observe(len(group))
        born = self._born.pop(key, None)
        if born is not None:
            self._m_flush_latency.observe(time.monotonic() - born)
        timer = self._timers.pop(key, None)
        if timer is not None:
            # Cancelling from a foreign thread is safe for a handle that
            # only mutates loop-internal state; a lost race just means
            # one early (smaller) flush of the next group, never an
            # incorrect result.
            timer.cancel()
        return group

    def _release(self) -> None:
        """A dispatched batch is done (delivered, or nothing was
        submitted): free its slot and hand it to the oldest waiting
        group, if any."""
        with self._lock:
            self._busy -= 1
            if not self._pending or self._busy >= self._slots:
                return
            key = min(self._pending, key=self._born.__getitem__)
            self._m_flushes.inc(reason="idle")
            group = self._take(key)
        self._dispatch(key[0], group)

    def _dispatch(self, kind: str, group: List[_Pending]) -> None:
        def _resolve(future: Future, value, exc) -> None:
            # A caller may have cancelled its future (e.g. an asyncio
            # timeout through ``wrap_future``); that must never poison
            # the rest of the batch, so the already-resolved case is
            # swallowed per future.
            try:
                if exc is not None:
                    future.set_exception(exc)
                else:
                    future.set_result(value)
            except InvalidStateError:
                pass

        # Fail rows whose deadline passed while they waited; computing
        # them would be wasted engine time nobody is allowed to read.
        now = time.monotonic()
        expired = [entry for entry in group
                   if entry[2] is not None and entry[2] <= now]
        if expired:
            self._m_expired.inc(len(expired))
            for _, future, _ in expired:
                _resolve(future, None, DeadlineExceeded(
                    "deadline expired while queued for batching"
                ))
            group = [entry for entry in group
                     if entry[2] is None or entry[2] > now]
            if not group:
                self._release()
                return
        batch = np.stack([sample for sample, _, _ in group])
        futures = [future for _, future, _ in group]
        # The batch's retry budget stays useful as long as *some* row
        # may still be served: no deadline at all if any row has none,
        # otherwise the latest row deadline.
        deadlines = [deadline for _, _, deadline in group]
        batch_deadline = None if any(d is None for d in deadlines) \
            else max(deadlines)

        try:
            pool_future = self.pool.submit(kind, batch,
                                           deadline=batch_deadline)
        except BaseException as exc:  # noqa: BLE001 — forwarded
            for future in futures:
                _resolve(future, None, exc)
            self._release()
            return

        def _deliver(done) -> None:
            # Runs on the worker thread (the process executor's callback
            # thread for process shards); concurrent futures are
            # thread-safe to resolve from here.  The slot goes back
            # first, so the next group is on its way while rows land.
            self._release()
            try:
                result = np.asarray(done.result())
            except BaseException as exc:  # noqa: BLE001 — forwarded
                for future in futures:
                    _resolve(future, None, exc)
                return
            for row, future in enumerate(futures):
                _resolve(future, result[row], None)

        pool_future.add_done_callback(_deliver)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def drain(self) -> None:
        """Flush every waiting group immediately (shutdown path)."""
        with self._lock:
            taken = [
                (key[0], self._take(key)) for key in list(self._pending)
            ]
            if taken:
                self._m_flushes.inc(len(taken), reason="drain")
        for kind, group in taken:
            self._dispatch(kind, group)

    def close(self) -> None:
        """Refuse new requests and flush what is waiting."""
        with self._lock:
            self._closed = True
        self.drain()

    def __repr__(self) -> str:
        with self._lock:
            waiting = sum(len(g) for g in self._pending.values())
        return (
            f"MicroBatcher(max_batch={self.max_batch}, "
            f"max_delay={self.max_delay}, pending={waiting})"
        )
