"""Sharded execution: N supervised workers, each holding one engine.

One :class:`~repro.runtime.InferenceEngine` saturates one core; a
:class:`ShardedPool` runs ``shards`` of them side by side and dispatches
each batch to the least-loaded shard (round-robin between ties).  Every
shard computes the same pure function of its input batch, so results are
byte-identical regardless of shard count, backend or dispatch order
(test-enforced) — which is also what makes fault recovery transparent:
a batch retried on a different shard returns the exact bytes the dead
shard would have.

Backends
--------
``"thread"`` (default)
    Shards are single-worker thread executors inside this process.  All
    engines share the process-wide propagation-kernel cache (one ``H``
    total) and scratch buffers are per-thread, so memory overhead per
    extra shard is its weights and padded scratch planes.  scipy's FFT
    releases the GIL, which is where the parallelism comes from.
``"process"``
    Shards are single-worker *process* executors; each child builds its
    engine once (pool initializer) — the same kernel-cache semantics,
    now per process.  Costs one interpreter spawn + import per shard up
    front and a pickle round trip per batch; worth it for CPU-bound
    double-precision loads.

Either way a shard's engine is ``load_model(artifact).inference_engine(
precision=..., max_batch=...)`` (:func:`_shard_engine`), built afresh
from the artifact on every respawn.

Supervision
-----------
A dead worker (``BrokenProcessPool`` / any ``BrokenExecutor``, or the
thread-backend :class:`~repro.serve.errors.ShardCrash`) no longer
poisons the pool.  The shard walks a small state machine::

    ok ──fatal──▶ respawning ──executor rebuilt──▶ recovering
                      │                                │
                      │ restarts > max_restarts        │ first good batch
                      ▼                                ▼
                 quarantined                           ok

and the failed batch is retried on a healthy shard with a bounded,
jittered exponential backoff (``max_retries`` attempts beyond the
first; a request deadline caps the budget early).  Application-level
errors — bad shapes, :class:`~repro.serve.errors.FaultInjected` —
propagate to the caller untouched: only worker *death* is retried,
because only death says nothing about the request itself.

The restart budget, kill consumption, :meth:`~Supervisor.settle` wait
and the ``ok`` / ``degraded`` / ``unhealthy`` :func:`rollup` are
:class:`Supervisor`, the one state machine :class:`ShardedPool` and
:class:`~repro.serve.cluster.ReplicaSet` share; each keeps only how it
notices a death and how it rebuilds a worker.
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import (
    BrokenExecutor,
    Future,
    InvalidStateError,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np

from ..backend import set_workers
from ..obs.metrics import MetricsRegistry
from ..utils.backoff import Backoff
from .errors import DeadlineExceeded, NoHealthyShards, ShardCrash
from .faults import FaultPlan, ShardFaultState, kill_process

__all__ = ["ShardedPool", "Supervisor", "REQUEST_KINDS", "SHARD_STATES"]

#: Engine methods a pool (and the batching frontend above it) can run.
REQUEST_KINDS = ("logits", "predict", "intensity_map")

#: The supervision state machine (see module docstring).
SHARD_STATES = ("ok", "respawning", "recovering", "quarantined")

_BACKENDS = ("thread", "process")

#: Exceptions that mean "the worker died", not "the request was bad".
_FATAL = (BrokenExecutor, ShardCrash)

# ----------------------------------------------------------------------
# Process-backend worker side: one engine per child process, built once.
# ----------------------------------------------------------------------
_WORKER_ENGINE = None
_WORKER_FAULTS: Optional[ShardFaultState] = None


def _shard_engine(artifact: str, precision: str, engine_batch: int):
    """Load the artifact and compile one shard's engine."""
    from ..utils.serialization import load_model

    return load_model(artifact).inference_engine(
        precision=precision, max_batch=engine_batch
    )


def _init_process_shard(artifact: str, precision: str, engine_batch: int,
                        plan: Optional[FaultPlan], shard_index: int) -> None:
    """Pool initializer: build the shard engine in the child.

    The shard runs one FFT thread: the shards, not the transforms,
    share the CPUs.
    """
    global _WORKER_ENGINE, _WORKER_FAULTS
    set_workers(1)
    _WORKER_ENGINE = _shard_engine(artifact, precision, engine_batch)
    _WORKER_FAULTS = (
        ShardFaultState(plan.for_shard(shard_index)) if plan else None
    )


def _run_process_shard(kind: str, fields: np.ndarray) -> np.ndarray:
    if _WORKER_FAULTS is not None:
        _WORKER_FAULTS.fire(kill_process)
    return getattr(_WORKER_ENGINE, kind)(fields)


def _raise_shard_crash() -> None:
    raise ShardCrash("injected shard kill (thread backend)")


class Member:
    """One supervised worker: a pool shard or a replica process."""

    def __init__(self, index: int, plan: Optional[FaultPlan],
                 state: str = "ok") -> None:
        self.index = index
        self.state = state
        self.restarts = 0
        self.plan = plan  # remaining fault plan (fired kills are consumed)


def rollup(states: Sequence[str], up: Sequence[str] = ("ok",)) -> str:
    """The health signal of a member set: ``ok`` when every member is
    ok, ``degraded`` while any member is in ``up`` (serving, or on its
    way back), else ``unhealthy``."""
    if states and all(state == "ok" for state in states):
        return "ok"
    return "degraded" if any(state in up for state in states) \
        else "unhealthy"


class Supervisor:
    """The restart budget shared by shards and replicas.

    Owners list their :class:`Member` records in ``members`` and guard
    every state change with ``_lock``; ``_changed`` (a condition on
    that lock) wakes waiters on each transition.
    """

    def __init__(self, members: List[Member], max_restarts: int,
                 scope: str) -> None:
        if max_restarts < 0:
            raise ValueError(f"max_restarts must be >= 0, got {max_restarts}")
        self.max_restarts = int(max_restarts)
        self._members = members
        self._scope = scope  # the FaultPlan scope of a member's kills
        self._lock = threading.Lock()
        self._changed = threading.Condition(self._lock)
        self._closed = False

    def _strike(self, member: Member, consume_kill: bool = True) -> bool:
        """Count one death of ``member`` (caller holds ``_lock``).

        Past ``max_restarts``, or once the owner is closing, the member
        is quarantined for good; otherwise it is ``respawning``, and
        with ``consume_kill`` its plan loses the kill that fired, so
        one configured kill dies exactly once.  Returns ``True`` when
        the owner should rebuild the member.
        """
        member.restarts += 1
        if member.restarts > self.max_restarts or self._closed:
            member.state = "quarantined"
        else:
            member.state = "respawning"
            if consume_kill and member.plan:
                member.plan = member.plan.without_kill(member.index,
                                                       scope=self._scope)
        self._changed.notify_all()
        return member.state == "respawning"

    def _close(self) -> bool:
        """Mark the owner closing; ``False`` if it already was."""
        with self._changed:
            was_open, self._closed = not self._closed, True
            self._changed.notify_all()
        return was_open

    def settle(self, timeout: float = 30.0) -> bool:
        """Block until no member is starting or respawning (or
        ``timeout`` passes); ``True`` when settled.  A ``recovering``
        shard counts as settled: it flips to ``ok`` once traffic
        reaches it."""
        with self._changed:
            return self._changed.wait_for(lambda: not any(
                member.state in ("starting", "respawning")
                for member in self._members), timeout)


class _Shard(Member):
    """One worker (an executor with exactly one slot) + supervision state."""

    def __init__(self, index: int, executor, run,
                 plan: Optional[FaultPlan]) -> None:
        super().__init__(index, plan)
        self.executor = executor
        self.run = run
        self.inflight = 0

    def available(self) -> bool:
        return self.state in ("ok", "recovering")


class ShardedPool(Supervisor):
    """Dispatch inference batches across ``shards`` engine workers.

    Parameters
    ----------
    artifact:
        Path to a :func:`~repro.utils.serialization.save_model` artifact.
    shards:
        Number of workers, each holding one engine.
    backend:
        ``"thread"`` or ``"process"`` (see module docstring).
    precision, engine_batch:
        Forwarded to every shard's engine (``engine_batch`` is the
        engine's internal ``max_batch`` chunk size).
    faults:
        An optional :class:`~repro.serve.faults.FaultPlan` (chaos
        testing; see that module).
    max_retries:
        How many times one batch may be re-dispatched after a fatal
        shard failure before the error propagates.
    max_restarts:
        How many times one shard may be respawned before it is
        quarantined (removed from dispatch for the pool's lifetime).
    backoff_base, backoff_cap:
        Jittered exponential retry backoff: attempt ``k`` sleeps
        ``min(cap, base * 2**k)`` scaled by a uniform [0.5, 1) jitter.
    metrics:
        The registry the pool counts into (``None``: a private one);
        :meth:`stats` and :meth:`health` read their tallies from it.
    """

    def __init__(
        self,
        artifact: Union[str, Path],
        shards: int = 1,
        backend: str = "thread",
        precision: str = "double",
        engine_batch: int = 64,
        faults: Optional[FaultPlan] = None,
        max_retries: int = 3,
        max_restarts: int = 2,
        backoff_base: float = 0.05,
        backoff_cap: float = 1.0,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if backend not in _BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; expected one of {_BACKENDS}"
            )
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        self._shards: List[_Shard] = []
        super().__init__(self._shards, max_restarts, scope="shard")
        self.artifact = str(artifact)
        self.shards = int(shards)
        self.backend = backend
        self.precision = precision
        self.engine_batch = int(engine_batch)
        self.max_retries = int(max_retries)
        self._backoff = Backoff(backoff_base, backoff_cap, seed=0x5EED)
        self._rr = itertools.count()
        for index in range(self.shards):
            plan = faults if faults else None
            executor, run = self._build_worker(index, plan)
            self._shards.append(_Shard(index, executor, run, plan))

        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._m_failures = self.metrics.counter(
            "repro_pool_failures_total",
            "Fatal shard failures (worker death) observed.")
        self._m_retries = self.metrics.counter(
            "repro_pool_retries_total",
            "Batches re-dispatched after a fatal shard failure.")
        self._m_dispatched = self.metrics.counter(
            "repro_pool_dispatched_total",
            "Batches dispatched, by shard.", labelnames=("shard",))
        self._m_restarts = self.metrics.counter(
            "repro_pool_shard_restarts_total",
            "Shard respawns, by shard.", labelnames=("shard",))
        self._m_state = self.metrics.gauge(
            "repro_pool_shard_state",
            "Supervision state per shard (1 on the current state).",
            labelnames=("shard", "state"))
        self._m_inflight = self.metrics.gauge(
            "repro_pool_shard_inflight",
            "Batches in flight, by shard.", labelnames=("shard",))
        self._m_quarantined = self.metrics.gauge(
            "repro_pool_quarantined_shards",
            "Shards currently quarantined.")
        self.metrics.add_collector(self._collect_metrics)

    @property
    def failures(self) -> int:
        """Fatal shard failures observed."""
        return int(self._m_failures.value())

    @property
    def retries(self) -> int:
        """Batches re-dispatched after a failure."""
        return int(self._m_retries.value())

    def _dispatched(self, shard: _Shard) -> int:
        return int(self._m_dispatched.value(shard=str(shard.index)))

    def _collect_metrics(self) -> None:
        """Scrape-time refresh of the per-shard gauges (collector
        callback — the dispatch hot path pays nothing for them)."""
        with self._lock:
            rows = [(s.index, s.state, s.inflight) for s in self._shards]
        quarantined = 0
        for index, state, inflight in rows:
            shard = str(index)
            self._m_inflight.set(inflight, shard=shard)
            for name in SHARD_STATES:
                self._m_state.set(1.0 if name == state else 0.0,
                                  shard=shard, state=name)
            quarantined += state == "quarantined"
        self._m_quarantined.set(quarantined)

    # ------------------------------------------------------------------
    # Worker construction (initial build and respawn share this)
    # ------------------------------------------------------------------
    def _build_worker(self, index: int, plan: Optional[FaultPlan]):
        if self.backend == "process":
            executor = ProcessPoolExecutor(
                max_workers=1,
                initializer=_init_process_shard,
                initargs=(self.artifact, self.precision, self.engine_batch,
                          plan, index),
            )
            return executor, _run_process_shard
        engine = _shard_engine(self.artifact, self.precision,
                               self.engine_batch)
        fault_state = (
            ShardFaultState(plan.for_shard(index)) if plan else None
        )

        def run(kind: str, fields: np.ndarray) -> np.ndarray:
            if fault_state is not None:
                fault_state.fire(_raise_shard_crash)
            return getattr(engine, kind)(fields)

        executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"repro-shard-{index}"
        )
        return executor, run

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _acquire(self, deadline: Optional[float]) -> _Shard:
        """Pick the least-loaded available shard (round-robin between
        ties), waiting out transient all-shards-respawning windows.

        Raises :class:`NoHealthyShards` when every shard is quarantined
        and :class:`DeadlineExceeded` when the wait outlives the
        request's deadline.  Caller must hold the lock.
        """
        while True:
            if self._closed:
                raise RuntimeError("pool is closed")
            available = [s for s in self._shards if s.available()]
            if available:
                start = next(self._rr) % self.shards
                best = None
                for offset in range(self.shards):
                    shard = self._shards[(start + offset) % self.shards]
                    if not shard.available():
                        continue
                    if best is None or shard.inflight < best.inflight:
                        best = shard
                return best
            if all(s.state == "quarantined" for s in self._shards):
                raise NoHealthyShards(
                    f"all {self.shards} shard(s) quarantined after "
                    f"{self.failures} fatal failure(s); restart the server"
                )
            timeout = None
            if deadline is not None:
                timeout = deadline - time.monotonic()
                if timeout <= 0:
                    raise DeadlineExceeded(
                        "deadline expired while waiting for a shard respawn"
                    )
            self._changed.wait(timeout)

    def submit(self, kind: str, fields,
               deadline: Optional[float] = None) -> Future:
        """Run ``engine.<kind>(fields)`` on one shard; returns a Future.

        ``deadline`` is an absolute ``time.monotonic()`` instant: once
        it passes, pending retries fail with :class:`DeadlineExceeded`
        instead of burning more budget.  The returned future resolves
        with the result of the *first successful attempt* — retried
        batches are byte-identical because every shard computes the
        same pure function.
        """
        if kind not in REQUEST_KINDS:
            raise ValueError(
                f"unknown request kind {kind!r}; expected one of "
                f"{REQUEST_KINDS}"
            )
        with self._lock:
            if self._closed:
                raise RuntimeError("pool is closed")
        outer: Future = Future()
        self._attempt(kind, np.asarray(fields), outer, 0, deadline)
        return outer

    def _attempt(self, kind: str, fields: np.ndarray, outer: Future,
                 attempt: int, deadline: Optional[float]) -> None:
        try:
            with self._lock:
                shard = self._acquire(deadline)
                shard.inflight += 1
                self._m_dispatched.inc(shard=str(shard.index))
                executor, run = shard.executor, shard.run
        except BaseException as exc:  # noqa: BLE001 — forwarded
            self._resolve(outer, exc=exc)
            return
        try:
            inner = executor.submit(run, kind, fields)
        except BaseException as exc:  # noqa: BLE001 — supervised below
            with self._lock:
                shard.inflight -= 1
            # A broken/shut-down executor rejects at submit time (the
            # shard died between _acquire and here); that is the same
            # fatal signal as a mid-batch death.
            if isinstance(exc, _FATAL) or isinstance(exc, RuntimeError):
                self._on_fatal(shard, executor, exc, kind, fields, outer,
                               attempt, deadline)
            else:
                self._resolve(outer, exc=exc)
            return

        def _done(done: Future, _shard=shard, _executor=executor) -> None:
            exc = done.exception()
            with self._changed:
                _shard.inflight -= 1
                if exc is None and _shard.state == "recovering" \
                        and _shard.executor is _executor:
                    _shard.state = "ok"
                    self._changed.notify_all()
            if exc is None:
                self._resolve(outer, result=done.result())
            elif isinstance(exc, _FATAL):
                self._on_fatal(_shard, _executor, exc, kind, fields, outer,
                               attempt, deadline)
            else:
                self._resolve(outer, exc=exc)

        inner.add_done_callback(_done)

    @staticmethod
    def _resolve(outer: Future, result=None, exc=None) -> None:
        # The caller may have cancelled/abandoned the outer future; a
        # late resolution must not blow up the supervisor.
        try:
            if exc is not None:
                outer.set_exception(exc)
            else:
                outer.set_result(result)
        except InvalidStateError:
            pass

    # ------------------------------------------------------------------
    # Supervision: respawn + retry
    # ------------------------------------------------------------------
    def _on_fatal(self, shard: _Shard, executor, exc: BaseException,
                  kind: str, fields: np.ndarray, outer: Future,
                  attempt: int, deadline: Optional[float]) -> None:
        with self._changed:
            self._m_failures.inc()
            if shard.available() and shard.executor is executor:
                # First detector of this death owns the strike; every
                # other in-flight batch on the broken executor only
                # retries (including stragglers that were queued on an
                # executor the supervisor has already replaced — their
                # death is the *old* incarnation's, not a new one).
                self._m_restarts.inc(shard=str(shard.index))
                self._strike(shard)
                threading.Thread(
                    target=self._respawn, args=(shard,),
                    name=f"repro-shard-{shard.index}-respawn", daemon=True,
                ).start()
            if attempt >= self.max_retries:
                retry = False
            else:
                retry = True
                self._m_retries.inc()
        if not retry:
            self._resolve(outer, exc=exc)
            return
        delay = self._backoff.delay(attempt)
        if deadline is not None and time.monotonic() + delay > deadline:
            self._resolve(outer, exc=DeadlineExceeded(
                f"deadline expired before retry {attempt + 1} "
                f"(shard failure: {exc})"
            ))
            return
        timer = threading.Timer(
            delay, self._attempt, args=(kind, fields, outer, attempt + 1,
                                        deadline),
        )
        timer.daemon = True
        timer.start()

    def _respawn(self, shard: _Shard) -> None:
        """Retire a dead shard's executor and, unless the strike
        quarantined it, build its successor (supervisor thread)."""
        shard.executor.shutdown(wait=False)
        if shard.state == "quarantined":
            return
        executor, run = self._build_worker(shard.index, shard.plan)
        with self._changed:
            if self._closed:
                executor.shutdown(wait=False)
                shard.state = "quarantined"
            else:
                shard.executor = executor
                shard.run = run
                shard.state = "recovering"
            self._changed.notify_all()

    def run(self, kind: str, fields) -> np.ndarray:
        """Synchronous :meth:`submit`."""
        return self.submit(kind, fields).result()

    def warmup(self) -> None:
        """Run a dummy single-sample batch through *every* shard.

        Forces process spawn + artifact load + first-call buffer
        allocation up front so the first real request (or a benchmark)
        does not pay for it.  Warm-up batches are supervised like any
        other (and count toward fault-plan batch indices).
        """
        futures = [
            self.submit("predict", np.zeros((1, 8, 8), dtype=np.float64))
            for _ in self._shards
        ]
        for future in futures:
            future.result()

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Structured snapshot of the pool (same shape contract as
        :meth:`Server.stats`: a plain ``Dict[str, Any]`` of JSON-safe
        values)."""
        with self._lock:
            return {
                "shards": self.shards,
                "backend": self.backend,
                "precision": self.precision,
                "dispatched": [self._dispatched(shard)
                               for shard in self._shards],
                "inflight": [shard.inflight for shard in self._shards],
                "states": [shard.state for shard in self._shards],
                "restarts": [shard.restarts for shard in self._shards],
                "failures": self.failures,
                "retries": self.retries,
            }

    def health(self) -> Dict[str, Any]:
        """The routing signal: ``ok`` (every shard healthy),
        ``degraded`` (at least one shard down or catching up, traffic
        still served) or ``unhealthy`` (every shard quarantined)."""
        with self._lock:
            shards = [
                {
                    "index": shard.index,
                    "state": shard.state,
                    "restarts": shard.restarts,
                    "dispatched": self._dispatched(shard),
                    "inflight": shard.inflight,
                }
                for shard in self._shards
            ]
        # Unhealthy only once every shard is quarantined.
        status = rollup([entry["state"] for entry in shards],
                        up=("ok", "respawning", "recovering"))
        return {
            "status": status,
            "shards": shards,
            "restarts": sum(entry["restarts"] for entry in shards),
            "failures": self.failures,
            "retries": self.retries,
        }

    def close(self) -> None:
        if not self._close():
            return
        for shard in self._shards:
            shard.executor.shutdown(wait=True)

    def __enter__(self) -> "ShardedPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ShardedPool(shards={self.shards}, backend={self.backend!r}, "
            f"precision={self.precision!r})"
        )
