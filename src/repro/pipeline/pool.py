"""Crash-supervised process fan-out for the grid driver,
:func:`~repro.pipeline.sweep.run_sweep_dir`: a worker crash is
attributed to the one point it was running, which is retried with
backoff; a point that exhausts its retries or raises a deterministic
error becomes a :class:`PointFailure` (see :class:`SupervisedPool`).
"""

from __future__ import annotations

import heapq
import time
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, wait
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..utils.backoff import Backoff

__all__ = ["PointFailure", "PointOutcome", "SupervisedPool"]


@dataclass
class PointFailure:
    """Structured record of a point that could not produce a result.

    ``permanent`` distinguishes deterministic application errors (a
    :class:`~repro.donn.training.TrainingDiverged`, a bad config — a
    retry would fail identically, so none is attempted) from exhausted
    crash retries (``permanent=False``: the point died ``attempts``
    times to worker crashes/timeouts and may succeed on different
    hardware or a later resume).
    """

    index: int
    error_type: str
    message: str
    attempts: int
    permanent: bool

    def as_dict(self) -> Dict[str, Any]:
        return {"index": self.index, "error_type": self.error_type,
                "message": self.message, "attempts": self.attempts,
                "permanent": self.permanent}


@dataclass
class PointOutcome:
    """What happened to one submitted point: a result or a failure."""

    index: int
    result: Any = None
    failure: Optional[PointFailure] = None
    retries: int = 0

    @property
    def ok(self) -> bool:
        return self.failure is None


@dataclass
class _Slot:
    """One supervised worker slot (a single-process executor)."""

    executor: Any = None
    future: Any = None
    index: int = -1
    attempt: int = 0
    timed_out: bool = False
    deadline: Optional[float] = None


class SupervisedPool:
    """Crash-supervised process fan-out with per-point attribution.

    ``max_workers`` slots each hold a *single-worker*
    ``ProcessPoolExecutor`` — the same isolation trick as the serving
    layer's ``ShardedPool``: when a worker process dies, exactly one
    slot's future breaks, so the crash is attributed to the one point
    that was in flight there instead of aborting the whole batch (the
    stdlib pool cancels everything on ``BrokenProcessPool``).

    The supervisor then respawns the dead slot and re-queues the point
    with bounded jittered exponential backoff, up to ``max_retries``
    retries.  ``timeout_s`` (optional) SIGKILLs a slot whose point
    exceeds the budget, converting a hang into an attributable,
    retryable crash.  Deterministic application exceptions (anything
    that is not a process-death ``BrokenExecutor``) are *permanent*: a
    retry would fail identically, so the point fails immediately.

    ``on_event(name, **fields)`` receives ``point_retry`` /
    ``point_failed`` attribution events for observability streams.
    """

    def __init__(
        self,
        task_fn: Callable[[Any], Any],
        *,
        max_workers: int,
        max_retries: int = 2,
        timeout_s: Optional[float] = None,
        backoff_base: float = 0.25,
        backoff_cap: float = 4.0,
        initializer: Optional[Callable] = None,
        initargs: tuple = (),
        on_event: Optional[Callable[..., None]] = None,
        seed: int = 0,
    ) -> None:
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError(f"timeout_s must be > 0, got {timeout_s}")
        self.task_fn = task_fn
        self.max_workers = int(max_workers)
        self.max_retries = int(max_retries)
        self.timeout_s = timeout_s
        self.initializer = initializer
        self.initargs = tuple(initargs)
        self.on_event = on_event
        self._backoff = Backoff(backoff_base, backoff_cap, seed)

    # -- supervision loop -------------------------------------------------

    def run(self, payloads: Sequence[Any],
            stop_requested: Optional[Callable[[], bool]] = None,
            ) -> List[Optional[PointOutcome]]:
        """Run every payload, supervising crashes; preserves order.

        Returns one :class:`PointOutcome` per payload.  When
        ``stop_requested()`` turns true (graceful Ctrl-C), no *new*
        points are submitted; in-flight points run to completion and
        unstarted ones come back as ``None`` (not failures — a resume
        will run them).
        """
        payloads = list(payloads)
        outcomes: List[Optional[PointOutcome]] = [None] * len(payloads)
        # Min-heap of (not_before, index, attempt): indices waiting to
        # run, including crash retries serving out their backoff.
        ready = [(0.0, i, 0) for i in range(len(payloads))]
        heapq.heapify(ready)
        slots = [_Slot() for _ in range(min(self.max_workers,
                                            max(1, len(payloads))))]
        try:
            while ready or any(s.future is not None for s in slots):
                if stop_requested is not None and stop_requested():
                    ready = []  # drain: finish in-flight, submit nothing
                now = time.monotonic()
                for slot in slots:
                    if (slot.future is None and ready
                            and ready[0][0] <= now):
                        _, index, attempt = heapq.heappop(ready)
                        self._submit(slot, index, attempt, payloads[index])
                running = [s for s in slots if s.future is not None]
                if not running:
                    if not ready:
                        break
                    time.sleep(min(0.25, max(0.01, ready[0][0] - now)))
                    continue
                timeout = 0.25
                if ready:
                    timeout = min(timeout, max(0.0, ready[0][0] - now))
                for slot in running:
                    if slot.deadline is not None and not slot.timed_out:
                        timeout = min(timeout,
                                      max(0.0, slot.deadline - now))
                done, _ = wait([s.future for s in running],
                               timeout=max(0.01, timeout),
                               return_when=FIRST_COMPLETED)
                now = time.monotonic()
                for slot in running:
                    if slot.future in done:
                        self._collect(slot, outcomes, ready)
                    elif (slot.deadline is not None and not slot.timed_out
                          and now >= slot.deadline):
                        # Over budget: SIGKILL the slot's process, which
                        # breaks its future -> collected as a crash.
                        slot.timed_out = True
                        self._kill(slot)
        finally:
            for slot in slots:
                if slot.future is not None:
                    self._kill(slot)
                self._shutdown(slot)
        return outcomes

    # -- slot plumbing ----------------------------------------------------

    def _spawn_executor(self):
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor(max_workers=1,
                                   initializer=self.initializer,
                                   initargs=self.initargs)

    def _submit(self, slot: _Slot, index: int, attempt: int,
                payload: Any) -> None:
        if slot.executor is None:
            slot.executor = self._spawn_executor()
        slot.index = index
        slot.attempt = attempt
        slot.timed_out = False
        try:
            slot.future = slot.executor.submit(self.task_fn, payload)
        except BrokenExecutor:
            # The slot broke between tasks (initializer death); one
            # fresh spawn, and if that also fails the error propagates.
            self._shutdown(slot)
            slot.executor = self._spawn_executor()
            slot.future = slot.executor.submit(self.task_fn, payload)
        slot.deadline = (None if self.timeout_s is None
                         else time.monotonic() + self.timeout_s)

    def _collect(self, slot: _Slot, outcomes: List[Optional[PointOutcome]],
                 ready: List[tuple]) -> None:
        future, index, attempt = slot.future, slot.index, slot.attempt
        timed_out = slot.timed_out
        slot.future = None
        try:
            result = future.result()
        except BrokenExecutor as exc:
            # Process death: the pool object is poisoned, respawn lazily.
            self._shutdown(slot)
            kind = "timeout" if timed_out else "crash"
            message = (f"worker exceeded timeout_s={self.timeout_s}"
                       if timed_out else
                       f"worker process died: {exc}")
            if attempt >= self.max_retries:
                outcomes[index] = PointOutcome(
                    index=index, retries=attempt,
                    failure=PointFailure(
                        index=index, error_type=kind, message=message,
                        attempts=attempt + 1, permanent=False))
                self._emit("point_failed", index=index, error_type=kind,
                           message=message, attempts=attempt + 1,
                           permanent=False)
            else:
                delay = self._backoff.delay(attempt)
                heapq.heappush(
                    ready, (time.monotonic() + delay, index, attempt + 1))
                self._emit("point_retry", index=index, error_type=kind,
                           message=message, attempt=attempt + 1,
                           delay=round(delay, 3))
        except Exception as exc:  # deterministic -> permanent, no retry
            error_type = type(exc).__name__
            outcomes[index] = PointOutcome(
                index=index, retries=attempt,
                failure=PointFailure(
                    index=index, error_type=error_type, message=str(exc),
                    attempts=attempt + 1, permanent=True))
            self._emit("point_failed", index=index, error_type=error_type,
                       message=str(exc), attempts=attempt + 1,
                       permanent=True)
        else:
            outcomes[index] = PointOutcome(index=index, result=result,
                                           retries=attempt)

    def _kill(self, slot: _Slot) -> None:
        executor = slot.executor
        if executor is None:
            return
        for proc in list(getattr(executor, "_processes", {}).values()):
            proc.kill()

    def _shutdown(self, slot: _Slot) -> None:
        if slot.executor is not None:
            slot.executor.shutdown(wait=False, cancel_futures=True)
            slot.executor = None

    def _emit(self, event: str, **fields: Any) -> None:
        if self.on_event is not None:
            self.on_event(event, **fields)
