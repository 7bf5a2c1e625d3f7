"""Table runner: regenerate the paper's Tables II-V and Fig. 6 sweeps.

``run_table`` and ``run_sweep`` accept ``max_workers`` to fan their
recipes out across worker processes.  Every recipe re-seeds the global
RNG from its config at the start of
:func:`~repro.pipeline.recipes.run_recipe`, so each result is a pure
function of ``(recipe, config, data)`` — the parallel path is
byte-identical to the serial one regardless of worker scheduling
(test-enforced).

Fan-out goes through :class:`SupervisedPool`, the fault-tolerant
sibling of the serving layer's ``ShardedPool``
(:mod:`repro.serve.workers`): each worker slot is a single-process
executor so a crash (OOM kill, segfault, ``os._exit``) is attributed to
exactly the point that was running there.  The slot is respawned and
the point retried with bounded jittered backoff; a point that exhausts
its retries — or raises a *deterministic* error such as
:class:`~repro.donn.training.TrainingDiverged` — becomes a structured
:class:`PointFailure` instead of poisoning the whole batch.
"""

from __future__ import annotations

import heapq
import time
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, wait
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..data import Dataset
from ..utils.backoff import Backoff
from .config import ExperimentConfig
from .recipes import RECIPES, RecipeResult, prepare_data, run_recipe

__all__ = [
    "PAPER_TABLES",
    "TableResult",
    "PointFailure",
    "PointOutcome",
    "SupervisedPool",
    "run_table",
    "run_sweep",
]

#: Published Tables II-V: recipe -> (accuracy %, R before 2pi, R after 2pi).
#: ``None`` marks the Ours-A "after" cell the paper leaves blank.
PAPER_TABLES: Dict[str, Dict[str, Tuple[float, float, Optional[float]]]] = {
    "MNIST": {
        "baseline": (96.67, 466.39, 460.85),
        "ours_a": (96.18, 416.07, None),
        "ours_b": (96.38, 538.78, 400.38),
        "ours_c": (96.47, 409.41, 299.87),
        "ours_d": (95.90, 375.35, 280.32),
    },
    "FMNIST": {
        "baseline": (87.98, 464.78, 461.98),
        "ours_a": (86.99, 421.49, None),
        "ours_b": (87.88, 488.11, 438.53),
        "ours_c": (86.79, 350.67, 305.86),
        "ours_d": (85.76, 450.73, 229.70),
    },
    "KMNIST": {
        "baseline": (86.92, 460.61, 445.57),
        "ours_a": (85.26, 462.70, None),
        "ours_b": (86.83, 473.08, 432.26),
        "ours_c": (85.01, 396.84, 331.22),
        "ours_d": (83.19, 327.48, 288.42),
    },
    "EMNIST": {
        "baseline": (92.30, 463.42, 458.48),
        "ours_a": (91.61, 435.58, None),
        "ours_b": (92.36, 465.85, 443.91),
        "ours_c": (91.16, 349.61, 336.75),
        "ours_d": (90.74, 312.17, 298.09),
    },
}


@dataclass
class TableResult:
    """All rows of one reproduced table."""

    config: ExperimentConfig
    results: List[RecipeResult]

    @property
    def paper_dataset(self) -> str:
        return self.config.paper_dataset

    def by_recipe(self) -> Dict[str, RecipeResult]:
        return {result.recipe: result for result in self.results}

    def paper_rows(self) -> Dict[str, Tuple[float, float, Optional[float]]]:
        """The published values this table is compared against."""
        return PAPER_TABLES[self.paper_dataset]


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


#: Per-worker dataset stash: the (train, test) pair is shipped once per
#: worker process via the pool initializer instead of once per task
#: (paper-scale datasets are hundreds of MB; recipes share one split).
_WORKER_DATA: Optional[Tuple[Dataset, Dataset]] = None


def _init_worker(data: Tuple[Dataset, Dataset], backend_name: str,
                 precision_name: str) -> None:
    """Pool initializer: stash the shared dataset and mirror the parent's
    process-wide toggles — the FFT backend and the ambient precision
    policy (spawn-based platforms re-import the package, so programmatic
    ``set_backend`` / ``set_precision`` calls would otherwise be lost —
    and with them the byte-identical-to-serial guarantee).  Each worker
    runs one FFT thread: the workers, not the transforms, share the
    CPUs."""
    global _WORKER_DATA
    _WORKER_DATA = data
    import signal

    from ..backend import set_backend, set_precision, set_workers

    # Ctrl-C belongs to the orchestrator: it decides whether to drain
    # gracefully or hard-exit.  Workers ignoring SIGINT keeps a terminal
    # Ctrl-C (delivered to the whole foreground process group) from
    # looking like a worker crash.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    set_backend(backend_name)
    set_precision(precision_name)
    set_workers(1)


def _recipe_task(task: tuple) -> RecipeResult:
    """Module-level worker so ProcessPoolExecutor can pickle it."""
    recipe, config, verbose = task
    return run_recipe(recipe, config, data=_WORKER_DATA, verbose=verbose)


def _map_recipes(tasks: List[tuple], data: Tuple[Dataset, Dataset],
                 max_workers: Optional[int],
                 max_retries: int = 2,
                 timeout_s: Optional[float] = None,
                 on_event: Optional[Callable[..., None]] = None,
                 ) -> List[RecipeResult]:
    """Run ``(recipe, config, verbose)`` tasks over a shared ``data``
    split, fanning out across worker processes when ``max_workers > 1``.

    Results preserve task order.  Each worker receives the dataset once
    (initializer), and ``run_recipe`` re-seeds the global RNG
    deterministically, so results do not depend on which process (or in
    what order) a recipe ran — or on how many times a crashed point was
    retried by the :class:`SupervisedPool`.

    This is the strict entry point (tables want all rows): a point that
    still has no result after supervision raises ``RuntimeError``.  The
    sweep driver (:mod:`repro.pipeline.sweep`) uses the pool directly
    and records failures instead.
    """
    if max_workers is None or max_workers <= 1 or len(tasks) <= 1:
        return [
            run_recipe(recipe, config, data=data, verbose=verbose)
            for recipe, config, verbose in tasks
        ]
    from ..backend import backend_name, get_precision

    pool = SupervisedPool(
        _recipe_task,
        max_workers=min(int(max_workers), len(tasks)),
        max_retries=max_retries,
        timeout_s=timeout_s,
        initializer=_init_worker,
        initargs=(data, backend_name(), get_precision().name),
        on_event=on_event,
    )
    outcomes = pool.run(tasks)
    failed = [o for o in outcomes if o is None or not o.ok]
    if failed:
        parts = []
        for outcome in failed:
            if outcome is None or outcome.failure is None:
                parts.append("point did not run")
                continue
            f = outcome.failure
            parts.append(f"{tasks[f.index][0]}: {f.error_type} after "
                         f"{f.attempts} attempt(s): {f.message}")
        raise RuntimeError(
            f"{len(failed)} of {len(tasks)} recipe task(s) failed: "
            + "; ".join(parts))
    return [outcome.result for outcome in outcomes]


def run_table(
    config: ExperimentConfig,
    recipes: Sequence[str] = RECIPES,
    data: Optional[Tuple[Dataset, Dataset]] = None,
    verbose: bool = False,
    max_workers: Optional[int] = None,
    runs_dir: Optional[str] = None,
) -> TableResult:
    """Run every requested recipe on one dataset (one paper table).

    ``max_workers > 1`` fans the recipes out across that many worker
    processes (results are byte-identical to the serial path; see the
    module docstring).  ``runs_dir`` persists each result as a
    self-describing run directory (see :mod:`repro.pipeline.runs`), so
    the table can later be re-rendered without recompute via
    ``table_from_runs`` / ``repro report``.
    """
    if data is None:
        data = prepare_data(config)
    results = _map_recipes(
        [(recipe, config, verbose) for recipe in recipes],
        data, max_workers,
    )
    if runs_dir is not None:
        from .runs import save_run

        for result in results:
            save_run(result, config, runs_dir)
    return TableResult(config=config, results=results)


def run_sweep(
    config: ExperimentConfig,
    parameter: str,
    values: Sequence[float],
    recipe: str = "ours_c",
    data: Optional[Tuple[Dataset, Dataset]] = None,
    max_workers: Optional[int] = None,
) -> List[RecipeResult]:
    """Hyperparameter exploration (Fig. 6b-d): rerun ``recipe`` while
    varying one knob.

    ``parameter`` is one of ``"sparsity_ratio"``, ``"roughness_p"``,
    ``"intra_q"``.  ``max_workers > 1`` runs the sweep points in
    parallel worker processes (deterministic; see the module docstring).
    """
    if data is None:
        data = prepare_data(config)
    tasks = []
    for value in values:
        if parameter == "sparsity_ratio":
            varied = config.with_overrides(
                slr=config.slr if value is None else
                _replace_slr(config, sparsity_ratio=float(value))
            )
        elif parameter == "roughness_p":
            varied = config.with_overrides(roughness_p=float(value))
        elif parameter == "intra_q":
            varied = config.with_overrides(intra_q=float(value))
        else:
            raise ValueError(
                f"unknown sweep parameter {parameter!r}; expected "
                "'sparsity_ratio', 'roughness_p' or 'intra_q'"
            )
        tasks.append((recipe, varied, False))
    return _map_recipes(tasks, data, max_workers)


def _replace_slr(config: ExperimentConfig, **changes):
    from dataclasses import replace

    return replace(config.slr, **changes)
