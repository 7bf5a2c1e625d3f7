"""Resumable sweeps: ``repro sweep`` and the one grid driver,
:func:`run_sweep_dir`, which also runs ``run_table`` (a ``recipe`` axis)
and ``run_sweep`` (one knob); :func:`run_point` runs every point.

A *sweep spec* file (JSON/TOML) declares a base configuration — the same
``config`` / ``base``+``family``+``n``+``seed`` + dotted ``set`` schema
as experiment files (:mod:`repro.pipeline.experiment_io`) — plus exactly
one of:

* ``grid`` — a mapping of dotted config keys to value lists; the sweep
  is their cartesian product.  The special key ``"recipe"`` varies the
  recipe itself;
* ``random`` — ``{"samples": N, "seed": S, "space": {...}}`` where each
  space entry is either ``{"choices": [...]}`` (also valid for
  ``"recipe"``) or ``{"low": a, "high": b}`` with optional
  ``"log": true`` (log-uniform) / ``"int": true`` (integer-uniform,
  inclusive).

Axes are field-level, like ``set`` (a ``seed`` axis leaves
``twopi.seed`` alone, a ``system.n`` axis keeps the base block sizes);
``family`` is refused as an axis: set the top-level ``family`` key.

Example::

    {
      "base": "laptop", "family": "digits", "n": 20, "seed": 0,
      "recipe": "ours_c",
      "set": {"baseline_epochs": 2},
      "grid": {"roughness_p": [0.1, 0.5], "slr.block_size": [2, 4]}
    }

Every point becomes a run directory ``<sweep-dir>/runs/<point>/`` with a
live ``events.jsonl`` stream and crash-safe training checkpoints; the
sweep-level manifest ``<sweep-dir>/sweep.json`` records the spec and
per-point status and is rewritten atomically at every transition.

Fault tolerance is layered (ROADMAP item 4):

* the point level: ``run.json`` is written last and atomically, so its
  presence *is* the completeness marker — a SIGKILL at any instant
  leaves either a resumable half-run (checkpoints + events) or a
  complete one, never a torn one;
* the pool level: worker crashes are supervised, attributed and retried
  with backoff (:class:`~repro.pipeline.pool.SupervisedPool`);
  deterministic errors (:class:`~repro.donn.training.TrainingDiverged`)
  are recorded as permanent failures and never retried;
* the orchestrator level: ``repro sweep --resume <dir>`` re-expands the
  stored spec, skips completed points, resumes half-trained ones from
  their checkpoints and re-runs failed ones — a SIGKILL'd orchestrator
  restarted this way converges to a final table byte-identical to an
  uninterrupted sweep (test- and CI-enforced).

Faults for chaos tests are injected via one-shot ``.fault`` marker files
in a point's run directory (armed by ``--faults``, consumed by the
worker before firing, so a retry or resume of the same point runs
clean).
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from ..data import Dataset
from ..donn import TrainingDiverged
from ..utils.interrupt import InterruptRequested, interrupt_requested
from .config import ExperimentConfig
from .events import EVENTS_FILE, EventLog
from .experiment_io import (
    _parse_file,
    apply_overrides,
    resolve_base_config,
)
from .recipes import prepare_data, run_recipe
from .registry import get_recipe
from .pool import SupervisedPool
from .runs import RUN_FILE, RUNS_SUBDIR, load_run, save_run

__all__ = [
    "SWEEP_FILE",
    "SWEEP_FORMAT",
    "SWEEP_FORMAT_VERSION",
    "SweepPoint",
    "SweepSummary",
    "load_sweep_spec",
    "expand_points",
    "parse_faults",
    "read_manifest",
    "run_sweep_dir",
    "format_sweep",
]

#: The sweep manifest inside a sweep directory.
SWEEP_FILE = "sweep.json"
SWEEP_FORMAT = "repro-sweep"
SWEEP_FORMAT_VERSION = 1

#: One-shot fault marker consumed by a worker (chaos testing).
FAULT_FILE = ".fault"

_SPEC_KEYS = {"recipe", "base", "family", "n", "seed", "config", "set",
              "grid", "random"}


@dataclass
class SweepPoint:
    """One expanded sweep point: a named (recipe, config) pair."""

    index: int
    name: str
    recipe: str
    overrides: Dict[str, Any]
    config: ExperimentConfig


@dataclass
class SweepSummary:
    """What a (possibly partial) sweep invocation accomplished."""

    sweep_dir: Path
    statuses: Dict[str, str]
    skipped: int = 0
    completed: int = 0
    failed: int = 0
    pending: int = 0
    interrupted: bool = False
    failures: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.failed == 0 and not self.interrupted


# ---------------------------------------------------------------------------
# Spec parsing & expansion


def load_sweep_spec(path: Union[str, Path]) -> Dict[str, Any]:
    """Parse and validate a sweep spec file; returns the raw mapping
    (stored verbatim in ``sweep.json`` so ``--resume`` needs no spec)."""
    path = Path(path)
    data = _parse_file(path)
    return validate_sweep_spec(data, source=path)


def validate_sweep_spec(data: Mapping[str, Any],
                        source: Any = "sweep spec") -> Dict[str, Any]:
    """Schema-check a sweep spec mapping (see the module docstring)."""
    unknown = sorted(set(data) - _SPEC_KEYS)
    if unknown:
        raise ValueError(
            f"{source}: unknown sweep key(s) {', '.join(unknown)} "
            f"(expected {', '.join(sorted(_SPEC_KEYS))})"
        )
    if ("grid" in data) == ("random" in data):
        raise ValueError(
            f"{source}: a sweep spec needs exactly one of 'grid' or "
            "'random'"
        )
    if "grid" in data:
        grid = data["grid"]
        if not isinstance(grid, Mapping) or not grid:
            raise ValueError(f"{source}: 'grid' must be a non-empty "
                             "mapping of config keys to value lists")
        for key, values in grid.items():
            if not isinstance(values, (list, tuple)) or not values:
                raise ValueError(
                    f"{source}: grid axis {key!r} must be a non-empty "
                    f"list of values, got {values!r}"
                )
    else:
        rnd = data["random"]
        if not isinstance(rnd, Mapping):
            raise ValueError(f"{source}: 'random' must be a mapping with "
                             "'samples' and 'space'")
        if int(rnd.get("samples", 0)) < 1:
            raise ValueError(f"{source}: random.samples must be >= 1")
        space = rnd.get("space")
        if not isinstance(space, Mapping) or not space:
            raise ValueError(f"{source}: random.space must be a non-empty "
                             "mapping of config keys to samplers")
        for key, spec in space.items():
            if not isinstance(spec, Mapping):
                raise ValueError(f"{source}: random.space[{key!r}] must "
                                 "be a mapping")
            if "choices" in spec:
                if not isinstance(spec["choices"], (list, tuple)) \
                        or not spec["choices"]:
                    raise ValueError(
                        f"{source}: random.space[{key!r}].choices must "
                        "be a non-empty list"
                    )
            elif not ("low" in spec and "high" in spec):
                raise ValueError(
                    f"{source}: random.space[{key!r}] needs either "
                    "'choices' or 'low'+'high'"
                )
    axes = data["grid"] if "grid" in data else data["random"]["space"]
    if "family" in axes:
        raise ValueError(
            f"{source}: 'family' cannot be a sweep axis (the base "
            "config's family-derived block sizes would stay); set the "
            "spec's top-level 'family' key instead, one sweep per family"
        )
    # Dry-run the base config + every point's overrides so a bad spec
    # fails before any compute is spent (unknown keys, bad recipe, ...).
    base = resolve_base_config(data, source=source)
    for point in expand_points(data, base_config=base):
        get_recipe(point.recipe)
    return dict(data)


def _sample_value(rng: np.random.Generator, spec: Mapping[str, Any]) -> Any:
    if "choices" in spec:
        choices = list(spec["choices"])
        return choices[int(rng.integers(len(choices)))]
    low, high = float(spec["low"]), float(spec["high"])
    if spec.get("int"):
        return int(rng.integers(int(low), int(high) + 1))
    if spec.get("log"):
        if low <= 0:
            raise ValueError(f"log-uniform needs low > 0, got {low}")
        return float(np.exp(rng.uniform(np.log(low), np.log(high))))
    return float(rng.uniform(low, high))


def expand_points(data: Mapping[str, Any],
                  base_config: Optional[ExperimentConfig] = None,
                  ) -> List[SweepPoint]:
    """Deterministically expand a sweep spec into its point list.

    Grid points enumerate the cartesian product in spec order; random
    points redraw from ``random.seed``, so re-expanding the manifest's
    stored spec on ``--resume`` reproduces the identical point set.
    """
    if base_config is None:
        base_config = resolve_base_config(data, source="sweep spec")
    default_recipe = data.get("recipe")
    assignments: List[Dict[str, Any]] = []
    if "grid" in data:
        axes = list(data["grid"].items())
        for combo in itertools.product(*(values for _, values in axes)):
            assignments.append({key: value for (key, _), value
                                in zip(axes, combo)})
    else:
        rnd = data["random"]
        rng = np.random.default_rng(int(rnd.get("seed", 0)))
        space = list(rnd["space"].items())
        for _ in range(int(rnd["samples"])):
            assignments.append({key: _sample_value(rng, spec)
                                for key, spec in space})
    points = []
    for index, assignment in enumerate(assignments):
        recipe = assignment.pop("recipe", default_recipe)
        if recipe is None:
            raise ValueError(
                "sweep spec names no recipe: set a top-level 'recipe' "
                "or include a 'recipe' axis"
            )
        config = apply_overrides(base_config, assignment)
        points.append(SweepPoint(
            index=index,
            name=f"p{index:03d}-{recipe}",
            recipe=str(recipe),
            overrides=dict(assignment),
            config=config,
        ))
    return points


# ---------------------------------------------------------------------------
# Fault injection (chaos testing)


def parse_faults(spec: Optional[str]) -> Dict[int, Dict[str, Any]]:
    """Parse a ``--faults`` string into ``point index -> fault``.

    Syntax: ``kind:point=N[,epoch=K]`` joined by ``;``.  Kinds:

    * ``kill`` — the worker ``os._exit(137)``s, immediately or at the
      end of training epoch ``K`` (after its checkpoint is written);
    * ``hang`` — the worker sleeps forever (exercises ``--timeout-s``);
    * ``diverge`` — the worker raises
      :class:`~repro.donn.training.TrainingDiverged` (a permanent,
      non-retryable failure).

    Each fault is *one-shot*: it is armed as a ``.fault`` marker file in
    the point's run directory and the worker unlinks the marker before
    firing, so the retry / resume of that point runs clean.
    """
    faults: Dict[int, Dict[str, Any]] = {}
    if not spec:
        return faults
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        kind, sep, raw = part.partition(":")
        kind = kind.strip()
        if kind not in ("kill", "hang", "diverge") or not sep:
            raise ValueError(
                f"bad fault {part!r}; expected "
                "'kill|hang|diverge:point=N[,epoch=K]'"
            )
        fields_ = {}
        for item in raw.split(","):
            key, eq, value = item.partition("=")
            if not eq or key.strip() not in ("point", "epoch"):
                raise ValueError(
                    f"bad fault field {item!r} in {part!r}; expected "
                    "point=N or epoch=K"
                )
            fields_[key.strip()] = int(value)
        if "point" not in fields_:
            raise ValueError(f"fault {part!r} names no point=N")
        fault: Dict[str, Any] = {"kind": kind}
        if "epoch" in fields_:
            fault["epoch"] = fields_["epoch"]
        faults[fields_["point"]] = fault
    return faults


class _FaultingEventLog(EventLog):
    """An event log that detonates a one-shot ``kill`` fault when the
    armed training epoch completes (its checkpoint is already on disk,
    so the point is resumable — exactly the mid-training SIGKILL the
    chaos tests need)."""

    def __init__(self, path, fault: Optional[Dict[str, Any]]) -> None:
        super().__init__(path)
        self._fault = fault

    def emit(self, event: str, **fields: Any) -> None:
        super().emit(event, **fields)
        if (self._fault is not None
                and self._fault.get("kind") == "kill"
                and event == "epoch"
                and fields.get("epoch") == self._fault.get("epoch")):
            os._exit(137)


def _consume_fault(point_dir: Path) -> Optional[Dict[str, Any]]:
    """Read-and-unlink the point's fault marker (one-shot semantics)."""
    marker = point_dir / FAULT_FILE
    if not marker.is_file():
        return None
    try:
        fault = json.loads(marker.read_text())
    except json.JSONDecodeError:
        fault = None
    marker.unlink()
    return fault if isinstance(fault, dict) else None


# ---------------------------------------------------------------------------
# Running one point


def run_point(point: SweepPoint, runs_root: Union[str, Path],
              checkpoint_every: int = 1, verbose: bool = False,
              data: Optional[Tuple[Dataset, Dataset]] = None) -> Path:
    """Run one sweep point into ``<runs_root>/<point.name>/``.

    ``data`` is the point's ``(train, test)`` split, used as given;
    ``None`` prepares it from the point's config.

    The directory accumulates ``events.jsonl`` and training checkpoints
    while in flight; on success the model and the atomically-written
    ``run.json`` land and the checkpoints are deleted.  Restarting an
    interrupted point re-enters here: training resumes from the latest
    valid checkpoint and the result is byte-identical to an
    uninterrupted run (``run_recipe`` restores every piece of RNG
    state).
    """
    runs_root = Path(runs_root)
    point_dir = runs_root / point.name
    point_dir.mkdir(parents=True, exist_ok=True)
    fault = _consume_fault(point_dir)
    if fault is not None:
        if fault["kind"] == "kill" and "epoch" not in fault:
            os._exit(137)
        if fault["kind"] == "hang":
            while True:
                time.sleep(3600)
        if fault["kind"] == "diverge":
            raise TrainingDiverged(
                f"injected divergence fault at point {point.name}"
            )
    events = (_FaultingEventLog(point_dir / EVENTS_FILE, fault)
              if fault is not None
              else EventLog(point_dir / EVENTS_FILE))
    checkpoint_dir = point_dir / "checkpoints"
    with events:
        result = run_recipe(
            point.recipe, point.config, data=data, verbose=verbose,
            events=events, checkpoint_dir=checkpoint_dir,
            checkpoint_every=checkpoint_every,
        )
        run_dir = save_run(result, point.config, runs_root,
                           name=point.name, in_progress_ok=True)
        events.emit("point_done", point=point.name)
    # The run is durable; its checkpoints are now dead weight.
    shutil.rmtree(checkpoint_dir, ignore_errors=True)
    return run_dir


#: Per-worker data split: the ``(train, test)`` pair is shipped once per
#: worker process via the pool initializer instead of once per point
#: (paper-scale datasets are hundreds of MB).  ``None``: each point
#: prepares its own.
_WORKER_DATA: Optional[Tuple[Dataset, Dataset]] = None


def _init_worker(data: Optional[Tuple[Dataset, Dataset]],
                 backend_name: str, precision_name: str) -> None:
    """Pool initializer: stash the sweep's data split and mirror the
    parent's process-wide toggles — the FFT backend and the ambient
    precision policy (spawn-based platforms re-import the package, so
    programmatic ``set_backend`` / ``set_precision`` calls would
    otherwise be lost — and with them the byte-identical-to-serial
    guarantee).  Each worker runs one FFT thread: the workers, not the
    transforms, share the CPUs."""
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


def _point_task(payload: tuple) -> str:
    """Module-level worker entry (picklable for the supervised pool)."""
    point, runs_root, checkpoint_every, verbose = payload
    return str(run_point(point, runs_root,
                         checkpoint_every=checkpoint_every,
                         verbose=verbose, data=_WORKER_DATA))


# ---------------------------------------------------------------------------
# The orchestrator


def _write_manifest(sweep_dir: Path, manifest: Dict[str, Any]) -> None:
    tmp = sweep_dir / f".{SWEEP_FILE}.tmp"
    tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True,
                              default=str) + "\n")
    os.replace(tmp, sweep_dir / SWEEP_FILE)


def read_manifest(sweep_dir: Union[str, Path]) -> Dict[str, Any]:
    """Load and format-check ``<sweep_dir>/sweep.json`` (the consumers:
    ``--resume``, :func:`format_sweep`, and the ``repro tail``
    dashboard)."""
    sweep_dir = Path(sweep_dir)
    path = sweep_dir / SWEEP_FILE
    if not path.is_file():
        raise FileNotFoundError(
            f"no {SWEEP_FILE} in {sweep_dir}; not a sweep directory"
        )
    manifest = json.loads(path.read_text())
    if not isinstance(manifest, dict):
        raise ValueError(f"{path}: sweep manifest is not a JSON object")
    if manifest.get("format") != SWEEP_FORMAT:
        raise ValueError(f"{path}: unknown sweep format "
                         f"{manifest.get('format')!r}")
    if manifest.get("version") != SWEEP_FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported sweep version "
                         f"{manifest.get('version')!r}")
    return manifest


def run_sweep_dir(
    sweep_dir: Union[str, Path],
    spec: Optional[Mapping[str, Any]] = None,
    *,
    data: Optional[Tuple[Dataset, Dataset]] = None,
    resume: bool = False,
    max_workers: int = 1,
    max_retries: int = 2,
    timeout_s: Optional[float] = None,
    checkpoint_every: int = 1,
    faults: Optional[Dict[int, Dict[str, Any]]] = None,
    verbose: bool = False,
    echo: Optional[Callable[[str], None]] = None,
) -> SweepSummary:
    """Run (or resume) a sweep into ``sweep_dir``.

    Fresh sweeps need ``spec`` (a validated sweep mapping); resumes
    re-expand the spec stored in the directory's ``sweep.json``.  Points
    whose run directory already holds a ``run.json`` are skipped;
    half-finished points resume from their training checkpoints; failed
    points are re-run.  The function honours the graceful-interrupt
    protocol (:mod:`repro.utils.interrupt`): a pending interrupt stops
    the sweep at the next point boundary, marks the manifest, and the
    summary comes back ``interrupted=True``.

    ``data`` is a ``(train, test)`` split every point runs on, as
    given.  Without it, pending points that share one data fingerprint
    (family, seed, sample counts) share one split prepared here;
    otherwise each point prepares its own.

    ``faults`` (chaos testing) arms one-shot ``.fault`` markers by point
    index — see :func:`parse_faults`.
    """
    sweep_dir = Path(sweep_dir)
    say = echo if echo is not None else (lambda message: None)
    if resume:
        manifest = read_manifest(sweep_dir)
        spec = manifest["spec"]
    else:
        if spec is None:
            raise ValueError("a fresh sweep needs a spec "
                             "(resume=True resumes an existing one)")
        spec = validate_sweep_spec(spec)
        if (sweep_dir / SWEEP_FILE).exists():
            raise FileExistsError(
                f"{sweep_dir} already holds a sweep; use resume=True "
                "(repro sweep --resume) to continue it"
            )
        sweep_dir.mkdir(parents=True, exist_ok=True)
    points = expand_points(spec)
    runs_root = sweep_dir / RUNS_SUBDIR
    runs_root.mkdir(parents=True, exist_ok=True)

    statuses: Dict[str, str] = {}
    failures: List[Dict[str, Any]] = []
    attempts: Dict[str, int] = {}

    def manifest_now() -> Dict[str, Any]:
        return {
            "format": SWEEP_FORMAT,
            "version": SWEEP_FORMAT_VERSION,
            "spec": dict(spec),
            "points": [
                {"index": p.index, "name": p.name, "recipe": p.recipe,
                 "overrides": p.overrides,
                 "status": statuses.get(p.name, "pending"),
                 "attempts": attempts.get(p.name, 0)}
                for p in points
            ],
            "failures": failures,
        }

    # Reconcile against disk: run.json presence is the truth.
    todo: List[SweepPoint] = []
    skipped = 0
    for point in points:
        if (runs_root / point.name / RUN_FILE).is_file():
            statuses[point.name] = "done"
            skipped += 1
        else:
            statuses[point.name] = "pending"
            todo.append(point)
    if skipped:
        say(f"resume: {skipped} of {len(points)} point(s) already "
            "complete, skipping")

    # Arm chaos faults (fresh invocations only pass these).
    for index, fault in (faults or {}).items():
        if index < 0 or index >= len(points):
            raise ValueError(f"fault names point {index}, but the sweep "
                             f"has {len(points)} point(s)")
        point = points[index]
        if statuses[point.name] == "done":
            continue
        point_dir = runs_root / point.name
        point_dir.mkdir(parents=True, exist_ok=True)
        (point_dir / FAULT_FILE).write_text(json.dumps(fault) + "\n")

    _write_manifest(sweep_dir, manifest_now())
    fingerprints = {(p.config.family, p.config.seed, p.config.n_train,
                     p.config.n_test) for p in todo}
    if data is None and len(fingerprints) == 1:
        data = prepare_data(todo[0].config)

    def record_failure(point: SweepPoint, error_type: str, message: str,
                       n_attempts: int, permanent: bool) -> None:
        statuses[point.name] = "failed"
        attempts[point.name] = n_attempts
        failures.append({
            "point": point.name, "index": point.index,
            "error_type": error_type, "message": message,
            "attempts": n_attempts, "permanent": permanent,
        })
        say(f"point {point.name} FAILED ({error_type}): {message}")

    def emit(point: SweepPoint, event: str, **fields: Any) -> None:
        log = EventLog(runs_root / point.name / EVENTS_FILE)
        with log:
            log.emit(event, point=point.name, **fields)

    interrupted = False
    if todo and max_workers <= 1:
        # Serial path: graceful interrupts land *inside* run_point (the
        # trainer checkpoints, then raises), so even the in-flight point
        # is preserved at an epoch boundary.
        for point in todo:
            if interrupt_requested():
                interrupted = True
                break
            statuses[point.name] = "running"
            _write_manifest(sweep_dir, manifest_now())
            say(f"point {point.name} ({point.recipe}) ...")
            try:
                run_point(point, runs_root,
                          checkpoint_every=checkpoint_every,
                          verbose=verbose, data=data)
            except InterruptRequested:
                statuses[point.name] = "pending"
                interrupted = True
                say(f"point {point.name} interrupted at a checkpoint; "
                    "resume with: repro sweep --resume")
                break
            except Exception as exc:
                error_type = type(exc).__name__
                permanent = isinstance(exc, TrainingDiverged)
                emit(point, "point_failed", error_type=error_type,
                     message=str(exc), attempts=1, permanent=permanent)
                record_failure(point, error_type, str(exc), n_attempts=1,
                               permanent=permanent)
            else:
                statuses[point.name] = "done"
                attempts[point.name] = 1
            _write_manifest(sweep_dir, manifest_now())
    elif todo:
        from ..backend import backend_name, get_precision

        def on_event(event: str, **fields: Any) -> None:
            point = todo[fields.pop("index")]
            emit(point, event, **fields)
            if event == "point_retry":
                say(f"point {point.name} {fields['error_type']}; retry "
                    f"#{fields['attempt']} in {fields['delay']}s")

        for point in todo:
            statuses[point.name] = "running"
        _write_manifest(sweep_dir, manifest_now())
        pool = SupervisedPool(
            _point_task,
            max_workers=min(int(max_workers), len(todo)),
            max_retries=max_retries,
            timeout_s=timeout_s,
            initializer=_init_worker,
            initargs=(data, backend_name(), get_precision().name),
            on_event=on_event,
        )
        outcomes = pool.run(
            [(point, str(runs_root), checkpoint_every, verbose)
             for point in todo],
            stop_requested=interrupt_requested,
        )
        for point, outcome in zip(todo, outcomes):
            if outcome is None:
                statuses[point.name] = "pending"  # graceful stop
            elif outcome.ok:
                statuses[point.name] = "done"
                attempts[point.name] = outcome.retries + 1
            else:
                f = outcome.failure
                record_failure(point, f.error_type, f.message,
                               n_attempts=f.attempts, permanent=f.permanent)
        interrupted = interrupt_requested()
        _write_manifest(sweep_dir, manifest_now())

    done = sum(1 for status in statuses.values() if status == "done")
    return SweepSummary(
        sweep_dir=sweep_dir,
        statuses=dict(statuses),
        skipped=skipped,
        completed=done - skipped,
        failed=sum(1 for s in statuses.values() if s == "failed"),
        pending=sum(1 for s in statuses.values()
                    if s in ("pending", "running")),
        interrupted=interrupted,
        failures=failures,
    )


# ---------------------------------------------------------------------------
# Reporting


def format_sweep(sweep_dir: Union[str, Path]) -> str:
    """Render a sweep's final table from its directory (no recompute).

    Deterministic output: no wall times or timestamps, so two sweeps of
    the same spec — one uninterrupted, one SIGKILL'd and resumed — must
    render byte-identical text (the chaos gate diffs exactly this).
    """
    sweep_dir = Path(sweep_dir)
    manifest = read_manifest(sweep_dir)
    runs_root = sweep_dir / RUNS_SUBDIR
    rows = []
    for entry in manifest["points"]:
        name = entry["name"]
        overrides = ", ".join(f"{key}={value}" for key, value
                              in sorted(entry["overrides"].items()))
        run_file = runs_root / name / RUN_FILE
        if run_file.is_file():
            run = load_run(run_file.parent)
            rows.append((name, entry["recipe"], overrides,
                         f"{run.accuracy:.4f}",
                         f"{run.roughness_after:.4f}",
                         f"{run.sparsity:.4f}"))
        else:
            status = entry.get("status", "pending").upper()
            rows.append((name, entry["recipe"], overrides,
                         status, "-", "-"))
    headers = ("point", "recipe", "overrides", "accuracy",
               "roughness", "sparsity")
    widths = [max(len(headers[col]), *(len(row[col]) for row in rows))
              if rows else len(headers[col])
              for col in range(len(headers))]
    lines = [
        "  ".join(header.ljust(width)
                  for header, width in zip(headers, widths)).rstrip(),
        "  ".join("-" * width for width in widths),
    ]
    for row in rows:
        lines.append("  ".join(cell.ljust(width) for cell, width
                               in zip(row, widths)).rstrip())
    return "\n".join(lines)
