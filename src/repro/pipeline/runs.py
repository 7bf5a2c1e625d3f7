"""Persisted runs: self-describing experiment directories on disk.

Every ``repro run`` (and any caller of :func:`save_run`) leaves a run
directory::

    <runs-root>/<name>/
        run.json     # recipe + full config + metrics + per-stage records
        model.npz    # the trained model, versioned artifact format

``run.json`` carries everything needed to re-render tables without
recomputing — the recipe name and printed label, the full nested
:meth:`~repro.pipeline.config.ExperimentConfig.to_dict`, headline
metrics, and one record per executed stage (name, wall time, reported
metrics).  ``model.npz`` is the same self-contained artifact
:mod:`repro.serve` consumes, and :func:`resolve_artifact` finds it, so
``repro serve --model <run-dir>`` works directly.

:class:`RunResult` is the loaded view: it quacks like a
:class:`~repro.pipeline.recipes.RecipeResult` for the table formatters
(``label`` / ``accuracy`` / ``roughness_before`` / ``roughness_after``),
lazily loads the model, and :func:`table_from_runs` re-assembles a
:class:`~repro.pipeline.runner.TableResult` from stored runs.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from ..utils.serialization import save_model
from .config import ExperimentConfig
from .recipes import RECIPES, RecipeResult, recipe_label
from .runner import TableResult

__all__ = [
    "RUN_FORMAT",
    "RUN_FORMAT_VERSION",
    "RUN_FILE",
    "MODEL_FILE",
    "RunResult",
    "resolve_artifact",
    "save_run",
    "load_run",
    "load_runs",
    "table_from_runs",
]

#: Identifies a run directory's manifest.
RUN_FORMAT = "repro-run"
#: Bump when the manifest layout changes incompatibly.
RUN_FORMAT_VERSION = 1

RUN_FILE = "run.json"
MODEL_FILE = "model.npz"


def _json_safe(value: Any) -> Any:
    """Strict-JSON view of a manifest value: non-finite floats become
    ``null`` (recipes without a scoring stage report NaN metrics, and
    bare ``NaN`` tokens are not valid RFC 8259 JSON)."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {key: _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    return value


def _metric(metrics: Dict[str, Any], key: str, default: float) -> float:
    """Read a manifest metric; ``null`` (stored NaN) maps back to NaN."""
    value = metrics.get(key, default)
    return float("nan") if value is None else float(value)


def _run_model(run_dir: Path) -> Path:
    """The model artifact a run directory's manifest names;
    :data:`MODEL_FILE` when it has no readable ``run.json``."""
    name = MODEL_FILE
    try:
        name = json.loads((run_dir / RUN_FILE).read_text()).get("model", name)
    except (OSError, json.JSONDecodeError, AttributeError):
        pass
    return run_dir / name


def resolve_artifact(source: Union[str, Path]) -> Path:
    """Resolve ``source`` to an existing model artifact file.

    Accepts a direct path to an ``.npz`` artifact, a path missing the
    suffix, or a run directory (the model its manifest names is
    served); raises ``FileNotFoundError`` naming what was tried.
    """
    path = Path(source)
    if path.is_dir():
        candidate = _run_model(path)
        if candidate.is_file():
            return candidate
        raise FileNotFoundError(
            f"{path} is a directory but holds no {candidate.name} run "
            "artifact"
        )
    candidates = [path]
    if not str(source).endswith(".npz"):
        candidates.append(Path(str(source) + ".npz"))
    for candidate in candidates:
        if candidate.is_file():
            return candidate
    raise FileNotFoundError(
        f"no model artifact at {' or '.join(str(c) for c in candidates)}"
    )


def _run_dir_name(result: RecipeResult, config: ExperimentConfig,
                  root: Path) -> Path:
    """A deterministic, self-describing directory name; suffixed with a
    counter when rerunning the same experiment into the same root."""
    base = f"{config.family}-n{config.system.n}-{result.recipe}-seed{config.seed}"
    candidate = root / base
    counter = 2
    while candidate.exists():
        candidate = root / f"{base}-{counter}"
        counter += 1
    return candidate


def save_run(
    result: RecipeResult,
    config: ExperimentConfig,
    root: Union[str, Path],
    name: Optional[str] = None,
    in_progress_ok: bool = False,
) -> Path:
    """Persist ``result`` as a run directory under ``root``.

    ``name`` overrides the generated directory name.  Returns the run
    directory path; the directory is loadable with :func:`load_run` and
    servable with ``repro serve --model <path>``.

    ``in_progress_ok`` lets the resumable drivers finish a directory
    they already populated (``events.jsonl``, checkpoints): a non-empty
    target is then accepted as long as it holds no ``run.json`` yet —
    a manifest still means "complete, never overwrite".
    """
    if result.config is not None:
        # Stages may rewrite the run's config (detector mode,
        # parametrization); the manifest must match the model artifact,
        # not the caller's pre-run config.  Identical for recipes whose
        # stages leave the config alone.
        config = result.config
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    run_dir = (root / name) if name else _run_dir_name(result, config, root)
    if run_dir.exists() and any(run_dir.iterdir()):
        if not in_progress_ok or (run_dir / RUN_FILE).exists():
            raise FileExistsError(
                f"run directory {run_dir} already exists and is not empty"
            )
    run_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "format": RUN_FORMAT,
        "version": RUN_FORMAT_VERSION,
        "recipe": result.recipe,
        "label": result.label,
        "family": result.family,
        "config": config.to_dict(),
        "metrics": {
            # Derived quantities (e.g. twopi_reduction) are *not* stored:
            # RunResult recomputes them, so manifest and report can never
            # disagree.
            "accuracy": result.accuracy,
            "roughness_before": result.roughness_before,
            "roughness_after": result.roughness_after,
            "sparsity": result.sparsity,
        },
        "wall_time": result.wall_time,
        "stages": [record.as_dict() for record in result.stages],
        "model": MODEL_FILE,
    }
    # Crash safety: both files are written to temp names in the run
    # directory and atomically renamed into place, model first and the
    # manifest last — so a ``run.json`` on disk *is* the completeness
    # marker (a crash mid-save leaves a manifest-less directory that
    # :func:`load_runs` simply never sees).  The temp model name keeps
    # the ``.npz`` suffix because ``save_model`` appends one otherwise.
    model_tmp = run_dir / f".{MODEL_FILE}.tmp.npz"
    save_model(
        model_tmp,
        result.model,
        metadata={
            "recipe": result.recipe,
            "family": result.family,
            "seed": config.seed,
            "accuracy": result.accuracy,
            "roughness_before": result.roughness_before,
            "roughness_after": result.roughness_after,
        },
        precision=config.precision,
    )
    os.replace(model_tmp, run_dir / MODEL_FILE)
    manifest_tmp = run_dir / f".{RUN_FILE}.tmp"
    manifest_tmp.write_text(
        json.dumps(_json_safe(manifest), indent=2, sort_keys=True,
                   allow_nan=False) + "\n"
    )
    os.replace(manifest_tmp, run_dir / RUN_FILE)
    return run_dir


@dataclass
class RunResult:
    """A persisted run, loaded from its ``run.json`` manifest.

    Duck-types the :class:`~repro.pipeline.recipes.RecipeResult` fields
    the table formatters read, so stored runs drop straight into
    :func:`~repro.pipeline.tables.format_table` via
    :func:`table_from_runs`.  The model stays on disk until
    :meth:`load_model` is called.
    """

    path: Path
    recipe: str
    label: str
    family: str
    accuracy: float
    roughness_before: float
    roughness_after: float
    sparsity: float
    wall_time: float
    config: ExperimentConfig
    stages: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def twopi_reduction(self) -> float:
        if self.roughness_before == 0:
            return 0.0
        return 1.0 - self.roughness_after / self.roughness_before

    def stage_metrics(self) -> Dict[str, Dict[str, Any]]:
        """``stage name -> reported metrics`` from the manifest."""
        return {record["name"]: dict(record.get("metrics", {}))
                for record in self.stages}

    @property
    def model_path(self) -> Path:
        return _run_model(self.path)

    def load_model(self):
        """Rebuild the trained DONN from the run's model artifact."""
        from ..utils.serialization import load_model

        return load_model(self.model_path)


def load_run(path: Union[str, Path]) -> RunResult:
    """Load one run directory (or a direct path to its ``run.json``)."""
    path = Path(path)
    manifest_path = path if path.name == RUN_FILE else path / RUN_FILE
    if not manifest_path.is_file():
        raise FileNotFoundError(
            f"no {RUN_FILE} at {manifest_path}; not a run directory"
        )
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{manifest_path}: corrupt manifest: {exc}") from exc
    if manifest.get("format") != RUN_FORMAT:
        raise ValueError(
            f"{manifest_path}: unknown run format "
            f"{manifest.get('format')!r} (expected {RUN_FORMAT!r})"
        )
    version = manifest.get("version")
    if version != RUN_FORMAT_VERSION:
        raise ValueError(
            f"{manifest_path}: run version {version!r} is not supported "
            f"(this build reads version {RUN_FORMAT_VERSION})"
        )
    config = ExperimentConfig.from_dict(manifest["config"])
    metrics = manifest.get("metrics", {})
    recipe = manifest["recipe"]
    nan = float("nan")
    return RunResult(
        path=manifest_path.parent,
        recipe=recipe,
        label=manifest.get("label") or recipe_label(recipe),
        family=manifest.get("family", config.family),
        accuracy=_metric(metrics, "accuracy", nan),
        roughness_before=_metric(metrics, "roughness_before", nan),
        roughness_after=_metric(metrics, "roughness_after", nan),
        sparsity=_metric(metrics, "sparsity", 0.0),
        wall_time=float(manifest.get("wall_time", 0.0)),
        config=config,
        stages=list(manifest.get("stages", [])),
    )


def load_runs(root: Union[str, Path],
              strict: bool = False) -> List[RunResult]:
    """Load every run directory under ``root`` (or ``root`` itself when
    it is a single run directory), sorted by directory name.

    A corrupt run directory (truncated/garbled ``run.json``, unknown
    format or version) is *skipped with a warning* rather than aborting
    the whole report — one bad run must not hold the healthy ones
    hostage.  It only raises when ``root`` holds no loadable run at all.

    ``strict=True`` (``repro report --strict``) turns that warning into
    a hard error: CI gates want "every run accounted for", not a quietly
    shorter table.
    """
    root = Path(root)
    if not root.is_dir():
        raise FileNotFoundError(f"no runs directory at {root}")
    if (root / RUN_FILE).is_file():
        return [load_run(root)]
    runs: List[RunResult] = []
    corrupt = 0
    for manifest in sorted(root.glob(f"*/{RUN_FILE}")):
        try:
            runs.append(load_run(manifest.parent))
        except (ValueError, KeyError) as exc:
            if strict:
                raise ValueError(
                    f"corrupt run directory {manifest.parent}: {exc}"
                ) from exc
            corrupt += 1
            warnings.warn(
                f"skipping corrupt run directory {manifest.parent}: {exc}",
                RuntimeWarning, stacklevel=2,
            )
    if not runs:
        if corrupt:
            raise FileNotFoundError(
                f"all {corrupt} run directories under {root} are corrupt"
            )
        raise FileNotFoundError(
            f"no run directories (containing {RUN_FILE}) under {root}"
        )
    return runs


def _recipe_sort_key(recipe: str):
    """Paper rows first, in table order, then everything else by name."""
    try:
        return (0, RECIPES.index(recipe))
    except ValueError:
        return (1, recipe)


def table_from_runs(runs: Sequence[RunResult]) -> TableResult:
    """Re-assemble a :class:`~repro.pipeline.runner.TableResult` from
    stored runs (no recomputation).

    All runs must share one dataset family; rows are ordered like the
    paper's tables (baseline, Ours-A..D) with non-paper recipes after.
    The result renders with the usual
    :func:`~repro.pipeline.tables.format_table` /
    :func:`~repro.pipeline.tables.format_comparison`.
    """
    if not runs:
        raise ValueError("table_from_runs needs at least one run")
    families = sorted({run.family for run in runs})
    if len(families) > 1:
        raise ValueError(
            f"runs span multiple families {families}; group them first "
            "(repro report does this per family)"
        )
    ordered = sorted(runs, key=lambda run: _recipe_sort_key(run.recipe))
    return TableResult(config=ordered[0].config, results=list(ordered))
