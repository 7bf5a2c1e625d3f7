"""Table runner: regenerate the paper's Tables II-V and Fig. 6 sweeps.

A table is a grid over the ``recipe`` axis and a Fig. 6 exploration a
grid over one knob, so ``run_table`` and ``run_sweep`` build a sweep
spec and run it through the one grid driver,
:func:`~repro.pipeline.sweep.run_sweep_dir`: every point is persisted
as a run directory, and the rows come back read from disk.  Every
recipe re-seeds the global RNG from its config at the start of
:func:`~repro.pipeline.recipes.run_recipe`, so each row is a pure
function of ``(recipe, config, data)`` and ``max_workers > 1`` is
byte-identical to the serial path (test-enforced).  Fan-out and crash
supervision belong to the driver (:mod:`repro.pipeline.pool`).
"""

from __future__ import annotations

from tempfile import TemporaryDirectory
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..data import Dataset
from .config import ExperimentConfig
from .recipes import RECIPES
from .runs import RUNS_SUBDIR, RunResult, load_run
from .sweep import run_sweep_dir
from .tables import PAPER_TABLES, TableResult

__all__ = ["PAPER_TABLES", "TableResult", "run_table", "run_sweep"]


def _run_grid(spec: Dict[str, Any],
              data: Optional[Tuple[Dataset, Dataset]], verbose: bool,
              max_workers: Optional[int],
              sweep_dir: Optional[str] = None) -> List[RunResult]:
    """Run a grid ``spec`` as a persisted sweep into ``sweep_dir`` (a
    temporary directory when ``None``) and return its stored rows
    in point order.

    Strict: a point that failed or did not run raises ``RuntimeError``
    naming it, because a table or a figure wants every row.
    """
    if sweep_dir is None:
        with TemporaryDirectory() as tmp:
            return _run_grid(spec, data, verbose, max_workers, tmp)
    summary = run_sweep_dir(sweep_dir, spec, data=data,
                            max_workers=max_workers or 1, verbose=verbose)
    reasons = {f["point"]: f"{f['error_type']} after {f['attempts']} "
                           f"attempt(s): {f['message']}"
               for f in summary.failures}
    missing = [f"{name}: {reasons.get(name, 'did not run')}"
               for name, status in summary.statuses.items()
               if status != "done"]
    if missing:
        raise RuntimeError(f"{len(missing)} of {len(summary.statuses)} "
                           "point(s) failed: " + "; ".join(missing))
    return [load_run(summary.sweep_dir / RUNS_SUBDIR / name)
            for name in summary.statuses]


def run_table(
    config: ExperimentConfig,
    recipes: Sequence[str] = RECIPES,
    data: Optional[Tuple[Dataset, Dataset]] = None,
    verbose: bool = False,
    max_workers: Optional[int] = None,
    runs_dir: Optional[str] = None,
) -> TableResult:
    """Run every requested recipe on one dataset (one paper table).

    The table is a sweep with a ``recipe`` axis, persisted into
    ``runs_dir`` (``sweep.json`` plus ``runs/<point>/``; re-renderable
    with ``repro report``) or into a temporary directory.  A directory
    that already holds a sweep raises ``FileExistsError``.  ``data``
    is the shared ``(train, test)`` split, used as given.
    ``max_workers > 1`` fans the recipes out across that many worker
    processes; results are byte-identical to the serial path.
    """
    spec = {"config": config.to_dict(), "grid": {"recipe": list(recipes)}}
    return TableResult(config=config, results=_run_grid(
        spec, data, verbose, max_workers, runs_dir))


#: ``run_sweep`` knobs -> the dotted config keys they override.
_SWEEP_KEYS = {
    "sparsity_ratio": "slr.sparsity_ratio",
    "roughness_p": "roughness_p",
    "intra_q": "intra_q",
}


def run_sweep(
    config: ExperimentConfig,
    parameter: str,
    values: Sequence[float],
    recipe: str = "ours_c",
    data: Optional[Tuple[Dataset, Dataset]] = None,
    max_workers: Optional[int] = None,
) -> List[RunResult]:
    """Hyperparameter exploration (Fig. 6b-d): rerun ``recipe`` while
    varying one knob.

    ``parameter`` is one of ``"sparsity_ratio"``, ``"roughness_p"``,
    ``"intra_q"``.  The points run as a one-axis sweep in a temporary
    directory (like :func:`run_table`); the stored rows come back in
    ``values`` order.
    """
    key = _SWEEP_KEYS.get(parameter)
    if key is None:
        raise ValueError(
            f"unknown sweep parameter {parameter!r}; expected "
            "'sparsity_ratio', 'roughness_p' or 'intra_q'"
        )
    spec = {"config": config.to_dict(), "recipe": recipe,
            "grid": {key: [float(value) for value in values]}}
    return _run_grid(spec, data, False, max_workers)
