"""Experiment pipeline: declarative recipes, tables, sweeps and runs.

* :class:`ExperimentConfig` — laptop- and paper-scale setups, with a
  full nested dict round trip (``to_dict``/``from_dict``) and JSON/TOML
  experiment files (:func:`load_experiment`, dotted ``--set`` overrides);
* :mod:`~repro.pipeline.stages` — the composable stage protocol
  (``TrainStage``, ``SparsifyStage``, ``ScoreStage``, ``TwoPiStage``,
  ``NoiseInjectStage``);
* :func:`register_recipe` — declare new scenarios as stage lists; the
  paper's five recipes are themselves registry entries;
* :func:`run_recipe` — one table row (baseline / Ours-A..D / custom);
* :func:`run_table` — a full Tables II-V reproduction, run as a
  ``recipe``-axis sweep;
* :func:`run_sweep` — the Fig. 6 hyperparameter explorations, run as
  one-knob sweeps;
* :func:`save_run` / :func:`load_runs` / :func:`table_from_runs` —
  self-describing run directories, re-renderable without recompute;
* :mod:`~repro.pipeline.sweep` — resumable grid/random sweeps
  (``repro sweep``), the one grid driver: supervised parallel points,
  per-point event logs, crash-safe checkpoints and ``--resume``;
* :data:`PAPER_TABLES` — the published numbers for comparison.
"""

from .ablations import compare_twopi_solvers
from .config import PAPER_BLOCK_SIZES, PAPER_EPOCHS, ExperimentConfig
from .events import EVENTS_FILE, EventLog, read_events
from .experiment_io import (
    ExperimentSpec,
    apply_overrides,
    load_experiment,
    parse_override_items,
    resolve_base_config,
)
from .recipes import (
    RECIPE_LABELS,
    RECIPES,
    RecipeResult,
    prepare_data,
    run_recipe,
)
from .pool import PointFailure, PointOutcome, SupervisedPool
from .registry import (
    Recipe,
    get_recipe,
    paper_recipe_names,
    recipe_label,
    recipe_names,
    register_recipe,
    unregister_recipe,
)
from .runner import run_sweep, run_table
from .runs import (
    RunResult,
    load_run,
    load_runs,
    save_run,
    table_from_runs,
)
from .sweep import (
    SWEEP_FILE,
    SweepPoint,
    SweepSummary,
    expand_points,
    format_sweep,
    load_sweep_spec,
    parse_faults,
    run_sweep_dir,
)
from .stages import (
    NoiseInjectStage,
    RunContext,
    ScoreStage,
    SparsifyStage,
    Stage,
    StageRecord,
    TrainStage,
    TwoPiStage,
)
from .tables import (
    PAPER_TABLES,
    TableResult,
    format_comparison,
    format_scenarios,
    format_table,
)

# Registers the physics-robustness scenario recipes (differential,
# partial_coherence, quantized, deploy_gap) as a side effect, so sweep
# worker processes that import repro.pipeline resolve them by name like
# the built-ins.  Imported last: repro.physics composes the stage and
# registry submodules above.
from .. import physics as _physics  # noqa: E402,F401

__all__ = [
    "ExperimentConfig",
    "PAPER_BLOCK_SIZES",
    "PAPER_EPOCHS",
    "RECIPES",
    "RECIPE_LABELS",
    "RecipeResult",
    "prepare_data",
    "run_recipe",
    "PAPER_TABLES",
    "TableResult",
    "run_table",
    "run_sweep",
    "format_table",
    "format_comparison",
    "format_scenarios",
    "compare_twopi_solvers",
    # Declarative experiment API
    "Stage",
    "StageRecord",
    "RunContext",
    "TrainStage",
    "SparsifyStage",
    "ScoreStage",
    "TwoPiStage",
    "NoiseInjectStage",
    "Recipe",
    "register_recipe",
    "unregister_recipe",
    "get_recipe",
    "recipe_names",
    "paper_recipe_names",
    "recipe_label",
    # Config files & overrides
    "ExperimentSpec",
    "load_experiment",
    "apply_overrides",
    "parse_override_items",
    # Persisted runs
    "RunResult",
    "save_run",
    "load_run",
    "load_runs",
    "table_from_runs",
    "resolve_base_config",
    # Observability & fault-tolerant orchestration
    "EVENTS_FILE",
    "EventLog",
    "read_events",
    "PointFailure",
    "PointOutcome",
    "SupervisedPool",
    "SWEEP_FILE",
    "SweepPoint",
    "SweepSummary",
    "load_sweep_spec",
    "expand_points",
    "parse_faults",
    "run_sweep_dir",
    "format_sweep",
]
