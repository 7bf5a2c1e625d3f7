"""Composable experiment stages: the building blocks of a recipe.

A recipe (one table row of the paper) is a *list of stages* run over a
shared :class:`RunContext`.  Each stage implements the tiny protocol

* ``name`` — a short identifier used in per-stage metrics and run logs;
* ``run(ctx) -> ctx`` — transform the context (train a model, install
  sparsity masks, score, smooth, ...) and return it.

The driver (:func:`repro.pipeline.recipes.run_recipe`) prepares the
context — seeded RNG, dataset split, loader, freshly initialized model —
then folds the stage list over it and assembles a
:class:`~repro.pipeline.recipes.RecipeResult` from what the stages left
behind.  The paper's five recipes are declared as stage lists in
:mod:`repro.pipeline.registry`; third parties compose new scenarios from
these stages (or their own ``Stage`` subclasses) without touching any
repro code — see :class:`NoiseInjectStage` for a worked example and
``docs/experiments.md`` for the walkthrough.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from ..autodiff import Adam
from ..autodiff.rng import spawn_rng
from ..backend import precision_scope
from ..data import DataLoader, Dataset
from ..donn import DONN, Trainer, TrainingDiverged, accuracy
from ..donn.training import TrainingHistory
from ..utils.interrupt import check_interrupt
from .events import EventLog
from ..roughness import (
    IntraBlockRegularizer,
    RoughnessRegularizer,
    model_roughness,
)
from ..sparsify import SLRSparsifier
from ..twopi import TwoPiOptimizer, TwoPiSolution
from .config import ExperimentConfig

__all__ = [
    "RunContext",
    "StageRecord",
    "Stage",
    "TrainStage",
    "SparsifyStage",
    "ScoreStage",
    "TwoPiStage",
    "NoiseInjectStage",
]


@dataclass
class StageRecord:
    """What one stage reported: its name, wall time and metrics."""

    name: str
    wall_time: float = 0.0
    metrics: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "wall_time": self.wall_time,
            "metrics": dict(self.metrics),
        }


@dataclass
class RunContext:
    """Shared state threaded through a recipe's stages.

    The driver fills the setup fields (config, data split, loader, a
    freshly initialized model); stages read and write the result fields.
    ``regularizers`` is set by :class:`TrainStage` and reused by
    :class:`SparsifyStage` so the SLR subproblems optimize the same
    physics-aware objective the dense phase did.
    """

    recipe: str
    config: ExperimentConfig
    train: Dataset
    test: Dataset
    loader: DataLoader
    model: DONN
    verbose: bool = False
    #: Observability / fault tolerance (set by the driver when the run
    #: is persisted): a streamed per-run event log, and a directory
    #: checkpointing stages write crash-safe state into.
    events: EventLog = field(default_factory=EventLog.null)
    checkpoint_dir: Optional[Path] = None
    checkpoint_every: int = 1
    # --- results, filled in by stages ---
    regularizers: List = field(default_factory=list)
    history: Optional[TrainingHistory] = None
    sparsity: float = 0.0
    accuracy: Optional[float] = None
    roughness_before: Optional[float] = None
    roughness_after: Optional[float] = None
    twopi_solutions: List[TwoPiSolution] = field(default_factory=list)
    stage_records: List[StageRecord] = field(default_factory=list)
    _pending_metrics: Dict[str, Any] = field(default_factory=dict)

    def add_metrics(self, **metrics: Any) -> None:
        """Report metrics from inside a stage; the driver attaches them
        to the stage's :class:`StageRecord`."""
        self._pending_metrics.update(metrics)

    def run_stage(self, stage: "Stage") -> "RunContext":
        """Execute one stage, timing it and collecting its metrics.

        A pending graceful Ctrl-C stops *between* stages (the cheapest
        clean point: any completed training stage has already written
        its final checkpoint, so a resumed run fast-forwards to here).
        """
        check_interrupt(f"interrupted before stage {stage.name!r}")
        self._pending_metrics = {}
        index = len(self.stage_records)
        self.events.emit("stage_begin", stage=stage.name, index=index,
                         params=stage.params())
        start = time.time()
        result = stage.run(self)
        ctx = self if result is None else result
        record = StageRecord(
            name=stage.name,
            wall_time=time.time() - start,
            metrics=dict(ctx._pending_metrics),
        )
        ctx.stage_records.append(record)
        ctx._pending_metrics = {}
        ctx.events.emit("stage_end", stage=stage.name, index=index,
                        wall_time=round(record.wall_time, 4),
                        metrics=record.metrics)
        return ctx

    def stage_checkpoint(self, stage: "Stage") -> tuple:
        """``(path, fingerprint)`` for a training-style stage's
        checkpoint, or ``(None, "")`` when checkpointing is off.

        The path is keyed by the stage's position in the recipe (two
        ``TrainStage`` instances get distinct files), and the
        fingerprint pins the checkpoint to this exact experiment —
        recipe, stage parameters and full config — so a stale file from
        a different sweep point can never be resumed by mistake.
        """
        if self.checkpoint_dir is None:
            return None, ""
        index = len(self.stage_records)
        path = Path(self.checkpoint_dir) / f"stage{index}-{stage.name}.npz"
        payload = json.dumps(
            {"recipe": self.recipe, "stage": stage.name, "index": index,
             "params": stage.params(), "config": self.config.to_dict()},
            sort_keys=True, default=str,
        )
        return path, hashlib.sha1(payload.encode()).hexdigest()


class Stage:
    """Base class of the stage protocol (``name`` + ``run(ctx) -> ctx``).

    Stages must be stateless across runs: per-run state belongs on the
    :class:`RunContext`, and constructor arguments are *declarative*
    parameters (which regularizers to enable, a noise level, ...), so one
    stage instance can appear in many registered recipes and be shipped
    to parallel worker processes.
    """

    name: str = "stage"

    def run(self, ctx: RunContext) -> RunContext:
        raise NotImplementedError

    def params(self) -> Dict[str, Any]:
        """Declarative constructor parameters (for run provenance)."""
        return {}

    def __repr__(self) -> str:
        params = ", ".join(f"{k}={v!r}" for k, v in self.params().items())
        return f"{type(self).__name__}({params})"


class TrainStage(Stage):
    """(Roughness-aware) dense training — Eq. 5 / Eq. 8.

    ``roughness`` enables the paper's surface-roughness penalty
    ``p * R(W)``; ``intra_block`` additionally enables the intra-block
    smoothness term ``q * R_intra(W)`` (Ours-D).  Factors and training
    length come from the :class:`~repro.pipeline.config.ExperimentConfig`.
    Runs under the config's precision policy end to end.
    """

    name = "train"

    def __init__(self, roughness: bool = False,
                 intra_block: bool = False) -> None:
        self.roughness = bool(roughness)
        self.intra_block = bool(intra_block)

    def params(self) -> Dict[str, Any]:
        return {"roughness": self.roughness, "intra_block": self.intra_block}

    def regularizers(self, config: ExperimentConfig) -> list:
        regs = []
        if self.roughness:
            regs.append(RoughnessRegularizer(p=config.roughness_p,
                                             k=config.roughness_k))
        if self.intra_block:
            regs.append(IntraBlockRegularizer(q=config.intra_q,
                                              block_size=config.slr.block_size))
        return regs

    def run(self, ctx: RunContext) -> RunContext:
        config = ctx.config
        ctx.regularizers = self.regularizers(config)
        trainer = Trainer(
            ctx.model,
            Adam(ctx.model.parameters(), lr=config.baseline_lr),
            regularizers=ctx.regularizers,
            precision=config.precision,
        )
        checkpoint, fingerprint = ctx.stage_checkpoint(self)

        def on_epoch(epoch: int, metrics: Dict[str, float]) -> None:
            ctx.events.emit("epoch", stage=self.name, epoch=epoch + 1,
                            epochs=config.baseline_epochs,
                            **{key: round(float(value), 6)
                               for key, value in metrics.items()})

        ctx.history = trainer.fit(
            ctx.loader, epochs=config.baseline_epochs, verbose=ctx.verbose,
            checkpoint=checkpoint, checkpoint_every=ctx.checkpoint_every,
            fingerprint=fingerprint, on_epoch=on_epoch,
        )
        ctx.add_metrics(
            epochs=config.baseline_epochs,
            final_loss=ctx.history.loss[-1],
            final_train_accuracy=ctx.history.train_accuracy[-1],
        )
        return ctx


class SparsifyStage(Stage):
    """SLR block sparsification (Sec. III-C2, Eq. 6/7).

    Reuses the training stage's regularizers so the W-subproblem keeps
    the physics-aware objective, and the training loader so data order
    continues deterministically from where dense training stopped.
    """

    name = "sparsify"

    def run(self, ctx: RunContext) -> RunContext:
        config = ctx.config
        with precision_scope(config.precision):
            sparsifier = SLRSparsifier(ctx.model, ctx.loader, config.slr,
                                       regularizers=ctx.regularizers)
            result = sparsifier.run(verbose=ctx.verbose)
        ctx.sparsity = result.sparsity
        ctx.add_metrics(
            sparsity=result.sparsity,
            block_size=config.slr.block_size,
            outer_iterations=config.slr.outer_iterations,
        )
        return ctx


class ScoreStage(Stage):
    """Test accuracy + pre-smoothing roughness.

    Pinned to double precision regardless of the ambient policy
    (``REPRO_PRECISION`` included), so table numbers stay comparable
    across training precisions.
    """

    name = "score"

    def run(self, ctx: RunContext) -> RunContext:
        with precision_scope("double"):
            ctx.accuracy = accuracy(ctx.model, ctx.test)
            ctx.roughness_before = model_roughness(
                ctx.model, k=ctx.config.roughness_k
            ).overall
        ctx.add_metrics(accuracy=ctx.accuracy,
                        roughness_before=ctx.roughness_before)
        return ctx


class TwoPiStage(Stage):
    """The 2-pi periodic post-optimization (Sec. III-D2).

    Changes fabricated roughness but never accuracy (forward-invariant);
    always runs in double precision like :class:`ScoreStage`.
    """

    name = "twopi"

    def run(self, ctx: RunContext) -> RunContext:
        with precision_scope("double"):
            solutions = TwoPiOptimizer(ctx.config.twopi).optimize_model(
                ctx.model
            )
        ctx.twopi_solutions = solutions
        ctx.roughness_after = float(
            np.mean([s.roughness_after for s in solutions])
        )
        ctx.add_metrics(
            roughness_after=ctx.roughness_after,
            flipped_fraction=float(
                np.mean([s.flipped_fraction for s in solutions])
            ),
            # Where the stage's time went: one Gumbel loop solves every
            # layer at once, and the polish (summed over layers) sweeps
            # until no flip helps, so its cost moves with the masks.
            gumbel_s=float(solutions[0].history["gumbel_s"][0]),
            polish_s=float(sum(s.history["polish_s"][0] for s in solutions)),
            polish_sweeps=int(
                sum(s.history["polish_sweeps"][0] for s in solutions)
            ),
        )
        return ctx


class NoiseInjectStage(Stage):
    """Weight-noise-injection fine-tuning (Shi & Zhang 2020 style).

    The proof-of-extensibility stage: after dense training, fine-tune for
    a few epochs computing gradients at *perturbed* phases
    ``W + eps, eps ~ N(0, sigma^2)`` while applying the update to the
    clean weights — the classic robustness trick for DONNs facing
    fabrication variance.  Composes with every other stage; see the
    registered ``noisy`` recipe.
    """

    name = "noise_inject"

    def __init__(self, sigma: float = 0.05, epochs: int = 1,
                 lr: Optional[float] = None, seed_offset: int = 101) -> None:
        if sigma < 0:
            raise ValueError(f"noise sigma must be >= 0, got {sigma}")
        if epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {epochs}")
        self.sigma = float(sigma)
        self.epochs = int(epochs)
        self.lr = None if lr is None else float(lr)
        self.seed_offset = int(seed_offset)

    def params(self) -> Dict[str, Any]:
        return {"sigma": self.sigma, "epochs": self.epochs, "lr": self.lr,
                "seed_offset": self.seed_offset}

    def run(self, ctx: RunContext) -> RunContext:
        config = ctx.config
        model = ctx.model
        rng = spawn_rng(config.seed + self.seed_offset)
        optimizer = Adam(model.parameters(),
                         lr=self.lr if self.lr is not None
                         else config.baseline_lr)
        trainer = Trainer(model, optimizer, regularizers=ctx.regularizers,
                          precision=config.precision)
        final_loss = float("nan")
        for _ in range(self.epochs):
            for images, labels in ctx.loader:
                clean = [layer.phase.data for layer in model.layers]
                noises = [
                    rng.normal(0.0, self.sigma, weights.shape)
                    for weights in clean
                ]
                for layer, weights, noise in zip(model.layers, clean,
                                                 noises):
                    layer.phase.data = weights + noise
                optimizer.zero_grad()
                total, _, _ = trainer.loss(images, labels)
                total.backward()
                # Gradient taken at the noisy point, update applied to
                # the clean weights (weight-noise-injection training).
                for layer, weights in zip(model.layers, clean):
                    layer.phase.data = weights
                optimizer.step()
                final_loss = total.item()
                if not math.isfinite(final_loss):
                    raise TrainingDiverged(
                        f"noise-inject fine-tuning diverged: loss="
                        f"{final_loss!r} (sigma={self.sigma})"
                    )
        ctx.add_metrics(sigma=self.sigma, epochs=self.epochs,
                        final_loss=final_loss)
        return ctx
