"""Surrogate Lagrangian Relaxation (SLR) block sparsification (Sec. III-C2).

The constrained problem (Eq. 6) — minimize the roughness-regularized DONN
loss subject to a per-layer budget of non-zero blocks — is relaxed with
duplicate variables ``Z_i`` and multipliers ``Lambda_i`` into the augmented
Lagrangian of Eq. 7::

    L = l(W) + l_r(W) + sum_i g_i(Z_i)
        + sum_i tr(Lambda_i^T (W_i - Z_i))
        + sum_i rho/2 ||W_i - Z_i||_F^2

and solved by alternating two subproblems:

1. **W-subproblem** — gradient steps (Adam) on the DONN loss plus the
   coupling terms, with ``Z``, ``Lambda`` frozen;
2. **Z-subproblem** — exact projection ``Z_i = Pi(W_i + Lambda_i / rho)``
   onto the block-sparse feasible set (keep the largest-norm blocks).

After each subproblem the *surrogate optimality condition* (the new point
must strictly decrease the surrogate Lagrangian) gates the multiplier
update ``Lambda += s * (W - Z)`` whose stepsize follows Gurevin et al.::

    alpha_k = 1 - 1 / (M * k^(1 - 1/k^r)),
    s_k     = alpha_k * s_{k-1} * ||W^{k-1} - Z^{k-1}|| / ||W^k - Z^k||

with the paper's published constants rho=0.1, M=300, r=0.1, s0=0.01.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..autodiff import Adam, Tensor
from ..autodiff import functional as F
from ..data.loaders import DataLoader
from .methods import block_sparsity_mask

__all__ = ["SLRConfig", "SLRResult", "SLRSparsifier", "slr_stepsize_alpha"]


def slr_stepsize_alpha(k: int, capital_m: float, r: float) -> float:
    """The SLR stepsize decay ``alpha_k = 1 - 1/(M k^(1 - 1/k^r))``."""
    if k < 1:
        raise ValueError(f"iteration index must be >= 1, got {k}")
    return 1.0 - 1.0 / (capital_m * k ** (1.0 - 1.0 / k ** r))


@dataclass(frozen=True)
class SLRConfig:
    """SLR hyperparameters (defaults = the paper's Sec. IV-A2 values)."""

    rho: float = 0.1
    capital_m: float = 300.0
    r: float = 0.1
    s0: float = 0.01
    sparsity_ratio: float = 0.1
    block_size: int = 5
    outer_iterations: int = 4
    inner_epochs: int = 1
    lr: float = 0.001
    finetune_epochs: int = 1

    def __post_init__(self) -> None:
        if self.rho <= 0:
            raise ValueError(f"rho must be positive, got {self.rho}")
        if not 0.0 <= self.sparsity_ratio < 1.0:
            raise ValueError(
                f"sparsity ratio must be in [0, 1), got {self.sparsity_ratio}"
            )
        if self.outer_iterations < 1:
            raise ValueError("need at least one outer iteration")


@dataclass
class SLRResult:
    """Outcome of an SLR run."""

    masks: List[np.ndarray]
    history: Dict[str, List[float]] = field(default_factory=dict)

    @property
    def sparsity(self) -> float:
        total = sum(mask.size for mask in self.masks)
        zeros = sum(int((mask == 0).sum()) for mask in self.masks)
        return zeros / total


class SLRSparsifier:
    """Runs SLR block sparsification on a DONN.

    Parameters
    ----------
    model:
        The (typically pre-trained) :class:`repro.donn.DONN`.
    loader:
        Training data for the W-subproblem gradient steps.
    config:
        :class:`SLRConfig` hyperparameters.
    regularizers:
        Extra differentiable penalties (roughness / intra-block) included
        in ``l_r`` of Eq. 6-7.
    """

    def __init__(
        self,
        model,
        loader: DataLoader,
        config: SLRConfig = SLRConfig(),
        regularizers: Sequence = (),
    ) -> None:
        self.model = model
        self.loader = loader
        self.config = config
        self.regularizers = list(regularizers)
        self._probe: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # ------------------------------------------------------------------
    # Pieces of the Lagrangian
    # ------------------------------------------------------------------
    def _task_loss(self, images, labels) -> Tensor:
        logits = self.model(images)
        loss = F.mse_softmax_loss(
            logits, labels, num_classes=self.model.config.num_classes
        )
        for regularizer in self.regularizers:
            loss = loss + regularizer(self.model)
        return loss

    def _coupling_penalty(self, z: List[np.ndarray],
                          lam: List[np.ndarray]) -> Tensor:
        """``sum_i tr(Lambda^T (W-Z)) + rho/2 ||W-Z||^2`` (differentiable).

        ``W_i`` is the layer's *phase value* (the quantity the paper
        prunes; under the sigmoid parametrization it is a differentiable
        function of the raw weights).
        """
        rho = self.config.rho
        total = None
        for layer, z_i, lam_i in zip(self.model.layers, z, lam):
            w = layer.effective_phase()
            diff = w - Tensor(z_i)
            term = (Tensor(lam_i) * diff).sum() + (diff * diff).sum() * (rho / 2)
            total = term if total is None else total + term
        return total

    def _probe_loss(self) -> Tensor:
        """Task loss on a fixed probe batch at the current ``W``.

        ``W`` changes only in the W-subproblem, so :meth:`run` evaluates
        this once per ``W`` and reuses it across surrogate checks.
        """
        if self._probe is None:
            self._probe = next(iter(self.loader))
        images, labels = self._probe
        return self._task_loss(images, labels).detach()

    def _surrogate_value(self, task: Tensor, z, lam) -> float:
        """Full Lagrangian on the probe batch (the surrogate check);
        ``task`` is :meth:`_probe_loss` at the current ``W``."""
        value = task + self._coupling_penalty(z, lam)
        return float(value.item())

    def _project(self, matrix: np.ndarray) -> np.ndarray:
        """Closed-form Z-subproblem: keep the largest-L2-norm blocks."""
        mask = block_sparsity_mask(
            matrix, self.config.sparsity_ratio, self.config.block_size
        )
        return matrix * mask

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self, verbose: bool = False) -> SLRResult:
        cfg = self.config
        phases = lambda: [layer.phase_array()  # noqa: E731
                          for layer in self.model.layers]

        z = [self._project(w) for w in phases()]
        lam = [np.zeros_like(w) for w in phases()]
        stepsize = cfg.s0
        previous_residual: Optional[float] = None
        history: Dict[str, List[float]] = {
            "residual": [], "stepsize": [], "surrogate": [],
        }

        optimizer = Adam([l.phase for l in self.model.layers], lr=cfg.lr)

        def residual_norm() -> float:
            return float(np.sqrt(sum(
                ((w - z_i) ** 2).sum() for w, z_i in zip(phases(), z)
            )))

        task = self._probe_loss()
        for k in range(1, cfg.outer_iterations + 1):
            surrogate_before = self._surrogate_value(task, z, lam)

            # --- W-subproblem: gradient descent on L(W, Z^k-1, Lambda^k).
            for _ in range(cfg.inner_epochs):
                for images, labels in self.loader:
                    optimizer.zero_grad()
                    loss = self._task_loss(images, labels)
                    loss = loss + self._coupling_penalty(z, lam)
                    loss.backward()
                    optimizer.step()

            # --- Surrogate optimality check + multiplier update.
            task = self._probe_loss()
            surrogate_after_w = self._surrogate_value(task, z, lam)
            current_residual = residual_norm()
            if surrogate_after_w < surrogate_before and current_residual > 0:
                alpha = slr_stepsize_alpha(k, cfg.capital_m, cfg.r)
                if previous_residual is not None:
                    stepsize = alpha * stepsize * (
                        previous_residual / current_residual
                    )
                for w, z_i, lam_i in zip(phases(), z, lam):
                    lam_i += stepsize * (w - z_i)
            previous_residual = max(current_residual, 1e-12)

            # --- Z-subproblem: exact projection.
            surrogate_before_z = self._surrogate_value(task, z, lam)
            z = [
                self._project(w + lam_i / cfg.rho)
                for w, lam_i in zip(phases(), lam)
            ]
            surrogate_after_z = self._surrogate_value(task, z, lam)
            current_residual = residual_norm()
            if surrogate_after_z < surrogate_before_z and current_residual > 0:
                alpha = slr_stepsize_alpha(k, cfg.capital_m, cfg.r)
                stepsize = alpha * stepsize * (
                    previous_residual / max(current_residual, 1e-12)
                )
                for w, z_i, lam_i in zip(phases(), z, lam):
                    lam_i += stepsize * (w - z_i)
            previous_residual = max(current_residual, 1e-12)

            history["residual"].append(current_residual)
            history["stepsize"].append(stepsize)
            history["surrogate"].append(surrogate_after_z)
            if verbose:
                print(f"SLR iter {k}: residual={current_residual:.4f} "
                      f"s={stepsize:.5f}")

        # --- Harden: masks from the final Z support, applied to the model.
        masks = [
            block_sparsity_mask(w + lam_i / cfg.rho,
                                cfg.sparsity_ratio, cfg.block_size)
            for w, lam_i in zip(phases(), lam)
        ]
        self.model.apply_sparsity_masks(masks)

        # --- Optional short masked fine-tune (mask gradients are frozen).
        if cfg.finetune_epochs:
            tuner = Adam([l.phase for l in self.model.layers], lr=cfg.lr)
            for _ in range(cfg.finetune_epochs):
                for images, labels in self.loader:
                    tuner.zero_grad()
                    self._task_loss(images, labels).backward()
                    tuner.step()

        return SLRResult(masks=masks, history=history)
