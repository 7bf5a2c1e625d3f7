"""The 2-pi periodic phase optimization (paper Sec. III-D2).

Phase modulation is 2-pi periodic — ``f(c + 2 pi) = f(c)`` for the DONN
forward function — so a trained mask's *fabricated topography* can be
smoothed, without any retraining or accuracy change, by selectively adding
2 pi to individual pixels.  The paper formulates the per-pixel {0, 2 pi}
choice as combinatorial optimization over an ``n x n x 2`` one-hot
selection mask whose matrix product with ``[[0], [2 pi]]`` yields the
add-on phase, and solves it with Gumbel-Softmax + gradient descent on the
roughness of the offset mask.

This implementation anneals the softmax temperature geometrically, takes
the argmax selection at the end, and (optionally) polishes it with greedy
coordinate descent; the returned solution is never worse than the
unmodified mask.

Each Gumbel iteration's roughness loss is the single fused graph node of
:func:`~repro.roughness.metrics.roughness_tensor`, and the polish is the
vectorized exact replay of :mod:`repro.twopi.exhaustive`; both are
bit-identical to the composed graph and the scalar walk they replace.
``TwoPiSolution.history`` records the time each phase took
(``gumbel_s``, ``polish_s``) and the sweeps the polish ran
(``polish_sweeps``), one-element lists per mask.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..autodiff import Adam, Parameter, Tensor
from ..autodiff import ops
from ..autodiff.rng import spawn_rng
from ..optics.constants import TWO_PI
from ..optics.fabrication import wrap_phase
from ..roughness.metrics import roughness, roughness_tensor
from .exhaustive import _greedy
from .gumbel import gumbel_softmax

__all__ = ["TwoPiConfig", "TwoPiSolution", "TwoPiOptimizer",
           "forward_invariance_gap"]


def forward_invariance_gap(
    model,
    solutions: List["TwoPiSolution"],
    inputs: np.ndarray,
    precision: str = "double",
    max_batch: int = 64,
) -> float:
    """Max-abs logit deviation introduced by the 2-pi add-on masks.

    The 2-pi step is supposed to be forward-invariant —
    ``exp(i (phi + 2 pi s)) == exp(i phi)`` — so this should be at
    floating-point noise (~1e-15 in double precision).  Both sides run
    through the compiled :class:`~repro.runtime.InferenceEngine` (one
    shared kernel, no autodiff graph), so verifying a smoothing result
    over a whole test set is cheap.
    """
    if len(solutions) != len(model.layers):
        raise ValueError(
            f"got {len(solutions)} solutions for {len(model.layers)} layers"
        )
    phases = model.phases(wrapped=True)
    lifted = [
        np.exp(1j * (phase + solution.offsets))
        for phase, solution in zip(phases, solutions)
    ]
    baseline = model.inference_engine(
        precision=precision, max_batch=max_batch
    )
    smoothed = model.inference_engine(
        modulations=lifted, precision=precision, max_batch=max_batch
    )
    gap = np.abs(baseline.logits(inputs) - smoothed.logits(inputs))
    return float(gap.max())


@dataclass(frozen=True)
class TwoPiConfig:
    """Hyperparameters of the Gumbel-Softmax 2-pi solver."""

    iterations: int = 300
    lr: float = 0.3
    tau_start: float = 3.0
    tau_end: float = 0.3
    k: int = 8
    seed: int = 0
    hard: bool = False
    polish: bool = True  # greedy coordinate-descent refinement
    #: Block grid of the sparsification pattern, if any.  Enables whole-
    #: block flip moves during polishing — single-pixel moves cannot lift
    #: a zeroed block past its local-minimum barrier.
    block_size: Optional[int] = None

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError("need at least one iteration")
        if self.tau_start < self.tau_end:
            raise ValueError("tau_start must be >= tau_end (annealing)")
        if self.tau_end <= 0:
            raise ValueError("temperatures must be positive")


@dataclass
class TwoPiSolution:
    """Result of optimizing one mask."""

    offsets: np.ndarray  # values in {0, 2 pi}
    roughness_before: float
    roughness_after: float
    history: Dict[str, List[float]] = field(default_factory=dict)

    @property
    def reduction(self) -> float:
        """Fractional roughness reduction (the tables' headline metric)."""
        if self.roughness_before == 0:
            return 0.0
        return 1.0 - self.roughness_after / self.roughness_before

    @property
    def flipped_fraction(self) -> float:
        """Fraction of pixels assigned the 2-pi add-on."""
        return float((self.offsets > 0).mean())


class TwoPiOptimizer:
    """Gumbel-Softmax combinatorial smoothing of phase masks."""

    def __init__(self, config: TwoPiConfig = TwoPiConfig()) -> None:
        self.config = config

    def optimize_mask(self, phase: np.ndarray) -> TwoPiSolution:
        """Smooth one mask; ``phase`` is wrapped to [0, 2 pi) first.

        The optimization never changes the DONN forward function (2-pi
        periodicity) — only the fabricated topography.
        """
        cfg = self.config
        wrapped = wrap_phase(np.asarray(phase, dtype=np.float64))
        if wrapped.ndim != 2:
            raise ValueError(f"phase mask must be 2-D, got {wrapped.shape}")
        before = roughness(wrapped, k=cfg.k)
        rng = spawn_rng(cfg.seed)

        # n x n x 2 selection logits; index 1 selects the +2 pi option.
        logits = Parameter(np.zeros(wrapped.shape + (2,)))
        optimizer = Adam([logits], lr=cfg.lr)
        base = Tensor(wrapped)
        add_options = Tensor(np.array([0.0, TWO_PI]))
        decay = (cfg.tau_end / cfg.tau_start) ** (
            1.0 / max(cfg.iterations - 1, 1)
        )
        history: Dict[str, List[float]] = {"loss": [], "tau": []}

        tau = cfg.tau_start
        start = time.perf_counter()
        for _ in range(cfg.iterations):
            optimizer.zero_grad()
            selection = gumbel_softmax(logits, tau=tau, hard=cfg.hard,
                                       rng=rng)
            addon = ops.sum(selection * add_options, axis=-1)
            loss = roughness_tensor(base + addon, k=cfg.k)
            loss.backward()
            optimizer.step()
            history["loss"].append(loss.item())
            history["tau"].append(tau)
            tau = max(tau * decay, cfg.tau_end)

        history["gumbel_s"] = [time.perf_counter() - start]

        selection = np.argmax(logits.data, axis=-1)
        offsets = TWO_PI * selection.astype(np.float64)
        start = time.perf_counter()
        sweeps = 0
        if cfg.polish:
            offsets, _, sweeps = _greedy(wrapped, k=cfg.k, init=offsets,
                                         block_size=cfg.block_size)
        history["polish_s"] = [time.perf_counter() - start]
        history["polish_sweeps"] = [sweeps]
        after = roughness(wrapped + offsets, k=cfg.k)
        # The add-on is free (forward-invariant), so never accept a
        # degradation over the plain mask.
        if after > before:
            offsets = np.zeros_like(wrapped)
            after = before
        return TwoPiSolution(
            offsets=offsets,
            roughness_before=before,
            roughness_after=after,
            history=history,
        )

    def optimize_model(
        self, model, verify_inputs: Optional[np.ndarray] = None
    ) -> List[TwoPiSolution]:
        """Smooth every layer of a DONN; returns per-layer solutions.

        When ``verify_inputs`` (images or encoded fields) is given, the
        claimed forward invariance is checked end to end through the
        compiled inference engine and the residual is stored in each
        solution's ``history["forward_invariance_gap"]``.
        """
        solutions = [self.optimize_mask(phase) for phase in
                     model.phases(wrapped=True)]
        if verify_inputs is not None:
            gap = forward_invariance_gap(model, solutions, verify_inputs)
            for solution in solutions:
                solution.history["forward_invariance_gap"] = [gap]
        return solutions
