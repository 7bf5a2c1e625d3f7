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

The Gumbel loop is one NumPy loop over a stack of masks
(:meth:`TwoPiOptimizer.optimize_model` solves all of a model's layers
together; :meth:`~TwoPiOptimizer.optimize_mask` is the one-mask case).
The size-2 option axis is split into two ``(L, n, m)`` logit planes
``l0``/``l1`` (``l1`` selects the +2 pi option), stepped by the usual
elementwise :class:`~repro.autodiff.Adam`.  Each iteration runs, in the
composed graph's op order (``gumbel_softmax`` + select + sum +
:func:`~repro.roughness.metrics.roughness_tensor`)::

    b_i = (l_i + noise_i) * (1/tau);  M = max(b0, b1)
    e_i = exp(b_i - M);  S = e0 + e1;  s_i = e_i / S
    x   = wrapped + (s0 * 0.0 + s1 * 2 pi)

(``hard=True`` feeds the straight-through value ``(h_i - s_i) + s_i``
forward instead), and a hand-written backward replays the order in
which the composed graph's topological walk accumulates the gradient,
with ``gx`` the roughness VJP of each mask's loss::

    gs0 = gx * 0.0;  gs1 = gx * 2 pi
    gS  = gs0 * (-e0 / (S * S)) + gs1 * (-e1 / (S * S))
    grad l_i = ((gs_i * (1/S) + gS) * e_i) * (1/tau)

so the loss history, the logits and the offsets are bit-identical to
the per-mask autodiff loop (kept as the oracle in
``tests/twopi/test_gumbel_replay.py``).  The Gumbel noise stream is
``spawn_rng(config.seed)`` for every mask, as it was per mask before:
each iteration draws one ``(n, m, 2)`` sample and all masks of the
stack see the same draws.  The polish is the vectorized exact replay
of :mod:`repro.twopi.exhaustive`, run per mask.

``TwoPiSolution.history`` records the time each phase took
(``gumbel_s``: the shared solve, the same value in every solution of
one call; ``polish_s``: this mask's polish) and the sweeps the polish
ran (``polish_sweeps``), one-element lists per mask.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..autodiff import Adam, Parameter
from ..autodiff.rng import gumbel, spawn_rng
from ..optics.constants import TWO_PI
from ..optics.fabrication import wrap_phase
from ..roughness.metrics import _EPS, _roughness_parts, roughness
from .exhaustive import _greedy

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
        if self.k not in (4, 8):
            raise ValueError(f"k must be 4 or 8, got {self.k}")
        if self.lr <= 0:
            raise ValueError(f"learning rate must be positive, got {self.lr}")
        if self.block_size is not None and self.block_size < 1:
            raise ValueError(
                f"block_size must be None or >= 1, got {self.block_size}")


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
        wrapped = wrap_phase(np.asarray(phase, dtype=np.float64))
        if wrapped.ndim != 2:
            raise ValueError(f"phase mask must be 2-D, got {wrapped.shape}")
        return self._solve(wrapped[None])[0]

    def optimize_model(
        self, model, verify_inputs: Optional[np.ndarray] = None
    ) -> List[TwoPiSolution]:
        """Smooth every layer of a DONN; returns per-layer solutions.

        All layers run through one shared Gumbel loop, so each
        solution's ``history["gumbel_s"]`` is that loop's wall time.
        When ``verify_inputs`` (images or encoded fields) is given, the
        claimed forward invariance is checked end to end through the
        compiled inference engine and the residual is stored in each
        solution's ``history["forward_invariance_gap"]``.
        """
        phases = np.stack(model.phases(wrapped=True))
        solutions = self._solve(wrap_phase(phases.astype(np.float64)))
        if verify_inputs is not None:
            gap = forward_invariance_gap(model, solutions, verify_inputs)
            for solution in solutions:
                solution.history["forward_invariance_gap"] = [gap]
        return solutions

    def _solve(self, wrapped: np.ndarray) -> List[TwoPiSolution]:
        """Smooth an ``(L, n, m)`` stack of wrapped masks."""
        cfg = self.config
        start = time.perf_counter()
        selected, losses, taus = self._gumbel_loop(wrapped)
        gumbel_s = time.perf_counter() - start

        solutions = []
        for mask, offsets, loss in zip(wrapped, selected, losses):
            before = roughness(mask, k=cfg.k)
            start = time.perf_counter()
            sweeps = 0
            if cfg.polish:
                offsets, _, sweeps = _greedy(mask, k=cfg.k, init=offsets,
                                             block_size=cfg.block_size)
            history: Dict[str, List[float]] = {
                "loss": loss,
                "tau": list(taus),
                "gumbel_s": [gumbel_s],
                "polish_s": [time.perf_counter() - start],
                "polish_sweeps": [sweeps],
            }
            after = roughness(mask + offsets, k=cfg.k)
            # The add-on is free (forward-invariant), so never accept a
            # degradation over the plain mask.
            if after > before:
                offsets = np.zeros_like(mask)
                after = before
            solutions.append(TwoPiSolution(
                offsets=offsets,
                roughness_before=before,
                roughness_after=after,
                history=history,
            ))
        return solutions

    def _gumbel_loop(self, wrapped: np.ndarray):
        """The Gumbel-softmax descent on an ``(L, n, m)`` stack.

        Returns the argmax offsets ``(L, n, m)``, each mask's loss per
        iteration and the temperature schedule (module docstring).
        """
        cfg = self.config
        k = cfg.k
        rng = spawn_rng(cfg.seed)
        l0 = Parameter(np.zeros(wrapped.shape))
        l1 = Parameter(np.zeros(wrapped.shape))
        optimizer = Adam([l0, l1], lr=cfg.lr)
        decay = (cfg.tau_end / cfg.tau_start) ** (
            1.0 / max(cfg.iterations - 1, 1)
        )
        losses: List[List[float]] = [[] for _ in wrapped]
        taus: List[float] = []

        tau = cfg.tau_start
        for _ in range(cfg.iterations):
            noise = gumbel(wrapped.shape[1:] + (2,), rng=rng)
            inv_tau = 1.0 / tau
            b0 = (l0.data + noise[..., 0]) * inv_tau
            b1 = (l1.data + noise[..., 1]) * inv_tau
            top = np.maximum(b0, b1)
            e0 = np.exp(b0 - top)
            e1 = np.exp(b1 - top)
            total = e0 + e1
            s0 = e0 / total
            s1 = e1 / total
            if cfg.hard:
                pick = s1 > s0
                s0_out = ((~pick).astype(np.float64) - s0) + s0
                s1_out = (pick.astype(np.float64) - s1) + s1
            else:
                s0_out, s1_out = s0, s1
            q, vjp = _roughness_parts(
                wrapped + (s0_out * 0.0 + s1_out * TWO_PI), k, _EPS)
            scaled = q * (1.0 / k)
            for mask_losses, plane in zip(losses, scaled):
                mask_losses.append(float(np.sum(plane) * 0.5))

            gx = vjp(1.0)
            gs0 = gx * 0.0
            gs1 = gx * TWO_PI
            square = total * total
            g_total = gs0 * (-e0 / square) + gs1 * (-e1 / square)
            inv_total = 1.0 / total
            l0.grad = ((gs0 * inv_total + g_total) * e0) * inv_tau
            l1.grad = ((gs1 * inv_total + g_total) * e1) * inv_tau
            optimizer.step()
            taus.append(tau)
            tau = max(tau * decay, cfg.tau_end)

        return TWO_PI * (l1.data > l0.data), losses, taus
