"""Ablation of the 2-pi solver choice.

:func:`compare_twopi_solvers` — Gumbel-Softmax vs greedy coordinate
descent vs their combination on a given mask (solution quality of the
paper's CO solver against classical baselines).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..optics.fabrication import wrap_phase
from ..roughness import roughness
from ..twopi import TwoPiConfig, TwoPiOptimizer, greedy_offsets

__all__ = ["compare_twopi_solvers"]


def compare_twopi_solvers(
    phase: np.ndarray,
    block_size: Optional[int] = None,
    iterations: int = 300,
    seed: int = 0,
    k: int = 8,
) -> Dict[str, float]:
    """Roughness achieved by each 2-pi solver on ``phase``.

    Returns a dict with keys ``before``, ``greedy``, ``gumbel_softmax``
    (no polishing) and ``gumbel_plus_greedy`` (the production setting).
    """
    wrapped = wrap_phase(np.asarray(phase, dtype=float))
    before = roughness(wrapped, k=k)

    _, greedy_score = greedy_offsets(wrapped, k=k, block_size=block_size)

    gs_raw = TwoPiOptimizer(TwoPiConfig(
        iterations=iterations, seed=seed, k=k, polish=False,
    )).optimize_mask(wrapped)

    gs_polished = TwoPiOptimizer(TwoPiConfig(
        iterations=iterations, seed=seed, k=k, polish=True,
        block_size=block_size,
    )).optimize_mask(wrapped)

    return {
        "before": before,
        "greedy": greedy_score,
        "gumbel_softmax": gs_raw.roughness_after,
        "gumbel_plus_greedy": gs_polished.roughness_after,
    }
