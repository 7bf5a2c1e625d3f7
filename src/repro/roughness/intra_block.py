"""Intra-block smoothness (paper Sec. III-D1, Eq. 8, Fig. 4).

After block sparsification the surviving blocks may still carry sharp
internal phase changes.  The intra-block penalty is the variance of each
block, averaged over all block slots; zeroed blocks have variance 0 and
therefore contribute nothing.  The paper's Fig. 4 worked example (6 x 6
matrix, block size 2, three zeroed blocks, "AvgVar 4.835") pins the exact
statistic: *sample* variance (ddof = 1) per block, averaged over all nine
block slots — reproduced in ``tests/roughness/test_paper_figures.py``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..autodiff import Tensor, as_tensor
from ..autodiff import functional as F
from ..autodiff import ops
from ..sparsify.blocks import check_blocking

__all__ = ["block_variances", "intra_block_smoothness",
           "intra_block_tensor"]


def _check_blocking(shape: Tuple[int, int], block_size: int) -> Tuple[int, int]:
    if block_size < 2:
        raise ValueError(
            f"block size must be >= 2 for a variance, got {block_size}"
        )
    return check_blocking(shape, block_size)


def block_variances(phase: np.ndarray, block_size: int,
                    ddof: int = 1) -> np.ndarray:
    """Per-block variance grid of shape ``(rows/b, cols/b)``."""
    phase = np.asarray(phase, dtype=np.float64)
    if phase.ndim != 2:
        raise ValueError(f"phase mask must be 2-D, got shape {phase.shape}")
    br, bc = _check_blocking(phase.shape, block_size)
    blocks = phase.reshape(br, block_size, bc, block_size)
    blocks = blocks.transpose(0, 2, 1, 3).reshape(br, bc, -1)
    return blocks.var(axis=-1, ddof=ddof)


def intra_block_smoothness(phase: np.ndarray, block_size: int,
                           ddof: int = 1) -> float:
    """``R_intra(W)``: block variances averaged over all block slots.

    This is the "AvgVar" of the paper's Fig. 4.
    """
    return float(block_variances(phase, block_size, ddof=ddof).mean())


def intra_block_tensor(phase, block_size: int, ddof: int = 1) -> Tensor:
    """Differentiable ``R_intra(W)`` for the Eq. 8 training loss."""
    phase = as_tensor(phase)
    if phase.ndim != 2:
        raise ValueError(f"phase mask must be 2-D, got shape {phase.shape}")
    br, bc = _check_blocking(phase.shape, block_size)
    blocks = phase.reshape(br, block_size, bc, block_size)
    blocks = ops.transpose(blocks, (0, 2, 1, 3))
    blocks = blocks.reshape(br * bc, block_size * block_size)
    variances = F.variance(blocks, axis=1, ddof=ddof)
    return ops.mean(variances)
