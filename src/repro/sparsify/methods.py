"""The three sparsification patterns compared in the paper's Fig. 3.

All functions return a binary **keep-mask** (1 = weight survives, 0 =
weight forced to zero) with the requested fraction of weights zeroed:

* :func:`block_sparsity_mask` — partition into equal square blocks, zero
  whole blocks with the smallest L2 norms (the paper's physics-aware
  choice: it clusters surviving pixels and leaves empty space between
  active regions, minimizing interpixel interaction);
* :func:`unstructured_sparsity_mask` — magnitude pruning [23];
* :func:`bank_balanced_sparsity_mask` — rows split into equal banks,
  identical sparsity enforced within every bank [26, 27].
"""

from __future__ import annotations

import numpy as np

from .blocks import block_l2_norms, check_blocking, expand_block_mask

__all__ = [
    "block_sparsity_mask",
    "unstructured_sparsity_mask",
    "bank_balanced_sparsity_mask",
]


def _check_ratio(ratio: float) -> float:
    if not 0.0 <= ratio < 1.0:
        raise ValueError(f"sparsity ratio must be in [0, 1), got {ratio}")
    return float(ratio)


def block_sparsity_mask(
    weights: np.ndarray, ratio: float, block_size: int
) -> np.ndarray:
    """Zero the ``ratio`` fraction of blocks with the smallest L2 norms.

    The number of zeroed blocks is ``floor(ratio * num_blocks)``; ties are
    broken by position (row-major), making the mask deterministic.
    """
    ratio = _check_ratio(ratio)
    weights = np.asarray(weights, dtype=np.float64)
    norms = block_l2_norms(weights, block_size)
    num_blocks = norms.size
    num_zero = int(ratio * num_blocks)
    block_mask = np.ones(num_blocks)
    if num_zero:
        order = np.argsort(norms.ravel(), kind="stable")
        block_mask[order[:num_zero]] = 0.0
    return expand_block_mask(block_mask.reshape(norms.shape), block_size)


def unstructured_sparsity_mask(weights: np.ndarray, ratio: float) -> np.ndarray:
    """Zero the ``ratio`` fraction of weights with smallest magnitudes."""
    ratio = _check_ratio(ratio)
    weights = np.asarray(weights, dtype=np.float64)
    num_zero = int(ratio * weights.size)
    mask = np.ones(weights.size)
    if num_zero:
        order = np.argsort(np.abs(weights).ravel(), kind="stable")
        mask[order[:num_zero]] = 0.0
    return mask.reshape(weights.shape)


def bank_balanced_sparsity_mask(
    weights: np.ndarray, ratio: float, bank_size: int
) -> np.ndarray:
    """Zero the smallest ``ratio`` fraction *within each row bank*.

    Every row is split into contiguous banks of ``bank_size`` columns and
    ``floor(ratio * bank_size)`` weights are zeroed per bank, giving the
    regular distribution bank-balanced sparsity targets.
    """
    ratio = _check_ratio(ratio)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {weights.shape}")
    rows, cols = weights.shape
    if cols % bank_size:
        raise ValueError(
            f"row length {cols} is not divisible into banks of {bank_size}"
        )
    per_bank_zero = int(ratio * bank_size)
    mask = np.ones_like(weights)
    if per_bank_zero:
        banks = np.abs(weights).reshape(rows, cols // bank_size, bank_size)
        order = np.argsort(banks, axis=-1, kind="stable")
        kill = order[..., :per_bank_zero]
        bank_mask = np.ones_like(banks)
        np.put_along_axis(bank_mask, kill, 0.0, axis=-1)
        mask = bank_mask.reshape(rows, cols)
    return mask
