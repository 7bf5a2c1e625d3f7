"""Sparsification methods and the SLR optimizer (Sec. III-C).

* :func:`block_sparsity_mask` — the paper's physics-aware pattern;
* :func:`unstructured_sparsity_mask`, :func:`bank_balanced_sparsity_mask`
  — the Fig. 3 baselines;
* :class:`SLRSparsifier` — Surrogate Lagrangian Relaxation training
  (Eq. 6-7) that drives weights toward a block-sparse solution.
"""

from .blocks import block_l2_norms, check_blocking, expand_block_mask
from .methods import (
    bank_balanced_sparsity_mask,
    block_sparsity_mask,
    unstructured_sparsity_mask,
)
from .slr import SLRConfig, SLRResult, SLRSparsifier, slr_stepsize_alpha

__all__ = [
    "block_l2_norms",
    "check_blocking",
    "expand_block_mask",
    "block_sparsity_mask",
    "unstructured_sparsity_mask",
    "bank_balanced_sparsity_mask",
    "SLRConfig",
    "SLRResult",
    "SLRSparsifier",
    "slr_stepsize_alpha",
]
