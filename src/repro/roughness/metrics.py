"""Roughness modeling (paper Sec. III-B, Eqs. 3-4).

Per-pixel roughness is computed from the differences to the k in {4, 8}
neighboring pixels under one-pixel zero padding; the mask score sums the
per-pixel values.

Formula calibration
-------------------
Equation 3 writes ``R(p) = (1/k) * sum_n ||p_n - p||_2``.  Read literally
(absolute differences, summed) this does **not** reproduce the worked
example printed in the paper's Fig. 3 (roughness 23.78 / 25.80 / 25.88 on a
given 6 x 6 matrix at sparsity 0.33) — it overshoots ~4.5x and inverts the
non-structured vs bank-balanced ordering.  The variant that *does* match
all three printed values (to < 0.5 %, i.e. to the figure's display
precision) and their ordering is the L2 norm of the neighbor-difference
vector::

    R(p)  = || (p_n - p)_{n in N_k(p)} ||_2 / k
    R(W)  = (1/2) * sum_p R(p)

with 8 neighbors and zero padding.  The global 1/2 compensates the double
counting of each neighbor pair in the sum over pixels.  The calibration is
locked in by ``tests/roughness/test_paper_figures.py``.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..autodiff import Tensor, as_tensor
from ..autodiff import fused, ops
from ..autodiff.ops import _build

__all__ = [
    "neighbor_offsets",
    "roughness_map",
    "roughness",
    "roughness_tensor",
    "overall_roughness",
]


def neighbor_offsets(k: int) -> Tuple[Tuple[int, int], ...]:
    """The ``(dy, dx)`` offsets of the 4- or 8-neighborhood."""
    four = ((-1, 0), (1, 0), (0, -1), (0, 1))
    if k == 4:
        return four
    if k == 8:
        return four + ((-1, -1), (-1, 1), (1, -1), (1, 1))
    raise ValueError(f"k must be 4 or 8, got {k}")


def _neighbor_diff_stack(phase: np.ndarray, k: int) -> np.ndarray:
    """``(k, n, m)`` stack of ``p_neighbor - p`` with zero padding."""
    n, m = phase.shape
    padded = np.pad(phase, 1)
    return np.stack([
        padded[1 + dy:1 + dy + n, 1 + dx:1 + dx + m] - phase
        for dy, dx in neighbor_offsets(k)
    ])


def roughness_map(phase: np.ndarray, k: int = 8) -> np.ndarray:
    """Per-pixel roughness ``R(p)`` (Eq. 3) as an ``(n, m)`` array."""
    phase = np.asarray(phase, dtype=np.float64)
    if phase.ndim != 2:
        raise ValueError(f"phase mask must be 2-D, got shape {phase.shape}")
    diffs = _neighbor_diff_stack(phase, k)
    return np.sqrt((diffs ** 2).sum(axis=0)) / k


def roughness(phase: np.ndarray, k: int = 8) -> float:
    """Whole-mask roughness ``R(W)`` (Eq. 4, calibrated form)."""
    return float(roughness_map(phase, k).sum() / 2.0)


#: Default ``eps`` of the differentiable roughness (see :func:`roughness_tensor`).
_EPS = 1e-12


def roughness_tensor(phase, k: int = 8, eps: float = _EPS) -> Tensor:
    """Differentiable ``R(W)`` for training (Eq. 5 regularization term).

    ``eps`` stabilizes the square root's gradient on perfectly flat
    neighborhoods (e.g. inside zeroed sparsity blocks), where the exact
    subgradient is unbounded.

    Like :func:`repro.autodiff.fused.diffmod`, the forward runs as one
    NumPy pass recording a single graph node with a hand-written
    backward; the composed per-op graph (``pad2d``, ``k`` shift/diff/
    square branches, ``sqrt``, ``sum``) is the test-only oracle reached
    through :class:`~repro.autodiff.fused.fused_disabled`.  The backward
    replays the composed graph's accumulation order, so loss and
    gradient are bit-identical to it whenever ``phase`` has no other
    consumer in the graph (see :func:`_roughness_parts`).
    """
    phase = as_tensor(phase)
    if phase.ndim != 2:
        raise ValueError(f"phase mask must be 2-D, got shape {phase.shape}")
    if fused.fused_enabled():
        q, vjp = _roughness_parts(phase.data, k, eps)
        return _build(np.sum(q * (1.0 / k)) * 0.5, [(phase, vjp)])
    n, m = phase.shape
    padded = ops.pad2d(phase, 1)
    total = None
    for dy, dx in neighbor_offsets(k):
        shifted = padded[1 + dy:1 + dy + n, 1 + dx:1 + dx + m]
        diff = shifted - phase
        sq = diff * diff
        total = sq if total is None else total + sq
    per_pixel = ops.sqrt(total + eps) * (1.0 / k)
    return ops.sum(per_pixel) * 0.5


def _roughness_parts(x: np.ndarray, k: int, eps: float):
    """The NumPy core of the fused roughness over the last two axes.

    Returns ``(q, vjp)``: the per-pixel ``q = sqrt(sum_i d_i^2 + eps)``
    with ``d_i = shift_i(pad(x)) - x``, and the VJP of ``R = sum(q / k)
    / 2`` taken per ``(n, m)`` plane.  Leading axes stack independent
    masks, so ``x`` of shape ``(L, n, m)`` gives each mask's ``R`` as
    ``np.sum((q * (1/k))[l]) * 0.5``.  The VJP runs, in the order the
    composed graph's topological walk (``diff_0, shift_0, ...,
    diff_{k-1}, shift_{k-1}, pad, x``) accumulates it:

    1. ``g_a = ((g * 0.5) * (1/k)) * (0.5 / q)``;
    2. ``gd_i = g_a * d_i + g_a * d_i`` (the square's two edges);
    3. the ``gd_i`` are added, in order, into one zero padded plane;
    4. ``grad_x = ((-gd_0 - gd_1) - ... - gd_{k-1}) + crop(plane)``.

    When ``x`` also feeds other nodes, the composed graph interleaves
    their contributions into that sum, so the gradient then agrees with
    the composed one to rounding only.
    """
    n, m = x.shape[-2:]
    padded = np.zeros(x.shape[:-2] + (n + 2, m + 2), dtype=x.dtype)
    padded[..., 1:-1, 1:-1] = x
    windows = [(Ellipsis, slice(1 + dy, 1 + dy + n),
                slice(1 + dx, 1 + dx + m))
               for dy, dx in neighbor_offsets(k)]
    diffs = [padded[window] - x for window in windows]
    total = diffs[0] * diffs[0]
    for diff in diffs[1:]:
        total = total + diff * diff
    q = np.sqrt(total + eps)

    def vjp(g):
        g_a = ((g * 0.5) * (1.0 / k)) * (0.5 / q)
        plane = np.zeros(padded.shape, dtype=g_a.dtype)
        grad = None
        for window, diff in zip(windows, diffs):
            half = g_a * diff
            gd = half + half
            plane[window] += gd
            grad = -gd if grad is None else grad - gd
        return grad + plane[..., 1:-1, 1:-1]

    return q, vjp


def overall_roughness(phases: Sequence[np.ndarray], k: int = 8) -> float:
    """System score ``R_overall``: the average of ``R(W)`` over all layers
    (Sec. IV-B)."""
    phases = list(phases)
    if not phases:
        raise ValueError("need at least one phase mask")
    return float(np.mean([roughness(p, k) for p in phases]))
