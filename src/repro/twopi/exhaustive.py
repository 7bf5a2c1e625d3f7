"""Reference solvers for the 2-pi selection problem.

These provide ground truth and a strong classical baseline against which
the Gumbel-Softmax optimizer is validated:

* :func:`brute_force_offsets` — exact minimum by enumerating all 2^m
  selections (tiny masks only);
* :func:`greedy_offsets` — coordinate descent flipping one pixel at a
  time while it improves; never worse than its starting point.

The greedy polish is the raster walk of the original pixel-by-pixel
code, replayed with vectorized scores: each sweep scores every pixel's
flip at once as the walk would see it if every earlier pixel had been
rejected (earlier neighbours at their drifted post-rejection value, see
:func:`greedy_offsets`), then walks only the accepted pixels and the
later pixels within two of an accepted flip, which it rescores on the
live array.  Offsets, roughness and sweep counts are bit-identical to
the scalar walk (``tests/twopi/test_greedy_replay.py`` keeps it as the
oracle).
"""

from __future__ import annotations

import heapq
from typing import Optional, Tuple

import numpy as np

from ..optics.constants import TWO_PI
from ..roughness.metrics import neighbor_offsets, roughness

__all__ = ["roughness_batch", "brute_force_offsets", "greedy_offsets"]


def roughness_batch(masks: np.ndarray, k: int = 8) -> np.ndarray:
    """Vectorized Eq. 4 roughness of a ``(batch, n, m)`` stack of masks."""
    masks = np.asarray(masks, dtype=np.float64)
    if masks.ndim != 3:
        raise ValueError(f"expected (batch, n, m) stack, got {masks.shape}")
    _, n, m = masks.shape
    padded = np.pad(masks, ((0, 0), (1, 1), (1, 1)))
    total = np.zeros_like(masks)
    for dy, dx in neighbor_offsets(k):
        shifted = padded[:, 1 + dy:1 + dy + n, 1 + dx:1 + dx + m]
        diff = shifted - masks
        total += diff * diff
    per_pixel = np.sqrt(total) / k
    return per_pixel.sum(axis=(1, 2)) / 2.0


def brute_force_offsets(
    phase: np.ndarray, k: int = 8, limit: int = 16,
    chunk_size: int = 65536,
) -> Tuple[np.ndarray, float]:
    """Exact optimal {0, 2 pi} add-on mask by full enumeration.

    Only feasible for masks with at most ``limit`` pixels (2^m candidates
    are evaluated, vectorized).  Candidates are streamed in chunks of
    ``chunk_size`` — the same memory-bounding pattern as the inference
    engine's ``max_batch`` — so raising ``limit`` costs time, not peak
    memory.  Returns ``(offsets, best_roughness)``.
    """
    phase = np.asarray(phase, dtype=np.float64)
    pixels = phase.size
    if pixels > limit:
        raise ValueError(
            f"brute force limited to {limit} pixels, got {pixels}"
        )
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    count = 1 << pixels
    pixel_index = np.arange(pixels)[None, :]
    flat = phase.ravel()[None, :]
    best_score = np.inf
    best_bits: Optional[np.ndarray] = None
    for start in range(0, count, chunk_size):
        stop = min(start + chunk_size, count)
        bits = (np.arange(start, stop)[:, None] >> pixel_index) & 1
        candidates = flat + TWO_PI * bits
        scores = roughness_batch(
            candidates.reshape(stop - start, *phase.shape), k=k
        )
        winner = int(np.argmin(scores))
        if scores[winner] < best_score:
            best_score = float(scores[winner])
            best_bits = bits[winner]
    offsets = (TWO_PI * best_bits).reshape(phase.shape)
    return offsets, best_score


def _local_roughness(padded: np.ndarray, row: int, col: int, k: int) -> float:
    """Per-pixel roughness R(p) read off a 1-padded total-phase array."""
    center = padded[row + 1, col + 1]
    total = 0.0
    for dy, dx in neighbor_offsets(k):
        diff = padded[row + 1 + dy, col + 1 + dx] - center
        total += diff * diff
    return np.sqrt(total) / k


def _neighborhood_score(padded: np.ndarray, row: int, col: int, k: int,
                        shape: Tuple[int, int]) -> float:
    """Sum of R(q) over the pixel and its in-bounds neighbors."""
    score = _local_roughness(padded, row, col, k)
    for dy, dx in neighbor_offsets(k):
        r, c = row + dy, col + dx
        if 0 <= r < shape[0] and 0 <= c < shape[1]:
            score += _local_roughness(padded, r, c, k)
    return score


def _sweep_scores(
    padded: np.ndarray, offsets: np.ndarray, k: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every pixel's ``before``/``after`` flip score at once, as the raster
    walk sees it when every earlier pixel was visited and rejected.

    Returns ``(before, after, lifted, rejected)``: the two ``(n, m)``
    score arrays, each pixel's value with its flip applied, and its
    value after a rejected flip was undone.  Neighbours visited earlier
    read ``rejected``, later ones (and the centre of ``before``) the
    live value, and the centre of ``after`` reads ``lifted``.  Each
    score is summed in :func:`_neighborhood_score`'s operation order,
    with ``0.0`` for an out-of-bounds neighbour, so every element is
    bit-identical to the scalar code on that array.
    """
    n, m = offsets.shape
    live = padded[1:-1, 1:-1]
    step = np.where(offsets != 0, 0.0, TWO_PI) - offsets
    lifted = live + step
    rejected = lifted - step
    sources = {False: np.pad(live, 2), True: np.pad(rejected, 2)}
    offs = neighbor_offsets(k)
    rows = np.arange(n)[:, None]
    cols = np.arange(m)[None, :]
    inside = {
        (dy, dx): (0 <= rows + dy) & (rows + dy < n)
        & (0 <= cols + dx) & (cols + dx < m)
        for dy, dx in offs
    }

    def score(center: np.ndarray) -> np.ndarray:
        def value(dy: int, dx: int) -> np.ndarray:
            if dy == 0 and dx == 0:
                return center
            # Raster order visits rows above, then pixels to the left.
            source = sources[dy < 0 or (dy == 0 and dx < 0)]
            return source[2 + dy:2 + dy + n, 2 + dx:2 + dx + m]

        def local(y: int, x: int) -> np.ndarray:
            mid = value(y, x)
            total = None
            for dy, dx in offs:
                diff = value(y + dy, x + dx) - mid
                sq = diff * diff
                total = sq if total is None else total + sq
            return np.sqrt(total) / k

        result = local(0, 0)
        for dy, dx in offs:
            result = result + np.where(inside[dy, dx], local(dy, dx), 0.0)
        return result

    return score(live), score(lifted), lifted, rejected


def _copy_span(target: np.ndarray, source: np.ndarray, start: int,
               stop: int) -> None:
    """Copy raster indices ``[start, stop)`` of ``source`` into
    ``target`` (both ``(n, m)``)."""
    if start >= stop:
        return
    m = target.shape[1]
    r0, c0 = divmod(start, m)
    r1, c1 = divmod(stop, m)
    if r0 == r1:
        target[r0, c0:c1] = source[r0, c0:c1]
        return
    target[r0, c0:] = source[r0, c0:]
    target[r0 + 1:r1] = source[r0 + 1:r1]
    if c1:
        target[r1, :c1] = source[r1, :c1]


def _pixel_sweep(padded: np.ndarray, offsets: np.ndarray, k: int) -> bool:
    """One raster sweep of single-pixel flips; True when a flip landed.

    Replays the scalar walk exactly.  :func:`_sweep_scores` decides
    every pixel up front; the walk then visits only pixels whose
    precomputed flip is accepted or that are *dirty* — later pixels
    within Chebyshev distance 2 of an accepted flip, whose scores the
    up-front pass could not see.  Dirty pixels are rescored on the live
    array by :func:`_neighborhood_score`.  Skipped pixels are rejections
    and are written at their drifted ``rejected`` value.
    """
    n, m = offsets.shape
    before, after, lifted, rejected = _sweep_scores(padded, offsets, k)
    live = padded[1:-1, 1:-1]
    queued = (after + 1e-12 < before).ravel()
    heap = np.flatnonzero(queued).tolist()  # sorted, hence a heap
    dirty = np.zeros(n * m, dtype=bool)
    written = 0
    improved = False
    while heap:
        index = heapq.heappop(heap)
        row, col = divmod(index, m)
        _copy_span(live, rejected, written, index)
        written = index + 1
        current = offsets[row, col]
        flipped = 0.0 if current else TWO_PI
        if dirty[index]:
            before_score = _neighborhood_score(padded, row, col, k, (n, m))
            padded[row + 1, col + 1] += flipped - current
            after_score = _neighborhood_score(padded, row, col, k, (n, m))
            if not after_score + 1e-12 < before_score:
                padded[row + 1, col + 1] += current - flipped
                continue
        else:
            live[row, col] = lifted[row, col]
        offsets[row, col] = flipped
        improved = True
        for r in range(row, min(row + 3, n)):
            first = col + 1 if r == row else max(col - 2, 0)
            for c in range(first, min(col + 3, m)):
                later = r * m + c
                dirty[later] = True
                if not queued[later]:
                    queued[later] = True
                    heapq.heappush(heap, later)
    _copy_span(live, rejected, written, n * m)
    return improved


def _greedy(
    phase: np.ndarray,
    k: int = 8,
    max_sweeps: int = 20,
    init: Optional[np.ndarray] = None,
    block_size: Optional[int] = None,
) -> Tuple[np.ndarray, float, int]:
    """:func:`greedy_offsets` plus the number of sweeps it ran."""
    phase = np.asarray(phase, dtype=np.float64)
    if phase.ndim != 2:
        raise ValueError(f"phase mask must be 2-D, got shape {phase.shape}")
    offsets = np.zeros_like(phase) if init is None else np.array(
        init, dtype=np.float64, copy=True)
    if offsets.shape != phase.shape:
        raise ValueError("init offsets shape mismatch")
    if block_size is not None and (
        block_size < 1 or phase.shape[0] % block_size
        or phase.shape[1] % block_size
    ):
        raise ValueError(
            f"block size {block_size} does not tile mask shape {phase.shape}"
        )
    shape = phase.shape
    padded = np.pad(phase + offsets, 1)

    def block_pass() -> bool:
        improved = False
        current_total = roughness(padded[1:-1, 1:-1], k=k)
        for top in range(0, shape[0], block_size):
            for left in range(0, shape[1], block_size):
                window = (slice(top, top + block_size),
                          slice(left, left + block_size))
                trial = offsets.copy()
                trial[window] = np.where(trial[window] > 0, 0.0, TWO_PI)
                candidate = roughness(phase + trial, k=k)
                if candidate + 1e-12 < current_total:
                    offsets[window] = trial[window]
                    padded[1:-1, 1:-1] = phase + offsets
                    current_total = candidate
                    improved = True
        return improved

    sweeps = 0
    for _ in range(max_sweeps):
        sweeps += 1
        improved = False
        if block_size is not None:
            improved |= block_pass()
        improved |= _pixel_sweep(padded, offsets, k)
        if not improved:
            break
    return offsets, roughness(phase + offsets, k=k), sweeps


def greedy_offsets(
    phase: np.ndarray,
    k: int = 8,
    max_sweeps: int = 20,
    init: Optional[np.ndarray] = None,
    block_size: Optional[int] = None,
) -> Tuple[np.ndarray, float]:
    """Coordinate-descent 2-pi assignment.

    Sweeps the mask repeatedly in raster order, flipping a pixel's
    add-on between 0 and 2 pi whenever the flip strictly reduces total
    roughness (evaluated locally — a flip only changes R at the pixel
    and its neighbors).  Terminates at a local optimum or after
    ``max_sweeps``.

    ``block_size`` additionally enables whole-block flip moves on the
    given grid.  Single-pixel moves cannot lift a zeroed sparsity block
    out of its local minimum (flipping one interior pixel creates eight
    2-pi steps against its still-zero neighbors), so block moves are
    essential after block sparsification.

    Each sweep scores every pixel's flip at once and replays the raster
    walk exactly (see :func:`_pixel_sweep`).  The walk applies a trial
    flip to the live total phase and undoes a rejected one with
    ``+= current - flipped``, which is not exact: a rejected flip from
    offset 0 leaves the pixel at ``fl(fl(x + 2 pi) - 2 pi)``, which
    differs from ``x`` in the last bit for most phases.  Later pixels
    score against that drifted value, and the replay reproduces it, so
    offsets and roughness are bit-identical to the pixel-by-pixel walk.

    Returns ``(offsets, final_roughness)``; never worse than the start.
    """
    offsets, score, _ = _greedy(phase, k=k, max_sweeps=max_sweeps,
                                init=init, block_size=block_size)
    return offsets, score
