"""The one free-space propagation hop shared by training and serving.

Every Eq. 1 hop in the package — each of the inference engine's ``L + 1``
hops, the fused training op's forward, and that op's field adjoint — is
the same linear pass over a padded plane::

    spectrum = fft2(plane) * h         (h prescaled by 1/side^2)
    out      = ifft2(spectrum)         (unscaled: norm="forward")

:func:`propagate_rows` is the only code that runs it, so the pruning
trick, the normalization convention, the cache blocking and the way
blocks are spread over the CPU budget live in exactly one place.

The transforms go through :mod:`repro.backend.dispatch` by module
attribute, so backend switches and instrumentation wrapped around
``dispatch.fft`` / ``dispatch.ifft`` see every call.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Iterator, Optional, Tuple

import numpy as np

from . import dispatch as _fft

__all__ = ["propagate_rows"]

#: Bytes of padded plane one block may fill.  One 400^2 complex128
#: plane (the paper's 200x200 geometry at pad_factor 2) fits in L2, so
#: the four 1-D passes over a block stay in cache instead of streaming
#: the whole padded batch through memory four times.
_BLOCK_BYTES = 4 << 20

#: ``(threads, pool)``: the helper threads every hop in the process
#: shares, built by the first hop that spreads its blocks and rebuilt
#: larger if the budget grows.  A replaced pool's idle threads exit
#: once no hop holds it.
_HELPERS: Optional[Tuple[int, ThreadPoolExecutor]] = None
_HELPERS_LOCK = threading.Lock()


def _forget_helpers() -> None:
    """In a forked child the parent's helper threads do not exist, so
    work queued on their pool would never run: start from scratch."""
    global _HELPERS, _HELPERS_LOCK
    _HELPERS = None
    _HELPERS_LOCK = threading.Lock()


os.register_at_fork(after_in_child=_forget_helpers)


def _helper_pool(threads: int) -> ThreadPoolExecutor:
    """The shared helper pool, with at least ``threads`` threads."""
    global _HELPERS
    with _HELPERS_LOCK:
        if _HELPERS is None or _HELPERS[0] < threads:
            _HELPERS = (threads, ThreadPoolExecutor(
                threads, thread_name_prefix="repro-hop"))
        return _HELPERS[1]


def _thread_budget() -> int:
    """Threads one hop may use: the FFT CPU budget, with a negative
    (scipy-style) count taken from the CPU total."""
    workers = _fft._resolve_workers(None)
    if workers < 0:
        workers += _fft._cpu_budget() + 1
    return max(1, workers)


def propagate_rows(rows: np.ndarray, h: np.ndarray,
                   pad: int) -> np.ndarray:
    """One pruned FFT -> ``h``-multiply -> IFFT pass over interior rows.

    ``rows`` is ``(batch, n, side)``: the ``n`` interior rows of each
    sample's padded plane, zero outside the aperture columns
    ``pad:pad + n``.  ``h`` is a *prescaled* ``(side, side)`` transfer
    function (the ortho scaling of both transforms folded in, see
    ``PropagationKernel.prescaled``) or its conjugate for the adjoint;
    it fixes the compute dtype.  Returns a new ``(batch, n, side)``
    array: the interior rows of the propagated planes.  ``rows`` is
    only read.

    The hop owns the padded plane.  It streams the batch through
    ``(block, side, side)`` planes of at most ``_BLOCK_BYTES`` (at least
    one sample), so a block's four 1-D passes run in place (where the
    backend honours ``overwrite_x``) out of cache; the border rows are
    re-zeroed per block.  The forward row-axis pass visits only the
    interior rows (the zero border rows transform to zero for free),
    and the inverse row-axis pass produces only the interior rows — at
    ``pad_factor=2`` a quarter of the FFT work is skipped with results
    identical to the full transforms.

    A batch of several blocks is spread over the FFT CPU budget: the
    calling thread and up to ``budget - 1`` shared helper threads claim
    blocks from one counter, each through a plane of its own with
    one-thread transforms, so the hop costs one hand-off instead of a
    thread barrier inside every transform, and a descheduled thread
    holds up no one.  The threads split one block's plane budget
    between them (still at least one sample per block), so a spread
    hop holds no more plane memory than a serial one.  A lone block
    (or a budget of one) runs on the calling thread, whose transforms
    keep the per-call thread count.  Every transform is per line and
    blocks do not interact, so the output depends on neither the block
    size nor the thread count.
    """
    batch, n, side = rows.shape
    block = max(1, _BLOCK_BYTES // (side * side * h.itemsize))
    out = np.empty((batch, n, side), dtype=h.dtype)
    threads = min(_thread_budget(), len(range(0, batch, block)))
    if threads > 1:
        # The threads share one block's worth of plane memory.
        block = max(1, block // threads)
    starts = iter(range(0, batch, block))  # the counter all threads claim
    if threads == 1:
        _run_blocks(rows, h, pad, block, starts, out, None)
        return out
    pool = _helper_pool(threads - 1)
    helpers = [pool.submit(_run_blocks, rows, h, pad, block, starts, out, 1)
               for _ in range(threads - 1)]
    try:
        _run_blocks(rows, h, pad, block, starts, out, 1)
    finally:
        # A helper still queued behind other hops finds nothing left to
        # claim: drop it instead of waiting for a thread to free up.
        for helper in helpers:
            if not helper.cancel():
                helper.result()
    return out


def _run_blocks(rows: np.ndarray, h: np.ndarray, pad: int, block: int,
                starts: Iterator[int], out: np.ndarray,
                workers: Optional[int]) -> None:
    """Propagate each block whose first sample ``starts`` yields into
    ``out``, through one padded plane this call owns."""
    batch, n, side = rows.shape
    interior = slice(pad, pad + n)
    plane = None
    for start in starts:
        stop = min(start + block, batch)
        if plane is None:
            plane = np.empty((min(block, batch), side, side), dtype=h.dtype)
        work = plane[:stop - start]
        work[:, :pad, :] = 0
        work[:, pad + n:, :] = 0
        work[:, interior, :] = _fft.fft(rows[start:stop], axis=-1,
                                        workers=workers)
        spectrum = _fft.fft(work, axis=-2, overwrite_x=True,
                            workers=workers)
        np.multiply(spectrum, h, out=spectrum)
        tall = _fft.ifft(spectrum, axis=-2, norm="forward",
                         overwrite_x=True, workers=workers)
        out[start:stop] = _fft.ifft(tall[:, interior, :], axis=-1,
                                    norm="forward", overwrite_x=True,
                                    workers=workers)
