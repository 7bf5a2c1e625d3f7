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

#: Bytes of padded plane one block may fill, so the four 1-D passes
#: over a block revisit cached lines instead of streaming the whole
#: padded batch through memory four times.  A block holds at least one
#: sample: one 400^2 complex128 plane (the paper's 200x200 geometry at
#: pad_factor 2) is 2.56 MB, more than the reference box's 2 MiB L2 per
#: core, so at that size a block is a lone plane.
_BLOCK_BYTES = 4 << 20

#: Fewest padded-plane bytes worth a thread of their own.  Measured on
#: the 2-CPU reference box (one- vs two-thread hops, complex128,
#: pad_factor 2): two threads lost up to 2x with 200 KiB of planes or
#: less (n=20 with 2-8 samples, n=40 with 2), broke even at 400-600 KiB
#: (n=20 with 16 or 25 samples, n=40 with 4) and won from 800 KiB
#: (n=40 with 8 samples; a 25-sample n=40 hop, 2.5 MB of planes, took
#: 1.7 instead of 2.7 ms).
_THREAD_MIN_BYTES = 256 << 10

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


def propagate_rows(fields: np.ndarray, h: np.ndarray,
                   pad: int) -> np.ndarray:
    """One pruned FFT -> ``h``-multiply -> IFFT pass over aperture fields.

    ``fields`` is ``(batch, n, n)``: each sample's field on the
    aperture, which sits at rows and columns ``pad:pad + n`` of a
    zero-padded ``(side, side)`` plane.  ``h`` is a *prescaled*
    ``(side, side)`` transfer function (the ortho scaling of both
    transforms folded in, see ``PropagationKernel.prescaled``) or its
    conjugate for the adjoint; it fixes the compute dtype.  Returns a
    new ``(batch, n, n)`` array: the propagated planes cropped to the
    aperture.  ``fields`` is only read.

    The hop owns the padded plane.  It streams the batch through
    ``(block, side, side)`` planes of at most ``_BLOCK_BYTES`` (at least
    one sample), embedding each block's fields and cropping its output
    there, so a block's four 1-D passes run in place (where the backend
    honours ``overwrite_x``) over cached lines.  The forward row-axis
    pass visits only the ``n`` aperture rows (the zero border rows
    transform to zero for free), and the inverse row-axis pass produces
    only those rows — at ``pad_factor=2`` a quarter of the FFT work is
    skipped with results identical to the full transforms.

    A batch with at least ``2 * _THREAD_MIN_BYTES`` of padded planes is
    spread over the FFT CPU budget, one thread per ``_THREAD_MIN_BYTES``
    at most: the calling thread and shared helper threads claim blocks
    from one counter, each through a plane of its own with one-thread
    transforms, so the hop costs one hand-off instead of a thread
    barrier inside every transform, and a descheduled thread holds up
    no one.  A spread block holds at most ``ceil(batch / threads)``
    samples and a thread's share of ``_BLOCK_BYTES`` (still at least
    one sample), so a spread hop holds no more plane memory than a
    serial one.  A smaller batch (a lone sample, say) or a budget of
    one runs on the calling thread, whose transforms keep the per-call
    thread count.  Every transform is per line and blocks do not
    interact, so the output depends on neither the block size nor the
    thread count.
    """
    batch, n = fields.shape[:2]
    plane = h.size * h.itemsize
    out = np.empty((batch, n, n), dtype=h.dtype)
    threads = max(1, min(_thread_budget(), batch,
                         batch * plane // _THREAD_MIN_BYTES))
    block = max(1, min(-(-batch // threads),
                       _BLOCK_BYTES // threads // plane))
    threads = min(threads, -(-batch // block))  # no thread without a block
    starts = iter(range(0, batch, block))  # the counter all threads claim
    if threads == 1:
        _run_blocks(fields, h, pad, block, starts, out, None)
        return out
    pool = _helper_pool(threads - 1)
    helpers = [
        pool.submit(_run_blocks, fields, h, pad, block, starts, out, 1)
        for _ in range(threads - 1)
    ]
    try:
        _run_blocks(fields, h, pad, block, starts, out, 1)
    finally:
        # A helper still queued behind other hops finds nothing left to
        # claim: drop it instead of waiting for a thread to free up.
        for helper in helpers:
            if not helper.cancel():
                helper.result()
    return out


def _run_blocks(fields: np.ndarray, h: np.ndarray, pad: int, block: int,
                starts: Iterator[int], out: np.ndarray,
                workers: Optional[int]) -> None:
    """Propagate each block whose first sample ``starts`` yields into
    ``out``, through one padded plane this call owns."""
    batch, n = fields.shape[:2]
    side = h.shape[-1]
    aperture = slice(pad, pad + n)
    plane = None
    for start in starts:
        stop = min(start + block, batch)
        if plane is None:
            plane = np.empty((min(block, batch), side, side), dtype=h.dtype)
        work = plane[:stop - start]
        rows = work[:, aperture, :]
        work[:, :pad, :] = 0
        work[:, pad + n:, :] = 0
        rows[:, :, :pad] = 0
        rows[:, :, pad + n:] = 0
        rows[:, :, aperture] = fields[start:stop]
        _land(rows, _fft.fft(rows, axis=-1, overwrite_x=True,
                             workers=workers))
        spectrum = _fft.fft(work, axis=-2, overwrite_x=True,
                            workers=workers)
        np.multiply(spectrum, h, out=spectrum)
        tall = _fft.ifft(spectrum, axis=-2, norm="forward",
                         overwrite_x=True, workers=workers)
        out[start:stop] = _fft.ifft(tall[:, aperture, :], axis=-1,
                                    norm="forward", overwrite_x=True,
                                    workers=workers)[:, :, aperture]


def _land(target: np.ndarray, result: np.ndarray) -> None:
    """Make ``target`` hold ``result``, a transform of it.  scipy writes
    an ``overwrite_x`` transform into its input, so only a backend that
    returns a fresh array (the numpy fallback) pays for a copy."""
    if not np.shares_memory(result, target):
        target[...] = result
