"""The one free-space propagation hop shared by training and serving.

Every Eq. 1 hop in the package — each of the inference engine's ``L + 1``
hops, the fused training op's forward, and that op's field adjoint — is
the same linear pass over a padded plane::

    spectrum = fft2(plane) * h         (h prescaled by 1/side^2)
    out      = ifft2(spectrum)         (unscaled: norm="forward")

:func:`propagate_rows` is the only code that runs it, so the pruning
trick, the normalization convention and the cache blocking live in
exactly one place.

The transforms go through :mod:`repro.backend.dispatch` by module
attribute, so backend switches and instrumentation wrapped around
``dispatch.fft`` / ``dispatch.ifft`` see every call.
"""

from __future__ import annotations

import numpy as np

from . import dispatch as _fft

__all__ = ["propagate_rows"]

#: Bytes of padded plane one block may fill.  One 400^2 complex128
#: plane (the paper's 200x200 geometry at pad_factor 2) fits in L2, so
#: the four 1-D passes over a block stay in cache instead of streaming
#: the whole padded batch through memory four times.
_BLOCK_BYTES = 4 << 20


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

    The hop owns the padded plane.  It streams the batch through one
    ``(block, side, side)`` plane of at most ``_BLOCK_BYTES`` (at least
    one sample), so a block's four 1-D passes run in place (where the
    backend honours ``overwrite_x``) out of cache; the border rows are
    re-zeroed per block.  The forward row-axis pass visits only the
    interior rows (the zero border rows transform to zero for free),
    and the inverse row-axis pass produces only the interior rows — at
    ``pad_factor=2`` a quarter of the FFT work is skipped with results
    identical to the full transforms.  Every transform is per line, so
    the output does not depend on the block size.
    """
    batch, n, side = rows.shape
    block = max(1, _BLOCK_BYTES // (side * side * h.itemsize))
    interior = slice(pad, pad + n)
    plane = np.empty((min(block, batch), side, side), dtype=h.dtype)
    out = np.empty((batch, n, side), dtype=h.dtype)
    for start in range(0, batch, block):
        stop = min(start + block, batch)
        work = plane[:stop - start]
        work[:, :pad, :] = 0
        work[:, pad + n:, :] = 0
        work[:, interior, :] = _fft.fft(rows[start:stop], axis=-1)
        spectrum = _fft.fft(work, axis=-2, overwrite_x=True)
        np.multiply(spectrum, h, out=spectrum)
        tall = _fft.ifft(spectrum, axis=-2, norm="forward",
                         overwrite_x=True)
        out[start:stop] = _fft.ifft(tall[:, interior, :], axis=-1,
                                    norm="forward", overwrite_x=True)
    return out
