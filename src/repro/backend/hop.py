"""The one free-space propagation hop shared by training and serving.

Every Eq. 1 hop in the package — each of the inference engine's ``L + 1``
hops, the fused training op's forward, and that op's field adjoint — is
the same linear pass over a padded plane::

    spectrum = fft2(work) * h          (h prescaled by 1/side^2)
    out      = ifft2(spectrum)         (unscaled: norm="forward")

:func:`propagate_rows` is the only code that runs it, so the pruning
trick and the normalization convention live in exactly one place.

The transforms go through :mod:`repro.backend.dispatch` by module
attribute, so backend switches and instrumentation wrapped around
``dispatch.fft`` / ``dispatch.ifft`` see every call.
"""

from __future__ import annotations

import numpy as np

from . import dispatch as _fft

__all__ = ["propagate_rows"]


def propagate_rows(work: np.ndarray, h: np.ndarray, pad: int,
                   n: int) -> np.ndarray:
    """One pruned FFT -> ``h``-multiply -> IFFT pass; returns the ``n``
    interior rows ``(batch, n, side)`` of the propagated plane.

    ``work`` is a ``(batch, side, side)`` plane that must be zero
    outside rows ``pad:pad + n``; its interior rows are overwritten.
    ``h`` is a *prescaled* transfer function (the ortho scaling of both
    transforms folded in, see ``PropagationKernel.prescaled``) or its
    conjugate for the adjoint; it fixes the compute dtype.

    Each 2-D transform runs as two 1-D passes.  The forward row-axis
    pass visits only the nonzero interior rows (the zero border rows
    transform to zero for free), and the inverse row-axis pass produces
    only the interior rows, the only ones any caller keeps — at
    ``pad_factor=2`` a quarter of the FFT work is skipped with results
    identical to the full transforms.
    """
    rows = slice(pad, pad + n)
    work[:, rows, :] = _fft.fft(work[:, rows, :], axis=-1)
    spectrum = _fft.fft(work, axis=-2)
    np.multiply(spectrum, h, out=spectrum)
    tall = _fft.ifft(spectrum, axis=-2, norm="forward", overwrite_x=True)
    return _fft.ifft(tall[:, rows, :], axis=-1, norm="forward",
                     overwrite_x=True)
