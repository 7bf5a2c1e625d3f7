"""Differentiable 2-D Fourier transforms.

The DONN forward model (paper Sec. III-A) evaluates free-space diffraction as
``ifft2(fft2(field) * H)``.  Both transforms are linear, so their backward
passes are exact operator adjoints; which inverse corresponds to the adjoint
depends on the normalization convention:

==============  =========================
forward norm    adjoint
==============  =========================
``"backward"``  ``ifft2`` with ``"forward"``
``"ortho"``     ``ifft2`` with ``"ortho"``
``"forward"``   ``ifft2`` with ``"backward"``
==============  =========================

The identities are verified directly in the test suite via the inner-product
test ``<F x, y> == <x, F^H y>``.
"""

from __future__ import annotations

import numpy as np

from ..backend import dispatch as _backend
from .ops import _build
from .tensor import Tensor, as_tensor

__all__ = ["fft2", "ifft2"]

_ADJOINT_NORM = {"backward": "forward", "ortho": "ortho", "forward": "backward"}


def _check_norm(norm: str) -> str:
    if norm not in _ADJOINT_NORM:
        raise ValueError(f"unknown FFT norm {norm!r}; expected one of "
                         f"{sorted(_ADJOINT_NORM)}")
    return norm


def fft2(x, norm: str = "ortho") -> Tensor:
    """2-D FFT over the last two axes (differentiable, complex output)."""
    norm = _check_norm(norm)
    x = as_tensor(x)
    out = _backend.fft2(x.data, norm=norm)
    adjoint = _ADJOINT_NORM[norm]

    def vjp(g):
        return _backend.ifft2(np.asarray(g), norm=adjoint)

    return _build(out, [(x, vjp)])


def ifft2(x, norm: str = "ortho") -> Tensor:
    """2-D inverse FFT over the last two axes (differentiable)."""
    norm = _check_norm(norm)
    x = as_tensor(x)
    out = _backend.ifft2(x.data, norm=norm)
    adjoint = _ADJOINT_NORM[norm]

    def vjp(g):
        return _backend.fft2(np.asarray(g), norm=adjoint)

    return _build(out, [(x, vjp)])
