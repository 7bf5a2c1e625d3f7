"""Fused training fast path: the DiffMod chain as one custom autodiff op.

The composed forward of a :class:`~repro.donn.layers.DiffractiveLayer`
records ~10 graph nodes per layer per batch::

    pad -> fft2 -> H-mul -> ifft2 -> crop -> sigmoid -> scale
        -> make_complex -> exp -> mul

Each node allocates its output and a vjp closure, and the crop's backward
scatters with ``np.add.at`` — none of which is necessary.  The propagation
``P = crop . ifft2 . (H .) . fft2 . pad`` is linear, so its adjoint is the
same two FFTs around a ``conj(H)`` multiply, and the phase vjp is a
closed-form elementwise expression of intermediates the forward already
produced.  :func:`diffmod` therefore computes the whole chain in one NumPy
pass and records a *single* graph node with a hand-derived backward:

* field path — ``out = P(field) * W`` with ``P`` linear and ``W = exp(i
  phi)`` constant in ``field``, so ``grad_field = P^H(g * conj(W))``
  (two FFTs, the propagation adjoint);
* phase path — ``out = P * exp(i phi)`` is holomorphic in ``phi`` with
  ``d out / d phi = i * out``, so under the engine's gradient convention
  ``dL/dphi = Im(conj(out) * g)`` summed over the batch, then chained
  through the (optional) frozen sparsity mask and the sigmoid
  reparametrization ``phi = 2 pi * s(w)`` (factor ``2 pi * s * (1 - s)``).
  Both factors reuse cached forward intermediates — backward adds exactly
  two FFTs and zero graph bookkeeping.

Both passes are :func:`repro.backend.hop.propagate_rows`, the hop the
inference engine runs, over the shared cached kernel (per-hop ortho
scaling folded into ``H`` once); the hop embeds each field in its padded
plane and crops the result, so the op holds no padded buffer.

The fast path is what :class:`~repro.optics.propagation.Propagator` and
:class:`~repro.donn.layers.DiffractiveLayer` always run.  The composed
per-op graph is kept as a reference that only the equivalence tests
reach, through the :class:`fused_disabled` context manager
(``tests/autodiff/test_fused.py``).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..backend import get_precision
from ..backend import hop as _hop
from .ops import _build
from .tensor import Tensor, as_tensor

__all__ = [
    "diffmod",
    "propagate",
    "fused_enabled",
    "fused_disabled",
]

_TWO_PI = 2.0 * np.pi
_PARAMETRIZATIONS = ("sigmoid", "direct")

#: False only inside :class:`fused_disabled`.
_ENABLED = True


def fused_enabled() -> bool:
    """Whether layers/propagators run the fused single-node fast path."""
    return _ENABLED


class fused_disabled:
    """Context manager that runs the composed per-op reference graph
    (the equivalence tests' oracle)."""

    def __enter__(self) -> "fused_disabled":
        global _ENABLED
        self._previous = _ENABLED
        _ENABLED = False
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        global _ENABLED
        _ENABLED = self._previous


# ----------------------------------------------------------------------
# Shared prescaled kernels
# ----------------------------------------------------------------------
def _prescaled(kernel) -> Tuple[np.ndarray, np.ndarray]:
    """``(H/side^2, conj(H)/side^2)`` at the active compute precision.

    Both arrays are computed once per cached kernel and shared with
    every other consumer (see ``PropagationKernel.prescaled``); the
    per-hop ortho scalings are folded in so the hot loop runs unscaled
    DFT passes, exactly like the inference engine.  Under a single
    precision policy the shared complex64 kernel variant is fetched
    through the cache (one downcast per geometry, process-wide).
    """
    cdtype = get_precision().complex_dtype
    if kernel.dtype != cdtype:
        from ..runtime.kernel_cache import kernel_for_dtype

        kernel = kernel_for_dtype(kernel, cdtype)
    return kernel.prescaled(), kernel.prescaled_conj()


def _check_field(field: Tensor, n: int) -> None:
    if field.shape[-1] != n or field.shape[-2] != n:
        raise ValueError(
            f"field shape {field.shape} does not match grid n={n}"
        )


# ----------------------------------------------------------------------
# Fused ops
# ----------------------------------------------------------------------
def propagate(field, propagator) -> Tensor:
    """Free-space propagation as one graph node (the :class:`Propagator`
    fast path).

    Forward: ``crop(ifft2(fft2(pad(field)) * H))`` in a single pruned
    NumPy pass.  Backward: the exact adjoint, ``crop(ifft2(fft2(pad(g)) *
    conj(H)))`` — gradient-identical to the composed pad/fft2/mul/ifft2/
    crop chain.
    """
    field = as_tensor(field)
    kernel = propagator.kernel
    n = kernel.grid.n
    _check_field(field, n)
    h, h_conj = _prescaled(kernel)
    pad = kernel.pad
    shape = field.shape
    fields = field.data.reshape((-1, n, n))
    out = _hop.propagate_rows(fields, h, pad).reshape(shape)

    def vjp(g):
        g = np.asarray(g).reshape((-1, n, n))
        return _hop.propagate_rows(g, h_conj, pad).reshape(shape)

    return _build(out, [(field, vjp)])


def diffmod(
    field,
    raw_phase,
    propagator,
    mask: Optional[np.ndarray] = None,
    parametrization: str = "sigmoid",
) -> Tensor:
    """The whole ``DiffMod(f, W) = L(f, z) * exp(i phi(w))`` chain as one
    autodiff node (the :class:`DiffractiveLayer` training fast path).

    Parameters
    ----------
    field:
        Incoming complex field, shape ``(..., n, n)``.
    raw_phase:
        The layer's trainable raw weights ``w`` of shape ``(n, n)``
        (pre-sigmoid under ``"sigmoid"``, the phase itself under
        ``"direct"``).
    propagator:
        The layer's :class:`~repro.optics.propagation.Propagator`; its
        shared cached kernel supplies ``H`` and the padding.
    mask:
        Optional frozen 0/1 keep-mask applied to the phase *value*
        (pruned pixels impart ``phi = 0`` and receive no gradient).
    parametrization:
        ``"sigmoid"`` (``phi = 2 pi * sigmoid(w)``) or ``"direct"``
        (``phi = w``).

    Forward cost is one pruned propagation pass plus elementwise work;
    backward adds exactly two FFTs (the propagation adjoint for the field
    gradient) and reuses the cached modulation and layer output for the
    phase gradient — see the module docstring for the derivation.
    """
    if parametrization not in _PARAMETRIZATIONS:
        raise ValueError(
            f"unknown parametrization {parametrization!r}; expected one "
            f"of {_PARAMETRIZATIONS}"
        )
    field = as_tensor(field)
    raw_phase = as_tensor(raw_phase)
    kernel = propagator.kernel
    n = kernel.grid.n
    _check_field(field, n)
    if raw_phase.shape != (n, n):
        raise ValueError(
            f"raw phase shape {raw_phase.shape} does not match grid "
            f"({n}, {n})"
        )
    if mask is not None:
        mask = np.asarray(mask, dtype=np.float64)
        if mask.shape != (n, n):
            raise ValueError(
                f"mask shape {mask.shape} does not match grid ({n}, {n})"
            )
    h, h_conj = _prescaled(kernel)
    cdtype = h.dtype
    rdtype = np.dtype("float32" if cdtype == np.complex64 else "float64")
    pad = kernel.pad
    shape = field.shape

    fields = field.data.reshape((-1, n, n))
    propagated = _hop.propagate_rows(fields, h, pad)

    # Elementwise phase math runs at the compute precision too: under
    # the single policy the float64 master weights are read through a
    # float32 view of the chain, so modulation / output / gradients are
    # complex64 end to end (the optimizer state follows, see optim.py).
    w = raw_phase.data.astype(rdtype, copy=False)
    if parametrization == "sigmoid":
        s = 1.0 / (1.0 + np.exp(-w))
        phi = s * _TWO_PI
    else:
        s = None
        phi = w
    if mask is not None:
        mask = mask.astype(rdtype, copy=False)
        phi = phi * mask
    modulation = np.exp(1j * phi)
    out_flat = propagated * modulation
    out = out_flat.reshape(shape)

    def vjp_field(g):
        g = np.asarray(g)
        g = g.astype(cdtype, copy=False).reshape((-1, n, n))
        grad = _hop.propagate_rows(g * np.conj(modulation), h_conj, pad)
        return grad.reshape(shape)

    def vjp_phase(g):
        g = np.asarray(g)
        g = g.astype(cdtype, copy=False).reshape((-1, n, n))
        grad = np.sum((np.conj(out_flat) * g).imag, axis=0)
        if mask is not None:
            grad = grad * mask
        if s is not None:
            grad = grad * (_TWO_PI * s * (1.0 - s))
        return grad

    return _build(out, [(field, vjp_field), (raw_phase, vjp_phase)])
