"""Primitive differentiable operations for the autodiff engine.

Every function takes :class:`~repro.autodiff.tensor.Tensor` (or array-like)
inputs and returns a new ``Tensor`` whose graph edges hold the
vector-Jacobian products (vjps) used by ``Tensor.backward``.

Complex gradient convention
---------------------------
For a real scalar loss ``L`` the gradient stored for a complex tensor ``z``
is ``dL/d(Re z) + 1j * dL/d(Im z)`` (the PyTorch convention).  For an
elementwise op ``y = f(x)`` with Wirtinger derivatives ``A = dy/dx`` and
``B = dy/d(conj x)`` the upstream gradient ``g`` maps to::

    grad_x = conj(A) * g + B * conj(g)

Holomorphic ops have ``B = 0``.  Real parents automatically receive only the
real part of the contribution (see ``tensor._coerce_to_parent``).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .tensor import Tensor, as_tensor, is_grad_enabled

__all__ = [
    "add", "sub", "mul", "div", "neg", "power", "matmul", "clone",
    "exp", "sqrt", "sigmoid",
    "absolute", "abs2", "conj", "real", "imag", "make_complex",
    "sum", "mean", "max",
    "reshape", "transpose", "getitem", "pad2d",
]


def _build(data: np.ndarray, edges) -> Tensor:
    """Create a result tensor, attaching graph ``edges`` when recording.

    ``edges`` is a sequence of ``(parent, vjp)`` pairs; parents that do not
    require gradients are dropped.
    """
    out = Tensor(data)
    if is_grad_enabled():
        kept = tuple(
            (parent, vjp) for parent, vjp in edges if parent.requires_grad
        )
        if kept:
            out._parents = kept
            out.requires_grad = True
    return out


# ----------------------------------------------------------------------
# Arithmetic
# ----------------------------------------------------------------------
def clone(x) -> Tensor:
    """Differentiable elementwise identity (fresh storage)."""
    x = as_tensor(x)
    return _build(np.array(x.data, copy=True), [(x, lambda g: g)])


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _build(a.data + b.data, [(a, lambda g: g), (b, lambda g: g)])


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return _build(a.data - b.data, [(a, lambda g: g), (b, lambda g: -g)])


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    a_data, b_data = a.data, b.data
    return _build(
        a_data * b_data,
        [(a, lambda g: g * np.conj(b_data)), (b, lambda g: g * np.conj(a_data))],
    )


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    a_data, b_data = a.data, b.data
    out = a_data / b_data

    def vjp_a(g):
        return g * np.conj(1.0 / b_data)

    def vjp_b(g):
        return g * np.conj(-a_data / (b_data * b_data))

    return _build(out, [(a, vjp_a), (b, vjp_b)])


def neg(x) -> Tensor:
    x = as_tensor(x)
    return _build(-x.data, [(x, lambda g: -g)])


def power(x, exponent: Union[int, float]) -> Tensor:
    """Elementwise power with a constant real exponent (holomorphic)."""
    if isinstance(exponent, Tensor):
        raise TypeError("power() only supports constant scalar exponents")
    x = as_tensor(x)
    x_data = x.data
    out = x_data ** exponent

    def vjp(g):
        return g * np.conj(exponent * x_data ** (exponent - 1))

    return _build(out, [(x, vjp)])


def matmul(a, b) -> Tensor:
    """Matrix product with numpy batching rules (operands must be >= 2-D)."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError(
            "matmul requires operands with ndim >= 2; use reshape for vectors"
        )
    a_data, b_data = a.data, b.data
    out = np.matmul(a_data, b_data)

    def vjp_a(g):
        return np.matmul(g, np.conj(np.swapaxes(b_data, -1, -2)))

    def vjp_b(g):
        return np.matmul(np.conj(np.swapaxes(a_data, -1, -2)), g)

    return _build(out, [(a, vjp_a), (b, vjp_b)])


# ----------------------------------------------------------------------
# Transcendental (holomorphic where complex)
# ----------------------------------------------------------------------
def exp(x) -> Tensor:
    x = as_tensor(x)
    out = np.exp(x.data)
    return _build(out, [(x, lambda g: g * np.conj(out))])


def sqrt(x) -> Tensor:
    x = as_tensor(x)
    out = np.sqrt(x.data)
    return _build(out, [(x, lambda g: g * np.conj(0.5 / out))])


def sigmoid(x) -> Tensor:
    """Logistic function for real tensors."""
    x = as_tensor(x)
    out = 1.0 / (1.0 + np.exp(-x.data))
    return _build(out, [(x, lambda g: g * out * (1.0 - out))])


# ----------------------------------------------------------------------
# Complex structure
# ----------------------------------------------------------------------
def conj(x) -> Tensor:
    x = as_tensor(x)
    return _build(np.conj(x.data), [(x, lambda g: np.conj(g))])


def real(x) -> Tensor:
    """Real part.  Gradient flows only into the real component."""
    x = as_tensor(x)
    return _build(np.real(x.data).copy(), [(x, lambda g: g)])


def imag(x) -> Tensor:
    """Imaginary part.  Gradient flows only into the imaginary component."""
    x = as_tensor(x)
    return _build(np.imag(x.data).copy(), [(x, lambda g: 1j * g)])


def make_complex(re, im) -> Tensor:
    """Assemble ``re + 1j * im`` from two real tensors."""
    re, im = as_tensor(re), as_tensor(im)
    if re.is_complex or im.is_complex:
        raise TypeError("make_complex expects real-valued inputs")
    out = re.data + 1j * im.data
    return _build(out, [(re, lambda g: g), (im, lambda g: -1j * g)])


def abs2(x) -> Tensor:
    """Squared magnitude ``|x|**2`` (real output; the optical intensity)."""
    x = as_tensor(x)
    x_data = x.data
    out = (x_data * np.conj(x_data)).real if x.is_complex else x_data * x_data

    def vjp(g):
        return 2.0 * x_data * g

    return _build(out, [(x, vjp)])


def absolute(x) -> Tensor:
    """Magnitude ``|x|``.  Real subgradient at 0 is taken as 0."""
    x = as_tensor(x)
    x_data = x.data
    out = np.abs(x_data)

    if x.is_complex:

        def vjp(g):
            with np.errstate(invalid="ignore", divide="ignore"):
                phase = np.where(out == 0, 0, x_data / np.where(out == 0, 1, out))
            return phase * g

    else:

        def vjp(g):
            return np.sign(x_data) * g

    return _build(out, [(x, vjp)])


# ----------------------------------------------------------------------
# Reductions
# ----------------------------------------------------------------------
def _expand_reduced(g: np.ndarray, shape: Tuple[int, ...], axis, keepdims):
    """Broadcast a reduced gradient back to the pre-reduction shape."""
    if axis is None:
        return np.broadcast_to(g, shape)
    axes = axis if isinstance(axis, tuple) else (axis,)
    axes = tuple(ax % len(shape) for ax in axes)
    if not keepdims:
        expanded = list(g.shape)
        for ax in sorted(axes):
            expanded.insert(ax, 1)
        g = g.reshape(expanded)
    return np.broadcast_to(g, shape)


def sum(x, axis=None, keepdims: bool = False) -> Tensor:  # noqa: A001
    x = as_tensor(x)
    out = np.sum(x.data, axis=axis, keepdims=keepdims)
    shape = x.shape

    def vjp(g):
        return _expand_reduced(np.asarray(g), shape, axis, keepdims)

    return _build(np.asarray(out), [(x, vjp)])


def mean(x, axis=None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    out = np.mean(x.data, axis=axis, keepdims=keepdims)
    shape = x.shape
    count = x.size if axis is None else np.prod(
        [shape[ax % len(shape)] for ax in (axis if isinstance(axis, tuple) else (axis,))]
    )

    def vjp(g):
        return _expand_reduced(np.asarray(g), shape, axis, keepdims) / count

    return _build(np.asarray(out), [(x, vjp)])


def max(x, axis=None, keepdims: bool = False) -> Tensor:  # noqa: A001
    """Maximum over ``axis``; ties share the gradient equally."""
    x = as_tensor(x)
    if x.is_complex:
        raise TypeError("max is undefined for complex tensors")
    out = np.max(x.data, axis=axis, keepdims=keepdims)
    x_data, shape = x.data, x.shape

    def vjp(g):
        full = _expand_reduced(np.asarray(g), shape, axis, keepdims)
        out_full = _expand_reduced(np.asarray(out), shape, axis, keepdims)
        mask = x_data == out_full
        counts = _expand_reduced(
            np.sum(mask, axis=axis, keepdims=keepdims), shape, axis, keepdims
        )
        return full * mask / counts

    return _build(np.asarray(out), [(x, vjp)])


# ----------------------------------------------------------------------
# Shape manipulation
# ----------------------------------------------------------------------
def reshape(x, shape: Tuple[int, ...]) -> Tensor:
    x = as_tensor(x)
    original = x.shape
    return _build(
        x.data.reshape(shape), [(x, lambda g: np.asarray(g).reshape(original))]
    )


def transpose(x, axes: Optional[Sequence[int]] = None) -> Tensor:
    x = as_tensor(x)
    if axes is None:
        axes = tuple(reversed(range(x.ndim)))
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    return _build(
        np.transpose(x.data, axes),
        [(x, lambda g: np.transpose(np.asarray(g), inverse))],
    )


def getitem(x, key) -> Tensor:
    """Basic or advanced indexing; the backward pass scatters with add.at."""
    x = as_tensor(x)
    out = x.data[key]
    shape, dtype = x.shape, x.data.dtype

    def vjp(g):
        scattered = np.zeros(shape, dtype=np.result_type(dtype, np.asarray(g).dtype))
        np.add.at(scattered, key, g)
        return scattered

    return _build(np.array(out, copy=True), [(x, vjp)])


def pad2d(x, pad: Union[int, Tuple[int, int]]) -> Tensor:
    """Zero-pad the last two axes by ``pad`` pixels on every side."""
    x = as_tensor(x)
    if isinstance(pad, int):
        pad = (pad, pad)
    py, px = pad
    widths = [(0, 0)] * (x.ndim - 2) + [(py, py), (px, px)]
    out = np.pad(x.data, widths)
    h, w = x.shape[-2], x.shape[-1]

    def vjp(g):
        g = np.asarray(g)
        return g[..., py:py + h, px:px + w]

    return _build(out, [(x, vjp)])
