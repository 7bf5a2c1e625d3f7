"""Finite-difference gradient checking.

Validates the analytic backward pass of any scalar-valued computation by
central finite differences.  Complex tensors are perturbed separately along
their real and imaginary axes, matching the engine's gradient convention
(``grad = dL/dRe + 1j * dL/dIm``).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .tensor import Tensor

__all__ = ["numeric_gradient", "gradcheck"]


def numeric_gradient(
    fn: Callable[[], Tensor],
    param: Tensor,
    eps: float = 1e-6,
) -> np.ndarray:
    """Central-difference gradient of the real scalar ``fn()`` wrt ``param``.

    ``fn`` must recompute the loss from ``param.data`` on every call (the
    usual closure over tensors).  Returns an array shaped like ``param``;
    complex for complex parameters.
    """
    original = np.array(param.data, copy=True)
    grad = np.zeros_like(original, dtype=np.complex128 if param.is_complex
                         else np.float64)

    def probe(offset: np.ndarray) -> float:
        param.data = original + offset
        value = fn()
        result = value.item() if isinstance(value, Tensor) else value
        if isinstance(result, complex):
            if abs(result.imag) > 1e-12 * max(1.0, abs(result.real)):
                raise ValueError("gradcheck requires a real-valued loss")
            result = result.real
        return float(result)

    flat_index = np.ndindex(*original.shape) if original.shape else [()]
    for index in flat_index:
        basis = np.zeros_like(original)
        basis[index] = 1.0
        plus = probe(eps * basis)
        minus = probe(-eps * basis)
        grad[index] = (plus - minus) / (2 * eps)
        if param.is_complex:
            plus_i = probe(1j * eps * basis)
            minus_i = probe(-1j * eps * basis)
            grad[index] += 1j * (plus_i - minus_i) / (2 * eps)
    param.data = original
    return grad


def gradcheck(
    fn: Callable[[], Tensor],
    params: Sequence[Tensor],
    eps: float = 1e-6,
    rtol: float = 1e-4,
    atol: float = 1e-6,
) -> bool:
    """Compare analytic and numeric gradients; raise ``AssertionError`` on
    mismatch, return ``True`` on success (pytest-friendly).

    Every parameter must be a leaf: ``backward`` keeps gradients on
    leaves only, so a non-leaf (``param + shift``, say) raises
    ``ValueError`` instead of checking an all-zero analytic gradient.
    Put such a shift inside ``fn``.
    """
    for position, param in enumerate(params):
        if not param.is_leaf:
            raise ValueError(
                f"gradcheck parameter #{position} is not a leaf tensor; "
                f"gradients accumulate on leaves only"
            )
    for param in params:
        param.zero_grad()
    loss = fn()
    if not isinstance(loss, Tensor):
        raise TypeError("fn must return a Tensor")
    if loss.size != 1:
        raise ValueError("gradcheck requires a scalar loss")
    loss.backward()
    for position, param in enumerate(params):
        analytic = param.grad
        if analytic is None:
            analytic = np.zeros_like(param.data)
        numeric = numeric_gradient(fn, param, eps=eps)
        if not np.allclose(analytic, numeric, rtol=rtol, atol=atol):
            worst = np.max(np.abs(np.asarray(analytic) - numeric))
            raise AssertionError(
                f"gradient mismatch for parameter #{position} "
                f"(max abs err {worst:.3e})\nanalytic:\n{analytic}\n"
                f"numeric:\n{numeric}"
            )
    return True
