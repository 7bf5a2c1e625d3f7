"""Reverse-mode automatic differentiation over numpy (the PyTorch substitute).

Public surface:

* :class:`Tensor`, :func:`as_tensor`, :class:`no_grad` — core container;
* :mod:`repro.autodiff.ops` — primitive differentiable operations;
* :mod:`repro.autodiff.fft` — differentiable 2-D FFTs with exact adjoints;
* :mod:`repro.autodiff.functional` — softmax / the training loss / variance;
* :mod:`repro.autodiff.fused` — the fused DiffMod training fast path
  (single-node forward with hand-derived analytic VJPs);
* :class:`Module`, :class:`Parameter` — model containers;
* :class:`Adam` (on the checkpointable :class:`Optimizer` base);
* :func:`gradcheck` — finite-difference validation.
"""

from . import fft, functional, fused, ops, rng
from .gradcheck import gradcheck, numeric_gradient
from .module import Module, Parameter
from .optim import Adam, Optimizer
from .tensor import Tensor, as_tensor, is_grad_enabled, no_grad, set_grad_enabled

__all__ = [
    "Tensor",
    "as_tensor",
    "no_grad",
    "is_grad_enabled",
    "set_grad_enabled",
    "Module",
    "Parameter",
    "Optimizer",
    "Adam",
    "gradcheck",
    "numeric_gradient",
    "ops",
    "fft",
    "functional",
    "fused",
    "rng",
]
