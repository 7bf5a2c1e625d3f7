"""Minimal module/parameter system (the ``torch.nn.Module`` analogue).

Modules auto-register :class:`Parameter` attributes and child modules and
expose recursive parameter iteration — enough to express DONN models and
hand their parameters to an optimizer without PyTorch.  Model persistence
lives in :mod:`repro.utils.serialization`.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from .tensor import Tensor

__all__ = ["Parameter", "Module"]


class Parameter(Tensor):
    """A trainable leaf tensor (``requires_grad=True`` by default)."""

    def __init__(self, data, requires_grad: bool = True, name: Optional[str] = None):
        super().__init__(np.array(data, copy=True), requires_grad=requires_grad,
                         name=name)


class Module:
    """Base class with automatic parameter / submodule registration."""

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_modules", {})

    def __setattr__(self, key: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[key] = value
        elif isinstance(value, Module):
            self._modules[key] = value
        object.__setattr__(self, key, value)

    # ------------------------------------------------------------------
    # Iteration
    # ------------------------------------------------------------------
    def parameters(self) -> Iterator[Parameter]:
        """Yield all parameters of this module and its children."""
        for _, param in self.named_parameters():
            yield param

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` pairs recursively."""
        for key, param in self._parameters.items():
            yield (f"{prefix}{key}", param)
        for key, child in self._modules.items():
            yield from child.named_parameters(prefix=f"{prefix}{key}.")

    # ------------------------------------------------------------------
    # Training utilities
    # ------------------------------------------------------------------
    def zero_grad(self) -> None:
        """Clear gradients on every parameter."""
        for param in self.parameters():
            param.zero_grad()

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):
        raise NotImplementedError("Module subclasses must implement forward()")
