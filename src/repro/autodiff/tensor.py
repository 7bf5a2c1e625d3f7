"""Core tensor type for the reverse-mode automatic differentiation engine.

The engine replaces PyTorch in this reproduction (no GPU / torch available in
the build environment).  It provides exactly what a differentiable DONN needs:

* dense numpy-backed tensors, real or complex;
* a dynamically recorded computation graph with reverse-mode backward;
* broadcasting semantics identical to numpy;
* the PyTorch gradient convention for complex leaves: for a real scalar loss
  ``L`` and a complex tensor ``z``, ``z.grad == dL/d(Re z) + 1j * dL/d(Im z)``,
  so plain gradient descent on ``z.data`` is correct.

Primitive operations live in :mod:`repro.autodiff.ops`; this module only holds
the :class:`Tensor` container, the gradient-mode switch and the backward pass.
Operator overloads defer their import of :mod:`ops` to avoid a circular
dependency at import time.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "set_grad_enabled",
    "as_tensor",
]

#: Global flag: when False, no graph edges are recorded.
_GRAD_ENABLED: bool = True


def is_grad_enabled() -> bool:
    """Return whether operations currently record gradient graph edges."""
    return _GRAD_ENABLED


def set_grad_enabled(mode: bool) -> None:
    """Globally enable or disable graph recording."""
    global _GRAD_ENABLED
    _GRAD_ENABLED = bool(mode)


class no_grad:
    """Context manager that disables graph recording.

    Mirrors ``torch.no_grad``: inside the block every operation produces
    constant tensors with ``requires_grad=False``.  Usable as a decorator.
    """

    def __enter__(self) -> "no_grad":
        self._previous = is_grad_enabled()
        set_grad_enabled(False)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        set_grad_enabled(self._previous)

    def __call__(self, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            with no_grad():
                return fn(*args, **kwargs)

        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        wrapper.__doc__ = fn.__doc__
        return wrapper


# A vjp entry maps the upstream gradient to this parent's gradient
# contribution (a numpy array broadcastable to the parent's shape).
VjpFn = Callable[[np.ndarray], np.ndarray]


class Tensor:
    """A numpy-backed tensor that records a reverse-mode autodiff graph.

    Parameters
    ----------
    data:
        Anything convertible by :func:`numpy.asarray`.  Boolean and integer
        arrays are allowed but cannot require gradients.
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` during
        :meth:`backward`.
    dtype:
        Optional dtype override forwarded to numpy.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "name")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        dtype=None,
        name: Optional[str] = None,
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        self.data: np.ndarray = np.asarray(data, dtype=dtype)
        if requires_grad and not np.issubdtype(self.data.dtype, np.inexact):
            raise TypeError(
                f"only float/complex tensors can require gradients, got "
                f"dtype {self.data.dtype}"
            )
        self.requires_grad: bool = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        #: Graph edges: sequence of (parent tensor, vjp callable); ``None``
        #: once a backward pass has released them.
        self._parents: Optional[Tuple[Tuple["Tensor", VjpFn], ...]] = ()
        self.name = name

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.data)

    @property
    def is_leaf(self) -> bool:
        """True when this tensor was not produced by a recorded operation
        (a node whose graph ``backward`` released stays a non-leaf)."""
        return self._parents == ()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_note = ", requires_grad=True" if self.requires_grad else ""
        name_note = f", name={self.name!r}" if self.name else ""
        return f"Tensor({self.data!r}{grad_note}{name_note})"

    # ------------------------------------------------------------------
    # Conversion helpers
    # ------------------------------------------------------------------
    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared, not copied)."""
        return self.data

    def item(self) -> Union[float, complex]:
        """Return the single element of a scalar tensor as a Python number."""
        return self.data.item()

    def detach(self) -> "Tensor":
        """Return a graph-free view sharing the same storage."""
        out = Tensor(self.data)
        return out

    def clone(self) -> "Tensor":
        """Return a differentiable elementwise copy."""
        from . import ops

        return ops.clone(self)

    def astype(self, dtype) -> "Tensor":
        """Return a detached copy cast to ``dtype`` (no gradient flow)."""
        return Tensor(self.data.astype(dtype))

    # ------------------------------------------------------------------
    # Gradient machinery
    # ------------------------------------------------------------------
    def zero_grad(self) -> None:
        """Reset the accumulated gradient to ``None``."""
        self.grad = None

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Run reverse-mode differentiation from this tensor.

        Gradients accumulate into :attr:`grad` of the *leaves* only (the
        tensors that require gradients and were not produced by a
        recorded operation), as in PyTorch: an intermediate's gradient
        lives only while the pass needs it.

        The pass also releases the graph it runs: once a non-leaf node
        has passed its gradient on, it drops its edges, and with them
        the vjp closures and the activations they hold, so a training
        step holds one graph at a time.  A released node stays a
        non-leaf, and a later ``backward`` that reaches one (a second
        call on the same root, or another root sharing an intermediate)
        raises ``RuntimeError`` before touching any gradient; recompute
        the forward instead.

        Parameters
        ----------
        grad:
            Seed gradient.  Defaults to ``1`` and therefore requires a
            scalar (size-1) tensor, matching PyTorch semantics.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not "
                               "require gradients")
        if grad is None:
            if self.size != 1:
                raise RuntimeError(
                    "backward() without an explicit seed gradient requires a "
                    f"scalar tensor; got shape {self.shape}"
                )
            seed_dtype = self.data.dtype
            grad = np.ones_like(self.data, dtype=seed_dtype)
        else:
            grad = np.asarray(grad)
            if grad.shape != self.shape:
                raise ValueError(
                    f"seed gradient shape {grad.shape} does not match tensor "
                    f"shape {self.shape}"
                )

        order = _topological_order(self)
        grads: dict[int, np.ndarray] = {id(self): grad}
        for index, node in enumerate(order):
            # Every child of ``node`` ran before it and dropped its edges,
            # so this is the last reference the pass holds: a processed
            # node (and its output array) is freed as soon as the caller
            # holds none either.
            order[index] = None
            node_grad = grads.pop(id(node))
            if node.is_leaf:
                if node.grad is None:
                    node.grad = np.array(node_grad, copy=True)
                else:
                    node.grad = node.grad + node_grad
                continue
            edges, node._parents = node._parents, None
            for parent, vjp in edges:
                contrib = vjp(node_grad)
                contrib = _coerce_to_parent(contrib, parent)
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + contrib
                else:
                    grads[key] = contrib

    # ------------------------------------------------------------------
    # Operator overloads (implementations live in ops.py)
    # ------------------------------------------------------------------
    def __add__(self, other):
        from . import ops

        return ops.add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        from . import ops

        return ops.sub(self, other)

    def __rsub__(self, other):
        from . import ops

        return ops.sub(other, self)

    def __mul__(self, other):
        from . import ops

        return ops.mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        from . import ops

        return ops.div(self, other)

    def __rtruediv__(self, other):
        from . import ops

        return ops.div(other, self)

    def __pow__(self, exponent):
        from . import ops

        return ops.power(self, exponent)

    def __neg__(self):
        from . import ops

        return ops.neg(self)

    def __matmul__(self, other):
        from . import ops

        return ops.matmul(self, other)

    def __getitem__(self, key):
        from . import ops

        return ops.getitem(self, key)

    # Convenience method forms -----------------------------------------
    def sum(self, axis=None, keepdims: bool = False):
        from . import ops

        return ops.sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        from . import ops

        return ops.mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        from . import ops

        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return ops.reshape(self, shape)

    def transpose(self, axes: Optional[Sequence[int]] = None):
        from . import ops

        return ops.transpose(self, axes)

    @property
    def T(self):
        return self.transpose()

    def conj(self):
        from . import ops

        return ops.conj(self)

    def abs(self):
        from . import ops

        return ops.absolute(self)

    @property
    def real(self):
        from . import ops

        return ops.real(self)

    @property
    def imag(self):
        from . import ops

        return ops.imag(self)


def as_tensor(value, dtype=None) -> Tensor:
    """Coerce ``value`` to a :class:`Tensor` (no copy when already one)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value, dtype=dtype)


# ----------------------------------------------------------------------
# Internal helpers
# ----------------------------------------------------------------------
def _topological_order(root: Tensor) -> list:
    """Return graph nodes reachable from ``root`` in reverse topological
    order (root first), computed iteratively to avoid recursion limits."""
    order: list = []
    visited: set = set()
    stack: list = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        if node._parents is None:
            raise RuntimeError(
                "backward() reached a tensor whose graph an earlier "
                "backward() released; recompute the forward pass"
            )
        visited.add(id(node))
        stack.append((node, True))
        for parent, _ in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    order.reverse()
    return order


def _coerce_to_parent(contrib: np.ndarray, parent: Tensor) -> np.ndarray:
    """Project a raw vjp contribution onto the parent's shape and dtype.

    Handles two chores shared by every op:

    * **un-broadcasting** — summing the gradient over axes that numpy
      broadcasting expanded in the forward pass;
    * **realification** — a real-valued parent feeding a complex op receives
      only the real part of the complex gradient (the imaginary part
      corresponds to a direction the parameter cannot move in).
    """
    contrib = _unbroadcast(np.asarray(contrib), parent.shape)
    if not parent.is_complex and np.iscomplexobj(contrib):
        contrib = contrib.real
    return contrib


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    # Remove leading broadcast axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Collapse axes that were expanded from size 1.
    axes = tuple(
        i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1
    )
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad
