"""Neural-network functional layer built from autodiff primitives.

Provides the handful of operations the DONN losses and regularizers need:
one-hot targets, softmax, the paper's training loss and a variance
helper.  Everything here is a composition of :mod:`repro.autodiff.ops`
primitives, so gradients come for free and are covered by the primitive
gradchecks.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import ops
from .tensor import Tensor, as_tensor

__all__ = [
    "one_hot",
    "softmax",
    "mse_softmax_loss",
    "variance",
]


def one_hot(labels, num_classes: int) -> Tensor:
    """Constant one-hot matrix (``float64``) from integer class labels."""
    labels = np.asarray(labels)
    if labels.ndim == 0:
        labels = labels[None]
    eye = np.eye(num_classes, dtype=np.float64)
    return Tensor(eye[labels])


def softmax(x, axis: int = -1) -> Tensor:
    """Numerically stabilized softmax along ``axis``."""
    x = as_tensor(x)
    shifted = x - ops.max(x, axis=axis, keepdims=True).detach()
    exps = ops.exp(shifted)
    return exps / ops.sum(exps, axis=axis, keepdims=True)


def mse_softmax_loss(logits, targets, num_classes: Optional[int] = None) -> Tensor:
    """The paper's training loss: ``l = || softmax(I) - t ||^2`` (Eq. 5).

    ``logits`` has shape ``(batch, classes)`` (detector-region intensity
    sums); ``targets`` are integer labels.  The squared L2 distance between
    the softmax distribution and the one-hot target is averaged over the
    batch.
    """
    logits = as_tensor(logits)
    if num_classes is None:
        num_classes = logits.shape[-1]
    target_dist = one_hot(targets, num_classes)
    diff = softmax(logits, axis=-1) - target_dist
    per_sample = ops.sum(diff * diff, axis=-1)
    return ops.mean(per_sample)


def variance(x, axis=None, ddof: int = 0, keepdims: bool = False) -> Tensor:
    """Differentiable variance (``ddof`` as in :func:`numpy.var`)."""
    x = as_tensor(x)
    if axis is None:
        count = x.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = int(np.prod([x.shape[ax % x.ndim] for ax in axes]))
    if count - ddof <= 0:
        raise ValueError(f"variance needs count > ddof (count={count}, ddof={ddof})")
    centered = x - ops.mean(x, axis=axis, keepdims=True)
    squared = ops.sum(centered * centered, axis=axis, keepdims=keepdims)
    return squared * (1.0 / (count - ddof))
