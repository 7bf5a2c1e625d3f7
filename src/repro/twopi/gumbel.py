"""Gumbel-Softmax: differentiable sampling of discrete selections [34].

The 2-pi optimizer (Sec. III-D2) formulates "add 0 or 2 pi to each pixel"
as a one-hot selection per pixel and relaxes it with the Gumbel-Softmax
estimator so the roughness loss can be minimized by gradient descent.
That optimizer runs the two-option case as its own planar NumPy loop
(:mod:`repro.twopi.optimizer`), bit-identical to this estimator's graph;
:func:`gumbel_softmax` is the general ``(..., num_options)`` form that
the discrete phase codesign (:mod:`repro.physics.quantize`) samples.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..autodiff import Tensor, as_tensor
from ..autodiff import functional as F
from ..autodiff import ops
from ..autodiff.rng import gumbel

__all__ = ["gumbel_softmax"]


def gumbel_softmax(
    logits,
    tau: float = 1.0,
    hard: bool = False,
    rng: Optional[np.random.Generator] = None,
) -> Tensor:
    """Sample a relaxed one-hot vector along the last axis.

    ``y = softmax((logits + g) / tau)`` with ``g ~ Gumbel(0, 1)``.  With
    ``hard=True`` the forward value is the exact one-hot argmax while the
    gradient flows through the soft sample (straight-through estimator).

    Parameters
    ----------
    logits:
        ``(..., num_options)`` unnormalized log-probabilities.
    tau:
        Temperature; lower is closer to discrete (must be positive).
    hard:
        Straight-through hard sampling.
    rng:
        Noise stream (package default if omitted).
    """
    if tau <= 0:
        raise ValueError(f"temperature must be positive, got {tau}")
    logits = as_tensor(logits)
    noise = Tensor(gumbel(logits.shape, rng=rng))
    soft = F.softmax((logits + noise) * (1.0 / tau), axis=-1)
    if not hard:
        return soft
    index = np.argmax(soft.data, axis=-1)
    eye = np.eye(logits.shape[-1])
    hard_sample = eye[index]
    # Straight-through: forward = hard, backward = d soft.
    return Tensor(hard_sample - soft.data) + soft
