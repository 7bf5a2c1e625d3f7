"""Deterministic random-number utilities shared across the package.

A single module-level :class:`numpy.random.Generator` keeps every stochastic
component (dataset synthesis, initialization, Gumbel noise) reproducible via
one :func:`seed_all` call, while still allowing callers to pass their own
generators for isolated streams.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["seed_all", "get_rng", "spawn_rng", "gumbel", "get_state",
           "set_state"]

_DEFAULT_SEED = 0
_rng = np.random.default_rng(_DEFAULT_SEED)


def seed_all(seed: int) -> None:
    """Re-seed the package-wide generator (affects all default streams)."""
    global _rng
    _rng = np.random.default_rng(seed)


def get_state() -> dict:
    """Snapshot the package-wide generator's state (JSON-serializable).

    Together with :func:`set_state` this is what lets training
    checkpoints round-trip the global stream exactly: a resumed run
    draws the same numbers an uninterrupted one would have.
    """
    return _rng.bit_generator.state


def set_state(state: dict) -> None:
    """Restore a state captured by :func:`get_state`."""
    _rng.bit_generator.state = state


def get_rng(rng: Optional[np.random.Generator] = None) -> np.random.Generator:
    """Return ``rng`` if given, else the package-wide generator."""
    return _rng if rng is None else rng


def spawn_rng(seed: int) -> np.random.Generator:
    """Create an independent generator (does not disturb the global one)."""
    return np.random.default_rng(seed)


def gumbel(shape, rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Standard Gumbel(0, 1) samples: ``-log(-log U)`` with clipped U.

    Used by the Gumbel-Softmax relaxation in the 2-pi optimizer (paper
    Sec. III-D2).  Uniform draws are clipped away from {0, 1} to avoid
    infinities.
    """
    u = get_rng(rng).random(shape)
    u = np.clip(u, 1e-12, 1.0 - 1e-12)
    return -np.log(-np.log(u))
