"""Process-wide cache of free-space propagation transfer functions.

Every :class:`~repro.optics.propagation.Propagator` — and there are
``L + 1`` of them in an ``L``-layer DONN (one per diffractive layer plus
the detector hop) — historically rebuilt an identical angular-spectrum
transfer function ``H`` on the padded grid.  ``H`` depends only on the
sampling geometry, the hop and the compute dtype, so this module
memoizes it process-wide under the key::

    (n, pixel_pitch, wavelength, distance, method, pad_factor,
     band_limit, dtype)

where ``n`` is the *unpadded* mask resolution.  A 3-layer DONN therefore
computes exactly one kernel; so does every :class:`InferenceEngine`,
exhaustive sweep, or deployment simulation that shares the geometry.

Kernels are materialized **per precision**: the canonical complex128
kernel is computed from the physics once, and a complex64 variant (for
``precision="single"`` engines and single-precision training) is a
one-time downcast cached under its own key — single-precision consumers
share one complex64 array instead of each downcasting a complex128
kernel per engine build (:func:`kernel_for_dtype`).

Cached arrays are returned with ``writeable=False`` so that accidental
in-place mutation by one consumer cannot corrupt every other holder of
the shared kernel.  The cache is bounded (LRU) and thread-safe.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from ..optics.grid import SimulationGrid

__all__ = [
    "KernelKey",
    "PropagationKernel",
    "get_kernel",
    "kernel_for_dtype",
    "cache_info",
    "clear_kernel_cache",
]

_METHODS = ("angular_spectrum", "fresnel")

#: Geometry-plus-dtype key uniquely identifying one transfer function.
KernelKey = Tuple[int, float, float, float, str, int, bool, str]

#: The canonical dtype the physics is computed in; other precisions are
#: one-time downcasts of this kernel.
_CANONICAL_DTYPE = np.dtype(np.complex128)

_lock = threading.RLock()
_cache: "OrderedDict[KernelKey, PropagationKernel]" = OrderedDict()
_hits = 0
_misses = 0
#: Resident kernels beyond this are evicted least-recently-used first.
_MAX_ENTRIES = 64


@dataclass(frozen=True)
class PropagationKernel:
    """A precomputed, shareable padded-grid transfer function.

    Attributes
    ----------
    key:
        The geometry-plus-dtype tuple the kernel was built under.
    h:
        Transfer function on the padded grid at the key's dtype
        (read-only).
    pad:
        Pixels of zero-padding per side; the padded side length is
        ``n + 2 * pad``.
    grid:
        The *unpadded* simulation grid.
    """

    key: KernelKey
    h: np.ndarray
    pad: int
    grid: SimulationGrid

    @property
    def padded_n(self) -> int:
        return self.h.shape[-1]

    @property
    def dtype(self) -> np.dtype:
        """Complex dtype this kernel was materialized at."""
        return self.h.dtype

    def prescaled(self) -> np.ndarray:
        """``H / padded_n**2`` (read-only), computed once per kernel.

        Folding the two per-hop ortho scalings into the kernel lets
        consumers run unscaled DFT passes:
        ``ifft_u(fft_u(x) * H/side^2) == ifft_ortho(fft_ortho(x) * H)``
        exactly.  Shared by the inference engine's hot loop and the
        fused training op, so the folding convention has one home.
        """
        cached = getattr(self, "_prescaled", None)
        if cached is None:
            scale = 1.0 / float(self.padded_n) ** 2
            cached = np.asarray(self.h * scale)
            cached.flags.writeable = False
            object.__setattr__(self, "_prescaled", cached)
        return cached

    def prescaled_conj(self) -> np.ndarray:
        """``conj(H) / padded_n**2`` (read-only) — the propagation
        adjoint's kernel, used by the fused op's backward pass."""
        cached = getattr(self, "_prescaled_conj", None)
        if cached is None:
            cached = np.conj(self.prescaled())
            cached.flags.writeable = False
            object.__setattr__(self, "_prescaled_conj", cached)
        return cached


def make_key(
    grid: SimulationGrid,
    distance: float,
    method: str = "angular_spectrum",
    pad_factor: int = 2,
    band_limit: bool = True,
    dtype=np.complex128,
) -> KernelKey:
    """Normalize geometry parameters into the canonical cache key."""
    if method not in _METHODS:
        raise ValueError(
            f"unknown propagation method {method!r}; expected one of "
            f"{_METHODS}"
        )
    if pad_factor < 1:
        raise ValueError(f"pad_factor must be >= 1, got {pad_factor}")
    dtype = np.dtype(dtype)
    if dtype.kind != "c":
        raise ValueError(
            f"kernel dtype must be complex, got {dtype}"
        )
    return (
        int(grid.n),
        float(grid.pixel_pitch),
        float(grid.wavelength),
        float(distance),
        method,
        int(pad_factor),
        bool(band_limit),
        dtype.name,
    )


def _pad_pixels(n: int, pad_factor: int) -> int:
    # Symmetric padding: round the requested enlargement up so the padded
    # side is n + 2*pad even when (pad_factor - 1) * n is odd.
    return ((pad_factor - 1) * n + 1) // 2


def _compute(key: KernelKey) -> PropagationKernel:
    from ..optics import propagation  # local import: optics <-> runtime

    (n, pitch, wavelength, distance, method, pad_factor, band_limit,
     dtype_name) = key
    grid = SimulationGrid(n=n, pixel_pitch=pitch, wavelength=wavelength)
    if np.dtype(dtype_name) != _CANONICAL_DTYPE:
        # Non-canonical precisions are one-time downcasts of the shared
        # complex128 kernel (computed or fetched through the cache), so
        # the physics is evaluated exactly once per geometry.
        base = get_kernel(grid, distance, method=method,
                          pad_factor=pad_factor, band_limit=band_limit)
        h = base.h.astype(dtype_name)
        h.flags.writeable = False
        return PropagationKernel(key=key, h=h, pad=base.pad, grid=base.grid)
    pad = _pad_pixels(n, pad_factor)
    padded_grid = SimulationGrid(
        n=n + 2 * pad, pixel_pitch=pitch, wavelength=wavelength
    )
    if method == "angular_spectrum":
        h = propagation.angular_spectrum_tf(padded_grid, distance, band_limit)
    else:
        h = propagation.fresnel_tf(padded_grid, distance)
    h.flags.writeable = False
    return PropagationKernel(key=key, h=h, pad=pad, grid=grid)


def get_kernel(
    grid: SimulationGrid,
    distance: float,
    method: str = "angular_spectrum",
    pad_factor: int = 2,
    band_limit: bool = True,
    dtype=np.complex128,
) -> PropagationKernel:
    """Fetch (or compute once) the shared kernel for a geometry/dtype."""
    global _hits, _misses
    key = make_key(grid, distance, method, pad_factor, band_limit, dtype)
    with _lock:
        kernel = _cache.get(key)
        if kernel is not None:
            _hits += 1
            _cache.move_to_end(key)
            return kernel
        _misses += 1
    # Compute outside the lock: kernels are large and pure functions of
    # the key, so a rare duplicate computation beats serializing all
    # builders behind one global lock.
    kernel = _compute(key)
    with _lock:
        existing = _cache.get(key)
        if existing is not None:
            return existing
        _cache[key] = kernel
        while len(_cache) > _MAX_ENTRIES:
            _cache.popitem(last=False)
    return kernel


def kernel_for_dtype(kernel: PropagationKernel, dtype) -> PropagationKernel:
    """The same physical kernel materialized at ``dtype``.

    Returns ``kernel`` itself when the dtype already matches; otherwise
    fetches (or downcasts once) the per-precision variant through the
    cache, so e.g. every ``precision="single"`` engine shares one
    complex64 array.
    """
    dtype = np.dtype(dtype)
    if kernel.dtype == dtype:
        return kernel
    distance, method, pad_factor, band_limit = kernel.key[3:7]
    return get_kernel(
        kernel.grid, distance, method=method, pad_factor=pad_factor,
        band_limit=band_limit, dtype=dtype,
    )


def cache_info() -> Dict[str, int]:
    """Hit/miss counters and current size (for tests and monitoring)."""
    with _lock:
        return {
            "hits": _hits,
            "misses": _misses,
            "size": len(_cache),
            "max_entries": _MAX_ENTRIES,
        }


def clear_kernel_cache() -> None:
    """Drop every cached kernel and reset the counters."""
    global _hits, _misses
    with _lock:
        _cache.clear()
        _hits = 0
        _misses = 0
