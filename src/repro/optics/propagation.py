"""Free-space scalar diffraction (the paper's non-trainable parameter set).

The DONN forward model (Sec. III-A, Eq. 1) propagates a coherent field
between diffractive layers.  Equation 1's convolution with the free-space
impulse response ``h`` is evaluated spectrally::

    U1 = U0 * H(fx, fy, z)          (pointwise, in the Fourier domain)

Two standard approximations of ``H`` are provided:

* **angular spectrum / Rayleigh-Sommerfeld transfer function** (exact for
  band-limited fields) — the default, as in mainstream DONN codebases;
* **Fresnel transfer function** (paraxial approximation).

:class:`Propagator` wraps a precomputed transfer function into a
differentiable callable (pad -> FFT -> multiply -> iFFT -> crop) built on
:mod:`repro.autodiff`.
"""

from __future__ import annotations

import numpy as np

from ..autodiff import Tensor, as_tensor
from ..autodiff import fused as _fused
from ..autodiff import ops
from ..autodiff.fft import fft2, ifft2
from .grid import SimulationGrid

__all__ = [
    "angular_spectrum_tf",
    "fresnel_tf",
    "Propagator",
]


def angular_spectrum_tf(
    grid: SimulationGrid,
    distance: float,
    band_limit: bool = True,
) -> np.ndarray:
    """Angular-spectrum transfer function ``H(fx, fy; z)``.

    ``H = exp(i 2 pi z sqrt(1/lambda^2 - fx^2 - fy^2))`` for propagating
    components; evanescent components decay exponentially.  With
    ``band_limit=True`` the Matsushima-Shimobaba band limit suppresses the
    aliased high-frequency fringes that otherwise wrap around the grid for
    long propagation distances.

    Negative ``distance`` back-propagates (the conjugate kernel).
    """
    fx, fy = grid.frequencies()
    inv_lambda_sq = 1.0 / grid.wavelength ** 2
    arg = inv_lambda_sq - fx ** 2 - fy ** 2
    propagating = arg >= 0

    kz = 2.0 * np.pi * np.sqrt(np.where(propagating, arg, 0.0))
    decay = 2.0 * np.pi * np.sqrt(np.where(propagating, 0.0, -arg))
    h = np.where(
        propagating,
        np.exp(1j * kz * distance),
        np.exp(-decay * abs(distance)),
    )

    if band_limit and distance != 0.0:
        delta_f = 1.0 / (grid.n * grid.pixel_pitch)
        f_limit = 1.0 / (
            grid.wavelength * np.sqrt((2.0 * delta_f * abs(distance)) ** 2 + 1.0)
        )
        h = h * ((np.abs(fx) <= f_limit) & (np.abs(fy) <= f_limit))
    return h.astype(np.complex128)


def fresnel_tf(grid: SimulationGrid, distance: float) -> np.ndarray:
    """Fresnel (paraxial) transfer function.

    ``H = exp(i k z) exp(-i pi lambda z (fx^2 + fy^2))`` — the small-angle
    expansion of the angular-spectrum kernel.  Valid when the significant
    spatial frequencies satisfy ``lambda * f << 1``.
    """
    fx, fy = grid.frequencies()
    k = grid.wavenumber
    quadratic = np.pi * grid.wavelength * distance * (fx ** 2 + fy ** 2)
    return (np.exp(1j * k * distance) * np.exp(-1j * quadratic)).astype(
        np.complex128
    )


class Propagator:
    """Differentiable free-space propagation over a fixed distance.

    Parameters
    ----------
    grid:
        Sampling geometry of the (unpadded) field.
    distance:
        Propagation distance in meters (may be negative to back-propagate).
    method:
        ``"angular_spectrum"`` (default) or ``"fresnel"``.
    pad_factor:
        Integer >= 1.  The field is zero-padded to ``pad_factor * n`` per
        side before the FFT to suppress wrap-around (circular convolution)
        artifacts, then cropped back.  ``2`` is the standard choice.
    band_limit:
        Forwarded to :func:`angular_spectrum_tf`.
    """

    def __init__(
        self,
        grid: SimulationGrid,
        distance: float,
        method: str = "angular_spectrum",
        pad_factor: int = 2,
        band_limit: bool = True,
    ) -> None:
        if pad_factor < 1:
            raise ValueError(f"pad_factor must be >= 1, got {pad_factor}")
        self.grid = grid
        self.distance = float(distance)
        self.method = method
        self.pad_factor = int(pad_factor)
        self.band_limit = bool(band_limit)
        # The padded-grid transfer function is shared process-wide: every
        # Propagator (and InferenceEngine) with the same geometry holds
        # the *same* read-only array, so an L-layer DONN computes exactly
        # one kernel instead of L + 1.
        from ..runtime.kernel_cache import get_kernel

        #: Shared :class:`~repro.runtime.kernel_cache.PropagationKernel`.
        self.kernel = get_kernel(
            grid, self.distance, method=method,
            pad_factor=self.pad_factor, band_limit=self.band_limit,
        )
        #: Constant transfer function on the padded grid (shares storage
        #: with the cache entry).
        self.transfer_function = Tensor(self.kernel.h)
        self._pad_pixels = self.kernel.pad

    def __call__(self, field) -> Tensor:
        """Propagate ``field`` (shape ``(..., n, n)``), differentiably.

        Runs the fused single-node fast path by default (one pruned
        NumPy pass forward, the exact ``conj(H)`` adjoint backward — see
        :mod:`repro.autodiff.fused`); inside ``fused.fused_disabled()``
        the equivalence tests get the composed pad/fft2/mul/ifft2/crop
        reference graph instead.
        """
        field = as_tensor(field)
        if field.shape[-1] != self.grid.n or field.shape[-2] != self.grid.n:
            raise ValueError(
                f"field shape {field.shape} does not match grid n={self.grid.n}"
            )
        if _fused.fused_enabled():
            return _fused.propagate(field, self)
        return self._composed(field)

    def _composed(self, field: Tensor) -> Tensor:
        """The per-op reference graph the equivalence tests compare to."""
        pad = self._pad_pixels
        if pad:
            field = ops.pad2d(field, pad)
        spectrum = fft2(field, norm="ortho")
        propagated = ifft2(spectrum * self.transfer_function, norm="ortho")
        if pad:
            n = self.grid.n
            propagated = propagated[..., pad:pad + n, pad:pad + n]
        return propagated

    def propagate_array(self, field: np.ndarray) -> np.ndarray:
        """Convenience numpy-in / numpy-out propagation (no gradients)."""
        from ..autodiff import no_grad

        with no_grad():
            return np.asarray(self(Tensor(np.asarray(field))).data)
