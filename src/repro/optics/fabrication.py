"""Fabrication model: phase modulation as physical material thickness.

A 3D-printed diffractive layer (paper Fig. 1d) realizes a phase delay
``phi = 2 pi (n - 1) t / lambda`` through material of thickness ``t`` and
refractive index ``n``.  The interpixel crosstalk the paper targets is a
property of the *physical thickness profile*: adding 2 pi to a pixel's phase
leaves the ideal optical function unchanged (Sec. III-D2) but adds one full
wavelength-equivalent step of material, which changes the topography and
therefore the roughness/crosstalk behaviour.  This module converts between
the two representations.
"""

from __future__ import annotations

import numpy as np

from . import constants

__all__ = [
    "phase_to_thickness",
    "thickness_to_phase",
    "wrap_phase",
]


def phase_to_thickness(
    phase: np.ndarray,
    wavelength: float = constants.PAPER_WAVELENGTH,
    refractive_index: float = constants.PRINT_REFRACTIVE_INDEX,
) -> np.ndarray:
    """Material thickness (meters) realizing ``phase`` (radians).

    ``t = phi * lambda / (2 pi (n - 1))``.  Phases are *not* wrapped: a
    pixel carrying ``phi + 2 pi`` is printed one full step thicker, which is
    the degree of freedom the 2-pi optimizer exploits.
    """
    if refractive_index <= 1.0:
        raise ValueError("refractive index must exceed 1 for a phase mask")
    return np.asarray(phase) * wavelength / (
        constants.TWO_PI * (refractive_index - 1.0)
    )


def thickness_to_phase(
    thickness: np.ndarray,
    wavelength: float = constants.PAPER_WAVELENGTH,
    refractive_index: float = constants.PRINT_REFRACTIVE_INDEX,
) -> np.ndarray:
    """Inverse of :func:`phase_to_thickness` (radians, unwrapped)."""
    if refractive_index <= 1.0:
        raise ValueError("refractive index must exceed 1 for a phase mask")
    return (
        np.asarray(thickness) * constants.TWO_PI * (refractive_index - 1.0)
        / wavelength
    )


def wrap_phase(phase: np.ndarray) -> np.ndarray:
    """Wrap phases into the canonical interval ``[0, 2 pi)``."""
    return np.mod(np.asarray(phase), constants.TWO_PI)
