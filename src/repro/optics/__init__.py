"""Optical physics substrate: grids, diffraction, fabrication, crosstalk.

* :class:`SimulationGrid` — sampling geometry (pixels, pitch, wavelength);
* :class:`Propagator` + transfer functions — differentiable free-space
  diffraction (angular spectrum / Fresnel);
* fabrication model — phase <-> 3D-printed thickness;
* :class:`CrosstalkModel` — the interpixel-crosstalk deployment simulator.
"""

from . import constants
from .crosstalk import CrosstalkModel
from .fabrication import phase_to_thickness, thickness_to_phase, wrap_phase
from .grid import SimulationGrid
from .propagation import Propagator, angular_spectrum_tf, fresnel_tf

__all__ = [
    "constants",
    "SimulationGrid",
    "Propagator",
    "angular_spectrum_tf",
    "fresnel_tf",
    "phase_to_thickness",
    "thickness_to_phase",
    "wrap_phase",
    "CrosstalkModel",
]
