"""Diffractive layers: the DiffMod computation module (Sec. III-A).

``DiffMod(f, W) = L(f, z) * W`` — free-space diffraction over distance
``z`` followed by pointwise phase modulation ``W = exp(i phi)`` with a
trainable real phase mask ``phi``.

Phase parametrization
---------------------
The paper treats trained phase modulations as values ``c in [0, 2 pi]``
(Sec. III-D2) — mainstream DONN implementations achieve this by mapping an
unconstrained weight through a sigmoid, ``phi = 2 pi * sigmoid(w)``.  That
bounded ``"sigmoid"`` parametrization is the default here and is what
reproduces the paper's roughness regimes (smooth trained baselines, zeroed
blocks forming sharp cliffs against mid-range surroundings).  A ``"direct"``
mode (``phi = w``) is kept for unit tests and ablations.

Sparsification installs a frozen binary mask applied to the *phase value*:
zeroed pixels modulate with ``phi = 0`` (the paper's black blocks) and
receive no gradient.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..autodiff import Module, Parameter, Tensor
from ..autodiff import fused as _fused
from ..autodiff import ops
from ..autodiff.rng import get_rng
from ..optics import Propagator, SimulationGrid, wrap_phase
from ..optics.constants import TWO_PI

__all__ = ["DiffractiveLayer"]

_PARAMETRIZATIONS = ("sigmoid", "direct")
_SIGMOID_CLIP = 1e-6


class DiffractiveLayer(Module):
    """One diffractive surface: propagation to it + its phase modulation.

    Parameters
    ----------
    grid:
        Sampling geometry shared by the whole stack.
    distance:
        Free-space distance from the previous plane to this layer.
    phase_init:
        ``"small"`` (default): raw weights ~ N(0, 0.1) — a nearly flat
        starting mask (phi ~ pi under the sigmoid parametrization), the
        regime in which trained masks stay smooth like the paper's;
        ``"high"``: raw weights ~ 1 + N(0, 0.1) (phi ~ 0.73 * 2 pi) — a
        high-biased start modeling masks fabricated with base material
        thickness; this is the regime of the paper's Fig. 5, where pruned
        blocks sit among "high positive values" and the 2-pi lift of
        zeroed blocks pays off (Sec. III-D2);
        ``"zeros"``: exactly flat; ``"uniform"``: phases uniform in
        (0, 2 pi) — a deliberately rough start for ablations.
    parametrization:
        ``"sigmoid"`` (default) or ``"direct"`` — see the module docstring.
    pad_factor:
        Zero-padding factor of the internal propagation.
    rng:
        Generator for the initialization draw (package default if omitted).
    """

    def __init__(
        self,
        grid: SimulationGrid,
        distance: float,
        phase_init: str = "small",
        parametrization: str = "sigmoid",
        pad_factor: int = 2,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if parametrization not in _PARAMETRIZATIONS:
            raise ValueError(
                f"unknown parametrization {parametrization!r}; expected one "
                f"of {_PARAMETRIZATIONS}"
            )
        self.grid = grid
        self.parametrization = parametrization
        self.propagator = Propagator(grid, distance, pad_factor=pad_factor)
        rng = get_rng(rng)
        shape = (grid.n, grid.n)
        if phase_init == "uniform":
            if parametrization == "sigmoid":
                # Uniform *phases*: invert the sigmoid map.
                u = rng.uniform(0.02, 0.98, shape)
                initial = np.log(u / (1.0 - u))
            else:
                initial = rng.uniform(0.0, TWO_PI, shape)
        elif phase_init == "zeros":
            initial = np.zeros(shape)
        elif phase_init == "small":
            initial = 0.1 * rng.standard_normal(shape)
        elif phase_init == "high":
            # Deliberately noise-free: task training alone sets the mask
            # texture, keeping baselines smooth (the published regime).
            if parametrization == "sigmoid":
                initial = np.full(shape, 1.5)  # phi ~ 0.82 * 2 pi
            else:
                initial = np.full(shape, 0.75 * TWO_PI)
        else:
            raise ValueError(
                f"unknown phase_init {phase_init!r}; expected 'uniform', "
                "'zeros', 'small' or 'high'"
            )
        #: Raw trainable weights (phases under "direct"; pre-sigmoid under
        #: "sigmoid").
        self.phase = Parameter(initial)
        #: Frozen 0/1 keep-mask (None = dense), applied to the phase value.
        self._sparsity_mask: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Sparsity plumbing
    # ------------------------------------------------------------------
    @property
    def sparsity_mask(self) -> Optional[np.ndarray]:
        return self._sparsity_mask

    def set_sparsity_mask(self, mask: Optional[np.ndarray]) -> None:
        """Install (or clear) a frozen keep-mask of shape ``(n, n)``."""
        if mask is None:
            self._sparsity_mask = None
            return
        mask = np.asarray(mask)
        if mask.shape != (self.grid.n, self.grid.n):
            raise ValueError(
                f"mask shape {mask.shape} does not match layer "
                f"({self.grid.n}, {self.grid.n})"
            )
        if not np.all(np.isin(mask, (0, 1))):
            raise ValueError("sparsity mask must be binary")
        self._sparsity_mask = mask.astype(np.float64)
        if self.parametrization == "direct":
            # Zero the pruned raw weights too (they equal the phase).
            self.phase.data = self.phase.data * self._sparsity_mask

    # ------------------------------------------------------------------
    # Phase views
    # ------------------------------------------------------------------
    def effective_phase(self) -> Tensor:
        """The phase value the layer imparts (graph-connected).

        ``2 pi * sigmoid(w)`` or raw ``w`` depending on parametrization,
        times the sparsity keep-mask (pruned pixels are exactly 0).
        """
        if self.parametrization == "sigmoid":
            phi = ops.sigmoid(self.phase) * TWO_PI
        else:
            phi = self.phase
        if self._sparsity_mask is None:
            return phi
        return phi * Tensor(self._sparsity_mask)

    def modulation(self) -> Tensor:
        """Complex transmission ``W = exp(i phi)`` (graph-connected)."""
        phi = self.effective_phase()
        zeros = Tensor(np.zeros_like(self.phase.data))
        return ops.exp(ops.make_complex(zeros, phi))

    def phase_array(self, wrapped: bool = True) -> np.ndarray:
        """Current phase mask as numpy.

        Sigmoid-parametrized phases already live in ``[0, 2 pi)``;
        direct-parametrized phases are wrapped when ``wrapped=True``
        (reflecting what a fabricated mask realizes).
        """
        from ..autodiff import no_grad

        with no_grad():
            phase = np.asarray(self.effective_phase().data)
        if wrapped and self.parametrization == "direct":
            return wrap_phase(phase)
        return np.array(phase, copy=True)

    def set_phase_array(self, phase: np.ndarray) -> None:
        """Overwrite the raw weights so the layer imparts ``phase``.

        Sigmoid parametrization inverts the map (values are clipped into
        the open interval the sigmoid can reach); direct assigns as-is.
        """
        phase = np.asarray(phase, dtype=np.float64)
        if phase.shape != self.phase.shape:
            raise ValueError(
                f"phase shape {phase.shape} does not match "
                f"{self.phase.shape}"
            )
        if self.parametrization == "sigmoid":
            u = np.clip(phase / TWO_PI, _SIGMOID_CLIP, 1.0 - _SIGMOID_CLIP)
            self.phase.data = np.log(u / (1.0 - u))
        else:
            self.phase.data = np.array(phase, copy=True)

    # ------------------------------------------------------------------
    # Forward
    # ------------------------------------------------------------------
    def forward(self, field) -> Tensor:
        """``DiffMod``: diffract the incoming field here, then modulate.

        Runs the fused single-node fast path by default — the whole
        pad/FFT/H-mul/IFFT/crop/sigmoid/exp/modulate chain in one NumPy
        pass with a hand-derived analytic VJP (see
        :mod:`repro.autodiff.fused`).  The composed per-op reference
        graph below runs only inside ``fused.fused_disabled()``, which the
        equivalence tests use; gradients are identical.
        """
        if _fused.fused_enabled():
            return _fused.diffmod(
                field,
                self.phase,
                self.propagator,
                mask=self._sparsity_mask,
                parametrization=self.parametrization,
            )
        return self.propagator(field) * self.modulation()

    def forward_with_modulation(self, field, modulation: np.ndarray) -> Tensor:
        """Forward with an externally supplied complex transmission.

        Used by the deployment simulator (crosstalk-degraded masks) and by
        2-pi invariance checks; bypasses the trainable parameter.
        """
        modulation = np.asarray(modulation)
        if modulation.shape != (self.grid.n, self.grid.n):
            raise ValueError(
                f"modulation shape {modulation.shape} does not match layer "
                f"({self.grid.n}, {self.grid.n})"
            )
        return self.propagator(field) * Tensor(modulation)
