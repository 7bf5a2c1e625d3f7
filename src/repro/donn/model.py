"""The DONN model: encoder -> diffractive stack -> detector readout (Eq. 2).

``I(f0, W) = DiffMod(...DiffMod(DiffMod(f0, W1), W2)..., WL)`` followed by a
final free-space hop to the detector plane, where per-class intensity sums
become the logit vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..autodiff import Module, Tensor, no_grad
from ..autodiff import ops
from ..optics import Propagator, SimulationGrid, constants
from ..runtime import InferenceEngine
from .detectors import (
    DETECTOR_MODES,
    DetectorLayout,
    DetectorPlane,
    DetectorSpec,
)
from .encoding import encode_amplitude
from .layers import DiffractiveLayer

__all__ = ["DONNConfig", "DONN"]


@dataclass(frozen=True)
class DONNConfig:
    """System geometry and initialization of a DONN stack.

    ``distance=None`` derives the layer spacing from the published
    27.94 cm by keeping the Fresnel number of the (possibly smaller)
    aperture equal to the paper's — the scaling rule laptop-scale
    experiments use (DESIGN.md §1).
    """

    n: int = 40
    pixel_pitch: float = constants.PAPER_PIXEL_PITCH
    wavelength: float = constants.PAPER_WAVELENGTH
    num_layers: int = 3
    distance: Optional[float] = None
    detector_region_size: Optional[int] = None
    num_classes: int = 10
    pad_factor: int = 2
    phase_init: str = "small"
    parametrization: str = "sigmoid"
    detector_normalize: bool = True
    detector_gain: float = 10.0
    #: ``"standard"`` (one region per class) or ``"differential"``
    #: (class-specific region pairs, Li et al. 2019) — see
    #: :class:`~repro.donn.detectors.DetectorSpec`.
    detector_mode: str = "standard"

    def __post_init__(self) -> None:
        if self.num_layers < 1:
            raise ValueError(f"need >= 1 diffractive layer, got {self.num_layers}")
        if self.num_classes < 2:
            raise ValueError(f"need >= 2 classes, got {self.num_classes}")
        if self.detector_mode not in DETECTOR_MODES:
            raise ValueError(
                f"unknown detector_mode {self.detector_mode!r}; expected "
                f"one of {DETECTOR_MODES}"
            )

    @property
    def grid(self) -> SimulationGrid:
        return SimulationGrid(n=self.n, pixel_pitch=self.pixel_pitch,
                              wavelength=self.wavelength)

    def resolved_distance(self) -> float:
        """Layer spacing in meters (Fresnel-scaled default, see above)."""
        if self.distance is not None:
            return self.distance
        return self.grid.scaled_distance(
            constants.PAPER_MASK_SIZE, constants.PAPER_DISTANCE
        )

    def detector_spec(self) -> DetectorSpec:
        """The serializable detector-head recipe this config implies."""
        return DetectorSpec(
            mode=self.detector_mode,
            num_classes=self.num_classes,
            region_size=self.detector_region_size,
        )

    def detector_layout(self) -> DetectorLayout:
        return self.detector_spec().layout(self.n)

    @classmethod
    def paper(cls, **overrides) -> "DONNConfig":
        """The exact published system (200 x 200, 3 layers, 27.94 cm)."""
        base = dict(
            n=constants.PAPER_MASK_SIZE,
            pixel_pitch=constants.PAPER_PIXEL_PITCH,
            wavelength=constants.PAPER_WAVELENGTH,
            num_layers=constants.PAPER_NUM_LAYERS,
            distance=constants.PAPER_DISTANCE,
            detector_region_size=constants.PAPER_DETECTOR_SIZE,
            num_classes=constants.PAPER_NUM_CLASSES,
        )
        base.update(overrides)
        return cls(**base)

    @classmethod
    def laptop(cls, n: int = 40, **overrides) -> "DONNConfig":
        """A small single-core-friendly system with the same physics."""
        return cls(n=n, **overrides)


class DONN(Module):
    """Differentiable diffractive optical neural network.

    Accepts raw images (real, any resolution — they are bilinearly
    interpolated and amplitude-encoded) or pre-encoded complex fields of
    shape ``(batch, n, n)``.
    """

    def __init__(self, config: DONNConfig,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.config = config
        grid = config.grid
        distance = config.resolved_distance()
        self.layers: List[DiffractiveLayer] = []
        for index in range(config.num_layers):
            layer = DiffractiveLayer(
                grid,
                distance,
                phase_init=config.phase_init,
                parametrization=config.parametrization,
                pad_factor=config.pad_factor,
                rng=rng,
            )
            setattr(self, f"layer_{index}", layer)  # registers the submodule
            self.layers.append(layer)
        #: Final hop from the last mask to the detector plane.
        self.to_detector = Propagator(grid, distance,
                                      pad_factor=config.pad_factor)
        spec = config.detector_spec()
        self.detector = DetectorPlane(
            spec.layout(config.n),
            normalize=config.detector_normalize,
            gain=config.detector_gain,
            mode=spec.mode,
        )

    # ------------------------------------------------------------------
    # Encoding & forward
    # ------------------------------------------------------------------
    def encode(self, images: np.ndarray) -> Tensor:
        """Amplitude-encode raw images onto the source field.

        Encodes at the active :mod:`repro.backend` precision, so a
        single-precision training scope feeds complex64 fields into the
        stack instead of round-tripping through complex128.
        """
        from ..backend import get_precision

        return Tensor(encode_amplitude(
            images, self.config.n, dtype=get_precision().complex_dtype
        ))

    def _as_field(self, inputs) -> Tensor:
        if isinstance(inputs, Tensor):
            return inputs
        inputs = np.asarray(inputs)
        if np.iscomplexobj(inputs):
            return Tensor(inputs)
        return self.encode(inputs)

    def forward(self, inputs) -> Tensor:
        """Full forward pass to class logits ``(batch, num_classes)``."""
        field = self._as_field(inputs)
        for layer in self.layers:
            field = layer(field)
        field = self.to_detector(field)
        intensity = ops.abs2(field)
        return self.detector.readout(intensity)

    def forward_with_modulations(
        self, inputs, modulations: Sequence[np.ndarray]
    ) -> Tensor:
        """Forward using externally supplied complex layer transmissions.

        The deployment simulator evaluates the *fabricated* system by
        passing crosstalk-degraded modulations here; the trainable
        parameters are untouched.
        """
        if len(modulations) != len(self.layers):
            raise ValueError(
                f"got {len(modulations)} modulations for "
                f"{len(self.layers)} layers"
            )
        field = self._as_field(inputs)
        for layer, modulation in zip(self.layers, modulations):
            field = layer.forward_with_modulation(field, modulation)
        field = self.to_detector(field)
        intensity = ops.abs2(field)
        return self.detector.readout(intensity)

    # ------------------------------------------------------------------
    # Compiled (graph-free) read paths
    # ------------------------------------------------------------------
    def inference_engine(self, **kwargs) -> InferenceEngine:
        """Compile the current phase masks into an :class:`InferenceEngine`.

        The engine snapshots the modulations: rebuild (or ``refresh()``)
        after further training.  Keyword arguments are forwarded
        (``precision``, ``max_batch``, ``modulations``, ...).
        """
        return InferenceEngine(self, **kwargs)

    def intensity_map(self, inputs) -> np.ndarray:
        """Detector-plane intensity pattern(s), for visualization."""
        return self.inference_engine().intensity_map(inputs)

    def predict(self, inputs) -> np.ndarray:
        """Predicted class labels (argmax of detector sums).

        Routed through the compiled engine — identical logits to
        ``forward`` (the equivalence is test-enforced) at roughly half
        the wall time and zero graph bookkeeping.  Each call
        re-snapshots the current phases; when scoring many small inputs
        between which the phases cannot change, build one engine with
        :meth:`inference_engine` and call ``engine.predict`` instead.
        """
        return self.inference_engine().predict(inputs)

    # ------------------------------------------------------------------
    # Mask access
    # ------------------------------------------------------------------
    def phases(self, wrapped: bool = True) -> List[np.ndarray]:
        """Per-layer phase masks (wrapped to ``[0, 2 pi)`` by default)."""
        return [layer.phase_array(wrapped=wrapped) for layer in self.layers]

    def set_phases(self, phases: Sequence[np.ndarray]) -> None:
        """Overwrite every layer so it imparts the given phase masks.

        Values are interpreted in *phase space*; the sigmoid
        parametrization inverts its bounded map (so values must lie in
        ``(0, 2 pi)`` up to clipping), the direct parametrization assigns
        raw values.
        """
        if len(phases) != len(self.layers):
            raise ValueError(
                f"got {len(phases)} phase masks for {len(self.layers)} layers"
            )
        for layer, phase in zip(self.layers, phases):
            layer.set_phase_array(np.asarray(phase, dtype=np.float64))

    def sparsity_masks(self) -> List[Optional[np.ndarray]]:
        return [layer.sparsity_mask for layer in self.layers]

    def apply_sparsity_masks(self, masks: Sequence[Optional[np.ndarray]]) -> None:
        """Install frozen keep-masks on every layer (None entries = dense)."""
        if len(masks) != len(self.layers):
            raise ValueError(
                f"got {len(masks)} masks for {len(self.layers)} layers"
            )
        for layer, mask in zip(self.layers, masks):
            layer.set_sparsity_mask(mask)

    def modulations(self) -> List[np.ndarray]:
        """Ideal complex transmissions ``exp(i phi)`` of every layer."""
        with no_grad():
            return [np.asarray(layer.modulation().data)
                    for layer in self.layers]

    # ------------------------------------------------------------------
    # Persistence (the serving artifact format)
    # ------------------------------------------------------------------
    def save(self, path, metadata=None, precision=None):
        """Persist this model as a self-contained, versioned artifact.

        Stores the full config (geometry, detector layout,
        parametrization), the *raw* parameter arrays (so a reload is
        bit-identical — 0 ULP, test-enforced) and any sparsity masks.
        ``precision`` optionally records the training precision, which
        becomes the serving default for this artifact.  Returns the
        written path; reload with :meth:`DONN.load` or serve it with
        ``repro serve --model <path>``.
        """
        from ..utils.serialization import save_model

        return save_model(path, self, metadata=metadata,
                          precision=precision)

    @classmethod
    def load(cls, path) -> "DONN":
        """Rebuild a model from a :meth:`save` artifact (no other inputs)."""
        from ..utils.serialization import load_model

        return load_model(path)
