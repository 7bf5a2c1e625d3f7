"""Experiment configuration: the paper's setups at two scales.

``ExperimentConfig`` bundles everything one table row needs: the dataset
family, the DONN geometry, training lengths, regularization factors, SLR
settings and the 2-pi optimizer settings.

Scales
------
* ``laptop()`` — the default: a 40 x 40 system whose physics (pixel pitch,
  wavelength, fan-out fraction, block-size-to-mask ratio, detector ratio)
  mirrors the published geometry, sized to train in seconds per epoch on
  one CPU core.  40 is chosen so both paper block sizes map to integers:
  25/200 -> 5 and 20/200 -> 4.
* ``paper_scale()`` — the exact published system (200 x 200, 36 um,
  27.94 cm, 50-150 epochs).  Identical code path; takes GPU-scale compute.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional, Tuple

from ..donn.model import DONNConfig
from ..sparsify.slr import SLRConfig
from ..twopi.optimizer import TwoPiConfig
from ..utils.serialization import dataclass_from_dict, dataclass_to_dict

__all__ = ["ExperimentConfig", "PAPER_BLOCK_SIZES", "PAPER_EPOCHS"]

#: The nested sub-configs of an :class:`ExperimentConfig` and their
#: dataclasses — the schema both the dict round trip and the dotted-key
#: override machinery (`--set slr.block_size=5`) derive from.
NESTED_CONFIGS: Dict[str, type] = {
    "system": DONNConfig,
    "slr": SLRConfig,
    "twopi": TwoPiConfig,
}

#: Block sizes the paper trains sparsification with (Tables II-V captions).
PAPER_BLOCK_SIZES = {"MNIST": 25, "FMNIST": 20, "KMNIST": 20, "EMNIST": 20}

#: Baseline training epochs per dataset (Tables II-V captions).
PAPER_EPOCHS = {"MNIST": 50, "FMNIST": 150, "KMNIST": 100, "EMNIST": 100}

#: Paper dataset name per synthetic family.
_FAMILY_TO_PAPER = {
    "digits": "MNIST",
    "fashion": "FMNIST",
    "kuzushiji": "KMNIST",
    "letters": "EMNIST",
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to run one dataset's table (II-V)."""

    family: str
    system: DONNConfig
    seed: int = 0
    # Data / training scale.
    n_train: int = 1200
    n_test: int = 400
    batch_size: int = 100
    baseline_epochs: int = 12
    # The paper trains with Adam lr=0.2 under its own loss normalization;
    # at this repo's loss scale 0.05 reproduces the published regime
    # (smooth trained masks) while converging to comparable accuracy.
    baseline_lr: float = 0.05
    # Regularization factors (Eq. 5 / Eq. 8); calibrated for this repo's
    # loss scale — the paper's 0.1 is relative to its own (unpublished)
    # normalization.
    roughness_p: float = 5e-5
    intra_q: float = 1e-3
    roughness_k: int = 8
    # Sparsification.
    slr: SLRConfig = field(default_factory=SLRConfig)
    # Post-training smoothing.
    twopi: TwoPiConfig = field(default_factory=TwoPiConfig)
    # Training compute precision ("double" = complex128 reference,
    # "single" = complex64 fast path); scoring/2-pi stages always run
    # in double so table numbers stay comparable across precisions.
    precision: str = "double"

    def __post_init__(self) -> None:
        from ..backend import resolve_precision

        resolve_precision(self.precision)  # validate eagerly
        if self.family not in _FAMILY_TO_PAPER:
            raise ValueError(
                f"unknown family {self.family!r}; expected one of "
                f"{sorted(_FAMILY_TO_PAPER)}"
            )
        if self.twopi.k != self.roughness_k:
            # The table divides the score stage's roughness_k "before"
            # into the 2-pi stage's twopi.k "after".
            raise ValueError(
                f"twopi.k={self.twopi.k} must equal roughness_k="
                f"{self.roughness_k}: the 2-pi reduction compares "
                f"roughness under one neighbourhood"
            )
        if self.system.n % self.slr.block_size:
            raise ValueError(
                f"block size {self.slr.block_size} does not divide the "
                f"mask size {self.system.n}"
            )

    @property
    def paper_dataset(self) -> str:
        """The paper dataset this family stands in for."""
        return _FAMILY_TO_PAPER[self.family]

    def with_overrides(self, **changes) -> "ExperimentConfig":
        """Functional update (frozen dataclass helper)."""
        return replace(self, **changes)

    # ------------------------------------------------------------------
    # Serialization (experiment files, run directories)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serializable nested dict of the full configuration.

        The nested ``system``/``slr``/``twopi`` sub-configs become nested
        dicts; :meth:`from_dict` round-trips the result exactly
        (``cfg.to_dict() == ExperimentConfig.from_dict(cfg.to_dict())
        .to_dict()``, test-enforced).
        """
        data = dataclass_to_dict(self)
        for key in NESTED_CONFIGS:
            data[key] = dataclass_to_dict(getattr(self, key))
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ExperimentConfig":
        """Rebuild a config from :meth:`to_dict` output (or a hand-written
        experiment file).

        Unknown keys — top-level or inside a nested sub-config — are
        rejected by name; missing keys take the dataclass defaults, and
        all the usual ``__post_init__`` validation applies.
        """
        if not isinstance(data, dict):
            raise ValueError(
                f"expected a config mapping, got {type(data).__name__}"
            )
        data = dict(data)
        for key, sub_cls in NESTED_CONFIGS.items():
            if key in data and not isinstance(data[key], sub_cls):
                data[key] = dataclass_from_dict(sub_cls, data[key],
                                                context=key)
        return dataclass_from_dict(cls, data)

    # ------------------------------------------------------------------
    # Canonical scales
    # ------------------------------------------------------------------
    @classmethod
    def laptop(cls, family: str, n: int = 40, seed: int = 0,
               **overrides) -> "ExperimentConfig":
        """CI-sized config mirroring the published geometry (see module
        docstring)."""
        paper_name = _FAMILY_TO_PAPER.get(family)
        if paper_name is None:
            raise ValueError(
                f"unknown family {family!r}; expected one of "
                f"{sorted(_FAMILY_TO_PAPER)}"
            )
        block = max(2, round(n * PAPER_BLOCK_SIZES[paper_name] / 200))
        while n % block:
            block += 1
        system = DONNConfig.laptop(n=n, phase_init="high")
        slr = SLRConfig(
            block_size=block,
            sparsity_ratio=0.1,  # the paper's ratio
            outer_iterations=3,
            inner_epochs=1,
            finetune_epochs=2,
            lr=0.02,  # scaled from the paper's 0.001 (full-data epochs)
        )
        twopi = TwoPiConfig(iterations=300, seed=seed, block_size=block)
        base = cls(family=family, system=system, seed=seed, slr=slr,
                   twopi=twopi)
        return base.with_overrides(**overrides) if overrides else base

    @classmethod
    def paper_scale(cls, family: str, seed: int = 0) -> "ExperimentConfig":
        """The exact published configuration (compute-heavy)."""
        paper_name = _FAMILY_TO_PAPER[family]
        slr = SLRConfig(
            block_size=PAPER_BLOCK_SIZES[paper_name],
            sparsity_ratio=0.1,
            outer_iterations=6,
            inner_epochs=2,
            finetune_epochs=5,
            lr=0.001,  # the paper's SLR learning rate
        )
        return cls(
            family=family,
            system=DONNConfig.paper(),
            seed=seed,
            n_train=60000,
            n_test=10000,
            batch_size=200,
            baseline_epochs=PAPER_EPOCHS[paper_name],
            slr=slr,
            twopi=TwoPiConfig(
                iterations=500,
                seed=seed,
                block_size=PAPER_BLOCK_SIZES[paper_name],
            ),
        )
