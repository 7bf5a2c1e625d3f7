"""The differentiable DONN: encoding, layers, detectors, model, training.

The paper's Sec. III-A pipeline: images are amplitude-encoded on a coherent
source, diffract through trainable phase masks (``DiffMod`` modules), and
land on a detector plane whose per-region intensity sums are the class
logits.
"""

from .detectors import (
    DETECTOR_MODES,
    DetectorLayout,
    DetectorPlane,
    DetectorSpec,
)
from .encoding import bilinear_resize, encode_amplitude
from .evaluation import (
    accuracy,
    confusion_matrix,
    deployed_accuracy,
)
from .layers import DiffractiveLayer
from .model import DONN, DONNConfig
from .training import (
    Trainer,
    TrainingDiverged,
    TrainingHistory,
    load_checkpoint,
    save_checkpoint,
)

__all__ = [
    "DETECTOR_MODES",
    "DetectorLayout",
    "DetectorPlane",
    "DetectorSpec",
    "bilinear_resize",
    "encode_amplitude",
    "DiffractiveLayer",
    "DONN",
    "DONNConfig",
    "Trainer",
    "TrainingHistory",
    "TrainingDiverged",
    "save_checkpoint",
    "load_checkpoint",
    "accuracy",
    "confusion_matrix",
    "deployed_accuracy",
]
