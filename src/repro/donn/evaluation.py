"""Evaluation utilities: accuracy, confusion matrices, deployed accuracy.

All read-only scoring routes through the compiled
:class:`~repro.runtime.InferenceEngine` rather than the autodiff graph;
every helper also accepts a prebuilt engine (``engine=``) so sweeps that
score one trained model many times compile it exactly once.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

from ..data.loaders import DataLoader
from ..data.synthetic import Dataset
from ..optics.crosstalk import CrosstalkModel
from ..runtime import InferenceEngine
from .model import DONN

__all__ = [
    "accuracy",
    "confusion_matrix",
    "deployed_accuracy",
]

ModelLike = Union[DONN, InferenceEngine]


def _iter_batches(data: Union[DataLoader, Dataset], batch_size: int = 256):
    if isinstance(data, DataLoader):
        yield from data
        return
    for start in range(0, len(data), batch_size):
        yield (data.images[start:start + batch_size],
               data.labels[start:start + batch_size])


#: Internal engine chunk size for evaluation-built engines.  The chunk
#: bounds memory: the model's retained scratch pool (the engine's
#: interior-row work buffer scales with chunk x n x padded_n) stays
#: fixed whatever the data batch size.  Cache blocking lives in the
#: hop (``repro.backend.hop``), not here.
_ENGINE_MAX_BATCH = 64


def _resolve_engine(
    model: ModelLike,
    engine: Optional[InferenceEngine] = None,
    batch_size: int = 256,
) -> InferenceEngine:
    """Prefer an explicit engine; compile one from a DONN otherwise."""
    if engine is not None:
        return engine
    if isinstance(model, InferenceEngine):
        return model
    return model.inference_engine(
        max_batch=min(batch_size, _ENGINE_MAX_BATCH)
    )


def accuracy(
    model: ModelLike,
    data: Union[DataLoader, Dataset],
    batch_size: int = 256,
    engine: Optional[InferenceEngine] = None,
) -> float:
    """Fraction of correctly classified samples.

    ``model`` may be a :class:`DONN` or an already-compiled
    :class:`InferenceEngine`; passing ``engine=`` explicitly reuses one
    compilation across many calls.
    """
    engine = _resolve_engine(model, engine, batch_size)
    correct = 0
    seen = 0
    for images, labels in _iter_batches(data, batch_size):
        predictions = engine.predict(images)
        correct += int((predictions == labels).sum())
        seen += len(labels)
    if seen == 0:
        raise ValueError("no samples to evaluate")
    return correct / seen


def confusion_matrix(
    model: ModelLike,
    data: Union[DataLoader, Dataset],
    batch_size: int = 256,
    engine: Optional[InferenceEngine] = None,
) -> np.ndarray:
    """``(classes, classes)`` counts with rows = true, columns = predicted."""
    engine = _resolve_engine(model, engine, batch_size)
    classes = engine.num_classes
    matrix = np.zeros((classes, classes), dtype=np.int64)
    for images, labels in _iter_batches(data, batch_size):
        predictions = engine.predict(images)
        np.add.at(matrix, (np.asarray(labels, dtype=np.intp), predictions), 1)
    return matrix


def deployed_accuracy(
    model: DONN,
    data: Union[DataLoader, Dataset],
    crosstalk: CrosstalkModel,
    phases: Optional[Sequence[np.ndarray]] = None,
    batch_size: int = 256,
    precision: str = "double",
) -> float:
    """Accuracy of the *fabricated* system under interpixel crosstalk.

    ``phases`` are the unwrapped physical phase profiles to fabricate
    (defaulting to the model's wrapped masks); pass masks with 2-pi
    add-ons to evaluate the smoothed fabrication.  The degraded forward
    runs through an :class:`InferenceEngine` compiled with the
    crosstalk-degraded modulations (the ``forward_with_modulations``
    fast path).
    """
    if phases is None:
        phases = model.phases(wrapped=True)
    modulations: List[np.ndarray] = [
        crosstalk.degrade_modulation(phase) for phase in phases
    ]
    engine = model.inference_engine(
        modulations=modulations,
        max_batch=min(batch_size, _ENGINE_MAX_BATCH),
        precision=precision,
    )
    return accuracy(engine, data, batch_size)
