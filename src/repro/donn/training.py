"""Training loop for DONN models.

The paper's loss (Eq. 5 / Eq. 8) is the MSE-of-softmax classification term
plus optional differentiable regularizers (roughness ``p * R(W)`` and
intra-block smoothness ``q * R_intra(W)``).  The trainer takes the
regularizers as callables ``model -> Tensor`` so the roughness package can
plug in without a dependency cycle.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from ..autodiff import Adam, Optimizer, Tensor
from ..autodiff import functional as F
from ..autodiff import rng as _global_rng
from ..backend import precision_scope, resolve_precision
from ..data.loaders import DataLoader
from ..utils.interrupt import InterruptRequested, interrupt_requested
from .evaluation import accuracy
from .model import DONN

__all__ = [
    "TrainingHistory",
    "Trainer",
    "TrainingDiverged",
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_VERSION",
    "save_checkpoint",
    "load_checkpoint",
]

Regularizer = Callable[[DONN], Tensor]


class TrainingDiverged(RuntimeError):
    """The training loss went non-finite (NaN/inf).

    Divergence is a *deterministic* property of ``(recipe, config,
    data)`` — rerunning the exact same point reproduces it — so the
    sweep driver records it as a permanent point failure instead of
    burning retries on it (unlike a worker crash, which says nothing
    about the point itself).
    """


#: Identifies a training checkpoint file.
CHECKPOINT_FORMAT = "repro-train-checkpoint"
#: Bump when the checkpoint layout changes incompatibly.
CHECKPOINT_VERSION = 1


def _pack_optimizer(state: Dict) -> tuple:
    """Split an optimizer state dict into JSON scalars + named arrays.

    Slot lists may hold ``None`` for parameters that never stepped; the
    meta side records the slot layout so ``_unpack_optimizer`` rebuilds
    the exact ``state_dict`` shape.
    """
    scalars: Dict[str, object] = {}
    slots: Dict[str, List[bool]] = {}
    arrays: Dict[str, np.ndarray] = {}
    for key, value in state.items():
        if isinstance(value, list):
            slots[key] = [item is not None for item in value]
            for index, item in enumerate(value):
                if item is not None:
                    arrays[f"opt_{key}_{index}"] = np.asarray(item)
        else:
            scalars[key] = value
    return {"scalars": scalars, "slots": slots}, arrays


def _unpack_optimizer(meta: Dict, data) -> Dict:
    state: Dict[str, object] = dict(meta["scalars"])
    for key, mask in meta["slots"].items():
        state[key] = [
            data[f"opt_{key}_{index}"] if present else None
            for index, present in enumerate(mask)
        ]
    return state


def save_checkpoint(
    path: Union[str, Path],
    *,
    epoch: int,
    model: DONN,
    optimizer: Optimizer,
    loader: DataLoader,
    history: "TrainingHistory",
    fingerprint: str = "",
) -> Path:
    """Atomically persist a mid-fit training state.

    The checkpoint captures everything the remaining epochs depend on —
    phases, optimizer moments, the loader's shuffle stream, the global
    RNG stream, the history so far — so a fit resumed from it produces
    a byte-identical trajectory (test-enforced).  Written to a temp
    name and ``os.replace``d into place: a crash mid-write leaves the
    previous valid checkpoint untouched.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    opt_meta, arrays = _pack_optimizer(optimizer.state_dict())
    meta = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "fingerprint": fingerprint,
        "epoch": int(epoch),
        "optimizer_class": type(optimizer).__name__,
        "optimizer": opt_meta,
        "loader": loader.state_dict(),
        "rng": _global_rng.get_state(),
        "history": history.as_dict(),
        "num_layers": len(model.layers),
    }
    for index, layer in enumerate(model.layers):
        arrays[f"phase_{index}"] = np.asarray(layer.phase.data)
    tmp = path.parent / f".{path.name}.tmp.npz"
    with open(tmp, "wb") as fh:
        np.savez(fh, meta=np.array(json.dumps(meta)), **arrays)
    os.replace(tmp, path)
    return path


def load_checkpoint(path: Union[str, Path],
                    fingerprint: str = "") -> Optional[Dict]:
    """Load a checkpoint written by :func:`save_checkpoint`.

    Returns ``None`` (with a :class:`RuntimeWarning`) when the file is
    missing, unreadable, a different format/version, or was written for
    a different ``fingerprint`` — a stale or corrupt checkpoint must
    degrade to "start fresh", never crash the run or silently resume
    the wrong experiment.
    """
    path = Path(path)
    if not path.is_file():
        return None
    try:
        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(str(data["meta"][()]))
            if meta.get("format") != CHECKPOINT_FORMAT:
                raise ValueError(f"not a {CHECKPOINT_FORMAT} file")
            if meta.get("version") != CHECKPOINT_VERSION:
                raise ValueError(
                    f"unsupported checkpoint version {meta.get('version')!r}"
                )
            if meta.get("fingerprint") != fingerprint:
                raise ValueError(
                    "checkpoint belongs to a different experiment "
                    "(fingerprint mismatch)"
                )
            phases = [data[f"phase_{index}"]
                      for index in range(meta["num_layers"])]
            optimizer = _unpack_optimizer(meta["optimizer"], data)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        warnings.warn(
            f"ignoring invalid checkpoint {path}: {exc}",
            RuntimeWarning, stacklevel=2,
        )
        return None
    return {
        "epoch": meta["epoch"],
        "phases": phases,
        "optimizer_class": meta["optimizer_class"],
        "optimizer": optimizer,
        "loader": meta["loader"],
        "rng": meta["rng"],
        "history": meta["history"],
    }


@dataclass
class TrainingHistory:
    """Per-epoch training curves."""

    loss: List[float] = field(default_factory=list)
    classification_loss: List[float] = field(default_factory=list)
    regularization_loss: List[float] = field(default_factory=list)
    train_accuracy: List[float] = field(default_factory=list)
    test_accuracy: List[float] = field(default_factory=list)

    def as_dict(self) -> Dict[str, List[float]]:
        return {
            "loss": self.loss,
            "classification_loss": self.classification_loss,
            "regularization_loss": self.regularization_loss,
            "train_accuracy": self.train_accuracy,
            "test_accuracy": self.test_accuracy,
        }


class Trainer:
    """Mini-batch gradient training of a :class:`DONN`.

    Parameters
    ----------
    model:
        The DONN to optimize.
    optimizer:
        Any :class:`~repro.autodiff.optim.Optimizer`; defaults to Adam with
        the paper's baseline learning rate 0.2.
    regularizers:
        Differentiable penalties added to the classification loss — e.g.
        ``RoughnessRegularizer`` (p * R) and ``IntraBlockRegularizer``
        (q * R_intra).
    precision:
        ``"double"`` (complex128, the reference), ``"single"``
        (complex64 — the fused op, input encoding and optimizer state
        all run at float32 width, roughly halving FFT memory traffic)
        or ``None`` to follow the ambient :mod:`repro.backend` policy.
        :meth:`fit` accepts a per-call override.
    """

    def __init__(
        self,
        model: DONN,
        optimizer: Optional[Optimizer] = None,
        regularizers: Sequence[Regularizer] = (),
        precision: Optional[str] = None,
    ) -> None:
        self.model = model
        self.optimizer = optimizer or Adam(model.parameters(), lr=0.2)
        self.regularizers = list(regularizers)
        if precision is not None:
            resolve_precision(precision)  # validate eagerly
        self.precision = precision

    # ------------------------------------------------------------------
    # Loss
    # ------------------------------------------------------------------
    def loss(self, images: np.ndarray, labels: np.ndarray) -> tuple:
        """Return ``(total, classification, regularization)`` tensors.

        Runs under the trainer's precision policy (like
        :meth:`train_epoch`), so a manual loss/backward/step loop gets
        the same dtypes a fit would.
        """
        with precision_scope(self.precision):
            total, classification, reg_total, _ = self._loss_with_logits(
                images, labels
            )
        return total, classification, reg_total

    def _loss_with_logits(self, images: np.ndarray,
                          labels: np.ndarray) -> tuple:
        """``loss`` terms plus the forward logits (reused for accuracy)."""
        logits = self.model(images)
        classification = F.mse_softmax_loss(
            logits, labels, num_classes=self.model.config.num_classes
        )
        total = classification
        reg_total: Optional[Tensor] = None
        for regularizer in self.regularizers:
            term = regularizer(self.model)
            reg_total = term if reg_total is None else reg_total + term
        if reg_total is not None:
            total = total + reg_total
        return total, classification, reg_total, logits

    # ------------------------------------------------------------------
    # Epoch driver
    # ------------------------------------------------------------------
    def train_epoch(self, loader: DataLoader) -> Dict[str, float]:
        """One pass over ``loader``; returns epoch-mean metrics.

        Runs under the trainer's precision policy: every fused forward/
        backward FFT, the input encoding and the optimizer state use the
        policy's dtypes for the duration of the epoch.
        """
        with precision_scope(self.precision):
            return self._train_epoch(loader)

    def _train_epoch(self, loader: DataLoader) -> Dict[str, float]:
        totals = {"loss": 0.0, "classification": 0.0, "regularization": 0.0}
        correct = 0
        seen = 0
        for images, labels in loader:
            self.optimizer.zero_grad()
            total, classification, regularization, logits = (
                self._loss_with_logits(images, labels)
            )
            total.backward()
            self.optimizer.step()

            batch = len(labels)
            seen += batch
            loss_value = total.item()
            if not math.isfinite(loss_value):
                # Fail fast: a non-finite loss never recovers (the
                # phases are already poisoned), and it is deterministic
                # — the sweep driver records it as a permanent failure
                # instead of retrying.
                raise TrainingDiverged(
                    f"training diverged: batch loss is {loss_value} "
                    f"after {seen - batch} samples this epoch"
                )
            totals["loss"] += loss_value * batch
            totals["classification"] += classification.item() * batch
            if regularization is not None:
                totals["regularization"] += regularization.item() * batch
            # Reuse the forward pass already paid for by the loss — the
            # (pre-step) logits — instead of a second full propagation.
            predictions = np.argmax(np.atleast_2d(logits.data), axis=-1)
            correct += int((predictions == labels).sum())
        if seen == 0:
            raise ValueError("loader produced no batches")
        return {
            "loss": totals["loss"] / seen,
            "classification_loss": totals["classification"] / seen,
            "regularization_loss": totals["regularization"] / seen,
            "train_accuracy": correct / seen,
        }

    def fit(
        self,
        train_loader: DataLoader,
        epochs: int,
        test_loader: Optional[DataLoader] = None,
        verbose: bool = False,
        precision: Optional[str] = None,
        checkpoint: Optional[Union[str, Path]] = None,
        checkpoint_every: int = 1,
        fingerprint: str = "",
        on_epoch: Optional[Callable[[int, Dict[str, float]], None]] = None,
    ) -> TrainingHistory:
        """Train for ``epochs`` passes; optionally track test accuracy.

        ``precision`` overrides the trainer's policy for this fit only
        (``fit(..., precision="single")`` runs the whole optimization —
        fused FFTs, encoding, optimizer state, the per-epoch evaluation
        engine — in complex64/float32).

        ``checkpoint`` names a file to crash-safe-checkpoint the fit to
        every ``checkpoint_every`` epochs (and always after the final
        one).  If the file already holds a valid checkpoint for the
        same ``fingerprint`` (an opaque caller-chosen experiment id),
        the fit *resumes* from it: phases, optimizer state, the
        loader's shuffle stream, the global RNG stream and the history
        so far are restored, and the returned history is byte-identical
        to an uninterrupted fit (test-enforced).  A pending graceful
        Ctrl-C (see :mod:`repro.utils.interrupt`) stops the fit at the
        next epoch boundary — after forcing a checkpoint when one is
        configured — by raising
        :class:`~repro.utils.interrupt.InterruptRequested`.

        ``on_epoch(epoch_index, metrics)`` is called after every newly
        computed epoch (not for restored ones), after the epoch's
        checkpoint was written; ``metrics`` carries the epoch means
        plus ``test_accuracy`` when a test loader is given.
        """
        if epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {epochs}")
        if checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        if precision is not None:
            resolve_precision(precision)  # validate before training
        previous_precision = self.precision
        if precision is not None:
            self.precision = precision
        try:
            return self._fit(train_loader, epochs, test_loader, verbose,
                             checkpoint, checkpoint_every, fingerprint,
                             on_epoch)
        finally:
            self.precision = previous_precision

    def _restore(self, restored: Dict, train_loader: DataLoader,
                 history: TrainingHistory) -> int:
        """Load a checkpoint blob into the live objects; returns the
        number of epochs already completed."""
        phases = restored["phases"]
        if len(phases) != len(self.model.layers):
            raise ValueError(
                f"checkpoint holds {len(phases)} layer(s) for a "
                f"{len(self.model.layers)}-layer model"
            )
        if restored["optimizer_class"] != type(self.optimizer).__name__:
            raise ValueError(
                f"checkpoint optimizer {restored['optimizer_class']} != "
                f"{type(self.optimizer).__name__}"
            )
        for layer, phase in zip(self.model.layers, phases):
            layer.phase.data = phase
        self.optimizer.load_state_dict(restored["optimizer"])
        train_loader.load_state_dict(restored["loader"])
        _global_rng.set_state(restored["rng"])
        for key, values in restored["history"].items():
            getattr(history, key).extend(values)
        return int(restored["epoch"])

    def _fit(self, train_loader, epochs, test_loader, verbose,
             checkpoint, checkpoint_every, fingerprint,
             on_epoch) -> TrainingHistory:
        history = TrainingHistory()
        start_epoch = 0
        if checkpoint is not None:
            restored = load_checkpoint(checkpoint, fingerprint=fingerprint)
            if restored is not None:
                if restored["epoch"] > epochs:
                    warnings.warn(
                        f"ignoring checkpoint {checkpoint}: it is "
                        f"{restored['epoch']} epochs deep but this fit "
                        f"asks for {epochs}",
                        RuntimeWarning, stacklevel=2,
                    )
                else:
                    start_epoch = self._restore(restored, train_loader,
                                                history)
                    if verbose and start_epoch:
                        print(f"resumed from checkpoint at epoch "
                              f"{start_epoch}/{epochs}")
        engine = None
        # The evaluation engine mirrors the training precision, so the
        # per-epoch test accuracy reflects the numbers training saw.
        engine_precision = resolve_precision(self.precision).name
        for epoch in range(start_epoch, epochs):
            metrics = self.train_epoch(train_loader)
            history.loss.append(metrics["loss"])
            history.classification_loss.append(metrics["classification_loss"])
            history.regularization_loss.append(metrics["regularization_loss"])
            history.train_accuracy.append(metrics["train_accuracy"])
            if test_loader is not None:
                # One engine for the whole fit: ``refresh()`` re-reads
                # the phases in place, keeping the cached kernels and
                # the readout matrix instead of recompiling every epoch.
                if engine is None:
                    engine = self.model.inference_engine(
                        precision=engine_precision
                    )
                else:
                    engine.refresh()
                test_acc = accuracy(engine, test_loader)
                history.test_accuracy.append(test_acc)
                metrics = dict(metrics, test_accuracy=test_acc)
            done = epoch + 1
            stop = interrupt_requested()
            if checkpoint is not None and (
                    stop or done == epochs or done % checkpoint_every == 0):
                save_checkpoint(
                    checkpoint, epoch=done, model=self.model,
                    optimizer=self.optimizer, loader=train_loader,
                    history=history, fingerprint=fingerprint,
                )
            if on_epoch is not None:
                on_epoch(epoch, metrics)
            if verbose:
                test_note = (
                    f" test_acc={history.test_accuracy[-1]:.3f}"
                    if test_loader is not None else ""
                )
                print(
                    f"epoch {epoch + 1}/{epochs} "
                    f"loss={metrics['loss']:.4f} "
                    f"acc={metrics['train_accuracy']:.3f}{test_note}"
                )
            if stop and done < epochs:
                raise InterruptRequested(
                    f"training interrupted after epoch {done}/{epochs}"
                    + (" (checkpoint written)" if checkpoint is not None
                       else "")
                )
        return history
