"""The Adam optimizer and the checkpointable optimizer base.

The paper trains with Adam (lr 0.2 for baselines, 0.001 during SLR
sparsification).  Adam supports complex parameters elementwise — the
second moment uses ``|g|^2`` so complex phases could be optimized
directly if desired.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

import numpy as np

from .tensor import Tensor

__all__ = ["Optimizer", "Adam"]


class Optimizer:
    """Base class: holds parameters and the current learning rate."""

    def __init__(self, params: Iterable[Tensor], lr: float) -> None:
        self.params: List[Tensor] = list(params)
        if not self.params:
            raise ValueError("optimizer received an empty parameter list")
        for param in self.params:
            if not param.requires_grad:
                raise ValueError("all optimized tensors must require grad")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = float(lr)

    def zero_grad(self) -> None:
        """Clear gradients of every managed parameter."""
        for param in self.params:
            param.zero_grad()

    def step(self) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """All mutable optimizer state (learning rate + subclass slots).

        Arrays are returned by reference; callers that persist them must
        copy (``np.savez`` does).  ``load_state_dict`` restores the
        snapshot exactly — a resumed training run steps with the same
        moments an uninterrupted one would have
        (byte-identical, test-enforced via the trainer checkpoints).
        """
        return {"lr": self.lr, **self._state_slots()}

    def load_state_dict(self, state: dict) -> None:
        expected = set(self.state_dict())
        missing = expected - set(state)
        if missing:
            raise ValueError(
                f"optimizer state is missing {sorted(missing)} "
                f"(expected {sorted(expected)})"
            )
        self.lr = float(state["lr"])
        self._load_state_slots(state)

    def _state_slots(self) -> dict:
        """Subclass hook: per-parameter state arrays (may contain None
        for parameters that have not stepped yet)."""
        return {}

    def _load_state_slots(self, state: dict) -> None:
        pass

    @staticmethod
    def _check_slot(name: str, values, n_params: int) -> list:
        values = list(values)
        if len(values) != n_params:
            raise ValueError(
                f"optimizer state slot {name!r} has {len(values)} "
                f"entries for {n_params} parameter(s)"
            )
        return values


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2014) with bias correction."""

    def __init__(
        self,
        params: Iterable[Tensor],
        lr: float = 1e-3,
        betas=(0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params, lr)
        self.beta1, self.beta2 = float(betas[0]), float(betas[1])
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self._step_count = 0
        self._m: List[Optional[np.ndarray]] = [None] * len(self.params)
        self._v: List[Optional[np.ndarray]] = [None] * len(self.params)

    def step(self) -> None:
        self._step_count += 1
        t = self._step_count
        bias1 = 1.0 - self.beta1 ** t
        bias2 = 1.0 - self.beta2 ** t
        for index, param in enumerate(self.params):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self._m[index] is None:
                # Moment state adopts the gradient's dtype (float32
                # under single-precision training, complex64 for complex
                # grads); the |g|^2 second moment is always real.
                self._m[index] = np.zeros_like(grad)
                self._v[index] = np.zeros(grad.shape,
                                          dtype=np.asarray(grad).real.dtype)
            self._m[index] = self.beta1 * self._m[index] + (1 - self.beta1) * grad
            grad_sq = (grad * np.conj(grad)).real
            self._v[index] = self.beta2 * self._v[index] + (1 - self.beta2) * grad_sq
            m_hat = self._m[index] / bias1
            v_hat = self._v[index] / bias2
            param.data = param.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def _state_slots(self) -> dict:
        return {
            "step_count": self._step_count,
            "m": list(self._m),
            "v": list(self._v),
        }

    def _load_state_slots(self, state: dict) -> None:
        self._step_count = int(state["step_count"])
        self._m = self._check_slot("m", state["m"], len(self.params))
        self._v = self._check_slot("v", state["v"], len(self.params))
