"""Compiled inference fast path for trained DONNs.

:class:`InferenceEngine` flattens a :class:`~repro.donn.model.DONN` into a
pure-NumPy pipeline for gradient-free serving.  Relative to running
``model.forward`` under ``no_grad`` it removes every per-call source of
overhead:

* **no autodiff graph** — no Tensor wrapping, no vjp closures;
* **shared propagation kernels** — every hop's transfer function comes
  from the process-wide :mod:`~repro.runtime.kernel_cache`, so the
  ``L + 1`` hops of an ``L``-layer stack share one precomputed ``H``;
* **fused pad/modulate/crop** — the field lives as the interior rows
  of the padded grid for the whole stack; each layer's phase mask is
  embedded in padded rows (zeros outside the aperture), so the autodiff
  path's ``crop -> modulate -> pad`` becomes a single multiply;
* **preallocated scratch buffers** — reused across batches and chunks;
* **optional single precision** (``precision="single"``), roughly
  halving FFT memory bandwidth at ~1e-4 logit accuracy;
* **batched, chunked execution** — a ``max_batch`` chunker streams
  arbitrarily large workloads at bounded memory.

The engine snapshots the model's modulations at construction time; build
a fresh engine (or call :meth:`refresh`) after the phases change.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..backend import PRECISIONS
from ..backend import hop as _hop
from .buffers import ScratchBuffers
from .kernel_cache import PropagationKernel, kernel_for_dtype

__all__ = ["InferenceEngine"]


class InferenceEngine:
    """Graph-free batched forward pass of a trained DONN.

    Parameters
    ----------
    model:
        The :class:`~repro.donn.model.DONN` to compile.  Geometry,
        detector layout and (by default) the current phase masks are
        snapshotted; training the model afterwards does not affect an
        already-built engine.
    modulations:
        Optional per-layer complex transmissions overriding the model's
        own ``exp(i phi)`` — the deployment simulator passes its
        crosstalk-degraded masks here.
    precision:
        ``"double"`` (complex128, bit-compatible with the autodiff
        forward) or ``"single"`` (complex64 fast path).
    max_batch:
        Largest number of samples propagated at once; bigger inputs are
        streamed in chunks of this size.  The chunk bounds memory: the
        engine's scratch holds ``max_batch * n * padded_n`` complex
        elements.  Cache blocking lives in the hop
        (:func:`repro.backend.hop.propagate_rows`), but a chunk is one
        hop's batch, so it also bounds how many cache blocks a hop can
        spread over the FFT threads.
    buffers:
        Optional shared :class:`ScratchBuffers` pool (so many short-lived
        engines over one model reuse the same scratch memory).
    source_modes:
        Optional ``(modes, n, n)`` complex screens modeling a *partially
        spatially coherent* source by mode decomposition (Filipovich et
        al. 2023): the input field is propagated once per screen and the
        mutually incoherent modes add in *intensity* (averaged over
        modes).  ``None`` (default) is the fully coherent forward; a
        single uniform screen reproduces it exactly (test-enforced).
        Screens come from
        :meth:`repro.physics.CoherenceSpec.screens`.
    """

    def __init__(
        self,
        model,
        modulations: Optional[Sequence[np.ndarray]] = None,
        precision: str = "double",
        max_batch: int = 64,
        buffers: Optional[ScratchBuffers] = None,
        source_modes: Optional[np.ndarray] = None,
    ) -> None:
        if precision not in PRECISIONS:
            raise ValueError(
                f"unknown precision {precision!r}; expected one of "
                f"{sorted(PRECISIONS)}"
            )
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        policy = PRECISIONS[precision]
        self.model = model
        self.precision = precision
        self.max_batch = int(max_batch)
        self._cdtype = policy.complex_dtype
        self._rdtype = policy.real_dtype
        self._buffers = buffers if buffers is not None else ScratchBuffers()

        self.n = int(model.config.n)
        #: One shared kernel per hop (L layer hops + the detector hop),
        #: materialized at the engine's precision through the cache — a
        #: ``"single"`` engine shares one complex64 kernel per geometry
        #: instead of downcasting a complex128 array per build.
        propagators = [layer.propagator for layer in model.layers]
        propagators.append(model.to_detector)
        self._kernels: List[PropagationKernel] = [
            kernel_for_dtype(propagator.kernel, self._cdtype)
            for propagator in propagators
        ]
        pads = {k.pad for k in self._kernels}
        sides = {k.padded_n for k in self._kernels}
        if len(pads) != 1 or len(sides) != 1:
            raise ValueError(
                "InferenceEngine requires a uniform padded grid across "
                f"hops, got pads={sorted(pads)} sides={sorted(sides)}"
            )
        self._pad = pads.pop()
        self._padded_n = sides.pop()
        # The per-hop ortho scaling is folded into the shared kernel
        # (``PropagationKernel.prescaled``), so the hot loop runs
        # unscaled DFT passes; the prescaled array is shared as-is with
        # every other same-precision engine and the fused training op
        # (no copy in either precision).
        self._hs = [kernel.prescaled() for kernel in self._kernels]

        detector = model.detector
        if detector.layout.n != self.n:
            raise ValueError(
                f"detector layout n={detector.layout.n} does not match "
                f"grid n={self.n}"
            )
        self._normalize = detector.normalize
        self._gain = detector.gain
        self._readout = np.ascontiguousarray(
            detector._readout_matrix.data, dtype=self._rdtype
        )
        # Differential heads carry an explicit total-capture vector
        # (signed logits do not sum to the captured intensity); the
        # standard head leaves it None and keeps the logit-sum path.
        total = getattr(detector, "_total_vector", None)
        self._total = (None if total is None else
                       np.ascontiguousarray(total.data, dtype=self._rdtype))
        self.num_classes = detector.num_classes

        if source_modes is None:
            self._source_modes: Optional[np.ndarray] = None
        else:
            modes = np.asarray(source_modes)
            if modes.ndim == 2:
                modes = modes[None]
            if modes.ndim != 3 or modes.shape[-2:] != (self.n, self.n):
                raise ValueError(
                    f"source_modes shape {np.shape(source_modes)} does "
                    f"not match (modes, {self.n}, {self.n})"
                )
            if modes.shape[0] < 1:
                raise ValueError("source_modes needs at least one mode")
            self._source_modes = np.ascontiguousarray(
                modes, dtype=self._cdtype
            )

        self._modulation_rows: List[np.ndarray] = []
        self.refresh(modulations)

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def refresh(
        self, modulations: Optional[Sequence[np.ndarray]] = None
    ) -> "InferenceEngine":
        """Re-snapshot the layer modulations (e.g. after more training).

        Cheap by design: when the engine already holds its padded
        modulation planes (always, after construction) the new values
        are written into them in place — kernels, scratch buffers and
        the readout matrix are untouched, so per-epoch evaluation during
        training does not rebuild anything.  Returns ``self`` so it
        chains: ``engine.refresh().predict(x)``.
        """
        if modulations is None:
            modulations = self.model.modulations()
        if len(modulations) != len(self.model.layers):
            raise ValueError(
                f"got {len(modulations)} modulations for "
                f"{len(self.model.layers)} layers"
            )
        n, pad, side = self.n, self._pad, self._padded_n
        checked = []
        for index, modulation in enumerate(modulations):
            modulation = np.asarray(modulation)
            if modulation.shape != (n, n):
                raise ValueError(
                    f"modulation {index} has shape {modulation.shape}, "
                    f"expected ({n}, {n})"
                )
            checked.append(modulation)
        # All inputs validated: from here the update cannot fail, so a
        # rejected refresh never leaves the engine half-updated.
        reuse = len(self._modulation_rows) == len(checked)
        padded = self._modulation_rows if reuse else []
        for index, modulation in enumerate(checked):
            # Only the interior rows of the padded plane are ever
            # touched (see ``_propagate_chunk``); zeros outside the
            # aperture columns fuse the autodiff path's
            # crop -> modulate -> re-pad into one in-place multiply.
            if reuse:
                padded[index][:, pad:pad + n] = modulation
            else:
                rows = np.zeros((n, side), dtype=self._cdtype)
                rows[:, pad:pad + n] = modulation
                padded.append(rows)
        self._modulation_rows = padded
        return self

    # ------------------------------------------------------------------
    # Input handling
    # ------------------------------------------------------------------
    def _as_fields(self, inputs) -> tuple:
        """Return ``(fields (batch, n, n) complex, was_unbatched)``."""
        data = getattr(inputs, "data", inputs)  # accept stray Tensors
        data = np.asarray(data)
        if np.iscomplexobj(data):
            unbatched = data.ndim == 2
            fields = data[None] if unbatched else data
            if fields.ndim != 3 or fields.shape[-2:] != (self.n, self.n):
                raise ValueError(
                    f"field shape {data.shape} does not match grid "
                    f"n={self.n}"
                )
            return fields, unbatched
        from ..donn.encoding import encode_amplitude

        # Raw images always come back batched from the encoder (matching
        # the autodiff path, which never squeezes encoded inputs).
        return encode_amplitude(data, self.n, dtype=self._cdtype), False

    # ------------------------------------------------------------------
    # Hot loop
    # ------------------------------------------------------------------
    def _propagate_chunk(self, fields: np.ndarray) -> np.ndarray:
        """Run one chunk through the stack; returns the *cropped*
        detector field ``(batch, n, n)``.

        The field lives as the ``n`` interior rows ``(batch, n, side)``
        of the padded grid for the whole stack, and every hop is
        :func:`repro.backend.hop.propagate_rows`, which owns the padded
        plane.  Each hop's input is exactly zero outside the aperture
        columns (the padded modulation rows zero everything they touch
        there), which is the invariant that hop relies on.
        """
        batch = fields.shape[0]
        n, pad, side = self.n, self._pad, self._padded_n
        work = self._buffers.zeros("field", (batch, n, side), self._cdtype)
        work[:, :, pad:pad + n] = fields
        last = len(self._hs) - 1
        for hop, h in enumerate(self._hs):
            inner = _hop.propagate_rows(work, h, pad)
            if hop < last:
                np.multiply(inner, self._modulation_rows[hop], out=work)
        return inner[:, :, pad:pad + n]

    def _intensity_chunk(self, fields: np.ndarray) -> np.ndarray:
        """Detector-plane intensity ``(batch, n, n)`` for one chunk.

        With ``source_modes`` set, each mutually incoherent screen is
        propagated separately and the intensities average (the mode
        decomposition of a partially coherent source); the accumulation
        lives outside the propagation scratch, so the per-mode reuse of
        ``_propagate_chunk``'s buffers is safe.
        """
        if self._source_modes is None:
            crop = self._propagate_chunk(fields)
            intensity = np.square(crop.real)
            intensity += np.square(crop.imag)
            return intensity
        intensity = np.zeros(fields.shape, dtype=self._rdtype)
        for screen in self._source_modes:
            crop = self._propagate_chunk(fields * screen)
            intensity += np.square(crop.real)
            intensity += np.square(crop.imag)
        intensity /= len(self._source_modes)
        return intensity

    def _logits_chunk(self, fields: np.ndarray) -> np.ndarray:
        intensity = self._intensity_chunk(fields)
        batch = intensity.shape[0]
        # One row-vector product per sample: a single batched GEMM
        # would let BLAS block the rows differently per batch size, and
        # a row's logits would depend on which rows share its chunk.
        rows = intensity.reshape(batch, 1, self.n * self.n)
        logits = (rows @ self._readout)[:, 0]
        if self._normalize:
            if self._total is None:
                total = logits.sum(axis=-1, keepdims=True)
            else:
                total = (rows @ self._total)[:, 0]
            logits = logits / (total + 1e-20) * self._gain
        return logits

    def _run_chunked(self, fields: np.ndarray, chunk_fn, out_shape,
                     out_dtype) -> np.ndarray:
        batch = fields.shape[0]
        out = np.empty((batch,) + out_shape, dtype=out_dtype)
        for start in range(0, batch, self.max_batch):
            stop = min(start + self.max_batch, batch)
            out[start:stop] = chunk_fn(fields[start:stop])
        return out

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def logits(self, inputs) -> np.ndarray:
        """Class logits ``(batch, num_classes)`` (unbatched in -> 1-D out)."""
        fields, unbatched = self._as_fields(inputs)
        logits = self._run_chunked(
            fields, self._logits_chunk, (self.num_classes,), self._rdtype
        )
        return logits[0] if unbatched else logits

    def predict(self, inputs) -> np.ndarray:
        """Predicted class labels (argmax of detector sums)."""
        fields, _ = self._as_fields(inputs)
        return self._run_chunked(
            fields,
            lambda chunk: np.argmax(self._logits_chunk(chunk), axis=-1),
            (), np.int64,
        )

    def intensity_map(self, inputs) -> np.ndarray:
        """Detector-plane intensity pattern(s), for visualization."""
        fields, unbatched = self._as_fields(inputs)
        intensity = self._run_chunked(
            fields, self._intensity_chunk, (self.n, self.n), self._rdtype
        )
        return intensity[0] if unbatched else intensity

    def __call__(self, inputs) -> np.ndarray:
        return self.logits(inputs)

    def __repr__(self) -> str:
        return (
            f"InferenceEngine(layers={len(self._modulation_rows)}, "
            f"n={self.n}, padded_n={self._padded_n}, "
            f"precision={self.precision!r}, max_batch={self.max_batch})"
        )
