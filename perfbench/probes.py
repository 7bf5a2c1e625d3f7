"""Which public functions of each layer the traced run wraps, and how the
span summary becomes the per-layer metrics named in ``BENCHMARK.json``.

Layers are the package's modules: pipeline, data, donn, autodiff, backend,
runtime, optics, roughness, sparsify, twopi and serve.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from spans import Tracer

#: Stages of the paper recipes, each reported as ``pipeline.stage_s.<stage>``.
PIPELINE_STAGES = ("train", "sparsify", "score", "twopi")


def _nbytes(value) -> int:
    return int(getattr(value, "nbytes", 0))


def _fft_bytes(args, kwargs, result) -> Dict[str, float]:
    # Computed from array sizes (input read + output written), not measured.
    return {"bytes": float(_nbytes(args[0]) + _nbytes(result))}


def _engine_samples(args, kwargs, result) -> Dict[str, float]:
    shape = np.shape(args[1])
    return {"samples": float(1 if len(shape) == 2 else shape[0])}


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""
    from repro.autodiff import Adam, Tensor
    from repro.donn import DONN
    from repro.pipeline.stages import RunContext
    from repro.roughness import IntraBlockRegularizer, RoughnessRegularizer
    from repro.runtime import InferenceEngine
    from repro.sparsify import SLRSparsifier
    from repro.twopi import TwoPiOptimizer

    for fn in ("fft", "ifft", "fft2", "ifft2"):
        tracer.wrap_function("repro.backend.dispatch", fn, "backend.fft",
                             count=_fft_bytes)
    for method in ("logits", "predict"):
        tracer.wrap_method(InferenceEngine, method, "runtime.engine",
                           count=_engine_samples)
    tracer.wrap_function("repro.autodiff.fused", "diffmod",
                         "autodiff.diffmod")
    tracer.wrap_method(Tensor, "backward", "autodiff.backward")
    tracer.wrap_method(Adam, "step", "autodiff.optimizer_step")
    tracer.wrap_method(DONN, "__call__", "donn.forward")
    tracer.wrap_function("repro.donn.evaluation", "accuracy",
                         "donn.accuracy")
    for cls in (RoughnessRegularizer, IntraBlockRegularizer):
        tracer.wrap_method(cls, "__call__", "roughness.regularizer")
    tracer.wrap_method(SLRSparsifier, "run", "sparsify.slr")
    tracer.wrap_method(TwoPiOptimizer, "optimize_model", "twopi.optimize")
    tracer.wrap_method(RunContext, "run_stage",
                       lambda ctx, stage, *rest:
                       f"pipeline.stage_s.{stage.name}")
    for fn in ("save_run", "load_runs"):
        tracer.wrap_function("repro.pipeline.runs", fn, "pipeline.persist")
    tracer.wrap_function("repro.data.synthetic", "make_dataset",
                         "data.make_dataset")
    tracer.wrap_function("repro.runtime.kernel_cache", "get_kernel",
                         "optics.kernel_build")


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Span summary -> per-layer metrics: self seconds, counts, and the
    inclusive wall time of each pipeline stage."""
    summary = tracer.summary()

    def get(name: str, key: str) -> float:
        return float(summary.get(name, {}).get(key, 0.0))

    out = {
        "backend.fft_calls": get("backend.fft", "calls"),
        "backend.fft_s": get("backend.fft", "self_s"),
        "backend.fft_bytes": get("backend.fft", "bytes"),
        "runtime.engine_calls": get("runtime.engine", "calls"),
        "runtime.engine_samples": get("runtime.engine", "samples"),
        "runtime.engine_s": get("runtime.engine", "self_s"),
        "autodiff.diffmod_calls": get("autodiff.diffmod", "calls"),
        "autodiff.diffmod_s": get("autodiff.diffmod", "self_s"),
        "autodiff.backward_s": get("autodiff.backward", "self_s"),
        "autodiff.optimizer_step_s": get("autodiff.optimizer_step", "self_s"),
        "donn.forward_s": get("donn.forward", "self_s"),
        "donn.accuracy_s": get("donn.accuracy", "self_s"),
        "roughness.regularizer_s": get("roughness.regularizer", "self_s"),
        "sparsify.slr_s": get("sparsify.slr", "self_s"),
        "twopi.optimize_s": get("twopi.optimize", "self_s"),
        "pipeline.persist_s": get("pipeline.persist", "self_s"),
        "data.make_dataset_s": get("data.make_dataset", "self_s"),
        "optics.kernel_build_s": get("optics.kernel_build", "self_s"),
    }
    # A stage is a phase of the job, not a layer with work of its own:
    # report its whole wall time so the stages split the job.
    for stage in PIPELINE_STAGES:
        name = f"pipeline.stage_s.{stage}"
        out[name] = get(name, "total_s")
    return out
