"""Compiled inference runtime: shared kernels + graph-free serving.

The training stack runs through :mod:`repro.autodiff`; this package is
the read-only fast path.  :mod:`~repro.runtime.kernel_cache` memoizes
angular-spectrum / Fresnel transfer functions process-wide (one ``H``
per unique geometry, shared by every :class:`~repro.optics.Propagator`
and engine), and :class:`InferenceEngine` flattens a trained DONN into a
batched, buffer-reusing NumPy pipeline with an optional single-precision
mode.  See ``docs/performance.md``.
"""

from .buffers import ScratchBuffers
from .engine import InferenceEngine
from .kernel_cache import (
    KernelKey,
    PropagationKernel,
    cache_info,
    clear_kernel_cache,
    get_kernel,
    kernel_for_dtype,
)

__all__ = [
    "InferenceEngine",
    "ScratchBuffers",
    "KernelKey",
    "PropagationKernel",
    "get_kernel",
    "kernel_for_dtype",
    "cache_info",
    "clear_kernel_cache",
]
