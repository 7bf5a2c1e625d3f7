"""Array/FFT backend layer: dispatch + dtype policy for the whole stack.

This package is the single place two process-wide decisions live:

* **which FFT implementation runs** — :mod:`repro.backend.dispatch`
  resolves ``scipy.fft`` (multi-worker threads, native single-precision
  transforms) with a ``numpy.fft`` fallback, overridable via
  ``REPRO_BACKEND`` or :func:`set_backend`;
* **which dtypes the stack computes in** — :mod:`repro.backend.precision`
  carries the complex64/complex128 :class:`Precision` policy (matched
  real dtypes + per-precision tolerance table), selectable via
  ``REPRO_PRECISION``, :func:`set_precision`, or a
  :class:`precision_scope` (``Trainer.fit(precision="single")``).

Every FFT call site in the package routes through here (grep-enforced:
no direct ``numpy.fft`` / ``scipy.fft`` use outside this package), so a
backend or precision switch reaches the autodiff ops, the fused
training op, the inference engine and the kernel builders at once.
:mod:`repro.backend.hop` holds the one propagation hop that the fused
training op and the inference engine both run.
See ``docs/performance.md`` ("Backends & precision").
"""

from .dispatch import (
    available_backends,
    backend_name,
    fft,
    fft2,
    fftfreq,
    get_workers,
    ifft,
    ifft2,
    set_backend,
    set_workers,
)
from .precision import (
    PRECISIONS,
    Precision,
    get_precision,
    precision_scope,
    resolve_precision,
    set_precision,
)

__all__ = [
    "available_backends",
    "backend_name",
    "set_backend",
    "set_workers",
    "get_workers",
    "fft",
    "ifft",
    "fft2",
    "ifft2",
    "fftfreq",
    "Precision",
    "PRECISIONS",
    "resolve_precision",
    "get_precision",
    "set_precision",
    "precision_scope",
]
