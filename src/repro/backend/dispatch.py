"""FFT backend dispatch: one home for every Fourier transform in the repo.

Every hot path in the package — the autodiff FFT ops, the fused training
op, the inference engine, the propagation-kernel builders — historically
called ``numpy.fft`` (or ``scipy.fft``) directly from its own module.
This module is now the *single* place an FFT implementation is chosen:

* at import, the best available implementation is resolved — ``scipy.fft``
  (pocketfft with a ``workers=`` thread knob, native single-precision
  transforms, ``overwrite_x=`` in-place support) when importable, else
  the ``numpy.fft`` fallback that every environment has;
* ``REPRO_BACKEND`` in the environment (``auto`` / ``scipy`` / ``numpy``)
  overrides the resolution, and :func:`set_backend` does the same
  programmatically (tests pin the fallback this way);
* the wrappers present one uniform signature regardless of backend: the
  numpy fallback silently absorbs ``workers=`` / ``overwrite_x=`` and
  preserves single-precision dtypes (older numpys promote complex64
  input to complex128; the wrapper casts back so the dtype policy holds
  on every backend).

The 2-D transforms accept an optional ``out=`` landing buffer so callers
with preallocated scratch can avoid keeping two result arrays alive.

Nothing in this module imports the rest of the package, so every layer
(optics, autodiff, runtime) can depend on it without cycles.
"""

from __future__ import annotations

import importlib
import os
from typing import Optional, Tuple

import numpy as np

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
]

_BACKEND_ENV = "REPRO_BACKEND"
_WORKERS_ENV = "REPRO_FFT_WORKERS"
_BACKENDS = ("scipy", "numpy")

#: The resolved implementation: ``("scipy", scipy.fft)`` or
#: ``("numpy", None)``.  Mutated only by :func:`set_backend`.
_IMPL: Tuple[str, Optional[object]] = ("numpy", None)

#: Explicit thread count forwarded to scipy transforms when the caller
#: passes ``workers=None``.  ``None`` = unset: transforms use the CPU
#: budget (:func:`_resolve_workers`).
_WORKERS: Optional[int] = None


def _load_scipy_fft():
    """Import ``scipy.fft`` if the environment has it, else ``None``."""
    try:
        return importlib.import_module("scipy.fft")
    except Exception:  # ImportError, or a stubbed/broken scipy
        return None


def available_backends() -> Tuple[str, ...]:
    """Backend names importable right now (``numpy`` always is)."""
    names = []
    if _load_scipy_fft() is not None:
        names.append("scipy")
    names.append("numpy")
    return tuple(names)


def set_backend(name: Optional[str] = "auto") -> str:
    """Select the FFT implementation process-wide; returns the resolved name.

    ``"auto"`` (or ``None``) prefers scipy and falls back to numpy;
    ``"scipy"`` / ``"numpy"`` pin one explicitly.  Asking for scipy when
    it is not importable raises ``RuntimeError`` instead of silently
    degrading.
    """
    global _IMPL
    if name in (None, "", "auto"):
        module = _load_scipy_fft()
        _IMPL = ("scipy", module) if module is not None else ("numpy", None)
    elif name == "scipy":
        module = _load_scipy_fft()
        if module is None:
            raise RuntimeError(
                "FFT backend 'scipy' requested but scipy.fft is not "
                "importable; install scipy or use REPRO_BACKEND=numpy"
            )
        _IMPL = ("scipy", module)
    elif name == "numpy":
        _IMPL = ("numpy", None)
    else:
        raise ValueError(
            f"unknown FFT backend {name!r}; expected 'auto', "
            f"{' or '.join(repr(b) for b in _BACKENDS)}"
        )
    return _IMPL[0]


def backend_name() -> str:
    """Name of the active FFT implementation (``"scipy"`` or ``"numpy"``)."""
    return _IMPL[0]


def set_workers(workers: Optional[int]) -> None:
    """Set the default thread count for scipy transforms.

    ``None`` clears it: transforms then use the CPU budget, one thread
    per CPU this process may run on (one thread for lines shorter than
    ``_THREADED_MIN_LENGTH``).  Child launchers (process shards,
    replicas, table/sweep workers) call ``set_workers(1)`` so FFT
    threads x processes stay within the CPUs.  Only affects calls that
    pass ``workers=None``; explicit per-call values always win.
    Ignored on the numpy fallback.
    """
    global _WORKERS
    if workers is not None:
        workers = int(workers)
        if workers == 0:
            raise ValueError("workers must be nonzero (negative counts "
                             "from the CPU total, scipy-style)")
    _WORKERS = workers


def get_workers() -> Optional[int]:
    """The explicit process-wide ``workers=`` value (None = unset, the
    CPU budget applies)."""
    return _WORKERS


def _cpu_budget() -> int:
    """CPUs this process may run on (its affinity mask where the OS
    reports one, else the machine's CPU count)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


#: Shortest transform the CPU budget runs on several threads.  pocketfft
#: splits one call's lines across threads, and short lines leave too
#: little work per thread to pay for the hand-off.  Measured on 2 CPUs
#: with the blocked hop: two threads trained length-400 lines (n=200 at
#: pad_factor 2) faster, left length 200 flat, and made the n=40 laptop
#: table (length 80) ~10 % slower.
_THREADED_MIN_LENGTH = 256


def _resolve_workers(workers: Optional[int],
                     length: Optional[int] = None) -> int:
    """Threads for a transform over lines of ``length`` points: the
    per-call value, else the process-wide one, else the CPU budget
    (one thread for lines shorter than ``_THREADED_MIN_LENGTH``)."""
    if workers is not None:
        return workers
    if _WORKERS is not None:
        return _WORKERS
    if length is not None and length < _THREADED_MIN_LENGTH:
        return 1
    return _cpu_budget()


def _shortest(x, axes: Tuple[int, int]) -> int:
    shape = np.shape(x)
    return min(shape[axis] for axis in axes)


def _match_dtype(result: np.ndarray, x) -> np.ndarray:
    """Keep single-precision inputs single on backends that promote.

    Modern numpy (>= 2.0) and scipy both run complex64/float32
    transforms natively; older numpys compute in double and return
    complex128.  The dtype policy must hold everywhere, so a promoted
    result is cast back down.
    """
    dtype = np.asarray(x).dtype
    if dtype in (np.complex64, np.float32) and result.dtype == np.complex128:
        return result.astype(np.complex64)
    return result


def _deliver(result: np.ndarray, out: Optional[np.ndarray]) -> np.ndarray:
    if out is None:
        return result
    np.copyto(out, result)
    return out


def fft(x, axis: int = -1, norm: Optional[str] = None,
        overwrite_x: bool = False, workers: Optional[int] = None):
    """1-D FFT along ``axis`` (uniform signature across backends)."""
    name, module = _IMPL
    if module is not None:
        return module.fft(x, axis=axis, norm=norm, overwrite_x=overwrite_x,
                          workers=_resolve_workers(workers,
                                                   np.shape(x)[axis]))
    return _match_dtype(np.fft.fft(x, axis=axis, norm=norm), x)


def ifft(x, axis: int = -1, norm: Optional[str] = None,
         overwrite_x: bool = False, workers: Optional[int] = None):
    """1-D inverse FFT along ``axis``."""
    name, module = _IMPL
    if module is not None:
        return module.ifft(x, axis=axis, norm=norm, overwrite_x=overwrite_x,
                           workers=_resolve_workers(workers,
                                                    np.shape(x)[axis]))
    return _match_dtype(np.fft.ifft(x, axis=axis, norm=norm), x)


def fft2(x, norm: Optional[str] = None, axes: Tuple[int, int] = (-2, -1),
         overwrite_x: bool = False, workers: Optional[int] = None,
         out: Optional[np.ndarray] = None):
    """2-D FFT over ``axes`` with an optional ``out=`` landing buffer."""
    name, module = _IMPL
    if module is not None:
        result = module.fft2(x, axes=axes, norm=norm,
                             overwrite_x=overwrite_x,
                             workers=_resolve_workers(
                                 workers, _shortest(x, axes)))
    else:
        result = _match_dtype(np.fft.fft2(x, axes=axes, norm=norm), x)
    return _deliver(result, out)


def ifft2(x, norm: Optional[str] = None, axes: Tuple[int, int] = (-2, -1),
          overwrite_x: bool = False, workers: Optional[int] = None,
          out: Optional[np.ndarray] = None):
    """2-D inverse FFT over ``axes`` with an optional ``out=`` buffer."""
    name, module = _IMPL
    if module is not None:
        result = module.ifft2(x, axes=axes, norm=norm,
                              overwrite_x=overwrite_x,
                              workers=_resolve_workers(
                                  workers, _shortest(x, axes)))
    else:
        result = _match_dtype(np.fft.ifft2(x, axes=axes, norm=norm), x)
    return _deliver(result, out)


def fftfreq(n: int, d: float = 1.0) -> np.ndarray:
    """Sample frequencies in the unshifted FFT bin ordering."""
    return np.fft.fftfreq(n, d=d)


def _init_from_env() -> None:
    """Resolve the backend and worker default from the environment.

    Called once at import; tests re-invoke it after monkeypatching
    ``REPRO_BACKEND`` / ``REPRO_FFT_WORKERS`` to exercise the override
    path without reloading the module.
    """
    set_backend(os.environ.get(_BACKEND_ENV) or "auto")
    raw = os.environ.get(_WORKERS_ENV)
    if raw:
        try:
            set_workers(int(raw))
        except ValueError as exc:
            raise ValueError(
                f"{_WORKERS_ENV}={raw!r} is not a valid worker count: "
                f"{exc} (use a nonzero integer, e.g. 1 for one thread, "
                "or unset the variable for one thread per available CPU)"
            ) from exc
    else:
        set_workers(None)


_init_from_env()
