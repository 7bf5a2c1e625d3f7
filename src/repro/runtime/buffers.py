"""Reusable scratch buffers for the compiled inference fast path.

The autodiff forward allocates a fresh padded array per layer per call
(``pad2d`` + crop).  At serving rates those allocations dominate small
batches, so the engine instead keeps one padded complex scratch buffer
per (shape, dtype) and re-fills its interior view every chunk — pad and
crop become views into the same storage instead of copies.
"""

from __future__ import annotations

import threading
from typing import Dict, Tuple

import numpy as np

__all__ = ["ScratchBuffers"]


class ScratchBuffers:
    """A tiny keyed pool of preallocated arrays.

    Buffers are keyed by ``(name, shape, dtype)`` and grown on demand: a
    request for a smaller leading (batch) dimension returns a view into
    the largest buffer allocated so far, so the final short chunk of a
    stream reuses the full-size buffer instead of allocating.

    Storage is per-thread (``threading.local``), which makes a pool
    shared across engines — e.g. a model's pool — safe under concurrent
    inference, and lets a dead thread's buffers be garbage-collected
    instead of stranding them in the pool.  ``nbytes`` therefore sees
    the *calling thread's* buffers.

    Pools pickle/deepcopy as empty (scratch contents are pure caches).
    """

    def __init__(self) -> None:
        self._local = threading.local()

    def __getstate__(self):
        # threading.local (and the scratch contents) don't travel;
        # return a truthy placeholder so __setstate__ runs.
        return {"scratch": None}

    def __setstate__(self, state) -> None:
        self.__init__()

    def _store(self) -> Dict[tuple, np.ndarray]:
        store = getattr(self._local, "buffers", None)
        if store is None:
            store = {}
            self._local.buffers = store
        return store

    def zeros(self, name: str, shape: Tuple[int, ...], dtype) -> np.ndarray:
        """A zero-filled reusable buffer of exactly ``shape``.

        The buffer's contents are *not* preserved across calls — it is
        re-zeroed here (cheap memset) so callers can rely on a clean pad
        border.
        """
        buf = self._get(name, shape, dtype)
        buf.fill(0)
        return buf

    def empty(self, name: str, shape: Tuple[int, ...], dtype) -> np.ndarray:
        """A reusable buffer of ``shape`` with arbitrary contents."""
        return self._get(name, shape, dtype)

    def _get(self, name: str, shape: Tuple[int, ...], dtype) -> np.ndarray:
        dtype = np.dtype(dtype)
        shape = tuple(int(s) for s in shape)
        key = (name, shape[1:], dtype)
        store = self._store()
        full = store.get(key)
        if full is None or full.shape[0] < shape[0]:
            full = np.empty(shape, dtype=dtype)
            store[key] = full
        return full[: shape[0]]

    def nbytes(self) -> int:
        """Total bytes held for the calling thread."""
        return sum(buf.nbytes for buf in self._store().values())
