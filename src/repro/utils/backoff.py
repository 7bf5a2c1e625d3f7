"""The one retry-backoff policy: capped exponential with jitter.

Every retry loop in the repo — the serving shard supervisor, the
router's replica failover, the supervised sweep driver and the
``http_sender`` load client — sleeps :meth:`Backoff.delay` between
attempts.  Attempt ``k`` waits ``min(cap, base * 2**k)`` scaled by a
uniform ``[0.5, 1)`` jitter, so retries fired by many callers in the
same instant spread out instead of arriving in lockstep, and no wait
ever exceeds ``cap``.  The jitter stream is seeded per owner so chaos
runs replay.
"""

from __future__ import annotations

import random
import threading

__all__ = ["Backoff"]


class Backoff:
    """Thread-safe jittered exponential backoff from one seeded stream."""

    def __init__(self, base: float, cap: float, seed: int) -> None:
        self.base = float(base)
        self.cap = float(cap)
        self._rng = random.Random(seed)
        self._lock = threading.Lock()

    def delay(self, attempt: int) -> float:
        """Seconds to wait before retry ``attempt + 1`` (``attempt``
        counts from 0)."""
        with self._lock:
            jitter = 0.5 + self._rng.random() / 2
        return min(self.cap, self.base * 2.0 ** attempt) * jitter
