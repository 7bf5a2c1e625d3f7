"""Serving-layer error taxonomy: what failed, and what the client may do.

Every exception here maps to one HTTP status in
:mod:`repro.serve.http`, so the frontend never has to guess from
message text:

=====================  ======  =============================================
exception              status  meaning
=====================  ======  =============================================
:class:`DeadlineExceeded`  504  the request's deadline passed before a
                                result could be produced (queue wait,
                                retry budget, or expiry on arrival)
:class:`Overloaded`        429  the admission window (``max_inflight``) is
                                full; retry after ``retry_after`` seconds
:class:`Draining`          503  the server is shutting down and refuses
                                new work; retry against another replica
:class:`NoHealthyShards`   503  every shard is quarantined — the
                                deployment cannot serve until restarted
:class:`FaultInjected`     500  an injected worker fault (chaos testing
                                only; see :mod:`repro.serve.faults`)
=====================  ======  =============================================

:class:`ShardCrash` never reaches a client: it is the thread-backend
analogue of a dead worker process (``BrokenProcessPool``), and the
:class:`~repro.serve.workers.ShardedPool` supervisor consumes it —
respawning the shard and retrying the batch — exactly as it does real
process death.
"""

from __future__ import annotations

__all__ = [
    "ServeError",
    "DeadlineExceeded",
    "Overloaded",
    "Draining",
    "NoHealthyShards",
    "ShardCrash",
    "FaultInjected",
]


class ServeError(RuntimeError):
    """Base class for serving-layer failures."""


class DeadlineExceeded(ServeError):
    """The request's deadline passed before a result could be produced."""


class Overloaded(ServeError):
    """The admission window is full; the caller should back off.

    ``retry_after`` is the suggested wait in seconds (the HTTP frontend
    sends it as a ``Retry-After`` header).
    """

    def __init__(self, message: str, retry_after: float = 0.1) -> None:
        super().__init__(message)
        self.retry_after = float(retry_after)


class Draining(ServeError):
    """The server is shutting down and refuses new work."""

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = float(retry_after)


class NoHealthyShards(ServeError):
    """Every shard is quarantined; the deployment cannot serve."""


class ShardCrash(ServeError):
    """A worker died mid-batch (thread-backend analogue of a dead
    process).  Treated by the supervisor exactly like
    ``BrokenProcessPool``: respawn the shard, retry the batch."""


class FaultInjected(ServeError):
    """An error deliberately raised in a worker by a
    :class:`~repro.serve.faults.FaultPlan` (chaos testing)."""
