"""Production-style DONN serving: artifacts, batching, sharding, HTTP.

The serving story on top of :mod:`repro.runtime`:

* :func:`resolve_artifact` — finds the versioned, *self-contained*
  model artifact (full geometry + detector spec + bit-exact weights,
  written by :func:`repro.utils.save_model`) behind a file path or a
  run directory.
* :class:`MicroBatcher` — a work-conserving request queue: a request
  that finds a shard free is dispatched at once, and requests that
  arrive while every shard is busy are coalesced into engine-sized
  batches (``max_batch``, with ``max_delay`` bounding the wait for a
  busy pool); coalesced predictions are byte-identical to per-request
  ones.
* :class:`ShardedPool` — N workers (threads or processes), each holding
  one engine, least-loaded dispatch, shard-count-invariant results.
* :class:`Server` — the programmatic API tying the three together, plus
  :class:`HTTPFrontend`, a stdlib HTTP/JSON entry point
  (``repro serve`` on the command line).
* :class:`ReplicaSet` + :class:`Router` — the replication tier: N
  process-backed Server replicas supervised like shards (respawn,
  bounded restarts, quarantine) behind a health-probing router with
  least-loaded routing, bounded byte-identical failover, per-replica
  circuit breakers and optional request hedging
  (``repro serve --replicas N``).
* :mod:`repro.serve.bench` — the load generator and chaos harness
  behind ``repro bench-serve``.

Fault tolerance rides through the whole stack: the pool supervises its
shards (respawn + bounded retry + quarantine, see
:mod:`repro.serve.workers`), requests carry deadlines
(:class:`~repro.serve.errors.DeadlineExceeded` → 504), the server sheds
load beyond ``max_inflight`` (:class:`~repro.serve.errors.Overloaded` →
429) and drains gracefully (503), and :class:`~repro.serve.faults.FaultPlan`
injects deterministic chaos (kill/delay/error) for tests and
``repro bench-serve --faults``.

See ``docs/serving.md`` for the architecture and the artifact format.
"""

from ..pipeline.runs import resolve_artifact
from .batching import MicroBatcher
from .bench import http_sender, run_load, verified_load, write_snapshot
from .cluster import ReplicaSet
from .errors import (
    DeadlineExceeded,
    Draining,
    FaultInjected,
    NoHealthyShards,
    Overloaded,
    ServeError,
    ShardCrash,
)
from .faults import FaultPlan, FaultSpec
from .http import HTTPFrontend
from .router import BREAKER_STATES, MEMBER_STATES, Router, RouterConfig
from .server import ServeConfig, Server
from .workers import REQUEST_KINDS, SHARD_STATES, ShardedPool

__all__ = [
    "resolve_artifact",
    "MicroBatcher",
    "ShardedPool",
    "REQUEST_KINDS",
    "SHARD_STATES",
    "Server",
    "ServeConfig",
    "HTTPFrontend",
    "ReplicaSet",
    "Router",
    "RouterConfig",
    "MEMBER_STATES",
    "BREAKER_STATES",
    "http_sender",
    "run_load",
    "verified_load",
    "write_snapshot",
    "ServeError",
    "DeadlineExceeded",
    "Overloaded",
    "Draining",
    "NoHealthyShards",
    "ShardCrash",
    "FaultInjected",
    "FaultPlan",
    "FaultSpec",
]
