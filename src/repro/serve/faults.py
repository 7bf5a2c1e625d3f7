"""Deterministic fault injection for the serving stack (chaos harness).

A :class:`FaultPlan` describes *what goes wrong, where, and when* in a
:class:`~repro.serve.workers.ShardedPool`, in units the pool can count
exactly: per-shard batch indices.  Three fault kinds cover the failure
modes the supervisor must survive:

``kill``
    The worker dies mid-batch — ``os._exit`` in a process shard (the
    real thing: the executor breaks with ``BrokenProcessPool``), a
    :class:`~repro.serve.errors.ShardCrash` in a thread shard (the
    supervised stand-in).  Fires on every batch whose index reaches
    ``after`` until the supervisor respawns the shard, at which point
    the plan's first ``kill`` spec for that shard is *consumed*
    (:meth:`FaultPlan.without_kill`) — one configured kill causes
    exactly one death, so chaos runs are deterministic.
``delay``
    The batch takes ``delay_ms`` longer (sleep before compute) for
    ``times`` consecutive batches starting at ``after`` — for deadline
    and backpressure tests.
``error``
    The batch raises :class:`~repro.serve.errors.FaultInjected` for
    ``times`` batches starting at ``after`` — an application-level
    failure that must fan out to the batch's waiters *without*
    triggering a respawn.

Plans are written as compact spec strings so they travel through config
files, CLI flags and environment variables unchanged::

    kill:shard=1,after=3
    delay:shard=0,ms=50,after=2,times=4; error:shard=1,after=0
    kill:replica=1,after=5

(semicolon-separated specs; exactly one of ``shard``/``replica`` is
required, ``after`` defaults to 0, ``times`` to 1).  Wire-up points:
``ServeConfig(faults=...)``, ``repro serve/bench-serve --faults``, or
the ``REPRO_FAULTS`` environment variable (config wins over env).

Specs come in two *scopes*.  ``shard=`` specs target one shard inside
every replica's pool and count per-shard **batches**.  ``replica=``
specs target one whole :class:`~repro.serve.cluster.ReplicaSet` member
and count that replica's **submitted samples** (the replica wrapper
fires before admission, one count per 2-D input, so ``after=5`` means
"on the 6th sample this replica receives").  A plan may mix both; each consumer filters for
its own scope (:meth:`FaultPlan.for_shard` inside pools,
:meth:`FaultPlan.for_replica` inside replica processes), so specs for
the other scope are inert where they don't apply.

Batch indices count every batch a worker runs **including warm-up
batches** (``ShardedPool.warmup`` sends one per shard), so a plan used
with ``warmup()`` fires one batch later than the raw request count
suggests.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence, Tuple

from .errors import FaultInjected

__all__ = [
    "FaultSpec",
    "FaultPlan",
    "ShardFaultState",
    "FAULT_ACTIONS",
    "FAULT_SCOPES",
]

FAULT_ACTIONS = ("kill", "delay", "error")

#: Where a spec applies: one shard of a pool, or one whole replica.
FAULT_SCOPES = ("shard", "replica")

#: Environment variable consulted when no explicit plan is configured.
FAULTS_ENV = "REPRO_FAULTS"


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault: ``action`` on target ``shard`` (an index in
    ``scope`` — a pool shard or a cluster replica) at count ``after``."""

    action: str
    shard: int
    after: int = 0
    times: int = 1
    delay_ms: float = 0.0
    scope: str = "shard"

    def __post_init__(self) -> None:
        if self.action not in FAULT_ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; expected one of "
                f"{FAULT_ACTIONS}"
            )
        if self.scope not in FAULT_SCOPES:
            raise ValueError(
                f"unknown fault scope {self.scope!r}; expected one of "
                f"{FAULT_SCOPES}"
            )
        if self.shard < 0:
            raise ValueError(f"{self.scope} must be >= 0, got {self.shard}")
        if self.after < 0:
            raise ValueError(f"after must be >= 0, got {self.after}")
        if self.times < 1:
            raise ValueError(f"times must be >= 1, got {self.times}")
        if self.action == "delay" and self.delay_ms <= 0:
            raise ValueError("delay faults need ms > 0 (delay:ms=<float>)")

    def __str__(self) -> str:
        parts = [f"{self.scope}={self.shard}"]
        if self.action == "delay":
            parts.append(f"ms={self.delay_ms:g}")
        if self.after:
            parts.append(f"after={self.after}")
        if self.times != 1:
            parts.append(f"times={self.times}")
        return f"{self.action}:{','.join(parts)}"


def _parse_one(text: str) -> FaultSpec:
    action, _, body = text.partition(":")
    action = action.strip()
    fields = {}
    if body.strip():
        for item in body.split(","):
            key, sep, value = item.partition("=")
            key = key.strip()
            if not sep or not key:
                raise ValueError(
                    f"bad fault field {item!r} in {text!r}; expected "
                    "key=value"
                )
            fields[key] = value.strip()
    targets = [scope for scope in FAULT_SCOPES if scope in fields]
    if len(targets) != 1:
        raise ValueError(
            f"fault spec {text!r} needs exactly one of shard=<index> / "
            f"replica=<index>, got {targets or 'neither'}"
        )
    scope = targets[0]
    known = {"shard", "replica", "after", "times", "ms"}
    unknown = set(fields) - known
    if unknown:
        raise ValueError(
            f"unknown fault field(s) {sorted(unknown)} in {text!r}; "
            f"expected {sorted(known)}"
        )
    try:
        return FaultSpec(
            action=action,
            shard=int(fields[scope]),
            after=int(fields.get("after", 0)),
            times=int(fields.get("times", 1)),
            delay_ms=float(fields.get("ms", 0.0)),
            scope=scope,
        )
    except ValueError:
        raise
    except TypeError as exc:  # pragma: no cover — defensive
        raise ValueError(f"bad fault spec {text!r}: {exc}") from exc


@dataclass(frozen=True)
class FaultPlan:
    """An ordered set of :class:`FaultSpec` — picklable, so process
    shards can carry their slice of the plan across the spawn."""

    specs: Tuple[FaultSpec, ...] = ()

    @classmethod
    def parse(cls, text: Optional[str]) -> Optional["FaultPlan"]:
        """Parse a semicolon-separated spec string; ``None``/blank in,
        ``None`` out."""
        if text is None or not text.strip():
            return None
        specs = tuple(
            _parse_one(part.strip())
            for part in text.split(";") if part.strip()
        )
        return cls(specs=specs)

    @classmethod
    def from_env(cls, env: str = FAULTS_ENV) -> Optional["FaultPlan"]:
        """The plan configured via the environment, if any."""
        return cls.parse(os.environ.get(env))

    def for_shard(self, index: int) -> Tuple[FaultSpec, ...]:
        return tuple(
            spec for spec in self.specs
            if spec.scope == "shard" and spec.shard == index
        )

    def for_replica(self, index: int) -> Tuple[FaultSpec, ...]:
        return tuple(
            spec for spec in self.specs
            if spec.scope == "replica" and spec.shard == index
        )

    def without_kill(self, index: int, scope: str = "shard") -> "FaultPlan":
        """Drop the first ``kill`` spec for ``index`` in ``scope`` —
        called by the supervisor on respawn so one configured kill dies
        exactly once."""
        specs = list(self.specs)
        for position, spec in enumerate(specs):
            if spec.action == "kill" and spec.shard == index \
                    and spec.scope == scope:
                del specs[position]
                break
        return replace(self, specs=tuple(specs))

    def __str__(self) -> str:
        return "; ".join(str(spec) for spec in self.specs)

    def __bool__(self) -> bool:
        return bool(self.specs)


class ShardFaultState:
    """Worker-side runtime of one shard's or replica's slice of a plan.

    A shard's worker owns its state alone; a replica's HTTP handler
    threads share theirs.  ``fire`` runs before each batch (shard) or
    submitted request (replica): it claims the next index under a lock,
    then, outside it, sleeps for active delay windows, raises for active
    error windows, and calls ``kill`` once a kill spec's threshold is
    reached.  So one delayed call never stalls a concurrent one.
    """

    def __init__(self, specs: Sequence[FaultSpec]) -> None:
        self.specs = tuple(specs)
        self.batches = 0
        self._lock = threading.Lock()

    def fire(self, kill: Callable[[], None]) -> None:
        with self._lock:
            index = self.batches
            self.batches += 1
        for spec in self.specs:
            if spec.action == "delay" and \
                    spec.after <= index < spec.after + spec.times:
                time.sleep(spec.delay_ms / 1e3)
        for spec in self.specs:
            if spec.action == "kill" and index >= spec.after:
                kill()
        for spec in self.specs:
            if spec.action == "error" and \
                    spec.after <= index < spec.after + spec.times:
                raise FaultInjected(
                    f"injected fault on {spec.scope} {spec.shard} "
                    f"(batch {index}, spec '{spec}')"
                )


def kill_process() -> None:
    """The ``kill`` action in a process shard: die like a segfault
    would — no exception, no cleanup, the executor just breaks."""
    os._exit(17)
