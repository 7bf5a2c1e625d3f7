"""Process-backed replica supervision for the serving tier.

A :class:`ReplicaSet` runs N full :class:`~repro.serve.Server` replicas,
each in its own **spawned child process** with its own shard pool,
metrics registry and HTTP port — the unit of failure is the whole
serving process, exactly what PR 6's shard supervision could not cover.
The parent supervises with the shard pool's state machine,
:class:`~repro.serve.workers.Supervisor` (restart budget, kill
consumption, settle wait, health rollup).  Its own are how it notices
a death — a monitor thread sees ``Process.is_alive`` go false
(SIGKILL, ``os._exit``, OOM) — and how it rebuilds: a fresh spawned
child under the same stable ``replica_id`` on a new ephemeral port.  A
child that dies before its ready handshake is a strike that consumes
no kill.  Membership decisions (who receives traffic) belong to
:class:`~repro.serve.router.Router`, which re-reads :meth:`endpoints`
before every probe round.

Replica lifecycle::

    [starting] --ready--> [ok] --process death--> [respawning]
                            ^                        |    | restarts
                            +------ready-------------+    | > max
                                                          v
        [stopped] <--stop()-- (any)              [quarantined]

Chaos: ``kill:replica=<i>,after=<k>`` specs in the replica's
:class:`~repro.serve.faults.FaultPlan` make replica ``i`` call
``os._exit(17)`` on its ``k``-th *submitted request* (counted before
admission).  On respawn the parent hands the child a plan with that
kill consumed (:meth:`FaultPlan.without_kill` with ``scope="replica"``)
— one configured kill, exactly one death, as for shards.

Children are **spawned**, not forked: the parent runs probe/monitor
threads and a live HTTP stack, none of which may leak into a child.
"""

from __future__ import annotations

import atexit
import multiprocessing
import threading
from dataclasses import replace
from typing import Any, Dict, List, Optional, Tuple

from ..backend import set_workers
from .faults import FaultPlan, ShardFaultState, kill_process
from .server import ServeConfig, Server
from .workers import Member, Supervisor, rollup

__all__ = ["ReplicaSet"]


def _chaotic(submit, specs):
    """``submit`` behind replica-scoped chaos: each submitted request
    (counted before admission) fires the delay/error/kill ``specs``.
    The HTTP handler threads share the one counter, and a delayed
    request sleeps without holding up the others."""
    state = ShardFaultState(specs)

    def chaotic_submit(kind, sample, deadline_ms=None):
        state.fire(kill_process)
        return submit(kind, sample, deadline_ms=deadline_ms)

    return chaotic_submit


def _replica_main(conn, artifact: str, config: ServeConfig,
                  index: int) -> None:
    """Child-process entry point: build the Server, bind an ephemeral
    port, report it through the pipe, then park until told to stop.

    Runs in a spawned interpreter — everything it needs arrives
    pickled through the ``Process`` args.  The replica runs one FFT
    thread: the replicas, not the transforms, share the CPUs.
    """
    set_workers(1)
    server = Server(artifact=artifact, config=config)
    server.warmup()
    plan = config.resolved_faults()
    specs = plan.for_replica(index) if plan is not None else ()
    if specs:
        server.submit = _chaotic(server.submit, specs)
    frontend = server.serve_http(host=config.host, port=0)
    conn.send(("ready", frontend.address[1]))
    try:
        while True:
            message = conn.recv()
            if message == "drain":
                server.begin_drain()
                conn.send(("draining", None))
            elif message == "stop":
                break
    except (EOFError, OSError):
        pass  # parent went away; die quietly
    try:
        frontend.stop()
        server.stop()
    except Exception:  # noqa: BLE001 — exiting anyway
        pass


class _Replica(Member):
    """Parent-side record of one replica process; its state is one of
    starting | ok | respawning | quarantined | stopped."""

    def __init__(self, index: int, plan: Optional[FaultPlan]) -> None:
        super().__init__(index, plan, state="starting")
        self.id = f"r{index}"
        self.proc = None
        self.conn = None
        self.port: Optional[int] = None

    @property
    def url(self) -> Optional[str]:
        if self.port is None:
            return None
        return f"http://127.0.0.1:{self.port}"

    def as_dict(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "index": self.index,
            "state": self.state,
            "restarts": self.restarts,
            "port": self.port,
            "pid": self.proc.pid if self.proc is not None else None,
        }


class ReplicaSet(Supervisor):
    """Supervise N process-backed Server replicas.

    ``config`` is the per-replica :class:`ServeConfig` (each child gets
    it with ``replica_id`` set and ``port=0``); the configured fault
    plan travels to children as a spec string, with fired replica-kills
    consumed on respawn.  Use as a context manager, or
    :meth:`start` / :meth:`stop` explicitly.
    """

    def __init__(self, artifact, replicas: int = 2,
                 config: Optional[ServeConfig] = None,
                 max_restarts: int = 2,
                 start_timeout: float = 120.0) -> None:
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self.artifact = str(artifact)
        self.config = config or ServeConfig()
        self.start_timeout = float(start_timeout)
        self._ctx = multiprocessing.get_context("spawn")
        plan = self.config.resolved_faults()
        self._replicas = [_Replica(index, plan) for index in range(replicas)]
        super().__init__(self._replicas, max_restarts, scope="replica")
        self._started = False
        self._draining = False
        self._monitor: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ReplicaSet":
        """Spawn every replica and wait for all ports (idempotent)."""
        with self._lock:
            if self._started:
                return self
            self._started = True
        launchers = [
            threading.Thread(target=self._launch, args=(replica,),
                             name=f"repro-replica-launch-{replica.id}")
            for replica in self._replicas
        ]
        for thread in launchers:
            thread.start()
        for thread in launchers:
            thread.join(timeout=self.start_timeout)
        failed = [replica.id for replica in self._replicas
                  if replica.state != "ok"]
        if failed:
            self.stop()
            raise RuntimeError(
                f"replica(s) {failed} failed to start within "
                f"{self.start_timeout}s"
            )
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-replicaset-monitor",
            daemon=True)
        self._monitor.start()
        # Children are non-daemonic (they may run process-backend shard
        # pools, which daemonic processes cannot); this hook runs before
        # multiprocessing's exit-time join, so a forgotten stop() can't
        # hang the interpreter on parked children.
        atexit.register(self.stop)
        return self

    def _child_config(self, replica: _Replica) -> ServeConfig:
        faults = str(replica.plan) if replica.plan else None
        return replace(self.config, replica_id=replica.id, port=0,
                       host="127.0.0.1", faults=faults)

    def _launch(self, replica: _Replica) -> None:
        """Spawn one replica and wait for its ready handshake.  Runs on
        a launcher thread (start) or a respawn thread (monitor)."""
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_replica_main,
            args=(child_conn, self.artifact,
                  self._child_config(replica), replica.index),
            name=f"repro-replica-{replica.id}",
        )
        proc.start()
        child_conn.close()
        ready = parent_conn.poll(self.start_timeout)
        with self._lock:
            if self._closed:
                # stop() ran while this replica was starting; a child it
                # never saw would park forever and hang interpreter exit.
                proc.kill()
                parent_conn.close()
                replica.state = "stopped"
                return
            if replica.conn is not None:
                replica.conn.close()
            replica.proc = proc
            replica.conn = parent_conn
            if ready:
                try:
                    message, port = parent_conn.recv()
                except (EOFError, OSError):
                    message, port = None, None
                if message == "ready":
                    replica.port = port
                    replica.state = "ok"
                    self._changed.notify_all()
                    return
            # Startup failure (died during warmup, or hung): a strike
            # that consumes no kill, since no request reached the child.
            replica.port = None
            retry = self._strike(replica, consume_kill=False)
        if proc.is_alive():
            proc.kill()
        if retry:
            self._launch(replica)

    def _monitor_loop(self) -> None:
        """Notice dead replicas every 50 ms and strike them."""
        with self._changed:
            while not self._changed.wait_for(lambda: self._closed, 0.05):
                if self._draining:
                    continue  # shutting down: let the dead stay dead
                for replica in self._replicas:
                    if replica.state == "ok" and not replica.proc.is_alive():
                        replica.port = None
                        if self._strike(replica):
                            threading.Thread(
                                target=self._launch, args=(replica,),
                                name=f"repro-replica-respawn-{replica.id}",
                            ).start()

    def stop(self) -> None:
        """Stop the monitor, ask children to exit, reap stragglers."""
        atexit.unregister(self.stop)
        self._close()
        if self._monitor is not None:
            self._monitor.join(timeout=10)
            self._monitor = None
        for replica in self._replicas:
            if replica.conn is not None:
                try:
                    replica.conn.send("stop")
                except (BrokenPipeError, OSError):
                    pass
        for replica in self._replicas:
            if replica.proc is not None:
                replica.proc.join(timeout=10)
                if replica.proc.is_alive():
                    replica.proc.kill()
                    replica.proc.join(timeout=5)
        with self._changed:
            for replica in self._replicas:
                if replica.conn is not None:
                    replica.conn.close()
                    replica.conn = None
                replica.state = "stopped"
                replica.port = None
            self._changed.notify_all()

    def __enter__(self) -> "ReplicaSet":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Control
    # ------------------------------------------------------------------
    def begin_drain(self) -> None:
        """Propagate a graceful drain to every live replica (they 503
        new work, finish in-flight work); respawns stop."""
        with self._lock:
            self._draining = True
            live = [replica for replica in self._replicas
                    if replica.state == "ok" and replica.conn is not None]
        for replica in live:
            try:
                replica.conn.send("drain")
            except (BrokenPipeError, OSError):
                pass

    def kill(self, index: int) -> int:
        """SIGKILL replica ``index`` (chaos harness; the monitor will
        respawn it).  Returns the killed pid."""
        with self._lock:
            replica = self._replicas[index]
            if replica.proc is None or not replica.proc.is_alive():
                raise RuntimeError(f"replica {replica.id} is not running")
            pid = replica.proc.pid
        replica.proc.kill()
        return pid

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def endpoints(self) -> List[Tuple[str, str]]:
        """Live ``(replica_id, url)`` pairs — what the router routes
        to.  Respawning/quarantined replicas are absent."""
        with self._lock:
            return [(replica.id, replica.url)
                    for replica in self._replicas
                    if replica.state == "ok" and replica.port is not None]

    def pids(self) -> List[Optional[int]]:
        with self._lock:
            return [replica.proc.pid if replica.proc is not None else None
                    for replica in self._replicas]

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            replicas = [replica.as_dict() for replica in self._replicas]
        return {
            "replicas": replicas,
            "restarts": sum(replica["restarts"] for replica in replicas),
            "quarantined": sum(1 for replica in replicas
                               if replica["state"] == "quarantined"),
            "draining": self._draining,
        }

    def health(self) -> Dict[str, Any]:
        """Supervisor-level health: ``ok`` (all replicas serving),
        ``degraded`` (some), ``unhealthy`` (none)."""
        stats = self.stats()
        states = [replica["state"] for replica in stats["replicas"]]
        status = "draining" if self._draining else rollup(states)
        return {"status": status, "serving": states.count("ok"), **stats}

    def __repr__(self) -> str:
        with self._lock:
            states = {replica.id: replica.state
                      for replica in self._replicas}
        return f"ReplicaSet(artifact={self.artifact!r}, states={states})"
