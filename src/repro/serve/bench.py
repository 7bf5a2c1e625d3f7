"""Load generation for the serving stack: throughput and tail latency.

:func:`run_load` drives any single-sample ``send`` callable with a
closed-loop pool of client threads (each sends its next request as soon
as the previous one answers) and reports throughput plus p50/p90/p99
latency.  :func:`benchmark_serving` sweeps the micro-batching /
sharding grid over one model and condenses everything into the
``BENCH_serving.json`` snapshot schema (see ``docs/serving.md``):
each case carries its own latency percentiles, the ``summary`` block
holds the speedup ratios future PRs compare against, and a serial
one-request-at-a-time engine loop anchors the baseline.

:func:`verified_load` is the chaos harness on top of it: every answer
is checked against a serial-engine reference, and after the load
recovery rounds run until health reads ``ok`` again.  The fault- and
replica-recovery benchmarks and ``repro bench-serve --check`` all run it
against a :func:`deployment`: one in-process server, or replicas behind
a router.

Also home to :func:`http_sender`, which turns a server URL into a
``send`` callable so ``repro bench-serve --url`` can load-test a live
deployment over the wire.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from pathlib import Path
from typing import (Any, Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple, Union)

import numpy as np

from ..utils.backoff import Backoff
from .server import ServeConfig, Server

__all__ = ["run_load", "verified_load", "deployment", "benchmark_serving",
           "benchmark_fault_recovery", "benchmark_replica_recovery",
           "http_sender", "write_snapshot"]


def _latency_stats(latencies_s: List[float], elapsed_s: float,
                   concurrency: int) -> Dict[str, float]:
    lat = np.asarray(latencies_s) * 1e3
    return {
        "requests": int(lat.size),
        "concurrency": int(concurrency),
        "elapsed_s": round(elapsed_s, 6),
        "throughput_rps": round(lat.size / elapsed_s, 3),
        "mean_ms": round(float(lat.mean()), 4),
        "p50_ms": round(float(np.percentile(lat, 50)), 4),
        "p90_ms": round(float(np.percentile(lat, 90)), 4),
        "p99_ms": round(float(np.percentile(lat, 99)), 4),
        "max_ms": round(float(lat.max()), 4),
    }


def _workload(model, artifact, seed: int, distinct_images: int,
              image_size: int, verbose: bool):
    """The seeded request samples, the model they are served from (read
    from ``artifact`` when no live model is given) and a progress
    printer that is silent unless ``verbose``."""
    rng = np.random.default_rng(seed)
    samples = rng.random((distinct_images, image_size, image_size))
    if model is None:
        from ..utils.serialization import load_model

        model = load_model(artifact)

    def note(message: str) -> None:
        if verbose:
            print(message, flush=True)

    return samples, model, note


def run_load(
    send: Callable[[np.ndarray], object],
    samples: Sequence[np.ndarray],
    n_requests: int,
    concurrency: int = 8,
) -> Dict[str, float]:
    """Closed-loop load test: ``concurrency`` clients, one request each
    in flight, ``n_requests`` total, cycling through ``samples``.

    Returns throughput + latency percentiles.  Any exception raised by
    ``send`` aborts the run and propagates (a load test that silently
    drops errors measures nothing).
    """
    if n_requests < 1:
        raise ValueError(f"n_requests must be >= 1, got {n_requests}")
    concurrency = max(1, min(int(concurrency), int(n_requests)))
    counter = iter(range(n_requests))
    counter_lock = threading.Lock()
    latencies: List[List[float]] = [[] for _ in range(concurrency)]
    errors: List[BaseException] = []

    def client(slot: int) -> None:
        while True:
            with counter_lock:
                index = next(counter, None)
            if index is None or errors:
                return
            sample = samples[index % len(samples)]
            begin = time.perf_counter()
            try:
                send(sample)
            except BaseException as exc:  # noqa: BLE001 — reported below
                errors.append(exc)
                return
            latencies[slot].append(time.perf_counter() - begin)

    threads = [threading.Thread(target=client, args=(slot,))
               for slot in range(concurrency)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    if errors:
        raise errors[0]
    flat = [value for per_client in latencies for value in per_client]
    return _latency_stats(flat, elapsed, concurrency)


def verified_load(
    send: Callable[[np.ndarray], object],
    samples: Sequence[np.ndarray],
    n_requests: int,
    concurrency: int,
    health: Callable[[], Dict[str, Any]],
    reference: Optional[Sequence] = None,
    recover: Optional[Callable[[], object]] = None,
    recovery_requests: int = 8,
    give_up_s: float = 30.0,
    trace_health: bool = False,
) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """:func:`run_load` with every answer verified, then recovery.

    Each answer ``send(samples[i])`` returns must equal ``reference[i]``
    (``np.array_equal``; ``reference=None`` skips the check).  With
    ``trace_health`` a poller records every change of
    ``health()["status"]`` from the start of the load to the end of
    recovery.  With ``recover``, rounds of ``recover()`` (settle
    respawns, run probes) followed by ``recovery_requests`` concurrent
    verified requests run until health reads ``ok`` or ``give_up_s``
    passes — a respawned worker only counts as recovered once traffic
    reaches it.

    Returns ``(stats, verdict)``: the load's :func:`run_load` stats, and
    ``byte_identical``, ``mismatches``, ``health_trajectory``,
    ``final_status``, ``recovered`` and ``recovery_s`` (``None`` if
    health never read ``ok``).
    """
    index_of = {np.ascontiguousarray(sample).tobytes(): index
                for index, sample in enumerate(samples)}
    wrong: List[int] = []

    def checked(sample: np.ndarray):
        answer = send(sample)
        if reference is not None:
            index = index_of[np.ascontiguousarray(sample).tobytes()]
            if not np.array_equal(np.asarray(answer), reference[index]):
                wrong.append(index)
        return answer

    trajectory: List[str] = []
    stop_polling = threading.Event()

    def poll() -> None:
        while not stop_polling.is_set():
            status = health()["status"]
            if not trajectory or trajectory[-1] != status:
                trajectory.append(status)
            time.sleep(0.001)

    poller = threading.Thread(target=poll, daemon=True)
    if trace_health:
        poller.start()
    try:
        stats = run_load(checked, samples, n_requests, concurrency)
        begin = time.perf_counter()
        while True:
            final_status = health()["status"]
            elapsed = time.perf_counter() - begin
            if final_status == "ok" or recover is None \
                    or elapsed >= give_up_s:
                break
            recover()
            run_load(checked, samples, recovery_requests, recovery_requests)
    finally:
        stop_polling.set()
        if trace_health:
            poller.join(timeout=1.0)
    recovered = final_status == "ok"
    return stats, {
        "byte_identical": not wrong,
        "mismatches": len(wrong),
        "health_trajectory": trajectory,
        "final_status": final_status,
        "recovered": recovered,
        "recovery_s": round(elapsed, 4) if recovered else None,
    }


@contextlib.contextmanager
def deployment(config: ServeConfig, artifact=None, model=None,
               replicas: Optional[int] = None,
               hedge_ms: Optional[float] = None, kind: str = "predict"):
    """A warmed-up deployment plus the :func:`verified_load` keyword
    arguments that drive it, as ``(front, load)``.

    ``replicas=None`` is one in-process :class:`Server` (``front``) fed
    through ``submit``; otherwise that many process replicas behind a
    :class:`~repro.serve.router.Router` (``front``, whose ``health()``
    also carries the set's restarts) fed over HTTP.
    """
    if replicas is None:
        with Server(model=model, artifact=artifact, config=config) as server:
            server.warmup()
            yield server, {
                "send": lambda sample: server.submit(kind, sample).result(),
                "health": server.health,
                "recover": lambda: server.settle(timeout=5.0),
            }
        return
    from .cluster import ReplicaSet
    from .router import Router, RouterConfig

    with ReplicaSet(artifact, replicas=replicas, config=config) as rs, \
            Router(replica_set=rs, config=RouterConfig(
                probe_interval=0.05, hedge_ms=hedge_ms)) as router:
        post = http_sender(router.serve_http(port=0).url)

        def recover() -> None:
            # Respawned replicas rejoin through probe rounds.
            rs.settle(timeout=10.0)
            router.probe_once()

        yield router, {
            "send": lambda sample: post(sample)["predictions"],
            "health": router.health,
            "recover": recover,
            "recovery_requests": max(4, 2 * replicas),
            "give_up_s": 60.0,
        }


def http_sender(url: str, route: str = "/v1/predict",
                timeout: float = 30.0,
                max_retries: int = 3,
                backoff: float = 0.05,
                backoff_cap: float = 2.0,
                deadline_ms: Optional[float] = None,
                ) -> Callable[[np.ndarray], object]:
    """A ``send`` callable POSTing single samples to a live server.

    Production clients retry what the server explicitly invites them to
    retry, and so does this one: connection errors and ``429``/``503``
    responses are retried up to ``max_retries`` times with capped,
    jittered exponential backoff, honoring a ``Retry-After`` header
    when the server sends one (still capped by ``backoff_cap``).
    Anything else — 400s, 504 deadline expiries, 500s — propagates
    immediately.  ``deadline_ms`` rides along in the request body.
    """
    import urllib.error
    import urllib.request

    endpoint = url.rstrip("/") + route
    retry_backoff = Backoff(backoff, backoff_cap, seed=0xB0FF)

    def _backoff_delay(attempt: int, retry_after: Optional[str]) -> float:
        if retry_after is not None:
            try:
                return min(float(retry_after), backoff_cap)
            except ValueError:
                pass  # HTTP-date flavor or garbage; fall through
        return retry_backoff.delay(attempt)

    def send(sample: np.ndarray):
        payload = {"inputs": np.asarray(sample).tolist()}
        if deadline_ms is not None:
            payload["deadline_ms"] = deadline_ms
        body = json.dumps(payload).encode("utf-8")
        attempt = 0
        while True:
            request = urllib.request.Request(
                endpoint, data=body,
                headers={"Content-Type": "application/json"}, method="POST",
            )
            try:
                with urllib.request.urlopen(request,
                                            timeout=timeout) as response:
                    return json.loads(response.read())
            except urllib.error.HTTPError as exc:
                if exc.code not in (429, 503) or attempt >= max_retries:
                    raise
                delay = _backoff_delay(attempt,
                                       exc.headers.get("Retry-After"))
            except (urllib.error.URLError, ConnectionError):
                if attempt >= max_retries:
                    raise
                delay = _backoff_delay(attempt, None)
            time.sleep(delay)
            attempt += 1

    return send


def benchmark_serving(
    model=None,
    artifact=None,
    n_requests: int = 512,
    concurrency: int = 32,
    batch_sizes: Iterable[int] = (1, 8, 32),
    shard_counts: Iterable[int] = (1, 2),
    backend: str = "thread",
    precision: str = "double",
    max_delay: float = 0.005,
    image_size: int = 28,
    distinct_images: int = 64,
    seed: int = 0,
    kind: str = "predict",
    verbose: bool = False,
) -> Dict[str, object]:
    """Sweep the (batch size x shard count) grid; return the snapshot.

    The grid runs batch sizes at 1 shard, then shard counts at the
    largest batch size.  ``serial_engine_loop`` — a bare
    one-request-at-a-time ``engine.predict`` loop with no serving stack
    at all — is the honest baseline; ``server_batch1`` is the same
    workload through a non-coalescing server (every request its own
    engine call).
    """
    batch_sizes = sorted(set(int(b) for b in batch_sizes))
    shard_counts = sorted(set(int(s) for s in shard_counts))
    samples, base_model, note = _workload(model, artifact, seed,
                                          distinct_images, image_size,
                                          verbose)
    cases: Dict[str, Dict[str, object]] = {}

    # -- Baseline: one-at-a-time engine calls, no serving stack at all.
    engine = base_model.inference_engine(precision=precision)
    engine.predict(samples[:1])  # allocation warm-up
    start = time.perf_counter()
    lat: List[float] = []
    for index in range(n_requests):
        begin = time.perf_counter()
        engine.predict(samples[index % len(samples)][None])
        lat.append(time.perf_counter() - begin)
    cases["serial_engine_loop"] = _latency_stats(
        lat, time.perf_counter() - start, concurrency=1
    )
    note(f"serial_engine_loop: "
         f"{cases['serial_engine_loop']['throughput_rps']} rps")

    # -- The serving grid.
    grid = [(batch, 1) for batch in batch_sizes]
    grid += [(batch_sizes[-1], s) for s in shard_counts if s != 1]
    for batch, shards in grid:
        label = f"server_batch{batch}" + (
            f"_shards{shards}" if shards != 1 else ""
        )
        config = ServeConfig(
            precision=precision, max_batch=batch, max_delay=max_delay,
            shards=shards, backend=backend,
        )
        with Server(model=model, artifact=artifact, config=config) as server:
            server.warmup()
            send = lambda sample: server.submit(kind, sample).result()  # noqa: E731
            stats = run_load(send, samples, n_requests, concurrency)
            stats["batcher"] = server.stats()["batcher"]
            stats["shards"] = shards
            stats["max_batch"] = batch
        cases[label] = stats
        note(f"{label}: {stats['throughput_rps']} rps "
             f"(p50 {stats['p50_ms']} ms, p99 {stats['p99_ms']} ms, "
             f"mean batch {stats['batcher']['mean_batch']})")

    summary: Dict[str, float] = {}

    def ratio(numerator: str, denominator: str) -> Optional[float]:
        if numerator in cases and denominator in cases:
            return round(
                cases[numerator]["throughput_rps"]
                / cases[denominator]["throughput_rps"], 3
            )
        return None

    top = f"server_batch{batch_sizes[-1]}"
    for batch in batch_sizes[1:]:
        value = ratio(f"server_batch{batch}", "server_batch1")
        if value is not None:
            summary[f"batch{batch}_vs_batch1"] = value
    value = ratio(top, "serial_engine_loop")
    if value is not None:
        summary[f"batch{batch_sizes[-1]}_vs_serial_loop"] = value
    for shards in shard_counts:
        if shards == 1:
            continue
        value = ratio(f"{top}_shards{shards}", top)
        if value is not None:
            summary[f"shards{shards}_vs_shards1_batch{batch_sizes[-1]}"] = value

    return {
        "workload": {
            "n_requests": n_requests,
            "concurrency": concurrency,
            "kind": kind,
            "image_size": image_size,
            "distinct_images": distinct_images,
            "backend": backend,
            "precision": precision,
            "max_delay": max_delay,
            "model_n": int(base_model.config.n),
            "num_layers": len(base_model.layers),
            "seed": seed,
        },
        "cases": cases,
        "summary": summary,
    }


def benchmark_fault_recovery(
    model=None,
    artifact=None,
    n_requests: int = 256,
    concurrency: int = 16,
    max_batch: int = 8,
    shards: int = 2,
    backend: str = "thread",
    precision: str = "double",
    max_delay: float = 0.005,
    kill_shard: int = 1,
    kill_after: int = 2,
    image_size: int = 28,
    distinct_images: int = 32,
    seed: int = 0,
    kind: str = "predict",
    verbose: bool = False,
) -> Dict[str, object]:
    """The fault-recovery grid: the same closed-loop workload with no
    faults and with one shard killed mid-load.

    The killed case injects ``kill:shard=K,after=N`` (shard K dies on
    its N-th batch; warmup is batch 0), so the supervisor must detect
    the death, retry the in-flight batch on a healthy shard, respawn
    the dead one and fold it back in — all while the load test keeps
    byte-checking every response against a serial engine reference.  A
    health poller records the ``ok -> degraded -> ok`` trajectory, and
    after the load drains, traffic is driven until ``/healthz`` reports
    ``ok`` again (``recovery_s``).  The summary's
    ``kill_one_shard_vs_no_fault`` ratio is the throughput retained
    under the fault.
    """
    if shards < 2:
        raise ValueError(
            f"fault recovery needs a healthy shard to retry on; got "
            f"shards={shards}"
        )
    samples, base_model, note = _workload(model, artifact, seed,
                                          distinct_images, image_size,
                                          verbose)
    # -- Serial-engine ground truth every response is checked against.
    engine = base_model.inference_engine(precision=precision)
    reference = np.asarray(getattr(engine, kind)(samples))

    def run_case(label: str, faults: Optional[str]) -> Dict[str, object]:
        config = ServeConfig(
            precision=precision, max_batch=max_batch, max_delay=max_delay,
            shards=shards, backend=backend, faults=faults,
        )
        with deployment(config, artifact, model, kind=kind) as (server, load):
            stats, verdict = verified_load(
                samples=samples, n_requests=n_requests,
                concurrency=concurrency, reference=reference,
                recovery_requests=shards * max_batch, trace_health=True,
                **load)
            pool_stats = server.stats()["pool"]
        stats.update(verdict)
        stats["restarts"] = pool_stats["restarts"]
        stats["failures"] = pool_stats["failures"]
        stats["retries"] = pool_stats["retries"]
        note(f"{label}: {stats['throughput_rps']} rps, "
             f"health {' -> '.join(stats['health_trajectory']) or 'ok'}, "
             f"restarts {stats['restarts']}, "
             f"byte_identical {stats['byte_identical']}")
        return stats

    cases = {
        "no_fault": run_case("no_fault", None),
        "kill_one_shard": run_case(
            "kill_one_shard",
            f"kill:shard={kill_shard},after={kill_after}",
        ),
    }

    summary = {
        "kill_one_shard_vs_no_fault": round(
            cases["kill_one_shard"]["throughput_rps"]
            / cases["no_fault"]["throughput_rps"], 3
        ),
        "byte_identical": all(c["byte_identical"] for c in cases.values()),
        "recovered": cases["kill_one_shard"]["recovered"],
        "restarts": int(sum(cases["kill_one_shard"]["restarts"])),
    }

    return {
        "workload": {
            "n_requests": n_requests,
            "concurrency": concurrency,
            "kind": kind,
            "image_size": image_size,
            "distinct_images": distinct_images,
            "backend": backend,
            "precision": precision,
            "max_batch": max_batch,
            "max_delay": max_delay,
            "shards": shards,
            "kill_shard": kill_shard,
            "kill_after": kill_after,
            "model_n": int(base_model.config.n),
            "num_layers": len(base_model.layers),
            "seed": seed,
        },
        "cases": cases,
        "summary": summary,
    }


def benchmark_replica_recovery(
    model=None,
    artifact=None,
    n_requests: int = 192,
    concurrency: int = 16,
    replica_counts: Iterable[int] = (1, 2, 3),
    kill_replicas: int = 3,
    kill_replica: int = 1,
    kill_after: int = 5,
    max_batch: int = 8,
    shards: int = 1,
    backend: str = "thread",
    precision: str = "double",
    max_delay: float = 0.005,
    image_size: int = 28,
    distinct_images: int = 32,
    seed: int = 0,
    verbose: bool = False,
) -> Dict[str, object]:
    """The replica grid + kill-one-replica recovery, over real HTTP.

    Every case runs a :class:`~repro.serve.cluster.ReplicaSet` of
    process-backed replicas behind a :class:`~repro.serve.router.Router`
    and drives the closed loop through the router's HTTP frontend, so
    the measured path is the full production one: socket -> router
    membership/failover -> replica socket -> micro-batcher -> shard
    pool.  The kill case injects ``kill:replica=K,after=N`` (replica K
    calls ``os._exit`` on its N-th submitted sample) while every
    response is byte-checked against a serial engine reference — the
    router's failover must make the death invisible to clients.  After
    the load drains, traffic and probe rounds are driven until the
    router's ``/healthz`` aggregates back to ``ok`` (``recovery_s``).
    The summary's ``kill_one_replica_vs_no_fault`` ratio is the
    throughput retained through the kill (vs the same-size no-fault
    cluster).
    """
    if kill_replicas < 2:
        raise ValueError(
            f"replica recovery needs a healthy replica to fail over to; "
            f"got kill_replicas={kill_replicas}"
        )
    replica_counts = sorted(set(int(r) for r in replica_counts))
    samples, base_model, note = _workload(model, artifact, seed,
                                          distinct_images, image_size,
                                          verbose)
    # -- Serial-engine ground truth; replicas need an artifact on disk.
    import tempfile

    tmpdir = None
    if artifact is None:
        from ..utils.serialization import save_model

        tmpdir = tempfile.TemporaryDirectory(prefix="repro-bench-replica-")
        artifact = save_model(Path(tmpdir.name) / "model.npz", model,
                              precision=precision)
    engine = base_model.inference_engine(precision=precision)
    reference = np.asarray(engine.predict(samples))

    def run_case(label: str, replicas: int,
                 faults: Optional[str]) -> Dict[str, object]:
        config = ServeConfig(
            precision=precision, max_batch=max_batch, max_delay=max_delay,
            shards=shards, backend=backend, faults=faults,
        )
        with deployment(config, artifact, replicas=replicas) as (front, load):
            stats, verdict = verified_load(
                samples=samples, n_requests=n_requests,
                concurrency=concurrency, reference=reference,
                trace_health=True, **load)
            counters = front.stats()["counters"]
            respawns = front.health()["restarts"]
        stats.update(verdict)
        stats["replicas"] = replicas
        stats["respawns"] = respawns
        stats["failovers"] = int(
            counters.get("repro_router_failovers_total", 0))
        stats["ejections"] = int(
            counters.get("repro_router_ejections_total", 0))
        note(f"{label}: {stats['throughput_rps']} rps, "
             f"health {' -> '.join(stats['health_trajectory']) or 'ok'}, "
             f"respawns {stats['respawns']}, "
             f"failovers {stats['failovers']}, "
             f"byte_identical {stats['byte_identical']}")
        return stats

    cases: Dict[str, Dict[str, object]] = {}
    for replicas in replica_counts:
        cases[f"router_replicas{replicas}"] = run_case(
            f"router_replicas{replicas}", replicas, None)
    kill_label = "kill_one_replica"
    cases[kill_label] = run_case(
        kill_label, kill_replicas,
        f"kill:replica={kill_replica},after={kill_after}")
    if tmpdir is not None:
        tmpdir.cleanup()

    baseline = f"router_replicas{kill_replicas}"
    summary: Dict[str, object] = {
        "kill_one_replica_vs_no_fault": round(
            cases[kill_label]["throughput_rps"]
            / cases[baseline]["throughput_rps"], 3
        ),
        "byte_identical": all(c["byte_identical"] for c in cases.values()),
        "recovered": cases[kill_label]["recovered"],
        "respawns": int(cases[kill_label]["respawns"]),
    }
    first = replica_counts[0]
    for replicas in replica_counts[1:]:
        summary[f"replicas{replicas}_vs_replicas{first}"] = round(
            cases[f"router_replicas{replicas}"]["throughput_rps"]
            / cases[f"router_replicas{first}"]["throughput_rps"], 3
        )

    return {
        "workload": {
            "n_requests": n_requests,
            "concurrency": concurrency,
            "kind": "predict",
            "image_size": image_size,
            "distinct_images": distinct_images,
            "backend": backend,
            "precision": precision,
            "max_batch": max_batch,
            "max_delay": max_delay,
            "shards": shards,
            "replica_counts": replica_counts,
            "kill_replicas": kill_replicas,
            "kill_replica": kill_replica,
            "kill_after": kill_after,
            "model_n": int(base_model.config.n),
            "num_layers": len(base_model.layers),
            "seed": seed,
        },
        "cases": cases,
        "summary": summary,
    }


def write_snapshot(path: Union[str, Path], snapshot: Dict[str, object]) -> None:
    """Write one benchmark snapshot as stable, diff-friendly JSON."""
    with open(Path(path), "w", encoding="utf-8") as fh:
        json.dump(snapshot, fh, indent=2, sort_keys=True)
        fh.write("\n")
