"""Load generation for the serving stack: throughput and tail latency.

:func:`run_load` drives any single-sample ``send`` callable with a
closed-loop pool of client threads (each sends its next request as soon
as the previous one answers) and reports throughput plus p50/p90/p99
latency.

:func:`verified_load` is the chaos harness on top of it: every answer
is checked against a serial-engine reference, and after the load
recovery rounds run until health reads ``ok`` again.  ``repro
bench-serve`` runs it against a :func:`deployment`: one in-process
server, or replicas behind a router.

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
from typing import (Any, Callable, Dict, List, Optional, Sequence, Tuple,
                    Union)

import numpy as np

from ..utils.backoff import Backoff
from .server import ServeConfig, Server

__all__ = ["run_load", "verified_load", "deployment", "http_sender",
           "write_snapshot"]


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
    lat = np.asarray([value for per_client in latencies
                      for value in per_client]) * 1e3
    return {
        "requests": int(lat.size),
        "concurrency": int(concurrency),
        "elapsed_s": round(elapsed, 6),
        "throughput_rps": round(lat.size / elapsed, 3),
        "mean_ms": round(float(lat.mean()), 4),
        "p50_ms": round(float(np.percentile(lat, 50)), 4),
        "p90_ms": round(float(np.percentile(lat, 90)), 4),
        "p99_ms": round(float(np.percentile(lat, 99)), 4),
        "max_ms": round(float(lat.max()), 4),
    }


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
) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """:func:`run_load` with every answer verified, then recovery.

    Each answer ``send(samples[i])`` returns must equal ``reference[i]``
    (``np.array_equal``; ``reference=None`` skips the check).  With
    ``recover``, rounds of ``recover()`` (settle respawns, run probes)
    followed by ``recovery_requests`` concurrent verified requests run
    until health reads ``ok`` or ``give_up_s`` passes — a respawned
    worker only counts as recovered once traffic reaches it.

    Returns ``(stats, verdict)``: the load's :func:`run_load` stats, and
    ``byte_identical``, ``mismatches``, ``final_status``, ``recovered``
    and ``recovery_s`` (``None`` if health never read ``ok``).
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

    stats = run_load(checked, samples, n_requests, concurrency)
    begin = time.perf_counter()
    while True:
        final_status = health()["status"]
        elapsed = time.perf_counter() - begin
        if final_status == "ok" or recover is None or elapsed >= give_up_s:
            break
        recover()
        run_load(checked, samples, recovery_requests, recovery_requests)
    recovered = final_status == "ok"
    return stats, {
        "byte_identical": not wrong,
        "mismatches": len(wrong),
        "final_status": final_status,
        "recovered": recovered,
        "recovery_s": round(elapsed, 4) if recovered else None,
    }


@contextlib.contextmanager
def deployment(config: ServeConfig, artifact,
               replicas: Optional[int] = None,
               hedge_ms: Optional[float] = None):
    """A warmed-up deployment plus the :func:`verified_load` keyword
    arguments that drive it, as ``(front, load)``.

    ``replicas=None`` is one in-process :class:`Server` (``front``) fed
    through ``submit``; otherwise that many process replicas behind a
    :class:`~repro.serve.router.Router` (``front``, whose ``health()``
    also carries the set's restarts) fed over HTTP.
    """
    if replicas is None:
        with Server(artifact=artifact, config=config) as server:
            server.warmup()
            yield server, {
                "send": lambda sample: server.submit("predict",
                                                     sample).result(),
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
        try:
            seconds = float(retry_after)
        except (TypeError, ValueError):  # absent, HTTP-date or garbage
            seconds = -1.0
        if 0.0 <= seconds < float("inf"):  # False for NaN too
            return min(seconds, backoff_cap)
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


def write_snapshot(path: Union[str, Path], snapshot: Dict[str, object]) -> None:
    """Write one benchmark snapshot as stable, diff-friendly JSON."""
    with open(Path(path), "w", encoding="utf-8") as fh:
        json.dump(snapshot, fh, indent=2, sort_keys=True)
        fh.write("\n")
