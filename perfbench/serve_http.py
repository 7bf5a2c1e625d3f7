"""``serve_http``: routed HTTP serving, client bytes to response bytes.

``repro serve --replicas 2`` runs as a subprocess in its own session on a
seeded n=40 artifact.  Load is a closed loop over two persistent
keep-alive ``http.client`` connections, each POSTing one 28x28 JSON sample
to ``/v1/predict`` and sending the next as soon as the answer arrives.
Every label is checked against the in-process ``InferenceEngine``.

The traced run peels the layers with the same samples: direct to one
replica, ``Server.submit`` in process, a bare engine predict and the JSON
decode, plus the router's and replicas' own ``/metrics`` counters scraped
before and after the load.
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from common import (SETUP_REPEATS, Outcome, median, percentile,
                    tail_supported)

REQUESTS = 64  # distinct request bodies, cycled by the clients
CLIENTS = 2  # connections; the machine has two cores
WARMUP = 5  # untimed requests per connection before a window
P99_SAMPLES = 1000  # a p99 needs ten samples beyond it

_ROUTER = re.compile(r"behind router at (http://\S+)")
_REPLICA = re.compile(r"^\s+(r\d+): (http://\S+)")


def _host_port(url: str) -> Tuple[str, int]:
    host, port = url.split("://", 1)[1].rsplit(":", 1)
    return host, int(port)


def build_artifact(seed: int, tiny: bool, path: Path):
    """Train a small seeded model, save it, and return the request
    bodies, their expected labels and true labels."""
    from repro import data, donn
    from repro.autodiff import Adam
    from repro.autodiff.rng import seed_all, spawn_rng
    from repro.utils.serialization import load_model, save_model

    n = 20 if tiny else 40
    seed_all(seed)
    train, test = data.make_dataset("digits", n_train=200, n_test=REQUESTS,
                                    seed=seed)
    model = donn.DONN(donn.DONNConfig.laptop(n=n), rng=spawn_rng(seed + 17))
    donn.Trainer(model, Adam(model.parameters(), lr=0.05)).fit(
        data.DataLoader(train, batch_size=50, seed=seed), epochs=2)
    save_model(path, model)
    engine = load_model(path).inference_engine()
    expected = [int(engine.predict(image[None])[0]) for image in test.images]
    bodies = [json.dumps({"inputs": image.tolist()}).encode()
              for image in test.images]
    return bodies, expected, [int(label) for label in test.labels]


class Cluster:
    """``repro serve --replicas 2`` in its own process group."""

    def __init__(self, root: Path, artifact: Path, env: Dict[str, str]):
        self.root, self.artifact, self.env = root, artifact, env
        self.proc: Optional[subprocess.Popen] = None
        self.url = ""
        self.replicas: Dict[str, str] = {}
        self.output: List[str] = []

    def start(self, timeout: float = 90.0) -> float:
        """Launch and wait for router ``/healthz`` 200; returns seconds."""
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--model",
             str(self.artifact), "--replicas", "2", "--port", "0"],
            cwd=self.root, env=self.env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            start_new_session=True)
        lines: "queue.Queue[Optional[str]]" = queue.Queue()
        threading.Thread(target=self._pump, args=(lines,), daemon=True).start()
        deadline = start + timeout
        line = ""
        while "POST /v1/predict" not in line:
            try:
                line = lines.get(timeout=max(0.01,
                                             deadline - time.perf_counter()))
            except queue.Empty:
                line = None
            if line is None:
                raise RuntimeError("repro serve did not come up:\n"
                                   + "".join(self.output[-20:]))
            match = _ROUTER.search(line)
            if match:
                self.url = match.group(1)
            match = _REPLICA.match(line)
            if match:
                self.replicas[match.group(1)] = match.group(2)
        if not self.url or len(self.replicas) != 2:
            raise RuntimeError("could not read the router and replica URLs:"
                               "\n" + "".join(self.output))
        while _get(self.url, "/healthz")[0] != 200:
            if time.perf_counter() > deadline:
                raise RuntimeError("router /healthz never reached 200")
            time.sleep(0.01)
        return time.perf_counter() - start

    def _pump(self, lines: "queue.Queue[Optional[str]]") -> None:
        for line in self.proc.stdout:
            self.output.append(line)
            lines.put(line)
        lines.put(None)

    def peak_rss_mb(self) -> float:
        """Largest peak resident set among the server's processes."""
        peak = 0.0
        for pid, _ in _group(self.proc.pid):
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            match = re.search(r"VmHWM:\s+(\d+) kB", status)
            if match:
                peak = max(peak, int(match.group(1)) / 1024.0)
        return peak

    def stop(self) -> None:
        """SIGINT drains the server; anything left in its process group
        is SIGKILLed.  Returns once every process of the group ended."""
        proc, self.proc = self.proc, None
        if proc is None:
            return
        try:
            if proc.poll() is None:
                proc.send_signal(signal.SIGINT)
                proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            pass
        finally:
            deadline = time.monotonic() + 15
            while any(state != "Z" for _, state in _group(proc.pid)):
                if time.monotonic() > deadline:
                    os.killpg(proc.pid, signal.SIGKILL)
                time.sleep(0.05)
            proc.wait()


def _group(pgid: int) -> List[Tuple[int, str]]:
    """``(pid, state)`` of every process in process group ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[2]) == pgid:
            members.append((int(entry), fields[0]))
    return members


def _get(url: str, path: str) -> Tuple[int, bytes]:
    host, port = _host_port(url)
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    except OSError:
        return 0, b""
    finally:
        conn.close()


def _scrape(url: str) -> Dict[str, float]:
    """Prometheus text -> ``{name{labels}: value}``."""
    status, body = _get(url, "/metrics")
    if status != 200:
        raise RuntimeError(f"GET {url}/metrics returned {status}")
    samples = {}
    for line in body.decode().splitlines():
        if line and not line.startswith("#"):
            key, _, value = line.rpartition(" ")
            samples[key] = float(value)
    return samples


def _total(samples: Dict[str, float], name: str, label: str = "") -> float:
    return sum(value for key, value in samples.items()
               if key.split("{", 1)[0] == name and label in key)


class Load:
    """A closed loop of ``CLIENTS`` keep-alive connections."""

    def __init__(self, bodies, expected, tracer=None):
        self.bodies, self.expected, self.tracer = bodies, expected, tracer

    def run(self, url: str, seconds: float, min_samples: int = 0):
        """Send until ``seconds`` passed and ``min_samples`` answered (at
        most 2x ``seconds``).  Returns (latencies, attempted, failed,
        correct labels, window seconds)."""
        self.latencies: List[float] = []
        self.attempted = self.failed = 0
        self.answers: List[Tuple[int, int]] = []
        self.lock = threading.Lock()
        self.warm = threading.Barrier(CLIENTS + 1)
        stop = threading.Event()
        threads = [threading.Thread(target=self._client, args=(url, i, stop))
                   for i in range(CLIENTS)]
        for thread in threads:
            thread.start()
        self.warm.wait(timeout=120)
        start = self.started = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            if elapsed >= 2 * seconds or (
                    elapsed >= seconds
                    and len(self.latencies) >= min_samples):
                break
            time.sleep(0.01)
        stop.set()
        for thread in threads:
            thread.join()
        self.ended = time.perf_counter()
        window = self.ended - start
        return self.latencies, self.attempted, self.failed, self.answers, \
            window

    def _client(self, url: str, index: int, stop: threading.Event) -> None:
        host, port = _host_port(url)
        conn = http.client.HTTPConnection(host, port, timeout=30)
        headers = {"Content-Type": "application/json"}
        k = index
        try:
            for _ in range(WARMUP):
                self._send(conn, headers, k % len(self.bodies))
                k += CLIENTS
            self.warm.wait(timeout=120)
            while not stop.is_set():
                i = k % len(self.bodies)
                k += CLIENTS
                start = time.perf_counter()
                if self.tracer is not None:
                    with self.tracer.span("serve.client_request"):
                        label = self._send(conn, headers, i)
                else:
                    label = self._send(conn, headers, i)
                elapsed = time.perf_counter() - start
                with self.lock:
                    self.attempted += 1
                    if label is None or label != self.expected[i]:
                        self.failed += 1
                    else:
                        self.latencies.append(elapsed)
                        self.answers.append((i, label))
        finally:
            conn.close()

    def _send(self, conn, headers, i: int) -> Optional[int]:
        """POST body ``i``; the label, or None on any failure."""
        try:
            conn.request("POST", "/v1/predict", self.bodies[i], headers)
            response = conn.getresponse()
            payload = response.read()
        except (OSError, http.client.HTTPException):
            conn.close()  # reconnects on the next request
            return None
        if response.status != 200:
            return None
        try:
            return int(np.asarray(json.loads(payload)["predictions"])
                       .reshape(-1)[0])
        except (ValueError, KeyError, IndexError):
            return None


def run(seed: int, seconds: float, tiny: bool, tracer,
        tmp_root: str) -> Outcome:
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"), TMPDIR=tmp_root)
    artifact = Path(tmp_root) / f"serve-seed{seed}.npz"
    bodies, expected, truth = build_artifact(seed, tiny, artifact)
    outcome = Outcome()
    cluster = Cluster(root, artifact, env)
    try:
        if tracer is None:
            _untraced(outcome, cluster, bodies, expected, truth, seconds)
        else:
            _traced(outcome, cluster, bodies, expected, artifact, seconds,
                    tracer)
    finally:
        cluster.stop()
    return outcome


def _count(outcome: Outcome, attempted: int, failed: int) -> None:
    outcome.attempted += attempted
    outcome.failed += failed
    outcome.gate(failed == 0, f"{failed} of {attempted} requests failed or "
                              "disagreed with the in-process engine")


def _untraced(outcome, cluster, bodies, expected, truth, seconds) -> None:
    setups = []
    for _ in range(SETUP_REPEATS):
        cluster.stop()
        setups.append(cluster.start())
    setup_s = median(setups)
    load = Load(bodies, expected)
    latencies, attempted, failed, answers, window = load.run(cluster.url,
                                                             seconds)
    _count(outcome, attempted, failed)
    ms = [1e3 * x for x in latencies]
    outcome.metrics = {
        "setup_s": setup_s,
        "wall_s": median(latencies),
        "throughput_per_s": len(latencies) / window,
        "success_rate": 1.0 - failed / attempted,
        "peak_rss_mb": cluster.peak_rss_mb(),
    }
    outcome.notes.update({
        "latency_p50_ms": percentile(ms, 50),
        "latency_p99_ms": percentile(ms, 99),
        "latency_samples": len(ms),
        "p99_has_10_beyond": tail_supported(len(ms), 99),
        "accuracy": float(np.mean([truth[i] == label
                                   for i, label in answers])),
    })


def _traced(outcome, cluster, bodies, expected, artifact, seconds,
            tracer) -> None:
    import probes

    cluster.start()
    replica_urls = list(cluster.replicas.values())
    before = [_scrape(cluster.url)] + [_scrape(u) for u in replica_urls]
    load = Load(bodies, expected)
    lat_u, attempted, failed, _, _ = load.run(cluster.url, seconds,
                                              min_samples=P99_SAMPLES)
    _count(outcome, attempted, failed)
    after = [_scrape(cluster.url)] + [_scrape(u) for u in replica_urls]
    with tracer.installed(probes.install):
        traced = Load(bodies, expected, tracer)
        lat_t, attempted, failed, _, _ = traced.run(cluster.url, seconds / 3)
        _count(outcome, attempted, failed)
        direct = Load(bodies, expected)
        lat_r, attempted, failed, _, _ = direct.run(replica_urls[0],
                                                    seconds / 3)
        _count(outcome, attempted, failed)
        cluster.stop()
        peel = _peel(artifact, bodies, expected, seconds / 6, outcome)
    uncovered = 1.0 - (tracer.covered_s(traced.started, traced.ended)
                       / (traced.ended - traced.started))

    def delta(name: str, label: str = "", where=slice(1, None)) -> float:
        return sum(_total(a, name, label) - _total(b, name, label)
                   for a, b in zip(after[where], before[where]))

    def mean_ms(name: str, where=slice(1, None), label: str = "") -> float:
        count = delta(f"{name}_count", label, where)
        return 1e3 * delta(f"{name}_sum", label, where) / count \
            if count else 0.0

    router = slice(0, 1)
    p50 = 1e3 * median(lat_u)
    replica_p50 = 1e3 * median(lat_r)
    server_side = mean_ms("repro_server_request_latency_seconds",
                          label='kind="predict"')
    batches = delta("repro_batcher_batch_size_count")
    outcome.metrics = dict(probes.layer_metrics(tracer))
    outcome.metrics.update({
        "serve.latency_p50_ms": p50,
        "serve.latency_p99_ms": 1e3 * percentile(lat_u, 99),
        "serve.latency_samples": float(len(lat_u)),
        "serve.replica_http_p50_ms": replica_p50,
        "serve.router_overhead_p50_ms": p50 - replica_p50,
        "serve.inproc_submit_p50_ms": peel["inproc_submit_p50_ms"],
        "runtime.engine_predict_p50_ms": peel["engine_predict_p50_ms"],
        "serve.json_decode_ms": peel["json_decode_ms"],
        "serve.server_side_mean_ms": server_side,
        "serve.wire_ms": replica_p50 - server_side,
        "serve.router_upstream_mean_ms": mean_ms(
            "repro_router_request_latency_seconds", router),
        "serve.batcher_mean_batch": (
            delta("repro_batcher_batch_size_sum") / batches
            if batches else 0.0),
        "serve.batcher_flushes_timer": delta("repro_batcher_flushes_total",
                                             'reason="timer"'),
        "serve.batcher_flushes_full": delta("repro_batcher_flushes_total",
                                            'reason="full"'),
        "serve.batcher_flush_mean_ms": mean_ms(
            "repro_batcher_flush_latency_seconds"),
        "serve.router_failovers": delta("repro_router_failovers_total",
                                        where=router),
        "serve.pool_retries": delta("repro_pool_retries_total"),
        "trace.overhead_pct": 100.0 * (median(lat_t) / median(lat_u) - 1.0),
        "trace.uncovered_pct": 100.0 * uncovered,
        "trace.spans": float(len(tracer.spans)),
    })
    outcome.notes["p99_has_10_beyond"] = tail_supported(len(lat_u), 99)


def _peel(artifact, bodies, expected, seconds, outcome) -> Dict[str, float]:
    """In-process layers with the same samples: ``Server.submit`` from
    ``CLIENTS`` threads, bare single-sample engine predict, JSON decode."""
    from repro.serve import ServeConfig, Server
    from repro.utils.serialization import load_model

    samples = [np.asarray(json.loads(body)["inputs"], dtype=np.float64)
               for body in bodies]
    # The CLI's defaults: max batch 32, 2 ms coalescing delay, one
    # thread shard.
    config = ServeConfig(max_batch=32, max_delay=0.002)
    times: List[float] = []
    counts = [0, 0]  # attempted, wrong label
    lock = threading.Lock()
    with Server(artifact=artifact, config=config) as server:
        server.warmup()
        stop = threading.Event()

        def client(index: int) -> None:
            k = index
            while not stop.is_set():
                i = k % len(samples)
                k += CLIENTS
                start = time.perf_counter()
                try:
                    label = int(np.asarray(server.submit(
                        "predict", samples[i]).result(timeout=30)))
                except Exception:  # noqa: BLE001 — counted as a failure
                    label = None
                elapsed = time.perf_counter() - start
                with lock:
                    times.append(elapsed)
                    counts[0] += 1
                    counts[1] += int(label != expected[i])

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(CLIENTS)]
        for thread in threads:
            thread.start()
        time.sleep(seconds)
        stop.set()
        for thread in threads:
            thread.join()
    _count(outcome, *counts)

    engine = load_model(artifact).inference_engine()
    predict = []
    for sample in samples * 4:
        start = time.perf_counter()
        engine.predict(sample[None])
        predict.append(time.perf_counter() - start)
    decode = []
    for body in bodies * 4:
        start = time.perf_counter()
        np.asarray(json.loads(body)["inputs"], dtype=np.float64)
        decode.append(time.perf_counter() - start)
    return {
        "inproc_submit_p50_ms": 1e3 * median(times),
        "engine_predict_p50_ms": 1e3 * median(predict),
        "json_decode_ms": 1e3 * median(decode),
    }
