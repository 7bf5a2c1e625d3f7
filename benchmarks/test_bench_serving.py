"""Serving-stack benches: micro-batching and replica-kill throughput.

Drives the full ``repro.serve`` stack with a closed-loop client pool
(:func:`repro.serve.run_load`) and checks two throughput claims:

* coalescing concurrent requests into batch-32 engine calls beats
  one-request-at-a-time serving by >= 2x at the laptop-quick scale (n=20,
  double precision), where per-call overhead — not FFT compute —
  dominates a single-sample engine call;
* a 3-replica cluster behind the router keeps >= 0.6x of its no-fault
  throughput while one replica is killed mid-load, with every routed
  answer byte-identical to a serial engine and the router back to
  ``ok`` afterwards.

Both only run with ``REPRO_RUN_TABLE_BENCHES=1``; the chaos
guarantees themselves are tier-1 tests (``tests/serve/test_faults.py``,
``tests/serve/test_cluster.py``) and CI smokes (``docs/serving.md``).
"""

import numpy as np

from repro.autodiff.rng import spawn_rng
from repro.donn import DONN, DONNConfig
from repro.serve import ServeConfig, Server, run_load, verified_load
from repro.serve.bench import deployment
from repro.utils import save_model

from .conftest import report, require_opt_in

#: The acceptance workload: small enough that a single-sample engine
#: call is overhead-dominated — the regime micro-batching exists for.
ACCEPTANCE_N = 20
ACCEPTANCE_BATCH = 32


def _serving_model(n=ACCEPTANCE_N):
    return DONN(DONNConfig.laptop(n=n), rng=spawn_rng(21))


def _samples(count):
    return np.random.default_rng(0).random((count, 28, 28))


def test_bench_serving_acceptance(tmp_path):
    require_opt_in("serving throughput bench")
    artifact = save_model(tmp_path / "bench-n20.npz", _serving_model())
    samples = _samples(64)
    cases = {}
    for batch in (1, ACCEPTANCE_BATCH):
        config = ServeConfig(precision="double", max_batch=batch,
                             max_delay=0.005)
        with Server(artifact=artifact, config=config) as server:
            server.warmup()
            cases[batch] = run_load(
                lambda sample: server.submit("predict", sample).result(),
                samples, n_requests=768, concurrency=64)
            cases[batch]["batcher"] = server.stats()["batcher"]
    speedup = cases[ACCEPTANCE_BATCH]["throughput_rps"] \
        / cases[1]["throughput_rps"]
    report("")
    report(f"Serving throughput (n={ACCEPTANCE_N}, double, 64 clients):")
    for batch, case in cases.items():
        report(f"  server_batch{batch:<16} {case['throughput_rps']:>9.1f} "
               f"req/s  p50 {case['p50_ms']:7.2f} ms  "
               f"p99 {case['p99_ms']:7.2f} ms")
    report(f"  batch{ACCEPTANCE_BATCH}_vs_batch1: {speedup:.2f}x")
    # The acceptance criterion: micro-batching >= 2x one-at-a-time.
    assert speedup >= 2.0, (
        f"batch-{ACCEPTANCE_BATCH} coalescing only {speedup:.2f}x over "
        "one-request-at-a-time serving"
    )
    # The batcher's own counters prove full coalescing ran.
    assert cases[ACCEPTANCE_BATCH]["batcher"]["max_batch"] \
        == ACCEPTANCE_BATCH


def test_bench_replica_kill_retains_throughput(tmp_path):
    require_opt_in("replica-kill throughput bench")
    model, samples = _serving_model(), _samples(32)
    artifact = save_model(tmp_path / "bench-n20.npz", model)
    reference = model.inference_engine(precision="double").predict(samples)
    cases = {}
    for label, faults in (("no_fault", None),
                          ("kill_one_replica", "kill:replica=1,after=5")):
        config = ServeConfig(precision="double", max_batch=8,
                             max_delay=0.005, faults=faults)
        with deployment(config, artifact, replicas=3) as (router, load):
            stats, verdict = verified_load(
                samples=samples, n_requests=192, concurrency=16,
                reference=reference, **load)
            stats.update(verdict, respawns=router.health()["restarts"])
        cases[label] = stats
    retained = cases["kill_one_replica"]["throughput_rps"] \
        / cases["no_fault"]["throughput_rps"]
    report("")
    report(f"Replica kill (3 replicas, n={ACCEPTANCE_N}, 16 clients):")
    for label, case in cases.items():
        report(f"  {label:<22} {case['throughput_rps']:>9.1f} req/s  "
               f"p99 {case['p99_ms']:7.2f} ms  "
               f"respawns {case['respawns']}")
    report(f"  kill_one_replica_vs_no_fault: {retained:.2f}x")
    for label, case in cases.items():
        assert case["byte_identical"], (label, case["mismatches"])
    assert cases["kill_one_replica"]["recovered"], cases["kill_one_replica"]
    assert retained >= 0.6, (
        f"only {retained:.2f}x throughput retained through a replica kill"
    )


def test_served_predictions_equal_serial(tmp_path):
    """The timing claims count only because results are unchanged:
    artifact round trip + batched + sharded serving vs serial predict."""
    model = _serving_model()
    images = spawn_rng(22).random((17, 28, 28))
    serial = np.stack([model.predict(image[None])[0] for image in images])
    artifact = save_model(tmp_path / "bench.npz", model)
    config = ServeConfig(max_batch=8, max_delay=0.002, shards=2)
    with Server(artifact=artifact, config=config) as server:
        futures = [server.submit("predict", image) for image in images]
        served = np.stack([future.result() for future in futures])
    assert np.array_equal(served, serial)
