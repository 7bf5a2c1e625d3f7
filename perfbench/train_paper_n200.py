"""``train_paper_n200``: training at the published 200x200 geometry.

One job trains a fresh ``DONNConfig.paper()`` model (3 layers, pad 2)
for one epoch of ``Trainer.fit`` over 256 synthetic digits at batch 32,
then scores it with ``accuracy()`` on 256 test samples.  The FFT and the
propagation hop do most of the work; pipeline, SLR and 2-pi do none.
"""

from __future__ import annotations

import time

import probes
from common import Outcome, median, repeat_until, timed_setups

LR = 0.05  # ExperimentConfig.baseline_lr
BATCH = 32

#: Test accuracy per seed, recorded at full size with the scipy FFT
#: backend in double precision.  Training is deterministic for a seed,
#: so a job on a listed seed must reproduce its value exactly.
REFERENCE_ACCURACY = {
    0: 0.37109375,
    1: 0.39453125,
    2: 0.33203125,
    11: 0.40234375,
    12: 0.37109375,
    13: 0.38671875,
    14: 0.40234375,
    15: 0.33984375,
}


def sizes(tiny: bool):
    return (32, 32) if tiny else (256, 256)


def system(tiny: bool):
    from repro.donn import DONNConfig

    return DONNConfig.laptop(n=20) if tiny else DONNConfig.paper()


def setup(seed: int, tiny: bool):
    """Dataset, model and propagation kernels, from cold."""
    from repro import data, donn, runtime
    from repro.autodiff.rng import spawn_rng

    runtime.clear_kernel_cache()
    n_train, n_test = sizes(tiny)
    split = data.make_dataset("digits", n_train=n_train, n_test=n_test,
                              seed=seed)
    donn.DONN(system(tiny), rng=spawn_rng(seed + 17))  # builds kernels
    return split


def job(seed: int, tiny: bool, split):
    """Fit one epoch from a fresh seeded model, then score it.  Returns
    (fit seconds, eval seconds, accuracy)."""
    from repro import data, donn
    from repro.autodiff import Adam
    from repro.autodiff.rng import seed_all, spawn_rng

    train, test = split
    seed_all(seed)
    model = donn.DONN(system(tiny), rng=spawn_rng(seed + 17))
    loader = data.DataLoader(train, batch_size=BATCH, seed=seed)
    trainer = donn.Trainer(model, Adam(model.parameters(), lr=LR))
    start = time.perf_counter()
    trainer.fit(loader, epochs=1)
    fitted = time.perf_counter()
    accuracy = donn.accuracy(model, test)
    return fitted - start, time.perf_counter() - fitted, accuracy


def check(outcome: Outcome, seed: int, results, tiny: bool) -> None:
    """Gates: every job reproduces the first one's accuracy, a seed with
    a recorded reference reproduces it, and (except at tiny size)
    training lifts accuracy above 1.5x chance."""
    first = results[0][2]
    reference = None if tiny else REFERENCE_ACCURACY.get(seed)
    for _, _, accuracy in results:
        ok = accuracy == first and reference in (None, accuracy)
        outcome.attempted += 1
        outcome.failed += int(not ok)
    outcome.gate(all(r[2] == first for r in results),
                 "accuracy differs between repeated jobs")
    if reference is not None:
        outcome.gate(first == reference,
                     f"accuracy {first} != recorded reference {reference} "
                     f"for seed {seed}")
    if not tiny:
        outcome.gate(first > 0.15, f"accuracy {first} is near chance")
    outcome.notes["accuracy"] = first


def run(seed: int, seconds: float, tiny: bool, tracer,
        tmp_root: str) -> Outcome:
    outcome = Outcome()
    n_train, n_test = sizes(tiny)
    if tracer is None:
        setup_s, split = timed_setups(lambda: setup(seed, tiny))
        results, peak_mb = repeat_until(
            seconds, lambda: job(seed, tiny, split))
        check(outcome, seed, results, tiny)
        fits = [r[0] for r in results]
        evals = [r[1] for r in results]
        outcome.metrics = {
            "setup_s": setup_s,
            "wall_s": median([f + e for f, e in zip(fits, evals)]),
            "throughput_per_s": n_train / median(fits),
            "success_rate": 1.0 - outcome.failed / outcome.attempted,
            "peak_rss_mb": peak_mb,
        }
        outcome.notes["eval_samples_per_s"] = n_test / median(evals)
        outcome.notes["job_walls_s"] = [f + e for f, e in zip(fits, evals)]
        return outcome

    split = setup(seed, tiny)
    untraced = job(seed, tiny, split)
    with tracer.installed(probes.install):
        start = time.perf_counter()
        split = setup(seed, tiny)
        traced = job(seed, tiny, split)
        end = time.perf_counter()
    check(outcome, seed, [untraced, traced], tiny)
    outcome.metrics = dict(probes.layer_metrics(tracer))
    outcome.metrics.update({
        "donn.accuracy": outcome.notes["accuracy"],
        "donn.eval_samples_per_s": n_test / untraced[1],
        "trace.overhead_pct": 100.0 * ((traced[0] + traced[1])
                                       / (untraced[0] + untraced[1]) - 1.0),
        "trace.uncovered_pct":
            100.0 * (1.0 - tracer.covered_s(start, end) / (end - start)),
        "trace.spans": float(len(tracer.spans)),
    })
    return outcome
