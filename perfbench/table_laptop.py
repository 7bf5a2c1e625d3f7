"""``table_laptop``: the paper's Table II pair, config to persisted rows.

One job runs the ``baseline`` and ``ours_c`` recipes serially in process
with ``run_table(..., runs_dir=tmp)`` and reads the rows back with
``load_runs`` / ``table_from_runs``.  Work is spread over autodiff, FFT,
SLR sparsification, the 2-pi optimizer and the roughness regularizer, at
n=40 where the FFT hop cost is flat in the batch size.

The laptop config is shrunk (200 train / 200 test samples, batch 25,
6 epochs: as many optimizer steps as 400 samples at batch 50) so a job
takes ~11 s instead of ~50 s; SLR and the 2-pi optimizer keep the laptop
settings.  A run takes at least three jobs: job times on a shared
machine swing by +-15 %, and a median of three drops one outlier.

The training split, model initialisation and 2-pi seeds are fixed, and
``--seed`` draws the test samples the rows are scored on.  The 2-pi
polish sweeps until no flip helps, so its work depends on the trained
masks: with seed-drawn training data, job time moved by up to 40 %
between seeds (baseline 2-pi stage 1.8 s on one seed, 4.5 s on another).
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import replace

import probes
from common import Outcome, median, repeat_until, timed_setups

RECIPES = ("baseline", "ours_c")
MIN_JOBS = 3
TRAIN_SEED = 0


def make_config(tiny: bool):
    from repro.pipeline.config import ExperimentConfig

    if tiny:
        config = ExperimentConfig.laptop(
            "digits", n=20, seed=TRAIN_SEED, n_train=40, n_test=20,
            batch_size=20, baseline_epochs=1)
        return config.with_overrides(
            slr=replace(config.slr, outer_iterations=1, finetune_epochs=1),
            twopi=replace(config.twopi, iterations=3))
    return ExperimentConfig.laptop(
        "digits", n=40, seed=TRAIN_SEED, n_train=200, n_test=200,
        batch_size=25, baseline_epochs=6)


def setup(seed: int, tiny: bool):
    """Config, the fixed training split, the seed's test split and the
    propagation kernels, from cold."""
    from repro import data, donn, runtime

    runtime.clear_kernel_cache()
    config = make_config(tiny)
    train, _ = data.make_dataset(config.family, n_train=config.n_train,
                                 n_test=1, seed=TRAIN_SEED)
    _, test = data.make_dataset(config.family, n_train=1,
                                n_test=config.n_test, seed=seed)
    donn.DONN(config.system)  # builds the propagation kernels
    return config, (train, test)


def _row(result):
    return (result.recipe, result.accuracy, result.roughness_before,
            result.roughness_after)


def job(config, data, tmp_root: str):
    """One table pair: run, persist, read back.  Returns (wall, rows,
    rows read back)."""
    from repro.pipeline import runner, runs

    with tempfile.TemporaryDirectory(dir=tmp_root) as runs_dir:
        start = time.perf_counter()
        table = runner.run_table(config, recipes=RECIPES,
                                 data=data, runs_dir=runs_dir)
        stored = runs.table_from_runs(runs.load_runs(runs_dir))
        wall = time.perf_counter() - start
    return wall, [_row(r) for r in table.results], \
        [_row(r) for r in stored.results]


def quality(rows) -> dict:
    by = {row[0]: row for row in rows}
    base, ours = by["baseline"], by["ours_c"]
    return {
        "accuracy": ours[1],
        "baseline_accuracy": base[1],
        "accuracy_drop_pts": 100.0 * (base[1] - ours[1]),
        "roughness_baseline": base[3],
        "roughness_ours_c": ours[3],
        "roughness_reduction_pct": 100.0 * (1.0 - ours[3] / base[3]),
        "twopi_reduction_pct": 100.0 * (1.0 - ours[3] / ours[2]),
    }


def check(outcome: Outcome, results, tiny: bool) -> None:
    """Gates: rows survive persistence, every job yields the same rows,
    and (except at tiny size) the paper's claims hold: ours_c ends below the
    baseline's roughness and its 2-pi step removes some roughness."""
    first = results[0][1]
    for _, rows, stored in results:
        bad = stored != rows or rows != first
        outcome.attempted += 1
        outcome.failed += int(bad)
        outcome.gate(stored == rows, "rows read back differ from the run")
        outcome.gate(rows == first, "rows differ between repeated jobs")
    q = quality(first)
    if not tiny:
        outcome.gate(q["roughness_ours_c"] < q["roughness_baseline"],
                     f"ours_c roughness {q['roughness_ours_c']:.2f} is not "
                     f"below baseline {q['roughness_baseline']:.2f}")
        outcome.gate(q["twopi_reduction_pct"] > 0,
                     "ours_c 2-pi step did not reduce roughness")
    outcome.notes.update(q)


def run(seed: int, seconds: float, tiny: bool, tracer,
        tmp_root: str) -> Outcome:
    outcome = Outcome()
    if tracer is None:
        setup_s, (config, data) = timed_setups(lambda: setup(seed, tiny))
        results, peak_mb = repeat_until(
            seconds, lambda: job(config, data, tmp_root), at_least=MIN_JOBS)
        check(outcome, results, tiny)
        walls = [wall for wall, _, _ in results]
        outcome.metrics = {
            "setup_s": setup_s,
            "wall_s": median(walls),
            "throughput_per_s": len(RECIPES) * len(walls) / sum(walls),
            "success_rate": 1.0 - outcome.failed / outcome.attempted,
            "peak_rss_mb": peak_mb,
        }
        outcome.notes["job_walls_s"] = walls
        return outcome

    config, data = setup(seed, tiny)
    untraced = job(config, data, tmp_root)
    with tracer.installed(probes.install):
        start = time.perf_counter()
        config, data = setup(seed, tiny)
        traced = job(config, data, tmp_root)
        end = time.perf_counter()
    check(outcome, [untraced, traced], tiny)
    q = outcome.notes
    outcome.metrics = dict(probes.layer_metrics(tracer))
    outcome.metrics.update({
        "donn.accuracy": q["accuracy"],
        "pipeline.accuracy_drop_pts": q["accuracy_drop_pts"],
        "roughness.reduction_pct": q["roughness_reduction_pct"],
        "twopi.reduction_pct": q["twopi_reduction_pct"],
        "trace.overhead_pct": 100.0 * (traced[0] / untraced[0] - 1.0),
        "trace.uncovered_pct":
            100.0 * (1.0 - tracer.covered_s(start, end) / (end - start)),
        "trace.spans": float(len(tracer.spans)),
    })
    return outcome
