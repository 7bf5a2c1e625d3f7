#!/usr/bin/env python
"""Snapshot the backend benchmark into ``BENCH_backend.json``.

It times the FFT dispatch layer (numpy vs scipy at workers=1/N kernel
FFTs) and double vs single fused train steps.

::

    python benchmarks/run_benchmarks.py [--only backend]
        [--backend-output BENCH_backend.json] [--backend-quick]

The snapshot carries a ``provenance`` block (git SHA, timestamp,
python/numpy/scipy versions, platform) and a ``thresholds`` block that
``repro bench-compare`` enforces against an older snapshot; a quick
snapshot writes no thresholds.  The exit status is non-zero when the
full-scale acceptance gate fails.  End-to-end training and serving
speed is measured by ``perfbench/`` instead (``docs/performance.md``);
the physics-scenario, serving and sweep gates live in tier-1 and the CI
smokes (``docs/experiments.md``, ``docs/serving.md``).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def provenance() -> dict:
    """Who/when/where a snapshot was taken: stamped into every
    ``BENCH_*.json`` so ``repro bench-compare`` can say *which commits*
    it is diffing, and so a snapshot regression can be bisected."""
    import platform
    from datetime import datetime, timezone

    try:
        git_sha = subprocess.check_output(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT,
            stderr=subprocess.DEVNULL,
        ).decode().strip()
    except (OSError, subprocess.CalledProcessError):
        git_sha = None
    try:
        dirty = bool(subprocess.check_output(
            ["git", "status", "--porcelain"], cwd=REPO_ROOT,
            stderr=subprocess.DEVNULL,
        ).strip())
    except (OSError, subprocess.CalledProcessError):
        dirty = None
    versions = {"python": platform.python_version()}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = __import__(package).__version__
        except ImportError:
            versions[package] = None
    return {
        "git_sha": git_sha,
        "git_dirty": dirty,
        "timestamp": datetime.now(timezone.utc).isoformat(
            timespec="seconds"),
        "platform": platform.platform(),
        **versions,
    }


#: Regression gates embedded in a full snapshot — ``repro bench-compare``
#: reads the *new* snapshot's block (else the old's).  A quick snapshot
#: writes none: a timing ratio at its shrunken scale means nothing.
_BACKEND_THRESHOLDS = {"train_single_vs_double_n64": 1.5}


def _timeit(fn, rounds: int, warmup: int = 1) -> dict:
    """Best-effort repeated timing: mean/min/stddev over ``rounds``."""
    import statistics
    import time

    for _ in range(warmup):
        fn()
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return {
        "mean_s": statistics.fmean(times),
        "min_s": min(times),
        "stddev_s": statistics.stdev(times) if len(times) > 1 else 0.0,
        "rounds": rounds,
    }


def run_backend_bench(output: str, quick: bool = False) -> int:
    """Time the backend dispatch layer and write ``BENCH_backend.json``.

    Two groups, at the training sizes n = 32/64/96 (padded sides 64/128/
    192, batch 32):

    * **kernel FFTs** — one padded 2-D transform through ``repro.backend``
      on the numpy fallback vs scipy at ``workers=1`` and ``workers=-1``
      (all cores), complex128;
    * **fused train steps** — one full optimization step (loss forward +
      backward + Adam) of a 3-layer DONN through the fused path, double
      vs single precision.  The acceptance gate is single >= 1.5x double
      at n=64 (skipped on the numpy fallback, where single precision is
      a memory-traffic win only).
    """
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    import numpy as np

    from repro import backend
    from repro.autodiff import Adam
    from repro.autodiff.rng import spawn_rng
    from repro.donn import DONN, DONNConfig, Trainer

    sizes = (32, 64, 96)
    rounds = 1 if quick else 5
    have_scipy = "scipy" in backend.available_backends()
    active_backend = backend.backend_name()  # restore, don't re-resolve
    cases = {}

    # --- Kernel FFT group: one padded-plane 2-D FFT per call.
    for n in sizes:
        side = 2 * n
        rng = spawn_rng(n)
        x = (rng.standard_normal((32, side, side))
             + 1j * rng.standard_normal((32, side, side)))
        variants = [("numpy", "numpy", None)]
        if have_scipy:
            variants += [("scipy_w1", "scipy", 1), ("scipy_wN", "scipy", -1)]
        for label, name, workers in variants:
            backend.set_backend(name)
            try:
                cases[f"fft2_{label}_n{n}"] = _timeit(
                    lambda x=x, workers=workers: backend.fft2(
                        x, workers=workers),
                    rounds=rounds,
                )
            finally:
                backend.set_backend(active_backend)

    # --- Fused train-step group: double vs single precision.
    def make_step(n, precision):
        model = DONN(DONNConfig.laptop(n=n), rng=spawn_rng(11))
        trainer = Trainer(model, Adam(model.parameters(), lr=0.05),
                          precision=precision)
        images = spawn_rng(12).random((32, 28, 28))
        labels = spawn_rng(13).integers(0, 10, 32)

        def step():
            with backend.precision_scope(precision):
                trainer.optimizer.zero_grad()
                total, _, _ = trainer.loss(images, labels)
                total.backward()
                trainer.optimizer.step()
                return total.item()

        return step

    for n in sizes:
        for precision in ("double", "single"):
            cases[f"train_step_{precision}_n{n}"] = _timeit(
                make_step(n, precision), rounds=rounds,
            )

    summary = {}
    for n in sizes:
        if have_scipy:
            summary[f"fft2_scipy_w1_vs_numpy_n{n}"] = round(
                cases[f"fft2_numpy_n{n}"]["mean_s"]
                / cases[f"fft2_scipy_w1_n{n}"]["mean_s"], 3)
            summary[f"fft2_scipy_wN_vs_w1_n{n}"] = round(
                cases[f"fft2_scipy_w1_n{n}"]["mean_s"]
                / cases[f"fft2_scipy_wN_n{n}"]["mean_s"], 3)
        summary[f"train_single_vs_double_n{n}"] = round(
            cases[f"train_step_double_n{n}"]["mean_s"]
            / cases[f"train_step_single_n{n}"]["mean_s"], 3)

    snapshot = {
        "machine_info": {
            "cpu_count": os.cpu_count(),
            "numpy": np.__version__,
            "backend": "scipy" if have_scipy else "numpy",
        },
        "provenance": provenance(),
        "thresholds": (_BACKEND_THRESHOLDS
                       if have_scipy and not quick else {}),
        "cases": cases,
        "summary": summary,
    }
    with open(output, "w", encoding="utf-8") as fh:
        json.dump(snapshot, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(cases)} cases to {output}")
    for label, speedup in sorted(summary.items()):
        print(f"  {label}: {speedup:.2f}x")

    accepted = summary.get("train_single_vs_double_n64", 0.0)
    if not quick and have_scipy and accepted < 1.5:
        print(f"ACCEPTANCE FAILED: single-precision train step "
              f"{accepted:.2f}x < 1.5x over double at n=64/batch=32",
              file=sys.stderr)
        return 1
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--only",
        choices=("backend",),
        default=None,
        help="the bench group to snapshot (backend is the only one)",
    )
    parser.add_argument(
        "--backend-output",
        default=os.path.join(REPO_ROOT, "benchmarks", "BENCH_backend.json"),
        help="where to write the backend snapshot",
    )
    parser.add_argument(
        "--backend-quick", action="store_true",
        help="single-round backend bench for CI plumbing checks "
             "(numbers written but not meaningful; acceptance gate off)",
    )
    args = parser.parse_args()
    return run_backend_bench(args.backend_output, quick=args.backend_quick)


if __name__ == "__main__":
    sys.exit(main())
