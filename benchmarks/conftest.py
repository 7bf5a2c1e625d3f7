"""Shared configuration for the benchmark harness.

Every table/figure of the paper's evaluation has one bench module here.
Scale is controlled by the ``REPRO_SCALE`` environment variable:

* ``laptop`` (default) — 40 x 40 masks, ~1k synthetic samples; each full
  table takes a few minutes on one CPU core;
* ``quick``  — tiny smoke-scale for CI plumbing checks;
* ``paper``  — the exact published geometry (200 x 200, full-length
  training; expect GPU-scale runtimes).

Run with output visible::

    pytest benchmarks/ --benchmark-only -s
"""

import os

import pytest

from repro.pipeline import ExperimentConfig

__all__ = ["table_config", "report"]

#: File that collects the reproduced tables/figures so they survive
#: pytest's output capture (the timing table alone is not the result).
_REPORT_PATH = os.environ.get(
    "REPRO_BENCH_REPORT",
    os.path.join(os.path.dirname(__file__), "benchmarks_report.txt"),
)

#: Has this process written the report yet?  The first write truncates,
#: so the file holds one session's report, never a pile of repeats.
_report_started = [False]


def report(text: str = "") -> None:
    """Print ``text`` and write it to the bench report file (the first
    call in a process starts the file afresh, later calls append)."""
    print(text)
    mode = "a" if _report_started[0] else "w"
    _report_started[0] = True
    with open(_REPORT_PATH, mode, encoding="utf-8") as fh:
        fh.write(text + "\n")


def table_config(family: str) -> ExperimentConfig:
    """The experiment scale used by the table/figure benches."""
    scale = os.environ.get("REPRO_SCALE", "laptop")
    if scale == "paper":
        return ExperimentConfig.paper_scale(family)
    if scale == "quick":
        from dataclasses import replace

        cfg = ExperimentConfig.laptop(
            family, n=20, n_train=100, n_test=50, batch_size=50,
            baseline_epochs=2,
        )
        return cfg.with_overrides(
            slr=replace(cfg.slr, outer_iterations=1, finetune_epochs=1),
            twopi=replace(cfg.twopi, iterations=30),
        )
    if scale == "laptop":
        return ExperimentConfig.laptop(
            family, n=40, n_train=900, n_test=300, baseline_epochs=10,
        )
    raise ValueError(
        f"unknown REPRO_SCALE={scale!r}; expected laptop, quick or paper"
    )


@pytest.fixture
def once(request, benchmark):
    """Run a heavy end-to-end workload exactly once under the benchmark
    timer (training pipelines are not micro-benchmarks).

    These workloads train full models for minutes-to-hours, so they only
    run when benchmarking is explicitly requested (``--benchmark-only``
    or ``REPRO_RUN_TABLE_BENCHES=1``); a plain ``pytest`` sweep over the
    repo skips them and still runs the cheap figure benches.
    """
    explicitly_enabled = (
        request.config.getoption("--benchmark-only")
        or os.environ.get("REPRO_RUN_TABLE_BENCHES")
    )
    if not explicitly_enabled:
        pytest.skip(
            "heavy end-to-end bench (enable with --benchmark-only or "
            "REPRO_RUN_TABLE_BENCHES=1)"
        )

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1)

    return runner
