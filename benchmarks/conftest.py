"""Shared configuration for the paper-figure and table benches.

Every table/figure of the paper's evaluation has one module here.  The
cheap checks (Fig. 3 random masks, Fig. 4 at paper scale, Table I) run
in every tier-1 pass.  The heavy ones (Fig. 5/6, the deployment gap,
Tables II-V and the two serving speed tests) train or serve for
minutes, so they run only with ``REPRO_RUN_TABLE_BENCHES=1``.  Scale is
controlled by the ``REPRO_SCALE`` environment variable:

* ``laptop`` (default) — 40 x 40 masks, ~1k synthetic samples; each full
  table takes a few minutes on one CPU core;
* ``quick``  — tiny smoke-scale for CI plumbing checks;
* ``paper``  — the exact published geometry (200 x 200, full-length
  training; expect GPU-scale runtimes).

Run with the reproduced tables and figures visible::

    REPRO_RUN_TABLE_BENCHES=1 PYTHONPATH=src pytest benchmarks/ -s
"""

import os
import time

import pytest

from repro.pipeline import ExperimentConfig

__all__ = ["table_config", "report", "require_opt_in"]

#: The benches print what they reproduce (``-s`` shows it).
report = print


def require_opt_in(what: str) -> None:
    """Skip a heavy bench unless ``REPRO_RUN_TABLE_BENCHES`` is set."""
    if not os.environ.get("REPRO_RUN_TABLE_BENCHES"):
        pytest.skip(f"{what} (enable with REPRO_RUN_TABLE_BENCHES=1)")


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
def once():
    """Run a heavy end-to-end workload once and print its wall time
    (training pipelines are not micro-benchmarks).  Skips unless
    ``REPRO_RUN_TABLE_BENCHES`` is set."""
    require_opt_in("heavy end-to-end bench")

    def runner(fn, *args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        print(f"{fn.__name__}: {time.perf_counter() - start:.1f} s")
        return result

    return runner
