"""Unified observability: metrics, live dashboards, cross-commit diffs.

Three zero-dependency layers every subsystem reports through
(``docs/observability.md``):

* :mod:`repro.obs.metrics` — a thread-safe registry of counters, gauges
  and histograms with a Prometheus text-exposition renderer.  The
  serving stack (:class:`~repro.serve.Server` and everything under it)
  is instrumented end to end and exports ``GET /metrics``.
* :mod:`repro.obs.tail` — ``repro tail <run-or-sweep-dir>``: a live
  terminal dashboard over the ``events.jsonl`` streams every run
  directory accumulates (``--once`` for CI snapshots, ``--html`` for a
  static export).
* :mod:`repro.obs.compare` — cross-commit comparison: ``repro report
  --compare A B`` diffs two stored runs-dirs and ``repro bench-compare``
  diffs ``BENCH_*.json`` snapshots against their embedded regression
  thresholds (non-zero exit on regression; CI-gated).

``tail`` and ``compare`` pull in the pipeline layer, so they load
lazily — importing :mod:`repro.serve` (which only needs the metrics
core) stays light.
"""

from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    parse_prometheus,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "parse_prometheus",
    "snapshot",
    "render_text",
    "render_html",
    "follow",
    "compare_runs",
    "format_run_comparison",
    "bench_compare",
    "format_bench_compare",
]

_LAZY = {
    "snapshot": "tail",
    "render_text": "tail",
    "render_html": "tail",
    "follow": "tail",
    "compare_runs": "compare",
    "format_run_comparison": "compare",
    "bench_compare": "compare",
    "format_bench_compare": "compare",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute "
                             f"{name!r}")
    from importlib import import_module

    return getattr(import_module(f".{module}", __name__), name)
