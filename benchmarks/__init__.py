"""Paper-figure benchmarks and the snapshot runner (a package so the
shared conftest helpers import).

``pytest benchmarks/ --benchmark-only -s`` runs the Fig. 3-6, Table I
and Tables II-V reproductions and the serving benches; a plain
``pytest`` run skips the heavy table benches (hour-scale training
workloads, not correctness tests).  ``python benchmarks/run_benchmarks.py`` writes the
serving, backend, sweep and scenario snapshots (``BENCH_*.json``).
Training and inference speed is measured end to end by ``perfbench/``.
"""
