"""Paper-figure benches and the backend snapshot runner (a package so
the shared conftest helpers import).

``REPRO_RUN_TABLE_BENCHES=1 pytest benchmarks/ -s`` runs the Fig. 3-6,
Table I and Tables II-V reproductions and the serving benches; a plain
``pytest`` run skips the heavy ones (hour-scale training workloads, not
correctness tests).  ``python benchmarks/run_benchmarks.py`` writes the
backend snapshot (``BENCH_backend.json``).  Training and inference
speed is measured end to end by ``perfbench/``.
"""
