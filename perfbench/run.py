"""Repository benchmark: one command, three workloads, named metrics.

Run from the repository root::

    python3 perfbench/run.py --workload table_laptop --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` is a separate run that wraps each layer's public functions
(see ``probes.py``) and reports the per-layer metrics, the tracing
overhead and the share of wall time no span covers.  Metric names and
units come from ``BENCHMARK.json``.  Every line before the last is a
human-readable report; the last line is the JSON result.  A failed
correctness gate makes ``correct`` false and the exit code 1.

Everything the run writes (run directories, artifacts, spans) goes under
``.perfbench/`` in the repository root, which git ignores.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: seconds-long sizes for the self-check")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not spec_path.is_file():
        print(f"no repro sources under {ROOT / 'src'}; run from a full "
              "checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    workloads = {w["name"] for w in spec["workloads"]}
    if args.workload not in workloads:
        print(f"unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads)}", file=sys.stderr)
        return 2
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    signal.signal(signal.SIGTERM, _terminate)
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    tmp_root = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
    os.environ["TMPDIR"] = tmp_root
    tempfile.tempdir = tmp_root

    import common
    import serve_http
    import table_laptop
    import train_paper_n200
    from spans import Tracer

    runners = {"table_laptop": table_laptop.run,
               "train_paper_n200": train_paper_n200.run,
               "serve_http": serve_http.run}
    tiny = args.scale == "tiny"
    provenance = common.provenance(ROOT)
    tracer = Tracer() if args.trace else None
    started = time.perf_counter()
    try:
        outcome = runners[args.workload](args.seed, args.seconds, tiny,
                                         tracer, tmp_root)
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
    elapsed = time.perf_counter() - started

    metrics = {}
    for entry in declared:
        name = entry["name"]
        # Per-layer metrics of a layer the workload never calls are 0.
        value = outcome.metrics.get(name, 0.0 if args.trace else None)
        if value is None or not math.isfinite(value):
            raise RuntimeError(f"{args.workload} produced no value for "
                               f"end-to-end metric {name!r}")
        metrics[name] = {"value": float(value), "unit": entry["unit"]}
    correct = not outcome.gate_failures and outcome.attempted > 0

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"scale {args.scale}: {elapsed:.1f} s")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for name, metric in metrics.items():
        print(f"  {name:<34} {metric['value']:>14.6g} {metric['unit']}")
    for name, value in outcome.notes.items():
        print(f"  ({name}) {value}")
    for message in outcome.gate_failures:
        print(f"GATE FAILED: {message}")

    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "scale": args.scale,
              "provenance": provenance, "metrics": metrics,
              "notes": outcome.notes, "gate_failures": outcome.gate_failures}
    if tracer is not None:
        record["spans"] = tracer.dump()
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps(record, default=str) + "\n")

    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
