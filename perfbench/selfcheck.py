"""Tiny-size self-check of the benchmark.

    python3 perfbench/selfcheck.py

Runs every workload of ``BENCHMARK.json`` at ``--scale tiny``, untraced
and traced, through the declared command, and asserts that each run
exits 0 with a correct result whose metrics are exactly the declared
end-to-end (untraced) or per-layer (traced) metrics, each with its
declared unit and a finite value, end-to-end values never 0.  It also
checks that the command refuses to run, printing no result, from a
directory holding only ``BENCHMARK.json`` and the benchmark's files.
Takes about a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(spec, cwd: Path, workload: str, trace: int):
    command = spec["command"] + [
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def check_result(spec, workload: str, trace: int) -> None:
    done = run(spec, ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    assert done.returncode == 0, f"{where}: exit {done.returncode}\n" \
        f"{done.stdout[-2000:]}{done.stderr[-2000:]}"
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, \
        f"{where}: result keys {sorted(result)}"
    assert result["correct"] is True, f"{where}: not correct"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    declared = spec["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    assert set(got) == set(expected), \
        f"{where}: missing {sorted(set(expected) - set(got))}, " \
        f"extra {sorted(set(got) - set(expected))}"
    for name, metric in got.items():
        assert metric["unit"] == expected[name], f"{where}: {name} unit"
        value = metric["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), \
            f"{where}: {name} = {value!r}"
        assert trace or value != 0, f"{where}: end-to-end {name} is 0"
    print(f"ok  {where}: {len(got)} metrics")


def check_bare_directory(spec) -> None:
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        done = run(spec, bare, spec["workloads"][0]["name"], 0)
    assert done.returncode != 0, "bare directory run exited 0"
    assert '"metrics"' not in done.stdout, "bare directory run printed a result"
    print("ok  bare directory: refused with exit", done.returncode)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        for trace in (0, 1):
            check_result(spec, workload["name"], trace)
    check_bare_directory(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
