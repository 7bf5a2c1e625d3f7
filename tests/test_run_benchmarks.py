"""``benchmarks/run_benchmarks.py`` rejects what it does not know."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run(*args):
    return subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "run_benchmarks.py"),
         *args], cwd=ROOT, capture_output=True, text=True, timeout=120)


def test_mistyped_flag_exits_before_any_bench(tmp_path):
    output = tmp_path / "BENCH_backend.json"
    result = run("--only", "backend", "--backend-quik",
                 "--backend-output", str(output))
    assert result.returncode == 2
    assert "unrecognized arguments: --backend-quik" in result.stderr
    assert result.stdout == ""
    assert not output.exists()


@pytest.mark.parametrize("group",
                         ["kernels", "training", "serving", "sweep",
                          "scenarios"])
def test_retired_groups_are_rejected(group):
    result = run("--only", group)
    assert result.returncode == 2
    assert f"invalid choice: '{group}'" in result.stderr
    assert "--only {backend}" in result.stderr
