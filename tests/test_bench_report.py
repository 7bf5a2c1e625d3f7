"""``benchmarks/conftest.py::report`` keeps one copy of the report: each
process starts the file afresh, so repeated test runs leave the tracked
``benchmarks_report.txt`` unchanged."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WRITE_REPORT = (
    "from benchmarks.conftest import report\n"
    "report('Fig. 3 worked example')\n"
    "report()\n"
    "report('block  25.26')\n"
)


def test_two_processes_leave_one_copy(tmp_path):
    target = tmp_path / "report.txt"
    target.write_text("stale line from an older run\n")
    env = dict(os.environ, REPRO_BENCH_REPORT=str(target),
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    for _ in range(2):
        subprocess.run([sys.executable, "-c", WRITE_REPORT], cwd=ROOT,
                       env=env, check=True, capture_output=True,
                       timeout=120)
    assert target.read_text() == "Fig. 3 worked example\n\nblock  25.26\n"
