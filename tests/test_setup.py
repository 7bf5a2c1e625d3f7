"""``setup.py`` carries the package metadata an install needs."""

import subprocess
import sys
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parent.parent


def test_setup_reports_name_and_package_version():
    result = subprocess.run(
        [sys.executable, "setup.py", "--name", "--version"], cwd=ROOT,
        check=True, capture_output=True, text=True, timeout=120)
    assert result.stdout.split() == ["repro", repro.__version__]
