"""Shared pieces of the benchmark: result record, statistics, provenance."""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


@dataclass
class Outcome:
    """What one workload run produced."""

    #: End-to-end metrics (untraced run) or per-layer metrics (traced run).
    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Correctness-gate failures, one message each.
    gate_failures: List[str] = field(default_factory=list)
    #: Extra named numbers for the human report (quality, sample counts).
    notes: Dict[str, Any] = field(default_factory=dict)

    def gate(self, ok: bool, message: str) -> None:
        if not ok:
            self.gate_failures.append(message)


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100]."""
    data = sorted(values)
    if not data:
        raise ValueError("no samples")
    pos = (len(data) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (pos - low)


def tail_supported(count: int, q: float) -> bool:
    """Whether at least ten samples lie beyond percentile ``q``."""
    return count * (100.0 - q) / 100.0 >= 10


def median(values: List[float]) -> float:
    return statistics.median(values)


def peak_rss_mb() -> float:
    """Peak resident set of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setups(setup: Callable[[], Any], repeats: int = SETUP_REPEATS):
    """Run ``setup`` ``repeats`` times; return (median seconds, last value).

    Garbage from the previous set-up is collected first (autodiff graphs
    hold reference cycles), so peak memory does not depend on when the
    cyclic collector happens to run."""
    times = []
    value = None
    for _ in range(repeats):
        value = None
        gc.collect()
        start = time.perf_counter()
        value = setup()
        times.append(time.perf_counter() - start)
    return median(times), value


def repeat_until(seconds: float, job: Callable[[], Any], at_least: int = 1):
    """Run ``job`` until ``seconds`` have elapsed and it ran ``at_least``
    times, collecting garbage before each run of it.

    Returns the job results and the process's peak resident set through
    set-up and the first job: later jobs reuse a heap the first one
    fragmented, so their peak depends on allocator history rather than
    on the work."""
    results = []
    first_peak_mb = 0.0
    start = time.perf_counter()
    while (len(results) < at_least
           or time.perf_counter() - start < seconds):
        gc.collect()
        results.append(job())
        first_peak_mb = first_peak_mb or peak_rss_mb()
    return results, first_peak_mb


def _git(root: Path, *args: str) -> Optional[str]:
    try:
        done = subprocess.run(["git", *args], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(root: Path) -> Dict[str, Any]:
    """The machine and software state a result was measured in."""
    import numpy

    from repro.backend import backend_name, get_precision

    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    # Only this checkout's own repository counts, not one enclosing it.
    in_repo = _git(root, "rev-parse", "--show-toplevel") == str(root)
    sha = _git(root, "rev-parse", "HEAD") if in_repo else None
    status = _git(root, "status", "--porcelain") if sha else None
    return {
        "git_sha": sha or "unknown",
        "git_dirty": None if status is None else bool(status),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "fft_backend": backend_name(),
        "precision": get_precision().name,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "loadavg_start": list(os.getloadavg()),
    }
