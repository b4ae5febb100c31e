"""Measurement plumbing shared by the workloads: statistics, timed sections,
process accounting and the environment record written into every result.

Latency samples are wall-clock ``time.perf_counter`` differences taken by the
caller (closed loop: a caller issues its next operation only after the
previous reply arrived).  Percentiles follow one rule everywhere — a
percentile is *supported* only when at least ten samples lie beyond it — so
short runs report a lower tail instead of a noisy p95.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Samples that must lie beyond a reported percentile (choosing-metrics §1).
MIN_SAMPLES_BEYOND = 10


def percentile_supported(percent: float, num_samples: int) -> bool:
    """Whether ``num_samples`` leave >= 10 samples beyond the percentile."""
    return num_samples * (1.0 - percent / 100.0) >= MIN_SAMPLES_BEYOND


def percentile(samples, percent: float) -> float:
    return float(np.percentile(np.asarray(samples, dtype=np.float64), percent))


def median(samples) -> float:
    return float(statistics.median(samples))


def quartile_spread(values) -> float:
    """Inter-quartile distance as a share of the median (the contract's
    run-to-run spread); 0.0 when there are too few values to have quartiles."""
    values = [float(value) for value in values]
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (third - first) / abs(middle) if middle else 0.0


@contextmanager
def timed_section():
    """Collect garbage, then keep the collector away from the timed code.

    ``gc.freeze`` moves every object alive at entry into the permanent
    generation, so the cyclic collector never walks the index while a
    latency sample is being taken.
    """
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def peak_rss_mb() -> float:
    """Peak resident set of this process, MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of another live process, MiB.

    ``RUSAGE_CHILDREN`` cannot be used for the cluster workers: Linux carries
    the forking parent's resident set into a child's ``ru_maxrss`` across
    ``exec``, so it reports the harness's size at launch, not the worker's.
    """
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0.0
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def directory_bytes(path) -> int:
    return sum(entry.stat().st_size for entry in Path(path).rglob("*")
               if entry.is_file())


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO_ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(seed: int, scale: str, seconds: float) -> dict:
    """What a reader needs to judge whether two result files are comparable."""
    return {
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "seed": seed,
        "scale": scale,
        "seconds": seconds,
        "git_commit": git_commit(),
        "argv": sys.argv[1:],
        "unix_time": time.time(),
        "loop": "closed",
    }
