"""Shared measurement helpers: sample summaries, peak memory, environment."""

from __future__ import annotations

import multiprocessing
import os
import platform
import resource
import statistics
import sys

#: A high percentile is reported only when at least this many samples lie
#: beyond it.
TAIL_SAMPLES = 10


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: list[float], q: float) -> float:
    """The *q*-th percentile (0-100) by linear interpolation."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(count: int) -> int | None:
    """Highest of p99/p95/p90/p75 with at least TAIL_SAMPLES samples
    beyond it, or None when even p75 has too few."""
    for q in (99, 95, 90, 75):
        if count * (100 - q) / 100.0 >= TAIL_SAMPLES:
            return q
    return None


def _live_children_hwm_kb() -> int:
    """Sum of peak RSS of this process's live multiprocessing children."""
    total = 0
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1])
        except OSError:
            continue
    return total


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its children, in MiB.

    Live children are read from ``/proc``; children already reaped count
    through ``RUSAGE_CHILDREN`` (the largest one).
    """
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reaped_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kb + max(reaped_kb, _live_children_hwm_kb())) / 1024.0


def stop_children(timeout: float = 10.0) -> None:
    """Join every multiprocessing child, terminating stragglers."""
    for child in multiprocessing.active_children():
        child.join(timeout)
        if child.is_alive():
            child.terminate()
            child.join(timeout)


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
    }
