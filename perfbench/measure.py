"""Percentiles, failure accounting and host facts, owned by the benchmark.

Nothing here calls the program's own measurement code
(``repro.serve.loadgen``, ``repro.engine.bench``), so a change to those
cannot move the benchmark's numbers.
"""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
from pathlib import Path
from typing import Dict, List, Optional, Sequence

#: a reported percentile must have at least this many samples beyond it
MIN_BEYOND = 10


def min_samples(pct: int) -> int:
    """Fewest samples whose ``pct``-th percentile has ten beyond it."""
    count = 1
    while count - _rank(pct, count) < MIN_BEYOND:
        count += 1
    return count


def _rank(pct: int, count: int) -> int:
    """1-based nearest rank of the ``pct``-th percentile (integer math)."""
    return max(1, -(-pct * count // 100))


def percentile(samples: Sequence[float], pct: int) -> float:
    """Nearest-rank ``pct``-th percentile; refused without ten beyond it."""
    if not 0 < pct < 100:
        raise ValueError(f"percentile must be in (0, 100), got {pct}")
    count = len(samples)
    rank = _rank(pct, count)
    if count - rank < MIN_BEYOND:
        raise ValueError(
            f"p{pct} of {count} samples would leave {count - rank} beyond "
            f"it; {min_samples(pct)} samples are needed")
    return sorted(samples)[rank - 1]


def median(samples: Sequence[float]) -> float:
    if not samples:
        raise ValueError("median of no samples")
    return statistics.median(samples)


class Tally:
    """Operations attempted and failed, one count per operation.

    An operation fails when it raised (an error reply, a timeout, a
    dropped connection) or when any of its frames was not accepted.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: Dict[str, int] = {}

    def record(self, *, error: Optional[str] = None, sent: int = 0,
               accepted: int = 0, dropped: int = 0) -> bool:
        """Count one operation; returns whether it failed."""
        self.attempted += 1
        reason = error
        if reason is None and (dropped or accepted != sent):
            reason = f"{dropped} of {sent} frames dropped"
        if reason is None:
            return False
        self.failed += 1
        self.reasons[reason] = self.reasons.get(reason, 0) + 1
        return True

    @property
    def failed_pct(self) -> float:
        return 100.0 * self.failed / self.attempted if self.attempted else 0.0


# -- /proc readers -------------------------------------------------------

def proc_status(pid: int) -> Dict[str, int]:
    """``VmHWM`` (kB) and ``Threads`` of a live process."""
    wanted = {}
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            key, _, value = line.partition(":")
            if key in ("VmHWM", "Threads"):
                wanted[key] = int(value.split()[0])
    return wanted


def proc_cpu_s(pid: int) -> float:
    """User plus system CPU seconds a process has used so far."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rpartition(")")[2].split()
    # fields[11], fields[12] are utime and stime (fields 14, 15 of stat)
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def host_cpu_ticks() -> List[int]:
    """The host's CPU time counters from ``/proc/stat``: user, nice,
    system, idle, iowait, irq, softirq and steal, summed over CPUs."""
    with open("/proc/stat", encoding="ascii") as handle:
        return [int(value) for value in handle.readline().split()[1:9]]


def steal_pct(before: Sequence[int], after: Sequence[int]) -> float:
    """Share of CPU time the hypervisor gave to other guests between two
    :func:`host_cpu_ticks` readings; timings taken meanwhile stretch
    with it."""
    delta = [end - start for start, end in zip(before, after)]
    return 100.0 * delta[7] / sum(delta) if sum(delta) else 0.0


# -- host fingerprint ----------------------------------------------------

def host_fingerprint(root: Path) -> dict:
    """Facts about the host and the code that qualify every number."""
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.partition(":")[2].strip()
                    break
    except OSError:
        pass
    blas = "unknown"
    try:
        config = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{config.get('name')} {config.get('version')}"
    except (TypeError, KeyError):
        pass
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {name: os.environ.get(name) for name in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "commit": commit,
    }
