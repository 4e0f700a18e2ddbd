"""Timing statistics and child-process measurement for the benchmark."""

from __future__ import annotations

import os
import subprocess
import tempfile
import threading
import time
from dataclasses import dataclass, field
from statistics import median

import numpy as np


def percentile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-th percentile.

    A Beta-weighted average of all order statistics rather than one or two
    of them: per-operation times here are multimodal (each instance has its
    own cost), and a plain sample percentile jumps between modes when a
    single operation changes rank.
    """
    from scipy.stats import beta

    xs = np.sort(np.asarray(values, dtype=float))
    n = xs.size
    if n == 0:
        raise ValueError("no samples")
    q = p / 100.0
    edges = beta.cdf(np.arange(n + 1) / n, (n + 1) * q, (n + 1) * (1 - q))
    return float(np.dot(np.diff(edges), xs))


# calibrate() takes about this long on the benchmark's machine in its usual
# state; reported times are scaled to that speed
REFERENCE_CALIBRATION_S = 0.0015


def calibrate() -> float:
    """Seconds taken by a fixed piece of pure-Python and small-array numpy
    work, the same kind of work the package does; the median of three, so a
    single interrupted try does not count."""
    tries = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(20000):
            acc += i * i % 7
        arr = np.arange(64)
        for _ in range(300):
            arr = arr[arr[::-1]]
        tries.append(time.perf_counter() - t0)
    return sorted(tries)[1]


def speed_factor(before: float) -> float:
    """Scale for an interval that started right after the calibration
    ``before`` and ends now: the reference calibration time over the mean of
    ``before`` and a calibration made now.

    The machine these figures come from is a VM shared with other tenants;
    it runs the same code up to 40% slower for tens of seconds at a time,
    which moves every raw time together. Multiplying a raw time by this
    factor gives the time at the reference speed, so runs made in different
    machine states agree more closely. Raw times are kept in the result file.
    """
    return REFERENCE_CALIBRATION_S * 2 / (before + calibrate())


def sampled_speed_factor(calibrations) -> float:
    """Scale for an interval over which ``calibrations`` were made: the
    reference calibration time over their median."""
    return REFERENCE_CALIBRATION_S / median(calibrations)


def tail_percentile(n: int, beyond: int = 10) -> int | None:
    """Highest whole percentile of n samples with at least ``beyond`` samples
    above it, or None when even the median has fewer."""
    for p in range(99, 49, -1):
        if n * (100 - p) / 100.0 >= beyond:
            return p
    return None


@dataclass
class ChildRun:
    returncode: int
    wall_s: float
    cpu_s: float  # user + system seconds of the child
    peak_rss_mb: float
    stdout: bytes
    stderr: bytes
    calibrations: list = field(default_factory=list)


def run_child(argv, *, scratch, env=None, stdout_path=None, timeout=170.0,
              calibrate_every=None) -> ChildRun:
    """Run one process to completion, with its wall and CPU time and peak RSS.

    The CPU time and peak RSS are the child's own (``wait4`` rusage), so
    processes the benchmark ran earlier do not mix into them. Output goes
    through files in ``scratch`` so a full pipe cannot stall the child.

    With ``calibrate_every`` seconds, a thread of this process calibrates at
    that interval while the child runs, on the CPU the child runs on. The
    machine's speed changes within a run of several seconds, so calibrations
    made only before and after it mis-scale it. The calibrations take their
    share of the CPU from the child's wall time but not from its CPU time.
    """
    with tempfile.TemporaryFile(dir=scratch) as err, (
        open(stdout_path, "w+b") if stdout_path else tempfile.TemporaryFile(dir=scratch)
    ) as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=scratch)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        calibrations = []
        done = threading.Event()

        def sample():
            while not done.wait(calibrate_every):
                calibrations.append(calibrate())

        sampler = threading.Thread(target=sample)
        if calibrate_every:
            sampler.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            done.set()
            if calibrate_every:
                sampler.join()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return ChildRun(
            returncode=proc.returncode,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
            stdout=out.read(),
            stderr=err.read(),
            calibrations=calibrations,
        )
