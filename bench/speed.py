"""Job timing corrected for the host's speed.

On a small shared host the speed of the CPU drifts: a fixed pure-Python
loop can take anywhere between one and two times its best duration from
one second to the next, and the mix of fast and slow phases changes from
minute to minute.  Raw wall times then differ by 15-30% between runs of
the same job.  `Speedometer` samples that speed with a fixed reference
kernel before each job, every SAMPLE_S seconds during it (from a timer
signal) and after it, and scales the job's wall time to a host on which
the kernel takes REF_KERNEL_S.  The kernel's own time inside the job is
subtracted.  The kernel is harness code, so a change to the program moves
the scaled times exactly as it moves the raw ones.
"""

from __future__ import annotations

import gc
import signal
import time

SAMPLE_S = 0.05
KERNEL_STEPS = 6000
# duration of the reference kernel on an unloaded host (2-core x86-64 VM,
# Python 3.11); the scale is fixed so that scaled times are comparable
# across runs, commits and machines
REF_KERNEL_S = 0.0016

clock = time.perf_counter


def reference_kernel() -> float:
    """Duration of a fixed dict-and-tuple loop, with the collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = clock()
        table, acc = {}, 0
        for i in range(KERNEL_STEPS):
            key = (i % 7, i % 11)
            acc = (acc + table.get(key, 0) + 3 * i) % 1000003
            table[key] = acc
        return clock() - start
    finally:
        if enabled:
            gc.enable()


class Speedometer:
    """Times calls in wall seconds and in seconds at the reference speed."""

    def __init__(self):
        self._samples = []
        self._stolen = 0.0

    def _sample(self, signum=None, frame=None):
        start = clock()
        self._samples.append(reference_kernel())
        self._stolen += clock() - start

    def time(self, fn):
        """Run fn(); return (result, wall seconds, seconds at reference speed)."""
        self._samples, self._stolen = [], 0.0
        self._sample()
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        self._stolen = 0.0
        start = clock()
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = clock() - start
            signal.signal(signal.SIGALRM, previous)
        wall = elapsed - self._stolen
        self._sample()
        kernel_s = sum(self._samples) / len(self._samples)
        return result, wall, wall * REF_KERNEL_S / kernel_s
