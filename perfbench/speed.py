"""Continuous calibration of the machine's speed, for timings that travel.

On a shared virtual machine the speed of a core drifts by a factor of up
to two over seconds to minutes, as other tenants load the physical core.
On a 2-vCPU x86-64 VM the same cross-device round took 1.6 s in one minute
and 3.1 s in the next, and CPU time drifted with wall time, so no choice of
clock removes it.  A fixed reference kernel slows down by the same factor:
on that VM the ratio of a serialization-and-BLAS loop to this kernel held
within ±2% while both drifted by ±17%.

:class:`Speedometer` therefore runs the kernel from a timer signal every
``TICK_S`` seconds while a workload runs, and :meth:`Speedometer.seconds`
converts a measured interval into *reference seconds*: the interval's wall
time, minus the kernel's own runs inside it, scaled by
``REFERENCE_KERNEL_S / (mean kernel time during the interval)``.  The mean
over the interval, not a wider window or the median, tracks the speed the
interval actually ran at: on that VM it cut the round-to-round spread of
the cross-device workload from 16% (wall) to 3%.  A reference second is a second on a core that runs the kernel in
``REFERENCE_KERNEL_S``; the untraced end-to-end metrics are reported in
them, and the raw wall seconds are printed beside them.
"""

from __future__ import annotations

import hashlib
import hmac
import signal
import statistics
import time

#: Kernel time that defines one reference second (about its median on that VM).
REFERENCE_KERNEL_S = 0.0025
#: Seconds between kernel runs (5% of the time at the reference speed).
TICK_S = 0.05
#: An interval with fewer kernel runs inside is calibrated by the runs nearest to it.
MIN_SAMPLES = 5
_KERNEL_KEY = hmac.new(b"perfbench-reference", digestmod=hashlib.sha256)


def reference_kernel() -> None:
    """A fixed mix of interpreter work and hashing, independent of the program."""
    table = {}
    for i in range(1000):
        context = _KERNEL_KEY.copy()
        context.update(i.to_bytes(8, "big"))
        table[i % 97] = context.digest()


def kernel_seconds(runs: int = 40) -> float:
    """Mean time of ``runs`` back-to-back kernel runs: the core's speed right now."""
    start = time.perf_counter()
    for _ in range(runs):
        reference_kernel()
    return (time.perf_counter() - start) / runs


class Speedometer:
    """Samples the kernel's run time on a timer while it is active."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        reference_kernel()
        self.samples.append((start, time.perf_counter() - start))

    def __enter__(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def seconds(self, interval: tuple[float, float]) -> float:
        """Reference seconds the program spent in ``interval`` (see the module doc)."""
        start, end = interval
        inside = [dt for t, dt in self.samples if start <= t < end]
        calibration = inside
        if len(inside) < MIN_SAMPLES:
            middle = (start + end) / 2
            nearest = sorted(self.samples, key=lambda sample: abs(sample[0] - middle))
            calibration = [dt for _, dt in nearest[:MIN_SAMPLES]]
        return (end - start - sum(inside)) * REFERENCE_KERNEL_S / statistics.fmean(calibration)

    @staticmethod
    def wall(interval: tuple[float, float]) -> float:
        return interval[1] - interval[0]
