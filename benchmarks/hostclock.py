"""Calibrated time: wall time rescaled by the host speed measured alongside it.

On a shared host (measured: a 2-vCPU AMD EPYC KVM guest) other tenants make
everything run up to 1.6x slower for stretches of one to thirty seconds, CPU
time included, which no number of passes in a 36 s run averages out.  So the
host's speed is measured with a fixed kernel of small numpy calls, a
pure-Python loop and a matrix product (the program's own mix), in the
process whose work is timed.  A time is rescaled to a host on which the
kernel takes CAL_REFERENCE_S, about its time on an uncontended 2-vCPU AMD
EPYC guest.
The log of a command's time follows the log of the mean kernel time around
it with correlation 0.95-0.97 (benchmarks/README.md, "Steadiness").
"""
from __future__ import annotations

import signal
import statistics
import time

import numpy as np

CAL_REFERENCE_S = 0.0015
SAMPLE_INTERVAL_S = 0.1

_RNG = np.random.default_rng(0)
_M3 = _RNG.standard_normal((3, 3)) + 3.0 * np.eye(3)
_V3 = np.ones(3)
_A = _RNG.standard_normal((120, 120))


def kernel() -> float:
    """Seconds one run of the fixed calibration kernel takes right now."""
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(60):
        acc += float(np.linalg.solve(_M3, _V3)[0])
        acc += float(np.cross(_V3, _M3[0]) @ _V3)
    n = 0
    for i in range(15_000):
        n += i * i % 7
    acc += float((_A @ _A).sum()) + n
    return time.perf_counter() - t0


def rescale(seconds: float, kernel_s: float) -> float:
    return seconds * CAL_REFERENCE_S / kernel_s


class HostClock:
    """Times calls in this process, sampling the kernel while they run.

    Every SAMPLE_INTERVAL_S a SIGALRM handler runs the kernel; the call's
    wall time, less those samples, is rescaled by the mean of the samples
    and of the kernel runs just before and after the call.
    """

    def __init__(self) -> None:
        self.kernel_s: list[float] = []
        self._window: list[float] = []
        self._last = kernel()

    def _on_alarm(self, signum, frame) -> None:
        self._window.append(kernel())

    def timed(self, fn):
        """Run fn(); returns (result, wall seconds, calibrated seconds)."""
        self._window = [self._last]
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            elapsed = time.perf_counter() - t0
            signal.signal(signal.SIGALRM, previous)
        wall = elapsed - sum(self._window[1:])
        self._last = kernel()
        self._window.append(self._last)
        self.kernel_s.extend(self._window[1:])
        return result, wall, rescale(wall, statistics.mean(self._window))
