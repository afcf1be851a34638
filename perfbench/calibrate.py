"""Machine-speed sampling, to express times at a nominal machine speed.

On a shared host the speed of one vCPU swings by 20-30% from one second to
the next, and by as much for minutes at a time; the two vCPUs of the same
VM swing independently. Timing a kernel before and after a command misses
what happens during it, so the child process samples instead: a wall-clock
interval timer interrupts it every ``INTERVAL_S`` and the signal handler
times a short fixed pure-Python kernel. A command's calibrated time is its
wall time minus the time spent in the handler, scaled by
``NOMINAL_S / mean kernel time`` over the command. On curve_small it cut
the quartile spread of five runs from 12% to 2%; memory-heavy work slows
more than the kernel in slow phases, so files_roundtrip keeps part of its
drift. The sampler costs under 1% of a run, and the handler's time is
taken out of the measured times.

The kernel is pure Python so that the sampler can start before NumPy and
fairank are imported, and so that no change to fairank moves it.
"""

from __future__ import annotations

import signal
from time import perf_counter

INTERVAL_S = 0.025
_LOOP = 3000

# kernel time, in seconds, that calibrated times are expressed against: the
# kernel's typical time inside a benchmark child on an unloaded 2-vCPU Xeon
# (Sapphire Rapids) VM
NOMINAL_S = 0.000125


def _kernel() -> float:
    start = perf_counter()
    total = 0
    for i in range(_LOOP):
        total += i
    return perf_counter() - start


class Sampler:
    """Accumulates kernel times and handler overhead from SIGALRM ticks."""

    def __init__(self):
        self.samples = 0
        self.kernel_s = 0.0  # summed kernel times
        self.handler_s = 0.0  # summed time spent in the handler

    def _tick(self, signum, frame):
        start = perf_counter()
        self.kernel_s += _kernel()
        self.samples += 1
        self.handler_s += perf_counter() - start

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def mark(self) -> tuple:
        """(samples, kernel seconds, handler seconds) so far."""
        return self.samples, self.kernel_s, self.handler_s


def window(before: tuple, after: tuple) -> dict:
    """Sampler totals between two marks."""
    return {
        "samples": after[0] - before[0],
        "kernel_s": after[1] - before[1],
        "handler_s": after[2] - before[2],
    }


def calibrated(seconds: float, *windows: dict) -> float | None:
    """``seconds`` (handler time already removed) at the nominal speed,
    using the mean kernel time over ``windows``; None without samples."""
    samples = sum(w["samples"] for w in windows)
    if not samples:
        return None
    return seconds * NOMINAL_S * samples / sum(w["kernel_s"] for w in windows)
