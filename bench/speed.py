"""CPU time scaled to the machine's undisturbed speed.

On the shared VM this benchmark was built on, one computation takes up to
about 1.75 times as much CPU time at one moment as at another: other guests
slow the core down, in phases that last from under a second to minutes, and
CPU time counts that slowdown. A run's mean operation time then says more
about how much of the run fell in slow phases than about the program.

While a :class:`SpeedMeter` runs, a ``SIGALRM`` timer interrupts the process
every ``INTERVAL_S`` seconds, and the handler runs a fixed
computation of the benchmark's own (:func:`reference_work`, small
matrix-vector products, an ``exp`` and Python float arithmetic, as the
program's inner loops are) and records its CPU time. Each slice of CPU time
between two probes is converted at the speed its probe measured: an interval's
scaled time is its CPU time, less the probes inside it, times the mean over
those probes of ``REFERENCE_PROBE_S / probe time``. Sampled evenly in CPU
time, as a timer in wall time does for a single-threaded computation that
does not wait, that mean is the inverse of the interval's average slowdown,
so the scaled time is what the interval would have taken at the speed where
the probe takes ``REFERENCE_PROBE_S``.

The timer counts wall time, not CPU time (``ITIMER_PROF``), because while a
CPU-time timer is armed Linux reads the process's CPU clock in whole
scheduler ticks (4 ms here), too coarse for a 1 ms probe.

Measured on the reference machine (``bench/README.md``), the program's
operation time and the probes inside it slow down together (slope 1.03 on a
log-log fit over 696 summaries); the quartile spread of the mean summary time
over 15-second windows fell from 0.215 unscaled to 0.035 scaled.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

# Seconds between probes, and the probe's CPU time at the reference
# machine's undisturbed speed (about its 10th percentile there). The probes
# cost about 3% of the CPU time of a run.
INTERVAL_S = 0.02
REFERENCE_PROBE_S = 1.0e-3
PROBE_STEPS = 150

_MATRIX = np.linspace(0.1, 1.0, 36).reshape(6, 6)
_ROW = np.linspace(-1.0, 1.0, 50)


def reference_work() -> float:
    """A fixed computation: the same instructions on every call."""
    total = 0.0
    x = np.ones(6)
    for i in range(PROBE_STEPS):
        x = _MATRIX @ x
        x = x / x.sum()
        total += float(np.exp(_ROW - _ROW.max()).sum()) + 0.5 * i
    return total


class SpeedMeter:
    """Samples the machine's speed while the process computes.

    ``start()``, run the work, ``stop()``; then :meth:`scaled` converts the
    CPU time between two ``time.process_time()`` readings taken meanwhile.
    At least one probe has run once the meter has stopped.
    Single-threaded use only: the handler runs in the main thread.
    """

    def __init__(self):
        self.interval_s = INTERVAL_S
        self.starts: list = []  # process_time() at each probe's start, ascending
        self.took: list = []  # each probe's CPU seconds
        self._previous = None

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s)

    def stop(self) -> None:
        """Stop sampling; work shorter than one interval gets one probe here.
        Stopping again does nothing more."""
        if self._previous is not None:
            # Ignored first, so that a probe already due cannot re-arm the
            # timer once it is off.
            signal.signal(signal.SIGALRM, signal.SIG_IGN)
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None
        if not self.took:
            self._measure()

    def _measure(self) -> None:
        start = time.process_time()
        reference_work()
        self.took.append(time.process_time() - start)
        self.starts.append(start)

    def _probe(self, signum, frame) -> None:
        self._measure()
        # One-shot and re-armed here, so that a probe never counts towards
        # the interval and never interrupts itself.
        signal.setitimer(signal.ITIMER_REAL, self.interval_s)

    def scaled(self, start: float, end: float, cpu: float | None = None) -> float:
        """Seconds at the reference speed for the CPU time from ``start`` to
        ``end`` (``process_time()`` readings), or for ``cpu`` seconds spent
        between them, which may include waited-for children. The probes run
        in between are left out. An interval too short to hold a probe is
        converted at the speed of the probe nearest to it."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        inside = self.took[lo:hi]
        if cpu is None:
            cpu = end - start
        cpu -= sum(inside)
        if not inside:
            inside = [self.took[min(lo, len(self.took) - 1)]]
        return cpu * sum(REFERENCE_PROBE_S / t for t in inside) / len(inside)
