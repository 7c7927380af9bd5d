"""A fixed pure-Python kernel that gauges how fast the host runs right now.

The host is shared, and its speed swings by half within seconds (README.md).
During an untraced pass a timer signal runs this kernel every
``EVERY_S`` seconds, between the package's bytecodes.  Each stretch of the
pass between two probes is then expressed in seconds at a fixed reference
speed: its clock time times ``NOMINAL_S`` over the mean time of the two
probes.  The kernel uses nothing from the package, so a change to the package
moves reference-speed times as it moves clock times.
"""

from __future__ import annotations

import gc
import signal
import time
from contextlib import contextmanager
from fractions import Fraction

# the kernel's time on an unloaded host of the kind the benchmark was tuned on
# (Intel Xeon, 2 vCPU, CPython 3.11): the reference speed
NOMINAL_S = 0.00085
EVERY_S = 0.05


def _kernel():
    # the package's own mix: Fraction arithmetic on growing integers,
    # tuple-keyed dicts and float loops
    acc = Fraction(0)
    for k in range(1, 100):
        acc += Fraction(k * k + 1, 2 * k + 3) * Fraction(3, k + 7)
    table = {}
    for k in range(1500):
        key = (k % 97, k % 13)
        table[key] = table.get(key, 0) + k
    x = 0.0
    for k in range(2500):
        x += (k * 0.5) ** 0.5
    return acc, x


def probe() -> float:
    """Seconds the kernel takes now: the faster of two back-to-back runs, with
    the garbage collector off so that the package's heap does not enter it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(2):
            start = time.perf_counter()
            _kernel()
            best = min(best, time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return best


def child_probe() -> float:
    """Median of seven probe times in a fresh interpreter, after one warm-up
    probe."""
    probe()
    return sorted(probe() for _ in range(7))[3]


class Timeline:
    """The probes of one pass: (start, end, kernel seconds) of each."""

    def __init__(self):
        self.probes: list[tuple[float, float, float]] = []
        self._busy = False

    def mark(self, *_signal_args) -> None:
        if self._busy:  # a signal that arrives during a probe
            return
        self._busy = True
        try:
            start = time.perf_counter()
            seconds = probe()
            self.probes.append((start, time.perf_counter(), seconds))
        finally:
            self._busy = False

    @contextmanager
    def every(self, seconds: float = EVERY_S):
        """Probe at the start, every ``seconds`` of clock time, and at the end."""
        self.mark()
        previous = signal.signal(signal.SIGALRM, self.mark)
        signal.setitimer(signal.ITIMER_REAL, seconds, seconds)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.mark()

    def stretches(self, reference: bool) -> list[tuple[float, float, float]]:
        """(start, end, scale) of the time between consecutive probes; the scale
        turns clock seconds into reference seconds, or is 1."""
        pairs = zip(self.probes, self.probes[1:])
        return [(a[1], b[0], 2 * NOMINAL_S / (a[2] + b[2]) if reference else 1.0)
                for a, b in pairs]

    def seconds(self, start: float, end: float, reference: bool = True) -> float:
        """Time from ``start`` to ``end`` with the probes left out, in
        reference seconds or, with ``reference`` false, in clock seconds."""
        return sum(
            max(0.0, min(end, hi) - max(start, lo)) * k
            for lo, hi, k in self.stretches(reference)
        )
