"""A machine-speed reference, so that timings on a shared host can be scaled.

On a shared VM the speed of a vCPU changes by up to 1.5x from one second to
the next, as other tenants load the host (bench/README.md, "Noise").  Raw
wall times then spread more than any useful regression bound.  So a fixed
piece of pure-Python work, `reference()`, runs every INTERVAL_S from a timer
signal inside the measured process, and its time says how fast the machine
ran just then.  An op's scaled time is its own time (the reference calls
taken out) times NOMINAL_S over the mean reference time during the op: the
time the op would take on this machine at its nominal speed.

The reference is method calls and attribute reads on slotted objects with
int arithmetic, the kind of work buildinglab spends its time on.  It
allocates no container, so it never triggers the garbage collector and its
time does not depend on the program's heap.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

INTERVAL_S = 0.02
# One reference() call on the 2-vCPU x86-64 VM (Python 3.11) the benchmark
# was written on, in its fast state; scaled times are in these seconds.
NOMINAL_S = 220e-6

clock = time.perf_counter


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def f(self, x):
        return (self.a * x + self.b) % 97


_POINTS = [_Point(i, i + 1) for i in range(64)]


def reference(n: int = 1500) -> int:
    s = 0
    points = _POINTS
    for i in range(n):
        s += points[i & 63].f(i) + i
    return s


def reference_seconds(calls: int = 20) -> float:
    """Mean time of one reference() call over `calls` calls, now."""
    t0 = clock()
    for _ in range(calls):
        reference()
    return (clock() - t0) / calls


class Pacer:
    """Runs reference() every INTERVAL_S of wall time while started."""

    def __init__(self):
        self.starts: list[float] = []
        self.spent: list[float] = []
        self._previous = None

    def _tick(self, signum, frame):
        t0 = clock()
        reference()
        self.starts.append(t0)
        self.spent.append(clock() - t0)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def split(self, t0: float, t1: float) -> tuple[float, float]:
        """(reference seconds inside [t0, t1], scale factor for that span).

        A reference call that starts inside the span also ends inside it:
        the handler runs on the main thread, between two of its bytecodes.
        A span too short to hold a call takes the nearest one."""
        i = bisect.bisect_left(self.starts, t0)
        j = bisect.bisect_right(self.starts, t1)
        inside = self.spent[i:j]
        if inside:
            return sum(inside), NOMINAL_S / statistics.fmean(inside)
        if not self.spent:
            return 0.0, 1.0
        k = min(i, len(self.spent) - 1)
        if 0 < i < len(self.starts) and \
                t0 - self.starts[i - 1] < self.starts[i] - t1:
            k = i - 1
        return 0.0, NOMINAL_S / self.spent[k]

    def reference_median(self) -> float:
        return statistics.median(self.spent) if self.spent else 0.0
