"""Host speed, sampled with a fixed reference loop while a pass runs.

The shared host this benchmark runs on switches between a fast and a
slow state, often several times a second and sometimes for minutes;
in the slow state the same Python code takes up to twice as long, and
CPU time moves with wall time, so no clock of the process filters it
out. A fixed pure-Python loop slows down with the program in the slow
state (over ten-second windows the two moved within 3% of each other
while either alone moved 20%).

So while a pass runs, ``Sampler`` interrupts it every ``TICK_S``
seconds (SIGALRM) and times one short slice of that loop. An
operation's time is its wall time minus the time spent in the sampler,
and its scaled time is that times ``NOMINAL_SLICE_S`` over the mean
slice time in a window around the operation: the operation's time on
the host running at a fixed speed. The loop shares no code with
``actorgame``, so a change to the program moves only the operations'
times, never the reference.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time

SLICE_ITERS = 1000
# About the median time of one slice on the 2-vCPU host the baseline
# was measured on (Python 3.11.7); a constant, so scaled times are
# seconds at that speed and comparable between commits and runs.
NOMINAL_SLICE_S = 0.0003
TICK_S = 0.025
WINDOW_S = 0.1  # samples this far before and after an operation count for it
MIN_SAMPLES = 8
WARMUP_SLICES = 20


def _step(seen: dict, i: int) -> None:
    key = (i * 7) & 255
    seen[key] = seen.get(key, 0) + 1


def slice_time() -> float:
    """Seconds for one slice of the reference loop. It allocates no
    object the cycle collector tracks and runs with the collector off,
    so a collection the program has made due never lands in a slice."""
    seen: dict = {}
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for i in range(SLICE_ITERS):
            _step(seen, i)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Times a reference slice on every timer tick while started.

    ``stamps`` are the perf_counter readings at which ticks began,
    ``slices`` the slice times and ``spent`` the whole time each tick
    took, which the caller subtracts from what it measured."""

    def __init__(self) -> None:
        self.stamps: list[float] = []
        self.slices: list[float] = []
        self.spent: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.slices.append(slice_time())
        self.stamps.append(start)
        self.spent.append(time.perf_counter() - start)

    def start(self) -> None:
        for _ in range(WARMUP_SLICES):  # the first slices of a process run cold
            slice_time()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def spent_between(self, start: float, end: float) -> float:
        lo = bisect.bisect_left(self.stamps, start)
        hi = bisect.bisect_right(self.stamps, end)
        return sum(self.spent[lo:hi])

    def scale(self, start: float, end: float) -> float:
        """Factor from the host's speed around [start, end] to the
        nominal speed: the slices within ``WINDOW_S`` of the interval,
        or the ``MIN_SAMPLES`` nearest when there are fewer; 1.0 when
        nothing was sampled."""
        n = len(self.stamps)
        if not n:
            return 1.0
        lo = bisect.bisect_left(self.stamps, start - WINDOW_S)
        hi = bisect.bisect_right(self.stamps, end + WINDOW_S)
        while hi - lo < min(MIN_SAMPLES, n):
            lo, hi = max(lo - 1, 0), min(hi + 1, n)
        window = self.slices[lo:hi]
        return NOMINAL_SLICE_S * len(window) / sum(window)
