"""Host speed probe for the timed region of a repetition.

The benchmark shares a few cores of a busy host, which runs the same code
up to about 1.5 times slower for spells of seconds to minutes, with CPU
time following wall time.  While a repetition is timed, a timer signal
every PERIOD_S runs a fixed slice of pure-Python work and times it.  The
worker's clock leaves that time out.  ``scale()`` is REFERENCE_S over the
mean slice time of the whole timed region, ``local_scale(start, end)`` over
the mean of the slices within WINDOW_NS of an interval: a time multiplied
by it reads as time on the host at its usual speed.  The slice calls no
library code (only the benchmark's own oracles), so a change to the library
cannot move it.
"""

from __future__ import annotations

import bisect
import gc
import itertools
import signal
import time

from workloads import has_231, stack_sort

# Slice time at the usual host speed, on one core of a 2-vCPU Xeon KVM
# guest.  Only ratios to it matter: both sides of a comparison use it.
REFERENCE_S = 0.016
PERIOD_S = 0.25
WINDOW_NS = 1_000_000_000


def _slice() -> int:
    # The library's kind of work: stack passes over every permutation of a
    # size, pattern tests, tuples kept in sets and dicts.
    outputs: dict[tuple[int, ...], int] = {}
    sortable = set()
    for p in itertools.permutations(range(1, 8)):
        out = stack_sort(p)
        outputs[out] = outputs.get(out, 0) + 1
        if not has_231(p):
            sortable.add(p)
    return len(outputs) + len(sortable)


class Probe:
    """Runs a slice at start(), every PERIOD_S until stop(), and at stop().
    ``clock_ns()`` is perf_counter_ns less the time spent in slices."""

    def __init__(self) -> None:
        self.slice_ns = 0
        self.at: list[int] = []  # clock_ns() when each slice ran
        self.took: list[int] = []  # its duration
        _slice()  # warm-up

    def _run(self, *_) -> None:
        enabled = gc.isenabled()
        gc.disable()  # the caller's heap stays out of the slice
        start = time.perf_counter_ns()
        _slice()
        took = time.perf_counter_ns() - start
        self.at.append(start - self.slice_ns)
        self.took.append(took)
        self.slice_ns += took
        if enabled:
            gc.enable()

    def start(self) -> None:
        self._run()
        signal.signal(signal.SIGALRM, self._run)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._run()

    def clock_ns(self) -> int:
        while True:
            spent = self.slice_ns
            now = time.perf_counter_ns()
            if spent == self.slice_ns:  # no slice ran in between
                return now - spent

    def mean_slice_s(self) -> float:
        return self.slice_ns / len(self.took) / 1e9

    def scale(self) -> float:
        return REFERENCE_S / self.mean_slice_s()

    def local_scale(self, start_ns: int, end_ns: int) -> float:
        lo = bisect.bisect_left(self.at, start_ns - WINDOW_NS)
        hi = bisect.bisect_right(self.at, end_ns + WINDOW_NS)
        took = self.took[lo:hi]
        return REFERENCE_S * 1e9 * len(took) / sum(took)
