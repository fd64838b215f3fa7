"""Samples the speed of the host while a pass runs.

On a shared 2-vCPU virtual machine the same code runs 1.5 times slower for
stretches of a few seconds to minutes, and every part of relkit slows
together; a run of 30 s lands in a different mix of slow and fast stretches
each time.  A second process cannot see this: its vCPU's stretches are not
the same as the first's.  So a timer interrupts the pass every PERIOD_S and
times a small fixed kernel in the same process.  ``wall_ref`` counts each
query's time in runs of that kernel at the speed sampled during the query,
which cancels most of the drift: on such a host the spread between
quartiles of one query's time fell from 0.27-0.39 of the median to
0.02-0.07.  The kernel uses no relkit code, so a change to relkit moves
``wall_ref`` by as much as it moves the raw time.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

PERIOD_S = 0.05  # one sample per 50 ms costs about 1% of the pass
MIN_SAMPLES = 3  # a shorter query also uses the samples next to it
# The kernel's time at the reference speed: setup_s is given in seconds at
# the speed where one run of the kernel takes this long.
REF_KERNEL_S = 0.0004
SPOT_RUNS = 15  # kernel runs behind one spot_rate(), about 6 ms


def _kernel() -> int:
    # pure-Python integer and dict work, as in relkit's bitmask relations;
    # about 0.4 ms
    acc = 0
    seen = {}
    for i in range(1200):
        m = (i * 2654435761) & 0xFFFFF
        acc ^= m | (m << 7)
        seen[m & 255] = i
    return acc + len(seen)


class Sampler:
    """Times the kernel on SIGALRM; the timer is re-armed after each sample,
    so samples never nest.  Python runs the handler between bytecodes of the
    main thread, so a long call into numpy delays the next sample."""

    def __init__(self):
        self.times: list[float] = []  # when each sample started
        self.seconds: list[float] = []  # how long the kernel took

    def _record(self):
        was_enabled = gc.isenabled()
        gc.disable()  # relkit's garbage is not collected inside a sample
        t0 = time.perf_counter()
        _kernel()
        elapsed = time.perf_counter() - t0
        if was_enabled:
            gc.enable()
        self.times.append(t0)
        self.seconds.append(elapsed)

    def _sample(self, signum, frame):
        self._record()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def start(self):
        """Take one sample now and then one every PERIOD_S."""
        self._record()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def stop(self):
        """Stop the timer and take a last sample."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._record()

    def rate(self, t0: float, t1: float) -> float:
        """Kernel runs per second during [t0, t1]: the mean of 1 / kernel
        time over the samples taken in it, widened by the samples next to
        it until there are MIN_SAMPLES."""
        lo = bisect.bisect_left(self.times, t0)
        hi = bisect.bisect_right(self.times, t1)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.times)):
            lo, hi = max(0, lo - 1), min(len(self.times), hi + 1)
        window = self.seconds[lo:hi]
        return sum(1 / s for s in window) / len(window)


def spot_rate() -> float:
    """Kernel runs per second now: the median of SPOT_RUNS runs in a row."""
    sampler = Sampler()
    for _ in range(SPOT_RUNS):
        sampler._record()
    return 1 / statistics.median(sampler.seconds)
