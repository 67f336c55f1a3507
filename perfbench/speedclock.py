"""Op timing that corrects for the varying speed of a shared machine.

On a shared host the core this process runs on alternates, every second or
so, between full speed and about half of it, and the CPU time of a fixed
loop swings with the wall time, so neither clock alone is steady.
``SpeedClock`` measures the speed directly: it times a fixed pure-Python
calibration loop right before and right after every op, never during one,
so the program's own threads cannot slow the loop while they work.  The
loop mixes float math with calls and small tuples because a bare arithmetic
loop slows down less than the library does when the host is busy.  An op's
corrected time is its wall time divided by the mean slowdown of the two
samples around it, so it reads in milliseconds of a machine on which the
loop takes REFERENCE_S.  Both times are kept.

Two notes flag when the correction may be biased by the program itself:
ops whose CPU time exceeds their wall time (the program ran on more than
one core, whose speed the loop does not see), and calibration samples taken
right after ops that are slower than those taken right before them (work
of the program outlived the op and slowed the loop).
"""

import math
import statistics
import time
from collections import namedtuple

# the loop's time at full speed on the 2-core x86-64 host the baseline was
# measured on (CPython 3.11); corrected times read as milliseconds there
REFERENCE_S = 5.7e-4
PARALLEL_CPU_SHARE = 1.1     # CPU time over wall time above which an op ran in parallel
AFTER_BEFORE_LIMIT = 1.1     # median after-op sample over median before-op sample

_Sample = namedtuple("_Sample", "a b c d")


def _record(a, b, c=1.0):
    return _Sample(a * b, a + c, b - c, math.exp(-abs(a)))


def _calibration_loop():
    """Float math, calls, small tuples and a dict: the mix the library runs."""
    s = 0.0
    for i in range(4000):
        s += math.sqrt(i)
    table = {}
    for i in range(400):
        t = _record(0.001 * i, 2.0, c=0.5)
        table[i & 31] = t
        s += t.a + t.d
    return s


def _sample():
    t0 = time.perf_counter()
    _calibration_loop()
    return time.perf_counter() - t0


class SpeedClock:
    """time(fn) runs fn and sets wall_s, corrected_s and slowdown for it."""

    def __init__(self):
        self.before, self.after = [], []   # seconds per calibration loop
        self.parallel_ops = 0

    def time(self, fn):
        """Runs fn(); an exception from fn propagates after the clock is read."""
        before = _sample()
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            self.wall_s = time.perf_counter() - t0
            cpu_s = time.process_time() - c0
            after = _sample()
            self.before.append(before)
            self.after.append(after)
            if cpu_s > PARALLEL_CPU_SHARE * self.wall_s:
                self.parallel_ops += 1
            self.slowdown = (before + after) / (2.0 * REFERENCE_S)
            self.corrected_s = self.wall_s / self.slowdown

    def notes(self):
        """Lines that flag a correction the program itself may have biased."""
        notes = []
        if self.parallel_ops:
            notes.append(f"{self.parallel_ops} of {len(self.before)} ops ran on more than one "
                         f"core (CPU time above wall time); the correction follows the speed "
                         f"of this process's core only")
        if self.before:
            ratio = statistics.median(self.after) / statistics.median(self.before)
            if ratio > AFTER_BEFORE_LIMIT:
                notes.append(f"calibration right after ops is {ratio:.3f}x slower than right "
                             f"before them: work of the program outlives its ops")
        return notes
