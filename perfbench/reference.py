"""Machine-speed reference that every timing of the benchmark is scaled by.

The benchmark runs on shared virtual machines whose speed drifts: the same
pure-Python computation takes anywhere from 1x to 2x its fastest time, in
spells of ten seconds to several minutes.  A timing taken alone therefore
measures the spell as much as the program.  So the benchmark runs a fixed
computation of its own, ``sample()``, between the timed items, and scales a
pass's time by ``REF_S`` over the median of the samples taken in that pass:
the result is the time the pass would have taken on a machine where the
reference takes ``REF_S`` seconds.  The median keeps a sample that happened
to be preempted from moving the pass.  The raw and scaled figures are both
printed, with the median reference time of the run.

The reference uses only the standard library (exact Fraction elimination on
a fixed 30 x 30 matrix, the same kind of work the library does), so no
change to the library can move it.  The garbage collector is off while it
runs, so that the size of the caller's heap does not move it either.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from fractions import Fraction

# Seconds the reference is taken to last: a round figure near its time on a
# shared 2-core x86-64 VM, where it took 0.06 to 0.10 s.
REF_S = 0.1

# Between items, a reference sample is taken once this many seconds of timed
# work have passed since the last one.
EVERY_S = 1.0

_RNG = random.Random(20160910)
_MATRIX = [[Fraction(_RNG.randint(-10 ** 6, 10 ** 6)) for _ in range(30)]
           for _ in range(30)]


def _eliminate():
    a = [row[:] for row in _MATRIX]
    n = len(a)
    for k in range(n):
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
    return a[n - 1][n - 1]


def sample():
    """Seconds the reference computation takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _eliminate()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def factor(samples):
    """What times taken alongside ``samples`` are multiplied by to scale them
    to the reference speed."""
    return REF_S / statistics.median(samples)
