"""The reference computation: the machine's speed, measured beside every
operation, so that times can be given at one fixed speed.

The benchmark was written on a shared 2-vCPU virtual machine whose speed
changes by a quarter and more for seconds to minutes at a time: its
neighbours load the host, and no hardware counter is exposed to count work
instead of time.  A 30-second run cannot average such changes out, so runs
of the same code differ by more than a regression the benchmark should
catch.  The worker therefore times this computation right before and right
after every operation and scales the operation's time by how much slower or
faster the machine ran it than ``NOMINAL_S``.  The computation is plain Python with
exact fractions, dicts and a sort, like the library's own arithmetic, and
uses nothing from newtonpoly, so no change to the library can move it.
"""

import math
import time
from fractions import Fraction

# about the median time of one reference() call on the machine the benchmark
# was written on (2 vCPUs of an Intel Xeon, Python 3.11.7); a scaled time is
# the time the operation would take on a machine that runs reference() in
# exactly this time
NOMINAL_S = 0.001


def reference():
    """A fixed computation of about a millisecond."""
    acc, table = Fraction(0), {}
    for i in range(1, 160):
        term = Fraction(i % 13 + 1, i % 7 + 2) * Fraction(i % 5 + 3, i % 11 + 1)
        acc = (acc + term) / 2 if acc.denominator < 10**12 else term
        table[(i * 7919) % 257] = acc
    return sorted(table.items())[-1]


def time_reference(clock=time.perf_counter):
    t0 = clock()
    reference()
    return clock() - t0


def scaled(seconds, before, after):
    """An operation's time at the nominal speed, from the reference times
    measured right before and right after it."""
    return seconds * NOMINAL_S / math.sqrt(before * after)
