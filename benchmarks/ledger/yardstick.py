"""The machine's own speed, read beside every timing.

The sandbox the ledger runs in changes speed for seconds to minutes at
a time: the same mining iteration read 1.76-2.84 s over seven minutes,
and two sets of ten runs taken 17 minutes apart had medians 25% apart
on an unchanged commit (README, "Steadiness").  No amount of work
measured inside a 20 s run averages that away, and a regression bound
of 25% cannot tell it from a change to the program.

So every end-to-end timing is divided by the machine's *slowness* at
the moment it was taken: the time a fixed piece of pure-Python work
takes, over the time it took on this sandbox at its quiet speed.  The
yardstick touches nothing of the program under test, so a change to
the program moves the timing and not the yardstick.  Half of a pass is
integer arithmetic, half is frozenset intersection (the kind of work
mining does); together they tracked a mining iteration better than
either alone (spread of five-iteration medians 20.5% raw, 4.8% over
arithmetic, 8.4% over set work, 3.3% over both).
"""

from __future__ import annotations

import random
import time

#: Seconds each half of a pass took on the sandbox at its quiet speed,
#: when the ledger landed.  They only fix the scale: slowness 1.0 is
#: that machine, 1.25 one on which everything takes a quarter longer.
ARITH_QUIET_S = 0.0450
SETS_QUIET_S = 0.0690


class Yardstick:
    """Takes slowness readings."""

    def __init__(self) -> None:
        rng = random.Random(0)
        self._sets = [
            frozenset(rng.sample(range(3000), 40)) for _ in range(600)
        ]
        #: Time spent reading, to be left out of whatever is being timed.
        self.seconds = 0.0

    def read(self) -> float:
        started = time.perf_counter()
        total = 0
        for i in range(800000):
            total += i * i % 7
        middle = time.perf_counter()
        for a in self._sets:
            for b in self._sets[:120]:
                total += len(a & b)
        ended = time.perf_counter()
        self.seconds += ended - started
        return (
            (middle - started) / ARITH_QUIET_S
            + (ended - middle) / SETS_QUIET_S
        ) / 2.0
