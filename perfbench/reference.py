"""A fixed loop that tells how fast the host runs at the moment.

Other virtual machines on a shared host slow this one for stretches of
minutes, by up to 100 %, and slow every workload alike: longer than a
run, so no choice among one run's repetitions can remove it.  The
benchmark therefore runs this loop between operations, on the same CPU,
for a tenth of the time (see :class:`Meter`), and reports each time
scaled to a host on which one pass of the loop takes :data:`SECONDS`.
The loop does the interpreter work the program is made of (integer
arithmetic, dict and list updates, a sort) and uses nothing from
``repro``, so a change to the program cannot change it.
"""

from __future__ import annotations

import statistics
import time
from typing import List

__all__ = ["NULL_METER", "SECONDS", "Meter", "host_scale", "seconds"]

#: one pass on an undisturbed host (one vCPU of a 2.1 GHz Xeon virtual
#: machine, CPython 3.11); it sets only the scale of the reported times
SECONDS = 0.02
#: share of the time the meter spends in the loop
SHARE = 0.1


def _work() -> int:
    table = {}
    keys = []
    x = 1
    for _ in range(60_000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = x & 1023
        table[key] = table.get(key, 0) + 1
        if x & 1:
            keys.append(key)
    keys.sort()
    return len(keys) + len(table)


def seconds() -> float:
    """Time one pass of the loop on the calling thread's CPU."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


def host_scale(passes: List[float]) -> float:
    """Factor from times measured beside ``passes`` to the scale's host."""
    return SECONDS / statistics.fmean(passes)


class Meter:
    """Runs the loop between operations for :data:`SHARE` of the time.

    After each operation it runs passes until they have taken
    :data:`SHARE` of the time since it was made, so the passes follow
    the operations through the host's slow and fast stretches however
    long each operation is.
    """

    def __init__(self) -> None:
        self.passes: List[float] = []
        self._spent = 0.0
        self._start = time.perf_counter()

    def between(self) -> None:
        """Called between operations: run the passes that are due."""
        while self._spent < SHARE * (time.perf_counter() - self._start):
            t = seconds()
            self.passes.append(t)
            self._spent += t

    def take(self) -> float:
        """Host scale of the passes since the last call (at least one)."""
        passes, self.passes = self.passes or [seconds()], []
        return host_scale(passes)


class NullMeter:
    """The meter of a workload that is not being measured."""

    def between(self) -> None:
        pass


NULL_METER = NullMeter()
