"""The machine's speed at the time, from a fixed piece of reference work.

The benchmark runs on a few cores of a shared host whose speed drifts: the
same op, repeated in one process, takes anywhere from 1x to 1.9x its fastest
time, in spells that last from a second to minutes.  A time divided by the
reference work's time around it, then multiplied by REFERENCE_S, is that
time as it would read on the machine at a steady speed.  The reference work
is pure Python of the kinds the program spends its time on (small-int and
bit arithmetic, dict lookups, frozensets, big-int products) and never calls
the program, so a change to the program leaves it alone.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

# The reference work's time in a fast spell on the baseline machine (2 vCPUs
# of an Intel Xeon at 2.0 GHz, Python 3.11): a scale, not a measurement, so
# it stays fixed across commits.
REFERENCE_S = 0.012
CHECKSUM = 4120795

_EVENS = frozenset(range(0, 16, 2))


def reference_work() -> int:
    acc = 0
    table: dict[int, int] = {}
    for i in range(3000):
        mask = (i * 40503) & 0xFFFF
        table[mask & 1023] = table.get(mask & 1023, 0) ^ mask
        acc += bin(mask).count("1")
        members = frozenset(j for j in range(16) if mask >> j & 1)
        acc += len(members & _EVENS)
    big = 1
    for k in range(1, 400):
        big = big * (k | 1) + k
    return acc ^ len(table) ^ (big & 0xFFFFFF)


def reference_seconds() -> float:
    """Wall time of one run of the reference work.  The garbage collector is
    off meanwhile, so the size of the program's heap cannot change it."""
    gc.disable()
    try:
        start = perf_counter()
        got = reference_work()
        seconds = perf_counter() - start
    finally:
        gc.enable()
    if got != CHECKSUM:
        raise RuntimeError(f"reference work gave {got}, not {CHECKSUM}")
    return seconds


def reference_now(samples: int = 5) -> float:
    """The median time of a few reference runs made now."""
    return statistics.median(reference_seconds() for _ in range(samples))


class Timeline:
    """Op latencies with reference runs between them, at least every
    every_s seconds of ops; each op is scaled by the mean of the two
    reference runs around it."""

    def __init__(self, every_s: float) -> None:
        self.every_s = every_s
        self.references = [reference_seconds()]
        self.groups: list[list[float]] = [[]]  # op latencies after each reference run

    def add(self, latency: float) -> None:
        group = self.groups[-1]
        group.append(latency)
        if sum(group) >= self.every_s:
            self.references.append(reference_seconds())
            self.groups.append([])

    def scaled(self) -> list[float]:
        """The scaled latency of every op, in the order they ran."""
        if self.groups[-1]:
            self.references.append(reference_seconds())
            self.groups.append([])
        return [latency * REFERENCE_S / ((before + after) / 2)
                for before, after, group in zip(self.references, self.references[1:], self.groups)
                for latency in group]
