"""Time each check of ``verify`` and derive the order the processes claim them in.

    python tests/claim_order.py    # exit 1 if CLAIM_ORDER is not a permutation

``run_verify`` writes the indices of ``verify.CHECKS`` into its claim pipe in
the order of ``verify.CLAIM_ORDER``, and its two processes each take the next
one when they finish the last.  Taking the longest first lets both finish
together (Graham 1969).  This script times every check in this one process,
after a warm-up pass, as the median over fixed seeds at 500 and 5000 cases;
prints the checks longest first with the order that gives; and prints the
simulated two-process finish time (makespan) of the registry order, the
committed ``CLAIM_ORDER`` and the fresh order, beside the lower bound
max(sum / 2, longest).  Rerun it when the cost of a check changes, and copy
the fresh order into ``CLAIM_ORDER`` if it finishes sooner.  It measures
time, so it is not a test; it needs only the standard library.
"""

from __future__ import annotations

import heapq
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ttsupport import verify  # noqa: E402

PRIMES_BOUND = 100
WARM_UP_SEED = 0
# the timed seeds at each size; a run at 5000 cases takes a few seconds
SEEDS = {500: range(1, 8), 5000: range(1, 4)}


def check_times(cases: int, seeds) -> list[float]:
    """The median time in seconds of each check over seeds, after a warm-up
    pass that fills the memos a run in a long-lived process keeps warm."""
    samples = [[] for _ in verify.CHECKS]
    for seed in (WARM_UP_SEED, *seeds):
        ctx = verify.VerifyContext(seed, cases, PRIMES_BOUND)
        for i, check in enumerate(verify.CHECKS):
            start = time.perf_counter()
            check(ctx)
            samples[i].append(time.perf_counter() - start)
    return [statistics.median(s[1:]) for s in samples]


def longest_first(times: list[float]) -> tuple[int, ...]:
    """The check indices by falling time, ties in registry order."""
    return tuple(sorted(range(len(times)), key=lambda i: (-times[i], i)))


def makespan(times: list[float], order) -> float:
    """When the later of two processes finishes, each claiming the next
    check of order as soon as it is free."""
    free = [0.0, 0.0]
    for i in order:
        heapq.heappush(free, heapq.heappop(free) + times[i])
    return max(free)


def main() -> int:
    n = len(verify.CHECKS)
    committed = verify.CLAIM_ORDER
    if sorted(committed) != list(range(n)):
        print(f"CLAIM_ORDER {committed} is not a permutation of range({n})", file=sys.stderr)
        return 1
    for cases, seeds in SEEDS.items():
        times = check_times(cases, seeds)
        fresh = longest_first(times)
        print(f"--cases {cases}, median over seeds {seeds.start}-{seeds.stop - 1}, ms:")
        for i in fresh:
            print(f"  {i:2d}  {verify.CHECKS[i].__name__:32s} {times[i] * 1e3:8.1f}")
        print(f"  longest first: {fresh}")
        bound = max(sum(times) / 2, max(times))
        for label, order in (
            ("registry order", range(n)),
            ("CLAIM_ORDER", committed),
            ("longest first", fresh),
        ):
            print(f"  makespan, {label:14s} {makespan(times, order) * 1e3:8.1f} ms")
        print(f"  lower bound {bound * 1e3:8.1f} ms, sum {sum(times) * 1e3:.1f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
