"""A fixed computation that measures the host's speed next to every job.

This benchmark runs on shared machines whose speed drifts by tens of
percent over seconds and minutes, with every kind of work slowing together.
So every job is followed by a run of the same fixed computation, and
its time is reported in reference seconds: its wall time scaled by
REFERENCE_S over the median time of the reference runs around it.  On a
host that runs the reference computation in REFERENCE_S, a reference second
is a second; on a host that is momentarily slower, jobs and reference slow
together and the ratio stays put.  A change to qprime moves the jobs but
not the reference, so it shows in full.

The computation uses only the standard library and the kinds of arithmetic
the workloads spend their time in: exact elimination over Fraction (as in
solve_exact), products of integers of thousands of bits (as in series
products), and a knapsack of small-integer additions (as in the MacMahon
table).
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# nominal time of one reference run: about its median on the 2-core host
# where the baseline was measured (0.017-0.032 s as that host's speed
# drifted), so that reference seconds read as seconds there
REFERENCE_S = 0.025
# reference runs before the first job, not counted
WARMUP_RUNS = 3
# a job is scaled by the median of this many reference runs before it and
# as many after it
REFERENCE_WINDOW = 4


def _eliminate(n: int = 12) -> Fraction:
    rows = [[Fraction(1, i + j + 1) for j in range(n)] + [Fraction(i + 1)] for i in range(n)]
    for c in range(n):
        pivot = rows[c][c]
        rows[c] = [x / pivot for x in rows[c]]
        for r in range(n):
            if r != c:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return sum(row[-1] for row in rows)


def _products(n: int = 48) -> int:
    operands = [3 ** (500 + 40 * i) for i in range(n)]
    total = 0
    for a in operands:
        for b in operands[::3]:
            total += a * b
    return total


def _knapsack(n: int = 500) -> int:
    counts = [1] + [0] * n
    for size in range(1, n // 4):
        for total in range(n, size - 1, -1):
            counts[total] += size * counts[total - size]
    return counts[n]


def reference_work() -> tuple:
    return _eliminate(), _products(), _knapsack()


# the result every run must give; a wrong one means the host is broken
EXPECTED = reference_work()


def time_reference() -> float:
    """Seconds one reference run takes now."""
    start = perf_counter()
    result = reference_work()
    seconds = perf_counter() - start
    if result != EXPECTED:
        raise RuntimeError("reference computation gave a different result")
    return seconds
