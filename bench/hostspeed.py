"""Host speed, measured inside the benchmark's own process.

The benchmark's host shares its CPUs with other tenants, and the speed it
gives one process drifts by up to 1.9x within minutes; CPU time moves with
wall time, so this is not time lost to preemption.  Ten 30-s runs of the
same code then spread by 0.1 to 0.35 on every timing, whatever the run
length.

So a run also times `reference_job`, fixed work that never calls `mulab`,
between ops, and reports every time scaled to a host on which that job
takes REF_S:

    reference seconds = measured seconds * (REF_S / median job time)**SLOPE

This is a regression adjustment on a covariate.  The slope of log pass time
on log job time says how strongly the program's time follows the job's.
It ranged from 0.55 to 1.2 over the workloads and hours measured, and it
moved by as much within one workload from one hour to the next, so SLOPE
is one value near the middle of that range.  The noise left is |SLOPE -
actual slope| of the host's swing, against the actual slope of it without
scaling.  The two halves of the job were chosen by slope as well: a rank
over Z/P with small integers swings more than the program, a chain of
521-bit modular products less.  bench/NOTES.md gives the measurements.

The job uses the standard library only: importing numpy adds 13 MB to a
process, and corpus-analyze never imports it.
"""

from __future__ import annotations

import math
from statistics import median
from time import perf_counter

REF_S = 0.001        # job time on the reference host
SLOPE = 0.8
INTERVAL_S = 0.05    # at most one job per interval while ops run
P = 10007


def _lcg_matrix(n: int) -> list[list[int]]:
    """A fixed n x n matrix of full rank mod P, from a linear congruential
    generator."""
    x, rows = 1, []
    for _ in range(n):
        row = []
        for _ in range(n):
            x = x * 48271 % 2147483647
            row.append(x % P)
        rows.append(row)
    return rows


INTS = _lcg_matrix(12)
M521 = 2**521 - 1
BIG_STEPS = 230
BIG_X, BIG_Y = 3**300, 7**200


def _rank_mod_p(rows) -> int:
    """Rank over Z/P by Gauss-Jordan elimination on lists."""
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(len(rows[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        f = pow(rows[rank][c], -1, P)
        rows[rank] = [x * f % P for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                g = rows[i][c]
                rows[i] = [(x - g * y) % P
                           for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _big_chain(n: int) -> int:
    """n steps of multiplication modulo a 521-bit prime."""
    x, s = BIG_X, 0
    for _ in range(n):
        x = (x * BIG_Y + 12345) % M521
        s ^= x & 0xFFFF
    return s


def reference_job() -> int:
    """Fixed work, about 1 ms, half of it spent on each part: a matrix rank
    over Z/P with small Python integers, and a chain of 521-bit modular
    products."""
    return _rank_mod_p(INTS) + _big_chain(BIG_STEPS)


class HostClock:
    """Times `reference_job` when asked, at most once per `interval`, and
    keeps the time spent on it so a run can leave it out of its wall
    time."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples: list[float] = []
        self.spent = 0.0
        self._last = -math.inf
        reference_job()  # warm-up, not timed

    def sample(self, n: int = 1):
        for _ in range(n):
            t = perf_counter()
            reference_job()
            self._last = perf_counter()
            self.samples.append(self._last - t)
            self.spent += self._last - t

    def tick(self):
        if perf_counter() - self._last >= self.interval:
            self.sample()

    def scale(self, start: int = 0, stop: int | None = None) -> float:
        """Factor that turns seconds into reference seconds, from the jobs
        timed in samples[start:stop], or from all of them when that range
        is empty."""
        job = median(self.samples[start:stop] or self.samples)
        return (REF_S / job) ** SLOPE
