"""Speed calibration for a machine whose speed drifts.

On a shared host the same Python code can run 30% slower for tens of
seconds at a time, and the two cores drift apart. A fixed calibration loop
timed on the same core as a measured operation tracks that drift: the
loop's time and the operation's time rise and fall together. The
benchmark reports `wall time * reference / loop time`, the operation's
time at the reference speed at which one loop pass takes `reference`
seconds.

There are two loops, because the drift does not hit all code alike. The
perm loop does what `groups` does (Python-level union-find over small numpy
permutation arrays, int() on numpy scalars); it tracks J1 `analyze` to
within a few percent where wall time swings by 25%. The table loop does
what `lattice` does (fancy indexing into a multiplication table,
np.unique, frozensets); it tracks lattice enumeration better than the perm
loop does. Neither loop ever changes, so a change to subdeg cannot move
them.

The benchmark pins itself to one core (`pin`), so an operation, the CLI
children it starts and the calibration passes share a core. Only the
parallel sweep's child runs on every core; the loop then runs on each.
"""
from __future__ import annotations

import os
import signal
import time
from statistics import mean, median

import numpy as np

SAMPLE_EVERY_S = 0.25
CHILD_PASSES = 3  # loop passes per core before and after work done by children
_N = 266
_rs = np.random.RandomState(7)
_GENS = [_rs.permutation(_N).astype(np.int64) for _ in range(2)]
_TABLE = _rs.randint(0, 660, size=(660, 660)).astype(np.int32)
_JOINS = [(_rs.choice(660, 20, replace=False).astype(np.int32),
           _rs.choice(660, 60, replace=False).astype(np.int32)) for _ in range(40)]


def _probe(x: int) -> int:
    parent = list(range(_N))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    queue = [(0, x)]
    merged = 0
    while queue and merged < _N - 1:
        a, b = queue.pop()
        ra, rb = find(a), find(b)
        if ra == rb:
            continue
        parent[rb] = ra
        merged += 1
        for g in _GENS:
            queue.append((int(g[a]), int(g[b])))
    return len(np.unique(np.array([find(i) for i in range(_N)])))


def _perm_loop() -> None:
    for x in range(1, 11):
        _probe(x)


def _table_loop() -> None:
    for frontier, cur in _JOINS:
        mask = np.zeros(660, dtype=bool)
        mask[cur] = True
        prods = np.concatenate((_TABLE[np.ix_(frontier, cur)].ravel(),
                                _TABLE[np.ix_(cur, frontier)].ravel(),
                                _TABLE[np.ix_(frontier, frontier)].ravel()))
        fresh = np.unique(prods)
        fresh = fresh[~mask[fresh]]
        mask[fresh] = True
        frozenset(fresh.tolist())


def pin() -> set[int]:
    """Pin this process (and the children it will start) to its first
    allowed core. Returns every allowed core."""
    cores = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cores)})
    return cores


class Clock:
    """Times operations in reference seconds against one calibration loop."""

    def __init__(self, loop, reference_s: float):
        self.loop, self.reference_s = loop, reference_s

    def loop_s(self) -> float:
        """Wall time of one pass of the loop on the current core."""
        t0 = time.perf_counter()
        self.loop()
        return time.perf_counter() - t0

    def _loop_on(self, cores) -> list[float]:
        """CHILD_PASSES passes on each of the given cores, then back to the
        pinned one."""
        home = os.sched_getaffinity(0)
        samples = []
        try:
            for core in sorted(cores):
                os.sched_setaffinity(0, {core})
                samples += [self.loop_s() for _ in range(CHILD_PASSES)]
        finally:
            os.sched_setaffinity(0, home)
        return samples

    def timed(self, fn, child_cores=None):
        """Run fn() and return (scale, wall seconds, fn's result); wall *
        scale is its time at reference speed.

        In-process work (child_cores None) is sampled before, after, and
        every SAMPLE_EVERY_S during the call by a SIGALRM handler, whose own
        time is left out of the wall time. Work done by child processes is
        sampled before and after on each of child_cores, and the median
        sample is used; sampling during it would compete with the children
        for the core."""
        if child_cores is not None:
            samples = self._loop_on(child_cores)
            t0 = time.perf_counter()
            result = fn()
            wall = time.perf_counter() - t0
            samples += self._loop_on(child_cores)
            return self.reference_s / median(samples), wall, result

        samples = [self.loop_s()]
        spent = 0.0

        def sample(signum, frame):
            nonlocal spent
            t = time.perf_counter()
            samples.append(self.loop_s())
            spent += time.perf_counter() - t

        previous = signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - t0 - spent
            signal.signal(signal.SIGALRM, previous)
        samples.append(self.loop_s())
        return self.reference_s / mean(samples), wall, result


PERM_CLOCK = Clock(_perm_loop, 0.005)
TABLE_CLOCK = Clock(_table_loop, 0.010)
