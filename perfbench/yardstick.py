"""A fixed piece of work, timed between the benchmark's calls to rescale them.

The benchmark runs on a shared host whose speed drifts, as other tenants
come and go, by a fifth or more for tens of seconds at a time.  That moves
a raw timing by more than a regression bound, and no length of run that
fits the time limit averages it out.  So every timed call is bracketed by
blocks of this yardstick, and long calls are cut by further blocks; each
piece is rescaled to the speed at which one yardstick call takes REF_S:
reported = raw * REF_S / yardstick, with the yardstick taken as the mean
call time over the blocks on either side.

The yardstick is the numeric core of the engine's step loop (a dense
matrix-vector product, an LU back-substitution and elementwise checks, at
20 and at 160 nodes) plus the CSV writer's float formatting, in about the
proportions of a workload.  It is frozen here, so no change to the package
moves it.  Raw times are printed beside the rescaled ones.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
from scipy.linalg import lu_factor, lu_solve

# One call's time at the reference speed: about the median call time on a
# 2-vCPU Intel Xeon host at 2.1 GHz (CPython 3.11, numpy 2.4 with OpenBLAS).
REF_S = 0.018

MIN_CALLS = 2  # a block is at least this many calls ...
SHARE = 0.1  # ... and at least this share of the call it brackets,
MAX_BLOCK_S = 1.0  # ... up to this long
MIN_SEGMENT_S = 0.5  # a call is cut into segments no shorter than this
WARM_UP_S = 0.3


def _chain(n: int) -> tuple:
    a = 4.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    return lu_factor(a), 0.5 * np.eye(n)


_SYSTEMS = ((_chain(20), 300), (_chain(160), 150))
_ROWS = np.random.default_rng(1).random((180, 50))


def _call() -> None:
    for (factor, rhs_matrix), steps in _SYSTEMS:
        u = np.zeros(rhs_matrix.shape[0])
        for _ in range(steps):
            u = lu_solve(factor, rhs_matrix @ u + 0.3, check_finite=False)
            if not np.all(np.isfinite(u)):
                raise FloatingPointError("yardstick diverged")
            u[::2] * 1e3 - 70.0  # the engine's read-out of the segment head voltages
    "".join("%.9g," % row[0] + ",".join("%.9g" % x for x in row[1:]) + "\n" for row in _ROWS)


def block(seconds: float) -> tuple[float, int]:
    """Run the yardstick for at least MIN_CALLS calls and `seconds`; (elapsed seconds, calls)."""
    calls = 0
    start = perf_counter()
    while True:
        _call()
        calls += 1
        elapsed = perf_counter() - start
        if calls >= MIN_CALLS and elapsed >= seconds:
            return elapsed, calls


class Bracket:
    """Times calls between yardstick blocks.

    A timed call is cut into segments: it ends one, and so does every return
    from a function wrapped by ``splitting`` once the segment has run for
    MIN_SEGMENT_S, so a long call is sampled all along.  Each segment is
    rescaled by the blocks on either side of it; the block after one
    segment is the block before the next.
    """

    def __init__(self) -> None:
        block(WARM_UP_S)
        self.before = block(WARM_UP_S)
        self._start = None

    def time(self, fn):
        """(fn(), raw seconds, rescaled seconds), the yardstick blocks left out."""
        self._raw = self._scaled = 0.0
        self._start = perf_counter()
        try:
            value = fn()
        finally:
            self._split()
            self._start = None
        return value, self._raw, self._scaled

    def splitting(self, fn):
        """fn, wrapped to end the current segment when it returns."""

        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                if self._start is not None and perf_counter() - self._start >= MIN_SEGMENT_S:
                    self._split()

        wrapper.__wrapped__ = fn
        return wrapper

    def _split(self) -> None:
        raw = perf_counter() - self._start
        after = block(min(SHARE * raw, MAX_BLOCK_S))
        yard = (self.before[0] + after[0]) / (self.before[1] + after[1])
        self._raw += raw
        self._scaled += raw * REF_S / yard
        self.before = after
        self._start = perf_counter()
