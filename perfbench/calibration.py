"""A fixed pure-Python loop that gauges how fast the machine runs right now.

The benchmark shares a 2-vCPU machine with other tenants, which slow it by
up to a half for seconds or for a whole run; the slowdown shows in CPU time
as much as in wall time.  Timing this loop next to every request, in the
same closed loop, lets a latency be rescaled to a fixed machine speed:

    latency at reference speed = latency * REFERENCE_S / loop time

REFERENCE_S is this loop's time on a quiet machine where the benchmark was
written (Python 3.11.7, 2 vCPUs), so rescaled figures read as seconds there.
The loop does the kinds of work ncsym does (tuple hashing, dict and set
updates, Fraction arithmetic, a sort) and uses the standard library only,
so no change to ncsym moves it.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.010


def loop_s() -> float:
    """Seconds one run of the fixed loop takes.

    The garbage collector is off while it runs, so the size of the calling
    process's heap (the dense-yg worker holds ncsym's caches) does not
    change the time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        table: dict[tuple[int, int, int], int] = {}
        seen: set[frozenset[int]] = set()
        total = Fraction(0)
        for i in range(8000):
            key = (i * 7919 % 1009, i % 13, i % 7)
            table[key] = table.get(key, 0) + i
            seen.add(frozenset((i % 17, i % 19, i % 23)))
            if i % 50 == 0:
                total += Fraction(i, i % 11 + 1)
        sorted(table.items())
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def rescale(latency_s: float, loop_time_s: float) -> float:
    """A latency measured while the loop took loop_time_s, at reference speed."""
    return latency_s * REFERENCE_S / loop_time_s
