"""A fixed, benchmark-owned probe of how fast the host runs right now.

``probe()`` times a fixed piece of exact rational arithmetic (elimination
over ``fractions.Fraction`` plus dict updates, the kind of work kstab does)
that never changes with kstab.  A task's time divided by the probe's time
next to it tracks kstab's own cost rather than the host's current speed.
"""

from __future__ import annotations

import random
from fractions import Fraction
from time import perf_counter

_rng = random.Random(5)
_MATRIX = [[Fraction(_rng.randint(-9, 9), _rng.randint(1, 5)) for _ in range(8)] for _ in range(8)]
ROUNDS = 6


def _eliminate() -> Fraction:
    m = [row[:] for row in _MATRIX]
    n, det = len(m), Fraction(1)
    for c in range(n):
        p = next(r for r in range(c, n) if m[r][c] != 0)
        if p != c:
            m[c], m[p], det = m[p], m[c], -det
        det *= m[c][c]
        for r in range(c + 1, n):
            if m[r][c] != 0:
                f = m[r][c] / m[c][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    counts: dict[int, int] = {}
    for i in range(2000):
        counts[(i * 7919) % 1009] = counts.get((i * 7919) % 1009, 0) + i
    return det


EXPECTED_DET = _eliminate()


def probe() -> float:
    """Seconds for ROUNDS fixed eliminations; raises if one gives another determinant."""
    t0 = perf_counter()
    for _ in range(ROUNDS):
        if _eliminate() != EXPECTED_DET:
            raise RuntimeError("host-speed probe computed a different determinant")
    return perf_counter() - t0
