"""Tiny exact linear programming over the rationals.

A two-phase dense simplex with Bland's rule: deterministic, exact, and
entirely adequate for the cone problems this engine meets (at most six
equality constraints and a couple of dozen nonnegative variables).  Used
for effective-cone membership and for pseudo-effective thresholds, where
the optimal basis doubles as a certificate that can be re-solved with a
symbolic parameter.

The tableau is fraction-free (Edmonds 1967, Bareiss 1968): one integer
matrix T and one common denominator D > 0, the last pivot, so that T/D is
the rational tableau.  Constraint rows are scaled to integers, and
redundant ones dropped, before the simplex starts.  A pivot on p updates
every other row as (x*p - f*y) // D; the division is exact because D is,
up to sign, the determinant of the current basis, and a remainder raises
InvariantViolation rather than going on with a wrong tableau.  Scaling a
row by a positive integer changes no ratio and no sign of a reduced cost,
so Bland's rule makes the same pivots as on a tableau of Fractions, and
the returned value, solution and basis are the same.  Artificial columns
are never priced, so the tableau does not carry them.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .errors import InvariantViolation
from .rationals import Q, to_q
from .records import Record


class Infeasible(Exception):
    pass


class Unbounded(Exception):
    pass


class LPResult(Record):
    value: Fraction
    x: tuple[Fraction, ...]
    basis: tuple[int, ...]


def _pivot(tab: list[list[int]], basis: list[int], denom: int, row: int, col: int) -> int:
    """Integer-preserving pivot on tab[row][col]; returns the new denominator."""
    p = tab[row][col]
    prow = tab[row]
    for r, cur in enumerate(tab):
        if r == row:
            continue
        f = cur[col]
        nums = [x * p - f * y for x, y in zip(cur, prow)] if f else [x * p for x in cur]
        if denom != 1:
            if any(n % denom for n in nums):
                raise InvariantViolation(f"inexact simplex pivot: row {r} is not divisible by {denom}")
            nums = [n // denom for n in nums]
        tab[r] = nums
    basis[row] = col
    return p


def _run_simplex(tab: list[list[int]], basis: list[int], denom: int, ncols: int) -> int:
    # maximize; objective row is last, stored as z-row coefficients
    # (reduced costs) over denom > 0; Bland's rule: smallest eligible
    # structural column, then smallest ratio, ties to the smallest basic
    # index.  Ratios rhs/a are compared by cross-multiplying.
    while True:
        obj = tab[-1]
        col = next((j for j in range(ncols) if obj[j] > 0), None)
        if col is None:
            return denom
        best_row = None
        for r in range(len(tab) - 1):
            a = tab[r][col]
            if a > 0:
                if best_row is None:
                    best_row = r
                    continue
                lhs = tab[r][-1] * tab[best_row][col]
                rhs = tab[best_row][-1] * a
                if lhs < rhs or (lhs == rhs and basis[r] < basis[best_row]):
                    best_row = r
        if best_row is None:
            raise Unbounded()
        denom = _pivot(tab, basis, denom, best_row, col)


def _integer_row(values: Sequence[Fraction]) -> list[int]:
    """The values times the least positive integer that clears their denominators."""
    qs = [to_q(v) for v in values]
    scale = lcm(*(q.denominator for q in qs))
    return [q.numerator * (scale // q.denominator) for q in qs]


def solve_equality_lp(
    a: Sequence[Sequence[Fraction]],
    b: Sequence[Fraction],
    c: Sequence[Fraction],
) -> LPResult:
    """Maximize c*x subject to a*x = b, x >= 0 (all data exact rationals).

    Raises Infeasible or Unbounded.  Redundant constraint rows are removed
    up front so the optimal basis is always a genuine invertible column set.
    """
    ncols = len(a[0]) if a else 0
    # integer rows [a | b], each reduced against the rows kept before it
    # so it vanishes in their lead columns; dependent rows are dropped
    # (inconsistent ones mean infeasible)
    tab: list[list[int]] = []
    leads: list[int] = []
    for row, bi in zip(a, b):
        r = _integer_row([*row, bi])
        for prev, lead in zip(tab, leads):
            f = r[lead]
            if f:
                p = prev[lead]
                r = [x * p - f * y for x, y in zip(r, prev)]
        lead = next((j for j in range(ncols) if r[j]), None)
        if lead is None:
            if r[ncols]:
                raise Infeasible()
            continue
        # lowest terms, with b >= 0 (and a positive lead when b = 0)
        g = gcd(*r)
        if r[ncols] < 0 or (r[ncols] == 0 and r[lead] < 0):
            g = -g
        tab.append([x // g for x in r])
        leads.append(lead)
    m = len(tab)
    if m == 0:
        if any(x > 0 for x in c):
            # all-zero constraints: any x works, unbounded unless c <= 0
            raise Unbounded()
        return LPResult(Q(0), tuple([Q(0)] * ncols), ())
    basis = [ncols + i for i in range(m)]
    # phase 1: maximize -sum(artificials) of the rows normalised to a lead
    # entry of +-1 (other row weights would change Bland's pivots); row i
    # is |lead_i| times its normalised row, so weights lcm/|lead_i| give an
    # integer z-row
    weights = [abs(row[lead]) for row, lead in zip(tab, leads)]
    common = lcm(*weights)
    tab.append([sum(common // w * row[j] for w, row in zip(weights, tab)) for j in range(ncols + 1)])
    denom = _run_simplex(tab, basis, 1, ncols)
    if tab[-1][-1] != 0:
        raise Infeasible()
    # pivot any artificial variables out of the basis
    for r in range(m):
        if basis[r] >= ncols:
            col = next((j for j in range(ncols) if tab[r][j] != 0), None)
            if col is None:
                continue  # fully redundant row (should not survive pre-reduction)
            denom = _pivot(tab, basis, denom, r, col)
            if denom < 0:
                denom = -denom
                tab[:] = [[-x for x in row] for row in tab]
    tab.pop()
    # phase 2: maximize c, scaled to integers, as reduced costs over denom
    cost = _integer_row(c) + [0]
    zrow = [denom * x for x in cost]
    for r in range(m):
        factor = cost[basis[r]] if basis[r] < ncols else 0
        if factor:
            zrow = [x - factor * y for x, y in zip(zrow, tab[r])]
    tab.append(zrow)
    denom = _run_simplex(tab, basis, denom, ncols)
    x = [Q(0)] * ncols
    for r in range(m):
        if basis[r] < ncols:
            x[basis[r]] = Q(tab[r][-1], denom)
    value = sum((to_q(ci) * xi for ci, xi in zip(c, x)), Q(0))
    return LPResult(value, tuple(x), tuple(sorted(b_ for b_ in basis if b_ < ncols)))


def in_cone(generators: Sequence[Sequence[Fraction]], target: Sequence[Fraction]) -> tuple[Fraction, ...] | None:
    """Nonnegative coefficients writing target in the cone, or None.

    Generators and target are coordinate vectors of equal length; the cone
    is their nonnegative span.
    """
    if not generators:
        return () if all(to_q(x) == 0 for x in target) else None
    a = [[to_q(g[i]) for g in generators] for i in range(len(target))]
    try:
        res = solve_equality_lp(a, list(target), [Q(0)] * len(generators))
    except Infeasible:
        return None
    return res.x


def max_shift(
    base: Sequence[Fraction],
    direction: Sequence[Fraction],
    generators: Sequence[Sequence[Fraction]],
) -> LPResult:
    """Maximize s >= 0 with base + s*direction in the generator cone.

    The first LP variable is s; the optimal basis (column indices into
    [s, generators...]) certifies the answer and supports parametric
    re-solving.  Raises Infeasible when even s = 0 fails, Unbounded when
    the direction never leaves the cone.
    """
    n = len(base)
    cols = [[-to_q(direction[i])] + [to_q(g[i]) for g in generators] for i in range(n)]
    c = [Q(1)] + [Q(0)] * len(generators)
    return solve_equality_lp(cols, list(base), c)
