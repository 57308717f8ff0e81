"""Tiny exact linear programming over the rationals, with checked answers.

A two-phase dense simplex for the cone problems this engine meets (at most
nine equality constraints and a few hundred nonnegative variables).  Used
for effective-cone membership and for pseudo-effective thresholds, where
the optimal basis and its dual prove the threshold on a whole interval of
a parameter (``zariski._parametric_threshold``).  A :class:`Cone` holds
its generators with their integer rows built once, so the many LPs over
one surface's effective cone add only their own columns and right-hand
sides.

Pricing is Dantzig's rule: the entering column has the largest reduced
cost, the lowest index on ties; the leaving row has the smallest ratio,
ties to the smallest basic index.  After a degenerate pivot (one whose row
has right-hand side 0) the entering column is Bland's, the lowest index
with a positive reduced cost, until the next nondegenerate pivot.  Bland's
rule cannot cycle within one degenerate vertex, and the objective rises
strictly from vertex to vertex, so the method terminates.

The tableau is fraction-free (Edmonds 1967, Bareiss 1968): one integer
matrix T and one common denominator D > 0, the last pivot, so that T/D is
the rational tableau.  Constraint rows are scaled to integers, and
redundant ones dropped, before the simplex starts.  A pivot on p updates
every other row as (x*p - f*y) // D; the division is exact because D is,
up to sign, the determinant of the current basis, and a remainder raises
InvariantViolation rather than going on with a wrong tableau.  Artificial
columns are never priced, so the tableau does not carry them.

The simplex is not trusted; its answers are (exact LP by verifying a
basis, Applegate-Cook-Dash-Espinoza 2007).  Every tableau row also carries
the integer combination of the caller's rows that it is: an identity block
that goes through the reduction and every pivot unpriced, so the objective
row names the dual.  Before an answer leaves this module it is checked
against the caller's a, b and c, each row scaled to integers, by integer
dot products alone, and a failed check raises InvariantViolation:

- an optimum: x >= 0 with a*x = b, and a dual y with y*a >= c and
  y*b = c*x (``LPResult.dual``);
- Infeasible: a Farkas y with y*a >= 0 and y*b < 0 (``Infeasible.farkas``),
  also when the reduction finds a row 0 = nonzero;
- Unbounded: a ray r >= 0 with a*r = 0 and c*r > 0 (``Unbounded.ray``).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Sequence

from .errors import InvalidModel, InvariantViolation
from .rationals import to_q
from .records import Record


class Infeasible(Exception):
    """No x >= 0 solves a*x = b; ``farkas`` is a y with y*a >= 0 and y*b < 0."""

    def __init__(self, farkas: tuple[Fraction, ...] = ()):
        super().__init__()
        self.farkas = farkas


class Unbounded(Exception):
    """c*x has no maximum on the feasible set; ``ray`` is an r >= 0 with a*r = 0 and c*r > 0."""

    def __init__(self, ray: tuple[Fraction, ...] = ()):
        super().__init__()
        self.ray = ray


class LPResult(Record):
    """An optimum x, its value c*x, its basis and a dual y with y*a >= c and y*b = c*x."""

    value: Fraction
    x: tuple[Fraction, ...]
    basis: tuple[int, ...]
    dual: tuple[Fraction, ...]


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


def _run_simplex(tab: list[list[int]], basis: list[int], denom: int, ncols: int) -> tuple[int, int | None]:
    """Pivot to an optimum: returns the denominator, and None or an unbounded column.

    The objective row is last, as reduced costs over denom > 0 to maximize;
    the right-hand side is the last column, and only the first ncols
    columns are priced.  Ratios rhs/a are compared by cross-multiplying.
    """
    bland = False
    while True:
        obj = tab[-1]
        if bland:
            col = next((j for j in range(ncols) if obj[j] > 0), None)
        else:
            top = max(obj[:ncols], default=0)
            col = obj.index(top) if top > 0 else None
        if col is None:
            return denom, None
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
            return denom, col
        bland = tab[best_row][-1] == 0
        denom = _pivot(tab, basis, denom, best_row, col)


def _integer_row(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """The values times the least positive integer that clears their denominators, and that integer."""
    qs = [v if isinstance(v, int) else to_q(v) for v in values]
    scale = lcm(*[q.denominator for q in qs])
    if scale == 1:
        return [q.numerator for q in qs], 1
    return [q.numerator * (scale // q.denominator) for q in qs], scale


class Cone(tuple):
    """Column vectors, the generators of a cone, with their integer rows built once.

    ``rows[i]`` is ``_integer_row`` of the i-th entries of the columns.  As
    the matrix a of ``solve_equality_lp`` a Cone gives the same scaled rows
    [a | b] as its columns written out, from these rows and b alone.
    """

    def __new__(cls, columns: Sequence[Sequence[Fraction]]):
        self = super().__new__(cls, (tuple(map(to_q, col)) for col in columns))
        self.rows = [_integer_row(entries) for entries in zip(*self)]
        _same_length(len(self.rows), *self)
        return self

    def widened(self, column: Sequence[Fraction]) -> "Cone":
        """This cone with one more column, put first; its rows reuse the integer rows."""
        out = tuple.__new__(Cone, (tuple(map(to_q, column)), *self))
        rows = self.rows or [([], 1)] * len(column)
        _same_length(len(rows), column)
        out.rows = [_joined(([x.numerator], x.denominator), row) for x, row in zip(out[0], rows)]
        return out


def _same_length(n: int, *vectors: Sequence) -> None:
    if any(len(v) != n for v in vectors):
        raise InvalidModel("class vectors must match the basis size")


def _joined(*parts: tuple[list[int], int]) -> tuple[list[int], int]:
    """Integer rows, each with its scale, side by side as one integer row over their least common scale."""
    scale = lcm(*(s for _, s in parts))
    return sum((ints if s == scale else [x * (scale // s) for x in ints] for ints, s in parts), []), scale


# -- certificates: integer dot products against the caller's rows [a | b] --------


def _optimum(
    rows: list[list[int]], scales: list[int], cost: list[int], cscale: int,
    xs: list[int], denom: int, u: list[int], basis: Sequence[int],
) -> LPResult:
    """The checked optimum x = xs/denom of max cost*x, with the dual u/denom.

    rows are the caller's rows [a | b], row i scaled by scales[i], and cost
    is c scaled by cscale; u is a dual of the scaled problem.
    """
    if any(v < 0 for v in xs) or any(sum(map(mul, row, xs)) != denom * row[-1] for row in rows):
        raise InvariantViolation("the simplex optimum is not a feasible point")
    ua = [sum(map(mul, u, col)) for col in zip(*rows)] if rows else [0]  # u*[a | b]
    cx = sum(map(mul, cost, xs))
    if ua[-1] != cx or any(v < denom * cj for v, cj in zip(ua, cost)):
        raise InvariantViolation("the simplex optimum has no dual certificate")
    return LPResult(
        Fraction(cx, denom * cscale),
        tuple(Fraction(v, denom) for v in xs),
        tuple(sorted(j for j in basis if j < len(cost))),
        tuple(Fraction(ui * s, denom * cscale) for ui, s in zip(u, scales)),
    )


def _infeasible(rows: list[list[int]], scales: list[int], y: list[int]) -> Infeasible:
    """Infeasible, once y is checked to be a Farkas functional of the scaled rows."""
    ya = [sum(map(mul, y, col)) for col in zip(*rows)]  # y*[a | b]
    if ya[-1] >= 0 or any(v < 0 for v in ya[:-1]):
        raise InvariantViolation("the simplex found no Farkas certificate of infeasibility")
    return Infeasible(tuple(Fraction(yi * s) for yi, s in zip(y, scales)))


def _unbounded(rows: list[list[int]], cost: list[int], ray: list[int], denom: int) -> Unbounded:
    """Unbounded, once ray is checked to be an improving ray of the scaled problem."""
    if any(v < 0 for v in ray) or any(sum(map(mul, row, ray)) for row in rows) or sum(map(mul, cost, ray)) <= 0:
        raise InvariantViolation("the simplex found no improving ray of unboundedness")
    return Unbounded(tuple(Fraction(v, denom) for v in ray))


def solve_equality_lp(
    a: Sequence[Sequence[Fraction]],
    b: Sequence[Fraction],
    c: Sequence[Fraction],
) -> LPResult:
    """Maximize c*x subject to a*x = b, x >= 0 (all data exact rationals).

    a is a list of rows, or a Cone of its columns.  Raises Infeasible or
    Unbounded, each with its certificate.  Redundant constraint rows are
    removed up front so the optimal basis is always a genuine invertible
    column set.
    """
    if isinstance(a, Cone):
        _same_length(len(a.rows), b)
        scaled = [_joined(row, ([q.numerator], q.denominator)) for row, q in zip(a.rows, map(to_q, b))]
        ncols = len(a)
    else:
        scaled = [_integer_row([*row, bi]) for row, bi in zip(a, b)]
        ncols = len(a[0]) if a else 0
    rows, scales = [r for r, _ in scaled], [s for _, s in scaled]
    nrows = len(rows)
    cost, cscale = _integer_row(c)
    # tableau rows [a-part | transform | rhs], the transform being the
    # combination of the caller's rows that the row is; each row is
    # reduced against the rows kept before it so it vanishes in their lead
    # columns, and dependent rows are dropped (inconsistent ones mean
    # infeasible)
    tab: list[list[int]] = []
    leads: list[int] = []
    for i, row in enumerate(rows):
        r = row[:ncols] + [int(k == i) for k in range(nrows)] + row[ncols:]
        for prev, lead in zip(tab, leads):
            f = r[lead]
            if f:
                p = prev[lead]
                r = [x * p - f * y for x, y in zip(r, prev)]
        lead = next((j for j in range(ncols) if r[j]), None)
        if lead is None:
            if r[-1]:
                # 0 = nonzero: the transform, signed so that y*b < 0
                raise _infeasible(rows, scales, [-x if r[-1] > 0 else x for x in r[ncols:-1]])
            continue
        # lowest terms, with b >= 0 (and a positive lead when b = 0)
        g = gcd(*r)
        if r[-1] < 0 or (r[-1] == 0 and r[lead] < 0):
            g = -g
        tab.append([x // g for x in r])
        leads.append(lead)
    m = len(tab)
    if m == 0:
        # every row of a is 0, so any x >= 0 is feasible
        col = next((j for j in range(ncols) if cost[j] > 0), None)
        if col is not None:
            raise _unbounded(rows, cost, [int(j == col) for j in range(ncols)], 1)
        return _optimum(rows, scales, cost, cscale, [0] * ncols, 1, [0] * nrows, ())
    basis = [ncols + i for i in range(m)]
    # phase 1: maximize -sum(artificials); the z-row is the sum of the rows
    tab.append([sum(col) for col in zip(*tab)])
    denom, col = _run_simplex(tab, basis, 1, ncols)
    if col is not None:
        raise InvariantViolation("phase 1 of the simplex cannot be unbounded")
    if tab[-1][-1] != 0:
        # the z-row is w*[a | b] with w*a <= 0 and w*b > 0
        raise _infeasible(rows, scales, [-x for x in tab[-1][ncols:-1]])
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
    # phase 2: maximize c, scaled to integers, as reduced costs over denom;
    # the z-row is [denom*c - u*a | -u | -u*b] for the dual u
    zrow = [denom * x for x in cost] + [0] * (nrows + 1)
    for r in range(m):
        factor = cost[basis[r]] if basis[r] < ncols else 0
        if factor:
            zrow = [x - factor * y for x, y in zip(zrow, tab[r])]
    tab.append(zrow)
    denom, col = _run_simplex(tab, basis, denom, ncols)
    if col is not None:
        # raising column col keeps every basic variable >= 0
        ray = [0] * ncols
        ray[col] = denom
        for r in range(m):
            if basis[r] < ncols:
                ray[basis[r]] = -tab[r][col]
        raise _unbounded(rows, cost, ray, denom)
    xs = [0] * ncols
    for r in range(m):
        if basis[r] < ncols:
            xs[basis[r]] = tab[r][-1]
    return _optimum(rows, scales, cost, cscale, xs, denom, [-x for x in tab[-1][ncols:-1]], basis)


def in_cone(generators: Sequence[Sequence[Fraction]], target: Sequence[Fraction]) -> tuple[Fraction, ...] | None:
    """Nonnegative coefficients writing target in the cone, or None.

    Generators, a list or a Cone, and target are coordinate vectors of
    equal length; the cone is their nonnegative span.
    """
    if not generators:
        return () if all(to_q(x) == 0 for x in target) else None
    cone = generators if isinstance(generators, Cone) else Cone(generators)
    try:
        res = solve_equality_lp(cone, target, [0] * len(cone))
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
    [s, generators...]) and the dual certify the answer and support
    parametric re-solving.  Raises Infeasible when even s = 0 fails,
    Unbounded when the direction never leaves the cone.  The generators
    are a list or a Cone.
    """
    cone = generators if isinstance(generators, Cone) else Cone(generators)
    return solve_equality_lp(cone.widened([-to_q(x) for x in direction]), base, [1] + [0] * len(cone))
