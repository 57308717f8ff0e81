"""Tiny exact linear programming over the rationals, with checked answers.

A two-phase dense simplex for the cone problems this engine meets (at most
nine equality constraints and a few hundred nonnegative variables): cone
membership, the engine's one test of effectivity on surfaces and
threefolds alike, and pseudo-effective thresholds, where the optimal
basis and its dual prove a threshold on a whole interval of a parameter
(``zariski._parametric_threshold``).  A :class:`Cone` holds its generators
with their integer rows built once, so the many LPs over one surface's
effective cone add only their own columns and right-hand sides.

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

A Cone remembers the last MEMORY optimal bases, on it or on a ``widened``
copy, that are one generator column B per row, each with T = d*B^-1 and
d = |det B| in integers (``rationals.integer_inverse``).  Every LP over a
Cone starts from the first with T*b >= 0 instead of phase 1: at cost 0 it
is the answer, else phase 2 runs from T*[a | I | b] over d, whose entries
are minors, so the exact division holds.  LPs whose b or widened column
needs another row scale start cold; so does an LP on a list of rows, which
is a fresh Cone every call.  No engine output depends on the basis a
memory gives: the callers read a membership or a value, the same for every
optimum, or a basis that proves a threshold
(``zariski._threshold_from_basis``), which proves the exact one whichever
optimum it is.  A stale basis costs time, never a wrong answer: the answer
is checked as any other.

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
from math import gcd
from operator import mul
from typing import Sequence

from .errors import InvalidModel, InvariantViolation
from .rationals import common, integer_inverse, scaled, to_q
from .records import Record

MEMORY = 8  # bases a Cone remembers, most recent first


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


class Cone(tuple):
    """Column vectors, the generators of a cone, with their integer rows built once.

    ``rows[i]`` is ``rationals.scaled`` of the i-th entries of the columns.  As
    the matrix a of ``solve_equality_lp`` a Cone gives the same scaled rows
    [a | b] as its columns written out, from these rows and b alone.
    """

    def __new__(cls, columns: Sequence[Sequence[Fraction]]):
        self = super().__new__(cls, (tuple(map(to_q, col)) for col in columns))
        self.rows = [scaled(entries) for entries in zip(*self)]
        _same_length(len(self.rows), *self)
        self._base, self._bases = None, []  # _bases: (columns, T, d), see the module docstring
        return self

    def widened(self, column: Sequence[Fraction]) -> "Cone":
        """This cone with one more column, put first; its rows reuse the integer rows, its memory is this one's."""
        out = tuple.__new__(Cone, (tuple(map(to_q, column)), *self))
        rows = self.rows or [([], 1)] * len(column)
        _same_length(len(rows), column)
        out.rows = [_joined(([x.numerator], x.denominator), row) for x, row in zip(out[0], rows)]
        out._base = self if self._base is None else self._base
        return out

    def _remember(self, basis: Sequence[int]) -> None:
        """Put an optimal basis first in the memory, if it is one nonsingular generator column per row."""
        gens = self if self._base is None else self._base
        cols = tuple(sorted(j - len(self) + len(gens) for j in basis))
        if len(cols) != len(gens.rows) or not all(0 <= j < len(gens) for j in cols):
            return
        entry = next((e for e in gens._bases if e[0] == cols), None)
        inverse = entry[1:] if entry else integer_inverse([[row[j] for j in cols] for row, _ in gens.rows])
        if inverse is not None:
            gens._bases[:] = [(cols, *inverse), *(e for e in gens._bases if e is not entry)][:MEMORY]


def _same_length(n: int, *vectors: Sequence) -> None:
    if any(len(v) != n for v in vectors):
        raise InvalidModel("class vectors must match the basis size")


def _joined(*parts: tuple[list[int], int]) -> tuple[list[int], int]:
    """Integer rows, each with its scale, side by side as one integer row over their least common scale."""
    rows, scale = common(parts)
    return sum(rows, []), scale


# -- certificates: integer dot products against the caller's rows [a | b] --------


_ZERO = Fraction(0)  # every zero of LPResult.x, as most columns are nonbasic


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
        tuple(Fraction(v, denom) if v else _ZERO for v in xs),
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

    a is a list of rows, or a Cone of its columns; a list becomes the Cone
    of its columns, and a matrix with no columns has a zero row for each
    entry of b.  Raises Infeasible or Unbounded, each with its certificate.
    Redundant constraint rows are removed up front so the optimal basis is
    always a genuine invertible column set.  Phase 2 may start from a basis
    the Cone remembers: the value is the same, while x, the basis and the
    dual may be another optimum's.
    """
    if not isinstance(a, Cone):
        _same_length(len(a[0]) if a else 0, *a)
        a = Cone(zip(*a))
    a_rows = a.rows or [([], 1)] * len(b)
    _same_length(len(a_rows), b)
    joined = [_joined(row, ([q.numerator], q.denominator)) for row, q in zip(a_rows, map(to_q, b))]
    rows, scales = [r for r, _ in joined], [s for _, s in joined]
    ncols, nrows = len(a), len(rows)
    cost, cscale = scaled(c)
    tab, basis, denom = _remembered(a, rows, scales, any(cost)) or _phase_1(rows, scales, ncols)
    m = len(tab)
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
    res = _optimum(rows, scales, cost, cscale, xs, denom, [-x for x in tab[-1][ncols:-1]], basis)
    a._remember(basis)
    return res


def _phase_1(rows: list[list[int]], scales: list[int], ncols: int) -> tuple[list[list[int]], list[int], int]:
    """(tableau, basis, denominator): a feasible tableau [a-part | transform | rhs], or Infeasible.

    The transform is the combination of the caller's rows that the row is;
    each row is reduced against the rows kept before it so it vanishes in
    their lead columns, and dependent rows are dropped (inconsistent ones
    mean infeasible).  With no row left, the tableau is empty.
    """
    nrows = len(rows)
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
    basis = [ncols + i for i in range(m)]
    if m == 0:
        return tab, basis, 1
    # maximize -sum(artificials); the z-row is the sum of the rows
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
    return tab, basis, denom


def _remembered(cone: Cone, rows: list[list[int]], scales: list[int], priced: bool) -> tuple | None:
    """(T*[a | I | b], basis, d) for the first remembered basis with T*b >= 0, or None.

    Unpriced (cost 0), the a-part is left 0.  None too when b or the widened
    column need a row scale other than the generators', as T is for theirs.
    """
    gens = cone if cone._base is None else cone._base
    if scales != [s for _, s in gens.rows]:
        return None
    b = [row[-1] for row in rows]
    for cols, t, d in gens._bases:
        xb = [sum(map(mul, trow, b)) for trow in t]
        if all(v >= 0 for v in xb):
            tab = []
            for trow, x in zip(t, xb):  # T*a, summed as a combination of the rows
                part = [0] * len(cone)
                for f, row in zip(trow, rows if priced else ()):
                    part = [y + f * v for y, v in zip(part, row)] if f else part
                tab.append(part + trow + [x])
            return tab, [j + len(cone) - len(gens) for j in cols], d
    return None


def in_cone(generators: Sequence[Sequence[Fraction]], target: Sequence[Fraction]) -> tuple[Fraction, ...] | None:
    """Nonnegative coefficients writing target in the cone, or None.

    Generators, a list or a Cone, and target are coordinate vectors of
    equal length; the cone is their nonnegative span.  The coefficients
    are one checked certificate, which may come from a remembered basis.
    """
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
    are a list or a Cone; a Cone may start from a remembered basis.
    """
    cone = generators if isinstance(generators, Cone) else Cone(generators)
    return solve_equality_lp(cone.widened([-to_q(x) for x in direction]), base, [1] + [0] * len(cone))
