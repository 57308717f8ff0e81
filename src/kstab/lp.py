"""Tiny exact linear programming over the rationals, with checked answers.

A dense simplex for the cone problems this engine meets (at most nine
equality constraints and a few hundred nonnegative variables): cone
membership, the engine's one test of effectivity on surfaces and
threefolds alike, and pseudo-effective thresholds.  A :class:`Cone` holds
its generators with their integer rows built once, so the many LPs over
one surface's effective cone add only their own columns and right-hand
sides.

Every LP starts from a basis: one its Cone remembers, or else the lead
columns of the Gauss-Jordan reduction ``rationals._reduce``, which drops a
row that vanishes.  A dual simplex (Lemke 1954) makes it feasible: the
lowest-indexed basic variable with a negative value leaves, a row with no
negative entry proves infeasibility, and the entering column minimizes
z_j/a_j over the entries a_j < 0 of the row, ties to the lowest index, for
the objective row z <= 0.  That is Bland's rule on the dual: it keeps z <= 0
and does not cycle (Bland 1977).  It is priced by c from a remembered
optimum for the same widened column and c, which stays dual feasible when
only b moves (Gass-Saaty 1955), and else runs at cost 0, where every basis
is dual feasible and every ratio 0.  The primal simplex then maximizes c,
after a priced start in no pivot, by Dantzig's rule: the entering column
has the largest reduced cost, the lowest index on ties; the leaving row has
the smallest ratio, ties to the smallest basic index.  After a degenerate
pivot (one whose row has right-hand side 0) the entering column is Bland's
until the next nondegenerate pivot, so no degenerate vertex cycles, and the
objective rises strictly from vertex to vertex.

The tableau is fraction-free (Edmonds 1967, Bareiss 1968): one integer
matrix T and one denominator D > 0, the absolute value of the last pivot,
so that T/D is the rational tableau.  Row i is the Cone's integer row at
scale s_i with right-hand side q*s_i*b_i, q clearing the denominators of
b, so the tableau solves for q*x.  Every pivot is ``rationals._pivot``, the
one under all exact elimination: on p it updates every other row as
(x*p - f*y) // D and negates every row when p < 0; the division is exact
because D is |det| of the basis, and a remainder raises InvariantViolation
rather than going on with a wrong tableau.  A row with f = 0 is left in
place when |p| = D, since it would come out unchanged; every entry a pivot
changes is still checked.

A Cone remembers the last MEMORY optimal bases of generator columns, on it
or on a ``widened`` copy, and apart from them, so that none evicts a
membership start, the last MEMORY with a widened column basic (the s of
``max_shift``), keyed by that column's integer entries.  Each is one column
B per row, as the optimal tableau holds it: T = d*B^-1 with d = |det B|,
and T*A of the generator columns.  An LP starts from the basis with the
fewest negative entries of T*b among the generator bases and, if it is
widened by a remembered column, that column's optima, which go first and
start priced; ties go to the earlier, the most recent of a memory first.
It starts as T*[a | I | b] over d, whose entries are minors, so the exact
division holds.  A widened column that needs another row scale starts from
the reduction, as does an LP on a list of rows, a fresh Cone every call.
No engine output depends on the basis a memory gives: the callers read a
membership or a value, the same for every optimum.  A stale basis costs
time, never a wrong answer.

The simplex is not trusted; its answers are (exact LP by verifying a
basis, Applegate-Cook-Dash-Espinoza 2007).  Every tableau row also carries
the integer combination of the caller's rows that it is, an unpriced
identity block, so the objective row names the dual.  Before an answer
leaves this module it is checked against the caller's a, b and c, each row
scaled to integers, by integer dot products alone, and a failed check
raises InvariantViolation:

- an optimum: x >= 0 with a*x = b, and a dual y with y*a >= c and
  y*b = c*x (``LPResult.dual``);
- Infeasible: a Farkas y with y*a >= 0 and y*b < 0 (``Infeasible.farkas``);
- Unbounded: a ray r >= 0 with a*r = 0 and c*r > 0 (``Unbounded.ray``).
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Sequence

from .errors import InvalidModel, InvariantViolation
from .rationals import _pivot, _reduce, common, scaled, to_q
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
    """Column vectors, the generators of a cone, with their integer rows and columns built once.

    ``rows[i]`` is ``rationals.scaled`` of the i-th entries of the columns,
    and ``cols[j]`` the j-th column's entries of those integer rows.  As the
    matrix a of ``solve_equality_lp`` a Cone gives the same scaled rows
    [a | b] as its columns written out, from these rows and b alone.
    """

    def __new__(cls, columns: Sequence[Sequence[Fraction]]):
        self = super().__new__(cls, (tuple(map(to_q, col)) for col in columns))
        self.rows = [scaled(entries) for entries in zip(*self)]
        _same_length(len(self.rows), *self)
        self.cols = list(zip(*(row for row, _ in self.rows))) or [()] * len(self)
        # (key, columns, T, T*A, d), see the module docstring: key None for a basis of generators
        self._base, self._key, self._bases, self._shifts = None, None, [], []
        return self

    def widened(self, column: Sequence[Fraction]) -> "Cone":
        """This cone with one more column, put first; its rows reuse the integer rows, its memory is this one's."""
        out = tuple.__new__(Cone, (tuple(map(to_q, column)), *self))
        rows = self.rows or [([], 1)] * len(column)
        _same_length(len(rows), column)
        out.rows = [_joined(([x.numerator], x.denominator), row) for x, row in zip(out[0], rows)]
        same = [s for _, s in out.rows] == [s for _, s in rows]  # else the column took its rows to other scales
        out.cols = [tuple([r[0] for r, _ in out.rows]), *self.cols] if same else list(zip(*[r for r, _ in out.rows]))
        out._base = self if self._base is None else self._base
        out._key = tuple(out.cols[:len(out) - len(out._base)])  # the widened columns' integer entries
        return out

    def _remember(self, tab: list[list[int]], basis: list[int], denom: int) -> None:
        """Put an optimal basis first in its memory, if it is one column per row.

        With tab at the generators' row scales, T = denom*B^-1 and denom = |det B|.
        """
        gens = self if self._base is None else self._base
        extra = len(self) - len(gens)  # widened columns, first
        if len(basis) != len(gens.rows):
            return
        order = sorted(range(len(basis)), key=basis.__getitem__)
        cols = tuple(basis[r] - extra for r in order)  # a widened column is negative
        key = self._key if min(cols, default=0) < 0 else None
        memory = gens._bases if key is None else gens._shifts
        entry = key, cols, [tab[r][len(self):-1] for r in order], [tab[r][extra:len(self)] for r in order], denom
        memory[:] = [entry, *(e for e in memory if e[1] != cols or e[0] != key)][:MEMORY]


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
    rows: list[list[int]], cols: Sequence[Sequence[int]], scales: list[int], cost: list[int], cscale: int,
    xs: list[int], denom: int, u: list[int], basis: Sequence[int], q: int,
) -> LPResult:
    """The checked optimum x = xs/(denom*q) of max cost*x, with the dual u/denom.

    rows are the caller's rows [a | q*b], row i scaled by scales[i], and
    cols a's columns in them; cost is c scaled by cscale, and u a dual.
    """
    support = [j for j, v in enumerate(xs) if v]  # a*x sums over the nonzero entries of x alone
    vals = [xs[j] for j in support]
    if any(v < 0 for v in vals) or any(sum(map(mul, map(row.__getitem__, support), vals)) != denom * row[-1]
                                       for row in rows):
        raise InvariantViolation("the simplex optimum is not a feasible point")
    cx = sum(map(mul, cost, xs))
    ua = [sum(map(mul, u, col)) for col in cols] if any(u) else [0] * len(cols)  # u*a; u = 0 at cost 0
    if sum(map(mul, u, [row[-1] for row in rows])) != cx or any(v < denom * cj for v, cj in zip(ua, cost)):
        raise InvariantViolation("the simplex optimum has no dual certificate")
    return LPResult(
        Fraction(cx, denom * cscale * q),
        tuple(Fraction(v, denom * q) if v else _ZERO for v in xs),
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
    always a genuine invertible column set.  The LP may start from a basis
    the Cone remembers: the value is the same, while x, the basis and the
    dual may be another optimum's.
    """
    if not isinstance(a, Cone):
        _same_length(len(a[0]) if a else 0, *a)
        a = Cone(zip(*a))
    a_rows = a.rows or [([], 1)] * len(b)
    _same_length(len(a_rows), b)
    if len(c) != len(a):
        raise InvalidModel("the cost vector must have one entry per column")
    rhs, q = scaled([to_q(bi) * s for (_, s), bi in zip(a_rows, b)])
    rows, scales = [row + [v] for (row, _), v in zip(a_rows, rhs)], [s for _, s in a_rows]
    ncols, nrows = len(a), len(rows)
    cost, cscale = scaled(c)
    gens = a if a._base is None else a._base
    gen_scales = scales == [s for _, s in gens.rows]  # a widened column may need other row scales
    tab, basis, denom, priced = gen_scales and _remembered(a, rows) or (*_reduced(rows, scales, ncols), False)
    m = len(tab)
    if priced:  # from an optimum for this widened column, the z-row goes through the dual simplex
        tab.append(_zrow(tab, basis, denom, cost, nrows))
    # priced by the z-row if it is dual feasible, which it is unless c is another objective
    denom = _dual_simplex(tab, basis, denom, ncols, rows, scales, priced and max(tab[-1][:ncols], default=0) <= 0)
    if not priced:
        tab.append(_zrow(tab, basis, denom, cost, nrows))
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
    res = _optimum(rows, a.cols, scales, cost, cscale, xs, denom, [-x for x in tab[-1][ncols:-1]], basis, q)
    if gen_scales:
        a._remember(tab, basis, denom)
    return res


def _zrow(tab: list[list[int]], basis: list[int], denom: int, cost: list[int], nrows: int) -> list[int]:
    """The objective row of max cost*x, as reduced costs over denom: [denom*c - u*a | -u | -u*b] for the dual u."""
    zrow = [denom * x for x in cost] + [0] * (nrows + 1)
    for r, j in enumerate(basis):
        if cost[j]:
            zrow = [x - cost[j] * y for x, y in zip(zrow, tab[r])]
    return zrow


def _reduced(rows: list[list[int]], scales: list[int], ncols: int) -> tuple[list[list[int]], list[int], int]:
    """(tableau, basis, denominator): Gauss-Jordan from [a | I | b] over 1, each row on its first nonzero column.

    A row that vanishes is dropped, or is the Farkas functional if its
    right-hand side is not 0.  Basic values may be negative.
    """
    nrows = len(rows)
    tab = [row[:ncols] + [int(k == i) for k in range(nrows)] + row[ncols:] for i, row in enumerate(rows)]
    basis, denom, _ = _reduce(tab, ncols, ncols + nrows)
    if len(basis) < len(tab):
        # 0 = nonzero: the transform, signed so that y*b < 0
        y = tab[len(basis)]
        raise _infeasible(rows, scales, [-x if y[-1] > 0 else x for x in y[ncols:-1]])
    return tab, basis, denom


def _dual_simplex(
    tab: list[list[int]], basis: list[int], denom: int, ncols: int, rows: list[list[int]], scales: list[int],
    priced: bool,
) -> int:
    """Pivot to nonnegative basic values by Bland's rule on the dual; returns the denominator, or Infeasible.

    A row of tab after the basis rows is the objective row: the pivots update
    it, and priced, the rule reads it.  A leaving row with no negative entry
    reads y*a >= 0 and y*b < 0 for its transform y.
    """
    while True:
        r = min((r for r in range(len(basis)) if tab[r][-1] < 0), key=basis.__getitem__, default=None)
        if r is None:
            return denom
        row = tab[r]
        if priced:
            z, col = tab[-1], None
            for j in [j for j in range(ncols) if row[j] < 0]:
                if col is None or z[j] * row[col] < z[col] * row[j]:  # z_j/a_j < z_col/a_col, as a < 0
                    col = j
        else:
            col = next((j for j in range(ncols) if row[j] < 0), None)
        if col is None:
            raise _infeasible(rows, scales, row[ncols:-1])
        denom = _pivot(tab, basis, denom, r, col)


def _remembered(cone: Cone, rows: list[list[int]]) -> tuple | None:
    """(T*[a | I | b], basis, d, priced) for the remembered start, as the module docstring says, or None.

    The scan stops at the first basis with T*b >= 0.  T*A is remembered,
    so only the widened columns are multiplied out.
    """
    gens = cone if cone._base is None else cone._base
    b = [row[-1] for row in rows]
    same = [entry for entry in gens._shifts if entry[0] == cone._key]
    best = None
    for entry in same + gens._bases:
        xb = [sum(map(mul, trow, b)) for trow in entry[2]]
        negative = sum(v < 0 for v in xb)
        if best is None or negative < best[0]:
            best = negative, xb, entry
            if not negative:
                break  # no later basis can have fewer
    if best is None:
        return None
    _, xb, (_, cols, t, ta, d) = best
    extra = len(cone) - len(gens)
    wide = list(zip(*(row[:extra] for row in rows)))
    tab = [[sum(map(mul, trow, w)) for w in wide] + tarow + trow + [x] for trow, tarow, x in zip(t, ta, xb)]
    return tab, [j + extra for j in cols], d, best[2][0] is not None


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
    parametric re-solving.  Raises Infeasible when no s >= 0 is feasible
    (base itself may be outside the cone when some s > 0 is feasible),
    Unbounded when the direction never leaves the cone.  The generators
    are a list or a Cone; a Cone may start from a remembered basis.
    """
    cone = generators if isinstance(generators, Cone) else Cone(generators)
    return solve_equality_lp(cone.widened([-to_q(x) for x in direction]), base, [1] + [0] * len(cone))
