"""Exact rational scalars, the one denominator-clearing rule and the one
exact elimination kernel.

The scalar type of the whole engine is :class:`fractions.Fraction` (lowest
terms, positive denominator).  This module adds the canonical string form
used in reports and model files ("p/q", plain "p" for integers).  Every
layer that computes on integers clears denominators with ``scaled`` and
``common`` alone.

All exact elimination runs on one fraction-free pivot, ``_pivot`` (Edmonds
1967, Bareiss 1968): an integer matrix T over one denominator D > 0, the
absolute value of the last pivot, updated as (x*p - f*y) // D, where a
remainder raises InvariantViolation.  A row with f = 0 is left as it is
when |p| = D, as x*p // D is then x; every other row is rebuilt, and each
of its entries checked.  Over it, ``_reduce`` is Gauss-Jordan row by row,
each row on its first nonzero column; the exact LP starts from it, and
``det``, ``rank``, ``solve_general`` (``solve_each`` for several
right-hand sides at once), ``mat_inverse`` and the negative-definite solve
are a few lines over it.  The last gives integer numerators over one
positive denominator, for the Zariski layer's integer certificates, and
reads Sylvester's criterion off the same reduction: row k pivots on column
k, negatively.  Inputs are never mutated.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import isqrt, lcm
from operator import mod
from typing import Iterable, Sequence

from .errors import InvalidModel, InvariantViolation

Q = Fraction

QVec = tuple[Fraction, ...]
QMat = list[list[Fraction]]


def to_q(x) -> Fraction:
    """Coerce an int, string or Fraction to an exact rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"cannot convert {x!r} to an exact rational")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" (lowest terms are not required on input)."""
    return Fraction(text.strip())


def format_rational(x: Fraction) -> str:
    """Canonical string form: "p/q" in lowest terms, or "p" when q = 1."""
    x = to_q(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def qvec(values: Iterable) -> QVec:
    return tuple(to_q(v) for v in values)


def dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    return sum((x * y for x, y in zip(a, b, strict=True)), Q(0))


def scaled(values: Iterable) -> tuple[list[int], int]:
    """The values as integer numerators over their least common denominator.

    Returns (numerators, denominator); the denominator is the least
    positive integer that clears every value, 1 for all-integer input.
    """
    qs = [v if isinstance(v, int) else to_q(v) for v in values]
    # a list: CPython builds a generator's argument tuple by resizing, and
    # each one it frees stays on the free list of its size, up to 2000
    den = lcm(*[q.denominator for q in qs])
    if den == 1:
        return [q.numerator for q in qs], 1
    return [q.numerator * (den // q.denominator) for q in qs], den


def common(parts: Sequence[tuple[Sequence[int], int]]) -> tuple[list[list[int]], int]:
    """Integer vectors, each over its own positive denominator, over the lcm of the denominators.

    Returns (vectors, denominator), every vector keeping its values.
    """
    den = lcm(*[d for _, d in parts])
    return [list(v) if d == den else [x * (den // d) for x in v] for v, d in parts], den


# -- the elimination kernel ----------------------------------------------------


def _pivot(tab: list[list[int]], basis: list[int], denom: int, row: int, col: int) -> int:
    """Integer-preserving pivot on tab[row][col]; returns the new denominator |p|.

    When p < 0 every row is negated in the same pass, so T/D is unchanged.
    """
    p = tab[row][col]
    prow = tab[row] if p > 0 else [-x for x in tab[row]]
    p = abs(p)
    for r, cur in enumerate(tab):
        if r == row:
            tab[r] = prow
            continue
        f = cur[col]
        if f:
            nums = [x - f * y for x, y in zip(cur, prow)] if p == 1 else [x * p - f * y for x, y in zip(cur, prow)]
        elif p == denom:
            continue  # x*p // D is x: the row stays as it is
        else:
            nums = [x * p for x in cur]
        if denom != 1:
            if any(map(mod, nums, repeat(denom))):
                raise InvariantViolation(f"inexact fraction-free pivot: row {r} is not divisible by {denom}")
            nums = [n // denom for n in nums]
        tab[r] = nums
    basis[row] = col
    return p


def _reduce(tab: list[list[int]], width: int, stop: int) -> tuple[list[int], int, int]:
    """Gauss-Jordan in place, row by row, each row on its first nonzero column before ``width``.

    A row with no such column is dropped when it is 0 from column ``stop``
    on, and otherwise stops the reduction, as tab[len(basis)].  Returns the
    pivot column of each reduced row, the denominator D > 0 (the tableau is
    T/D, its pivot entries are D) and the number of negative pivots.
    """
    basis = [0] * len(tab)
    denom, negative, r = 1, 0, 0
    while r < len(tab):
        lead = next((j for j in range(width) if tab[r][j]), None)
        if lead is not None:
            negative += tab[r][lead] < 0
            denom = _pivot(tab, basis, denom, r, lead)
            r += 1
        elif any(tab[r][stop:]):
            return basis[:r], denom, negative
        else:
            del tab[r], basis[r]
    return basis, denom, negative


def _eliminate(rows: Sequence[Sequence], width: int) -> tuple[list[list[int]], list[int], int, int, int]:
    """``_reduce`` on the rows, each scaled to integers, stopping on a row that reads 0 = nonzero.

    Returns the tableau, the pivot columns, D, the number of negative pivots
    and the product of the row scales.
    """
    tab, scale = [], 1
    for row in rows:
        ints, den = scaled(row)
        tab.append(ints)
        scale *= den
    return tab, *_reduce(tab, width, width), scale


def _values(tab: list[list[int]], basis: list[int], width: int, count: int) -> list[list[int]]:
    """The numerators over D of the solutions for the columns width, width + 1, ...; free variables are 0."""
    sols = [[0] * width for _ in range(count)]
    for row, c in zip(tab, basis):
        for j, y in enumerate(sols):
            y[c] = row[width + j]
    return sols


def _rectangular(a: Sequence[Sequence], width: int, what: str) -> None:
    if any(len(row) != width for row in a):
        raise InvalidModel(f"{what}; the row lengths are {[len(row) for row in a]}")


def det(a: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact determinant: D, signed by the negative pivots and the inversions of the pivot columns, unscaled."""
    n = len(a)
    _rectangular(a, n, "det needs a square matrix")
    _, cols, d, negative, scale = _eliminate(a, n)
    if len(cols) < n:
        return Q(0)
    inversions = sum(i > j for k, i in enumerate(cols) for j in cols[k + 1:])
    return Fraction((-1) ** (negative + inversions) * d, scale)


def rank(a: Sequence[Sequence[Fraction]]) -> int:
    width = len(a[0]) if a else 0
    _rectangular(a, width, "rank needs rows of one length")
    return len(_eliminate(a, width)[1])


def solve_general(a: Sequence[Sequence[Fraction]], b: Sequence[Fraction]) -> QVec | None:
    """One exact solution of a (possibly non-square) consistent system.

    Returns None when the system is inconsistent.  Free variables are set
    to zero, so the result is deterministic.
    """
    sols = solve_each(a, [b])
    return None if sols is None else sols[0]


def solve_each(a: Sequence[Sequence[Fraction]], rhs: Sequence[Sequence[Fraction]]) -> list[QVec] | None:
    """``solve_general(a, b)`` for each b in rhs, from one elimination.

    Returns None when any of the systems is inconsistent.  The pivot
    columns depend on a alone (scaling a row keeps its zeros), and with the
    free variables at zero a consistent system has exactly one solution on
    them, so each solution is the one ``solve_general`` gives.
    """
    width = len(a[0]) if a else 0
    tab, cols, d, _, _ = _eliminate([list(row) + list(bs) for row, *bs in zip(a, *rhs, strict=True)], width)
    if len(cols) < len(tab):
        return None
    return [tuple(Fraction(v, d) for v in y) for y in _values(tab, cols, width, len(rhs))]


def mat_inverse(a: Sequence[Sequence[Fraction]]) -> QMat | None:
    """Exact inverse of a square matrix, solved for the columns of I; None if singular."""
    n = len(a)
    tab, cols, d, _, _ = _eliminate([list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)], n)
    if len(cols) < n:
        return None
    return [[Fraction(x, d) for x in row] for row in zip(*_values(tab, cols, n, n))]


def solve_negative_definite(
    gram: Sequence[Sequence[Fraction]], rhs: Sequence[Sequence[Fraction]]
) -> tuple[list[list[int]], int] | None:
    """The solution of gram * x = b for each b in rhs; None unless gram is negative definite.

    The solutions come as integer numerators over one positive denominator.
    Sylvester's criterion: once rows 0..k-1 have pivoted on columns 0..k-1,
    row k pivots on column k exactly when the leading minor of order k + 1
    of gram, its rows scaled by positive factors, is not 0, and the pivot
    has the sign of that minor over the one before.  So the minors alternate
    in sign, starting negative, exactly when every row k pivots on column
    k, negatively.
    """
    n = len(gram)
    tab, cols, d, negative, _ = _eliminate([list(row) + [b[i] for b in rhs] for i, row in enumerate(gram)], n)
    if cols != list(range(n)) or negative < n:
        return None
    return _values(tab, cols, n, len(rhs)), d


def is_negative_definite(gram: Sequence[Sequence[Fraction]]) -> bool:
    """Sylvester test: leading principal minors alternate, starting negative."""
    return solve_negative_definite(gram, ()) is not None


def sqrt_rational(x: Fraction) -> Fraction | None:
    """Exact square root of a rational when it exists, else None."""
    if x < 0:
        return None
    num, den = isqrt(x.numerator), isqrt(x.denominator)
    return Fraction(num, den) if num * num == x.numerator and den * den == x.denominator else None
