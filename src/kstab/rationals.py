"""Exact rational scalars and the one exact elimination kernel.

The scalar type of the whole engine is :class:`fractions.Fraction` (lowest
terms, positive denominator).  This module adds the canonical string form
used in reports and model files ("p/q", plain "p" for integers) and the
linear algebra shared by the lattice, toric and Zariski modules.  That
linear algebra is one fraction-free (Bareiss) row reduction, ``_echelon``;
``det``, ``rank``, ``solve_general`` (``solve_each`` for several
right-hand sides at once), ``mat_inverse`` and the negative-definite solve
are a few lines over it; the last gives integer numerators over one
positive denominator, for the Zariski layer's integer certificates.
With no row swap, pivot k is the k-th leading minor, so Sylvester's
criterion comes out of the same elimination that solves the system.
Inputs are never mutated.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm
from typing import Iterable, Sequence

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


def mat_mul(a: Sequence[Sequence[Fraction]], b: Sequence[Sequence[Fraction]]) -> QMat:
    cols = list(zip(*b))
    return [[dot(row, col) for col in cols] for row in a]


def mat_transpose(a: Sequence[Sequence[Fraction]]) -> QMat:
    return [list(row) for row in zip(*a)]


# -- the elimination kernel ----------------------------------------------------


def _echelon(rows: Sequence[Sequence], width: int) -> tuple[list[list[int]], list[int], int, int]:
    """Fraction-free (Bareiss) row echelon form on the first ``width`` columns.

    Each row is scaled to integers; ``scale`` is the product of the factors.
    Rows are swapped only on a zero pivot, and a column with no pivot left
    is skipped.  Every entry below a pivot row is then a minor of the scaled
    matrix (Sylvester's identity), so the division by the previous pivot is
    exact.  Columns past ``width`` (right-hand sides) ride along.  Returns
    the integer rows, the pivot columns, the number of swaps and ``scale``.
    """
    m = []
    scale = 1
    for row in rows:
        row = [x if isinstance(x, int) else to_q(x) for x in row]
        den = lcm(*(x.denominator for x in row))
        m.append([x.numerator * (den // x.denominator) for x in row])
        scale *= den
    cols: list[int] = []
    swaps = 0
    prev = 1
    for c in range(width):
        r = len(cols)
        if r == len(m):
            break
        if m[r][c] == 0:
            i = next((i for i in range(r + 1, len(m)) if m[i][c]), None)
            if i is None:
                continue
            m[r], m[i] = m[i], m[r]
            swaps += 1
        top = m[r]
        p = top[c]
        for i in range(r + 1, len(m)):
            f = m[i][c]
            m[i] = [(p * x - f * y) // prev for x, y in zip(m[i], top)]
        cols.append(c)
        prev = p
    return m, cols, swaps, scale


def _solutions(m: list[list[int]], cols: list[int], width: int, count: int) -> tuple[list[list[int]], int]:
    """The solutions of an echelon system for its columns width, width + 1, ...

    Free variables are 0.  With d the absolute value of the last pivot,
    d * x is an integer vector (Cramer's rule on the pivot rows and
    columns), so the substitution runs in exact integer division; each
    solution comes back as integer numerators over the one denominator d.
    """
    d = abs(m[len(cols) - 1][cols[-1]]) if cols else 1
    sols = []
    for j in range(width, width + count):
        y = [0] * width
        for k in range(len(cols) - 1, -1, -1):
            row = m[k]
            y[cols[k]] = (d * row[j] - sum(row[i] * y[i] for i in cols[k + 1:])) // row[cols[k]]
        sols.append(y)
    return sols, d


def _fractions(sols: list[list[int]], den: int) -> list[QVec]:
    return [tuple(Fraction(v, den) for v in y) for y in sols]


def det(a: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact determinant: the last pivot, signed by the swaps and unscaled."""
    n = len(a)
    if n == 0:
        return Q(1)
    m, cols, swaps, scale = _echelon(a, n)
    if len(cols) < n:
        return Q(0)
    return Fraction((-1) ** swaps * m[-1][-1], scale)


def rank(a: Sequence[Sequence[Fraction]]) -> int:
    return len(_echelon(a, len(a[0]))[1]) if a else 0


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
    m, cols, _, _ = _echelon([list(row) + list(bs) for row, *bs in zip(a, *rhs, strict=True)], width)
    if any(x for row in m[len(cols):] for x in row[width:]):
        return None
    return _fractions(*_solutions(m, cols, width, len(rhs)))


def mat_inverse(a: Sequence[Sequence[Fraction]]) -> QMat | None:
    """Exact inverse of a square matrix; None if singular."""
    n = len(a)
    m, cols, _, _ = _echelon([list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)], n)
    if len(cols) < n:
        return None
    return [list(row) for row in zip(*_fractions(*_solutions(m, cols, n, n)))]


def solve_negative_definite(
    gram: Sequence[Sequence[Fraction]], rhs: Sequence[Sequence[Fraction]]
) -> tuple[list[list[int]], int] | None:
    """The solution of gram * x = b for each b in rhs; None unless gram is negative definite.

    The solutions come as integer numerators over one positive denominator.
    Sylvester's criterion: with no swap, pivot k is the k-th leading minor
    of gram with its rows scaled by positive factors, so the pivots must
    alternate in sign, starting negative.  A swap means a leading minor is 0.
    """
    n = len(gram)
    m, cols, swaps, _ = _echelon([list(row) + [b[i] for b in rhs] for i, row in enumerate(gram)], n)
    if swaps or len(cols) < n or any((m[k][k] < 0) != (k % 2 == 0) for k in range(n)):
        return None
    return _solutions(m, cols, n, len(rhs))


def is_negative_definite(gram: Sequence[Sequence[Fraction]]) -> bool:
    """Sylvester test: leading principal minors alternate, starting negative."""
    return solve_negative_definite(gram, ()) is not None


def isqrt_exact(n: int) -> int | None:
    """Integer square root when n is a perfect square, else None."""
    if n < 0:
        return None
    r = isqrt(n)
    return r if r * r == n else None


def sqrt_rational(x: Fraction) -> Fraction | None:
    """Exact square root of a rational when it exists, else None."""
    if x < 0:
        return None
    num = isqrt_exact(x.numerator)
    den = isqrt_exact(x.denominator)
    if num is None or den is None:
        return None
    return Fraction(num, den)
