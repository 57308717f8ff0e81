"""Exact rational scalars and tiny exact linear algebra helpers.

The scalar type of the whole engine is :class:`fractions.Fraction`, which
already guarantees the two invariants we need (lowest terms, positive
denominator).  This module adds the canonical string form used everywhere in
reports and model files ("p/q", plain "p" for integers) and the handful of
exact vector/matrix routines shared by the lattice, intersection and Zariski
modules.  Everything here is pure and allocation-light; matrices are lists of
lists of Fractions and are never mutated by callers.
"""

from __future__ import annotations

from fractions import Fraction
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


def identity(n: int) -> QMat:
    return [[Q(1) if i == j else Q(0) for j in range(n)] for i in range(n)]


def mat_copy(a: Sequence[Sequence[Fraction]]) -> QMat:
    return [[to_q(x) for x in row] for row in a]


def det(a: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact determinant by fraction-free-ish Gaussian elimination."""
    n = len(a)
    m = mat_copy(a)
    sign = 1
    result = Q(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Q(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            sign = -sign
        p = m[col][col]
        result *= p
        for r in range(col + 1, n):
            if m[r][col] != 0:
                factor = m[r][col] / p
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return sign * result


def solve_general(a: Sequence[Sequence[Fraction]], b: Sequence[Fraction]) -> QVec | None:
    """One exact solution of a (possibly non-square) consistent system.

    Returns None when the system is inconsistent.  Free variables are set
    to zero, so the result is deterministic.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    m = [list(row) + [to_q(bi)] for row, bi in zip(mat_copy(a), b, strict=True)]
    pivots: list[tuple[int, int]] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        p = m[r][c]
        m[r] = [x / p for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                factor = m[i][c]
                m[i] = [x - factor * y for x, y in zip(m[i], m[r])]
        pivots.append((r, c))
        r += 1
        if r == rows:
            break
    for i in range(r, rows):
        if m[i][cols] != 0:
            return None
    x = [Q(0)] * cols
    for (pr, pc) in pivots:
        x[pc] = m[pr][cols]
    return tuple(x)


def mat_inverse(a: Sequence[Sequence[Fraction]]) -> QMat | None:
    """Exact inverse of a square matrix; None if singular."""
    n = len(a)
    m = [list(row) + [Q(1) if i == j else Q(0) for j in range(n)]
         for i, row in enumerate(mat_copy(a))]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        p = m[col][col]
        m[col] = [x / p for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return [row[n:] for row in m]


def rank(a: Sequence[Sequence[Fraction]]) -> int:
    rows = len(a)
    if rows == 0:
        return 0
    cols = len(a[0])
    m = mat_copy(a)
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, rows):
            if m[i][c] != 0:
                factor = m[i][c] / m[r][c]
                m[i] = [x - factor * y for x, y in zip(m[i], m[r])]
        r += 1
        if r == rows:
            break
    return r


def is_negative_definite(gram: Sequence[Sequence[Fraction]]) -> bool:
    """Sylvester test: leading principal minors alternate, starting negative."""
    n = len(gram)
    for k in range(1, n + 1):
        minor = det([row[:k] for row in gram[:k]])
        if (-1) ** k * minor <= 0:
            return False
    return True


def isqrt_exact(n: int) -> int | None:
    """Integer square root when n is a perfect square, else None."""
    if n < 0:
        return None
    from math import isqrt

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
