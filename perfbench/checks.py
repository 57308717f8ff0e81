"""Output checks that share no code with the engine.

Everything here is plain integer and ``fractions.Fraction`` arithmetic; the
module never imports kstab.  A check returns a list of problems, empty when
the output is correct.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction


def digest(text: str | bytes) -> str:
    data = text.encode("utf-8") if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()


def canon(value) -> str:
    """Stable text of nested tuples/lists of ints, Fractions and strings."""
    if isinstance(value, (list, tuple)):
        return "(" + ",".join(canon(v) for v in value) + ")"
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}" if value.denominator != 1 else str(value.numerator)
    return str(value)


def pair(gram, a, b) -> Fraction:
    return sum((Fraction(a[i]) * gram[i][j] * b[j] for i in range(len(a)) for j in range(len(b)) if gram[i][j]),
               Fraction(0))


def det(matrix) -> Fraction:
    """Exact determinant by elimination with row swaps."""
    m = [[Fraction(x) for x in row] for row in matrix]
    n, out = len(m), Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            out = -out
        out *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return out


def negative_definite(gram) -> bool:
    """Sylvester's criterion on -gram: every leading principal minor is positive."""
    return all(det([[-x for x in row[:k]] for row in gram[:k]]) > 0 for k in range(1, len(gram) + 1))


def _solve(matrix, rhs):
    """Cramer's rule for a square system; None when it is singular."""
    d = det(matrix)
    if d == 0:
        return None
    return [det([row[:i] + [r] + row[i + 1:] for row, r in zip(matrix, rhs)]) / d for i in range(len(rhs))]


def decomposition(gram, curves: dict, d, positive, nu: dict, strict: bool = True) -> list[str]:
    """Defining properties of a Zariski decomposition D = P + sum nu_i N_i.

    ``nu`` maps support labels to coefficients; ``strict`` demands nu_i > 0,
    otherwise nu_i >= 0 (a chamber end, where a curve may just enter).
    """
    problems = []
    support = sorted(nu)
    rebuilt = [Fraction(x) for x in positive]
    for label in support:
        rebuilt = [x + nu[label] * c for x, c in zip(rebuilt, curves[label])]
    if rebuilt != [Fraction(x) for x in d]:
        problems.append("D != P + sum nu_i N_i")
    for label in support:
        if nu[label] < 0 or (strict and nu[label] == 0):
            problems.append(f"coefficient of {label} is {nu[label]}")
    for label, c in curves.items():
        value = pair(gram, positive, c)
        if value < 0:
            problems.append(f"P.{label} = {value} < 0")
        elif label in nu and value != 0:
            problems.append(f"P.{label} = {value} != 0 on the support")
    if support and not negative_definite([[pair(gram, curves[a], curves[b]) for b in support] for a in support]):
        problems.append("support Gram is not negative definite")
    return problems


def chamber(gram, curves: dict, d0, d1, lo, hi, p0, p1, support) -> list[str]:
    """Decomposition properties of D(t) = d0 + t*d1 at both ends of a chamber.

    The negative part at t is recovered from D(t) - P(t) by solving the
    support Gram system; coefficients must be >= 0 at the ends and > 0 at the
    midpoint, where no curve of the support can be just entering.
    """
    problems = []
    for t, strict in ((lo, False), (hi, False), ((lo + hi) / 2, True)):
        d = [Fraction(a) + t * b for a, b in zip(d0, d1)]
        p = [a + t * b for a, b in zip(p0, p1)]
        rest = [x - y for x, y in zip(d, p)]
        g = [[pair(gram, curves[a], curves[b]) for b in support] for a in support]
        nu_vec = _solve(g, [pair(gram, rest, curves[b]) for b in support]) if support else []
        if nu_vec is None:
            problems.append(f"t={t}: singular support Gram")
            continue
        nu = dict(zip(support, nu_vec))
        problems += [f"t={t}: {msg}" for msg in decomposition(gram, curves, d, p, nu, strict)]
    return problems
