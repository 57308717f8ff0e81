"""Even integral lattices: discriminant forms, overlattices, saturation.

A lattice is a symmetric integer Gram matrix.  The discriminant group
A = L*/L is computed through an integer Smith normal form with explicit
transformation matrices, so group elements come out as rational coordinate
vectors in the original basis (reduced to the fundamental domain [0,1)^r).
That representation makes the Q/2Z quadratic form a plain matrix product
and keeps the Nikulin overlattice construction concrete: an overlattice is
returned as a new Gram matrix plus the rational basis-change certificate.
The determinant comes from the one elimination kernel in ``rationals``,
run on the integer rows; a degenerate Gram or a dependent sub-basis is read
off the Smith form that the call builds anyway.  The signature is
Descartes' rule of signs on the integer characteristic polynomial
(Faddeev-LeVerrier), exact because a symmetric matrix has only real
eigenvalues; it makes no ``Fraction``.

Internally the isotropic elements and subgroups are found in group
coordinates: an element is an integer tuple c with 0 <= c_i < f_i over the
invariant factors f_i, and b and q are one integer table over a common
denominator.  A subgroup is a bitmask over the isotropic elements.  The
walk extends an isotropic H only by an isotropic g orthogonal to all of H,
so H + <g> is a union of cosets and stays isotropic with no closure search
(Nikulin 1979).  Its size is |H| times k, the order of g modulo H, read
off g's multiples; a known subgroup of that size containing H and g is
H + <g>, so each subgroup is built, and its cosets enumerated, once.  Each
subgroup keeps the elements it was built from, and its overlattice's HNF
runs on those.  Rational vectors are made only for the results.

``integer_search_quadratic`` takes forms of total degree at most two and
solves the box row by row: in each row the form is a quadratic in the last
variable, whose solutions are the integers between its real roots or the
rest of the row.  The ends come in closed form from the integer square root
of the discriminant, with at most two exact evaluations, so the work is
linear in the side of the first variable, not in the box's area.

Enumerations are guarded by an element bound (default 10**6, overridable
through the KSTAB_ENUM_BOUND environment variable); the box search checks
its number of rows and of solutions against it.
"""

from __future__ import annotations

import itertools
import os
from fractions import Fraction
from math import gcd, isqrt, prod
from operator import mul
from typing import TYPE_CHECKING, Sequence

from .errors import (
    DegenerateLattice,
    DependentBasis,
    DomainError,
    GroupTooLarge,
    InvariantViolation,
    OddLattice,
)
from .rationals import Q, det, scaled, to_q
from .records import Record

if TYPE_CHECKING:
    from .poly import Polynomial

DEFAULT_ENUM_BOUND = 10**6


def _enum_bound() -> int:
    env = os.environ.get("KSTAB_ENUM_BOUND")
    if not env:
        return DEFAULT_ENUM_BOUND
    if not env.strip().isdecimal() or int(env) < 1:
        raise DomainError(f"KSTAB_ENUM_BOUND must be a positive integer, got {env!r}")
    return int(env)


class GramLattice:
    """Integral lattice presented by a symmetric Gram matrix."""

    def __init__(self, gram: Sequence[Sequence[int]]):
        rows = [list(row) for row in gram]
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("Gram matrix must be square")
        for i in range(n):
            for j in range(n):
                if rows[i][j] != rows[j][i]:
                    raise ValueError("Gram matrix must be symmetric")
                if int(rows[i][j]) != rows[i][j]:
                    raise ValueError("Gram entries must be integers")
                rows[i][j] = int(rows[i][j])
        self.gram: tuple[tuple[int, ...], ...] = tuple(tuple(row) for row in rows)
        self.rank = n

    def __repr__(self):
        return f"GramLattice({[list(r) for r in self.gram]})"

    def __eq__(self, other):
        return isinstance(other, GramLattice) and self.gram == other.gram

    def __hash__(self):
        return hash(self.gram)

    def is_even(self) -> bool:
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))

    def evaluate(self, v: Sequence[int]) -> int:
        """Self-pairing v^T G v."""
        return self.pair(v, v)

    def pair(self, v: Sequence[int], w: Sequence[int]) -> int:
        if len(v) != self.rank or len(w) != self.rank:
            raise ValueError(f"vectors must have length {self.rank}")
        return sum(int(a) * x * int(b) for a, row in zip(v, self.gram) for x, b in zip(row, w))


def determinant(lattice: GramLattice) -> int:
    value = det(lattice.gram)
    if value.denominator != 1:
        raise InvariantViolation(f"determinant {value} of an integer Gram matrix is not an integer")
    return int(value)


def signature(lattice: GramLattice) -> tuple[int, int, int]:
    """Inertia (positive, negative, zero) by Descartes' rule on the characteristic polynomial.

    Faddeev-LeVerrier gives det(x*I - G) = x^n + c_1 x^(n-1) + ... + c_n:
    M_k = G*M_(k-1) + c_(k-1)*I and c_k = -tr(G*M_k)/k, a division that is
    exact over the integers.  G is symmetric, so every root is real; then
    the sign changes of the nonzero c_k count the positive roots exactly,
    the number of trailing zero coefficients is the multiplicity of the
    root 0, and the other roots are negative.
    """
    g, n = lattice.gram, lattice.rank
    coeffs, m = [1], [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        m = [[sum(map(mul, row, col)) + coeffs[-1] * (i == j) for j, col in enumerate(zip(*m))]
             for i, row in enumerate(g)]
        c, rem = divmod(-sum(sum(map(mul, row, col)) for row, col in zip(g, zip(*m))), k)
        if rem:
            raise InvariantViolation(f"the trace of G*M_{k} is not divisible by {k}")
        coeffs.append(c)
    signs = [c > 0 for c in coeffs if c]
    pos = sum(s != t for s, t in zip(signs, signs[1:]))
    zero = n - max(k for k, c in enumerate(coeffs) if c)
    return pos, n - pos - zero, zero


# -- Smith normal form -------------------------------------------------------


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """(U, D, V) with U*A*V = D diagonal, U and V unimodular, diagonal
    entries nonnegative with d1 | d2 | ... .
    """
    a = [[int(x) for x in row] for row in matrix]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def row_op(i, j, c):
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, c):
        for row in a:
            row[i] += c * row[j]
        for row in v:
            row[i] += c * row[j]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    t = 0
    limit = min(rows, cols)
    while t < limit:
        # the pivot: the first entry of least absolute value
        nonzero = [(abs(a[i][j]), i, j) for i in range(t, rows) for j in range(t, cols) if a[i][j]]
        if not nonzero:
            break
        _, i, j = min(nonzero)
        row_swap(t, i)
        col_swap(t, j)
        while True:
            # kill column t
            done = True
            for i in range(t + 1, rows):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    row_op(i, t, -q)
                    if a[i][t] != 0:
                        row_swap(t, i)
                        done = False
            for j in range(t + 1, cols):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    col_op(j, t, -q)
                    if a[t][j] != 0:
                        col_swap(t, j)
                        done = False
            if done:
                break
        # enforce divisibility d_t | a[i][j] for the trailing block
        bad = next((i for i in range(t + 1, rows) for j in range(t + 1, cols) if a[i][j] % a[t][t]), None)
        if bad is not None:
            row_op(t, bad, 1)
            continue
        t += 1
    for i in range(limit):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
            u[i] = [-x for x in u[i]]
    return u, a, v


# -- discriminant groups -----------------------------------------------------


class DiscriminantGroup(Record):
    """A = L*/L presented by invariant factors and dual-vector generators.

    ``generators[i]`` is a rational coordinate vector (in the original
    lattice basis) of order ``factors[i]``; the factors divide one another in
    increasing order and multiply to |det|.  The last factor e is the
    exponent: e times any element is in L, so the isotropic search and the
    overlattice walk hold every element as integer numerators over e.
    """

    lattice: GramLattice
    factors: tuple[int, ...]
    generators: tuple[tuple[Fraction, ...], ...]

    @property
    def order(self) -> int:
        return prod(self.factors)

    def canonical(self, vector: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """Reduce a dual vector modulo the lattice to coordinates in [0,1)^r."""
        return tuple(to_q(x) - to_q(x).__floor__() for x in vector)

    def element(self, coords: Sequence[int]) -> tuple[Fraction, ...]:
        """Group element a1*g1 + ... + ak*gk as a canonical dual vector."""
        if len(coords) != len(self.generators):
            raise ValueError("coordinate length mismatch")
        acc = [Q(0)] * self.lattice.rank
        for a, gen in zip(coords, self.generators):
            for i, x in enumerate(gen):
                acc[i] += a * x
        return self.canonical(acc)


def discriminant_group(lattice: GramLattice) -> DiscriminantGroup:
    """Invariant factors and generators of L*/L via Smith normal form."""
    u, d, v = smith_normal_form(lattice.gram)
    if any(d[i][i] == 0 for i in range(lattice.rank)):
        raise DegenerateLattice("discriminant group needs det != 0")
    factors: list[int] = []
    gens: list[tuple[Fraction, ...]] = []
    for i in range(lattice.rank):
        di = d[i][i]
        if di == 1:
            continue
        factors.append(di)
        gens.append(tuple(Q(v[r][i] % di, di) for r in range(lattice.rank)))  # canonical, in [0, 1)
    return DiscriminantGroup(lattice, tuple(factors), tuple(gens))


def discriminant_quadratic(lattice: GramLattice, x: Sequence[Fraction]) -> Fraction:
    """q(x) in Q/2Z for an even lattice, canonical representative in [0, 2).

    ``x`` is a rational coordinate vector in the original basis (an element
    of the dual lattice).
    """
    if not lattice.is_even():
        raise OddLattice("discriminant quadratic form needs an even lattice")
    if determinant(lattice) == 0:
        raise DegenerateLattice("discriminant form needs det != 0")
    xq = [to_q(c) for c in x]
    gq = [[Q(e) for e in row] for row in lattice.gram]
    value = sum(xq[i] * gq[i][j] * xq[j] for i in range(lattice.rank) for j in range(lattice.rank))
    return value % 2


def _form_table(group: DiscriminantGroup) -> tuple[int, list[tuple[int, ...]], list[list[int]]]:
    """(e, N, T): generator numerators N_i = e * g_i over the exponent e, and
    T[i][j] = N_i.G.N_j.

    For elements c, c' in group coordinates, b(c, c') = c.T.c' / e^2 in Q/Z
    and q(c) = c.T.c / e^2 in Q/2Z.
    """
    gram = group.lattice.gram
    e = group.factors[-1] if group.factors else 1
    nums = [tuple(x.numerator * (e // x.denominator) for x in g) for g in group.generators]
    g_nums = [[sum(a * x for a, x in zip(row, n)) for row in gram] for n in nums]
    return e, nums, [[sum(a * x for a, x in zip(m, gn)) for gn in g_nums] for m in nums]


def _isotropic_coords(
    lattice: GramLattice,
) -> tuple[DiscriminantGroup, int, list[list[int]], dict[tuple[int, ...], tuple[int, ...]]]:
    """Group, exponent e, form table and isotropic elements {coordinates:
    numerators over e}, sorted by numerators (the order of the vectors)."""
    group = discriminant_group(lattice)
    if group.order > _enum_bound():
        raise GroupTooLarge(f"group of order {group.order} exceeds the bound")
    if not lattice.is_even():
        raise OddLattice("discriminant quadratic form needs an even lattice")
    e, nums, t = _form_table(group)
    iso, columns = {}, [tuple(n[r] for n in nums) for r in range(lattice.rank)]
    for c in itertools.product(*(range(f) for f in group.factors)):
        if sum(map(mul, c, [sum(map(mul, row, c)) for row in t])) % (2 * e * e) == 0:
            iso[c] = tuple(sum(map(mul, c, col)) % e for col in columns)
    return group, e, t, dict(sorted(iso.items(), key=lambda item: item[1]))


def isotropic_elements(lattice: GramLattice) -> list[tuple[Fraction, ...]]:
    """All discriminant-group elements with q = 0 in Q/2Z (0 included)."""
    _, e, _, iso = _isotropic_coords(lattice)
    return [tuple(Q(x, e) for x in v) for v in iso.values()]


def is_primitivity_forced(lattice: GramLattice) -> bool:
    """True iff 0 is the only isotropic element of the discriminant form.

    A nonzero isotropic element generates an isotropic subgroup and hence a
    proper even overlattice; with none, every embedding into a larger even
    lattice is primitive.
    """
    return len(_isotropic_coords(lattice)[3]) == 1


class Overlattice(Record):
    """An even overlattice with its basis certificate.

    ``basis`` rows express the new basis in rational coordinates of the
    original one, so gram = basis * G * basis^T, and the index [L' : L] =
    1/|det basis| is |subgroup|.
    """

    gram: GramLattice
    basis: tuple[tuple[Fraction, ...], ...]
    subgroup: tuple[tuple[Fraction, ...], ...]

    @property
    def index(self) -> int:
        return len(self.subgroup)


def _isotropic_subgroups(lattice: GramLattice) -> tuple[int, list, list[tuple[list, list]]]:
    """(e, numerators of the isotropic elements in vector order, subgroups as
    (ascending position list, generator positions), ordered by size and then
    by the position lists).

    H + <g> has |H|*k elements, k the order of g modulo H: if a known
    subgroup of that size holds H and g, it is H + <g> and is skipped.  A new
    one is built from its k cosets of H and checked to stay isotropic; its
    generators are H's and g, so at most log2 |H + <g>| of them.
    """
    group, e, t, vectors = _isotropic_coords(lattice)
    factors, coords = group.factors, list(vectors)
    position = {c: i for i, c in enumerate(coords)}
    zero, m = tuple(0 for _ in factors), len(coords)

    def add(x, y):
        return tuple((a + b) % f for a, b, f in zip(x, y, factors))

    # per element g: the positions of g, 2g, ... up to its order (m, in no
    # subgroup, for one outside the isotropic set: the subgroup built from g
    # then fails its check), and the mask of the isotropic h with
    # b(g, h) = 0, read off T.g (b is symmetric)
    multiples, orth = [], [0] * m
    for i, (g, nums) in enumerate(vectors.items()):
        mult = itertools.accumulate([g] * (e // gcd(e, *nums) - 1), add, initial=g)
        multiples.append([position.get(x, m) for x in mult])
        tg = [sum(map(mul, row, g)) for row in t]
        for j in range(i + 1):
            if sum(map(mul, tg, coords[j])) % (e * e) == 0:
                orth[i] |= 1 << j
                orth[j] |= 1 << i
    moved: dict[int, int] = {}  # p * m + i: the position of coords[p] + coords[i], each sum built once

    def move(p: int, i: int) -> int:
        key = p * m + i
        if key not in moved:
            x = add(coords[p], coords[i])
            if x not in position:
                raise InvariantViolation("a subgroup spanned by orthogonal isotropic elements left the isotropic set")
            moved[key] = position[x]
        return moved[key]

    subgroups = {1 << position[zero]: ([position[zero]], [])}  # mask: ascending positions, generators
    frontier = list(subgroups)
    while frontier:
        h = frontier.pop()
        h_positions, h_generators = subgroups[h]
        above: dict[int, int] = {}  # size: the union of the known subgroups of that size that contain H
        for s, (positions, _) in subgroups.items():
            if s & h == h:
                above[len(positions)] = above.get(len(positions), 0) | s
        candidates = ~h
        for i in h_positions:
            candidates &= orth[i]
        while candidates:
            i = (candidates & -candidates).bit_length() - 1
            candidates &= candidates - 1
            k = next(j for j, p in enumerate(multiples[i], 1) if h >> p & 1)
            s = above.get(len(h_positions) * k, 0)
            if not s >> i & 1:  # H + <g> is new: the union of the cosets H + j.g, j < k, each the last moved by g
                found, coset = list(h_positions), h_positions
                for _ in range(k - 1):
                    coset = [move(p, i) for p in coset]
                    found += coset
                s = sum(1 << p for p in found)
                subgroups[s] = (sorted(found), h_generators + [i])
                above[len(found)] = above.get(len(found), 0) | s
                frontier.append(s)
    keyed = sorted((len(positions), positions, generators) for positions, generators in subgroups.values())
    return e, list(vectors.values()), [(positions, generators) for _, positions, generators in keyed]


def _hermite_normal_form(rows: list[list[int]]) -> list[list[int]]:
    """Row-style HNF (nonzero rows, pivot-positive, reduced above pivots)."""
    m = [list(r) for r in rows]
    cols = len(m[0]) if m else 0
    pivot_row = 0
    for col in range(cols):
        pivot = next((r for r in range(pivot_row, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[pivot_row], m[pivot] = m[pivot], m[pivot_row]
        # gcd out the column below the pivot
        for r in range(pivot_row + 1, len(m)):
            while m[r][col] != 0:
                q = m[pivot_row][col] // m[r][col]
                m[pivot_row] = [a - q * b for a, b in zip(m[pivot_row], m[r])]
                m[pivot_row], m[r] = m[r], m[pivot_row]
        if m[pivot_row][col] < 0:
            m[pivot_row] = [-x for x in m[pivot_row]]
        for r in range(pivot_row):
            q = m[r][col] // m[pivot_row][col]
            if q:
                m[r] = [a - q * b for a, b in zip(m[r], m[pivot_row])]
        pivot_row += 1
    return [row for row in m[:pivot_row] if any(row)]


def even_overlattices(lattice: GramLattice) -> list[Overlattice]:
    """All even overlattices, one per isotropic subgroup of the discriminant.

    The list always contains the lattice itself (trivial subgroup) and is
    deterministically ordered by subgroup size.  det(overlattice) scales by
    1/|H|^2.  On numerators over the exponent e, the basis is B/e for the row
    HNF B of [e*I; generators of the subgroup] (HNF commutes with a positive
    scale), and the Gram is B.G.B^T / e^2.  The generators span the same
    lattice as the whole subgroup, whose row HNF is unique, so the HNF takes
    n + log2 |subgroup| rows at most.
    """
    if not lattice.is_even():
        raise OddLattice("overlattice enumeration is defined for even lattices")
    e, numerators, subgroups = _isotropic_subgroups(lattice)
    n = lattice.rank
    e_rows = [[e if i == j else 0 for j in range(n)] for i in range(n)]
    built = []
    for subgroup, generators in subgroups:
        h = _hermite_normal_form(e_rows + [numerators[i] for i in generators])
        if len(h) != n:
            raise InvariantViolation(f"overlattice basis has {len(h)} rows, expected {n}")
        g_rows = [[sum(map(mul, g_row, row)) for g_row in lattice.gram] for row in h]
        pairs = [[sum(map(mul, row, g_row)) for g_row in g_rows] for row in h]
        if any(x % (e * e) for row in pairs for x in row):
            raise InvariantViolation("overlattice from an isotropic subgroup must stay integral")
        over = GramLattice([[x // (e * e) for x in row] for row in pairs])
        if not over.is_even():
            raise OddLattice("overlattice from an isotropic subgroup must stay even")
        built.append((over, h, subgroup))
    # one Fraction per distinct numerator over e
    q = {x: Q(x, e) for x in {x for _, h, _ in built for row in h for x in row}.union(*numerators)}
    vectors = [tuple(q[x] for x in v) for v in numerators]
    return [
        Overlattice(over, tuple(tuple(q[x] for x in row) for row in h), tuple(vectors[i] for i in subgroup))
        for over, h, subgroup in built
    ]


def is_saturated(ambient: GramLattice, sub_basis: Sequence[Sequence[int]]) -> bool:
    """True iff the span of the rows is a direct summand of Z^rank.

    Equivalent to: the coordinate matrix has all Smith invariant factors 1,
    i.e. the sublattice is primitive in the ambient lattice.
    """
    rows = [[int(x) for x in row] for row in sub_basis]
    if not rows:
        return True
    if any(len(row) != ambient.rank for row in rows):
        raise ValueError("sub-basis vectors must match the ambient rank")
    _, d, _ = smith_normal_form(rows)
    # the rows are independent iff their Smith form has k nonzero diagonal entries
    diagonal = [d[i][i] for i in range(min(len(rows), ambient.rank))]
    if len(diagonal) < len(rows) or 0 in diagonal:
        raise DependentBasis("sub-basis is linearly dependent")
    return all(x == 1 for x in diagonal)


_HOLDS = {
    ">": lambda v: v > 0,
    ">=": lambda v: v >= 0,
    "<": lambda v: v < 0,
    "<=": lambda v: v <= 0,
    "==": lambda v: v == 0,
}
# the comparison that -p satisfies exactly where p satisfies the original
_NEGATED = {">": "<", ">=": "<=", "<": ">", "<=": ">=", "==": "=="}


def _at(a: int, b: int, c: int, y: int) -> int:
    """a*y^2 + b*y + c, the box search's one evaluation of a row."""
    return (a * y + b) * y + c


def _row_runs(a: int, b: int, c: int, lo: int, hi: int, comparison: str) -> list[tuple[int, int]]:
    """Runs [s, e] of the integers y in [lo, hi] with a*y^2 + b*y + c <comparison> 0.

    With the leading coefficient made positive, p <= 0 holds exactly on the
    integers [left, right] between the real roots.  As floor((m + x)/n) =
    floor((m + floor(x))/n) for an integer m and an integer n > 0, isqrt of
    the discriminant gives both ends exactly.  A zero of p in [left, right]
    is one of its ends, so at most two evaluations settle <, >= and ==.
    """
    if a == 0 and b == 0:
        return [(lo, hi)] if _HOLDS[comparison](c) else []
    if a < 0 or (a == 0 and b < 0):
        a, b, c, comparison = -a, -b, -c, _NEGATED[comparison]
    if a == 0:
        left, right = lo, -c // b
    elif (d := b * b - 4 * a * c) < 0:
        left, right = 1, 0
    else:
        s = isqrt(d)
        left, right = -((b + s) // (2 * a)), (s - b) // (2 * a)
    left, right = max(left, lo), min(right, hi)
    if comparison in ("==", "<", ">="):
        zeros = {y for y in (left, right) if left <= right and _at(a, b, c, y) == 0}
        if comparison == "==":
            return [(y, y) for y in sorted(zeros)]
        left, right = left + (left in zeros), right - (right in zeros)  # where p < 0
    if comparison in ("<", "<="):
        return [(left, right)] if left <= right else []
    # > and >= hold off [left, right]
    if left > right:
        return [(lo, hi)]
    return [(start, end) for start, end in ((lo, left - 1), (right + 1, hi)) if start <= end]


def integer_search_quadratic(
    form: Polynomial,
    comparison: str,
    box: dict[str, tuple[int, int]],
) -> list[tuple[int, ...]]:
    """Exhaustive integer solutions of ``form <comparison> 0`` in a box.

    The form has total degree at most two, and the box must cover every
    variable of the polynomial; results are sorted tuples in the variable
    order of the polynomial.  The box is solved row by row (one row per value
    of the first of two variables), each row in closed form from the integer
    square root of its discriminant, whatever its width.  The number of rows
    and of solutions is checked against the enumeration bound.  Enumeration
    proves emptiness only within the box, never globally.  An unknown
    comparison or a box that misses a variable raises ``DomainError``.
    """
    if comparison not in _HOLDS:
        raise DomainError(f"unknown comparison {comparison!r}")
    variables = form.vars
    for v in variables:
        if v not in box:
            raise DomainError(f"box is missing variable {v!r}")
    if form.degree() > 2:
        raise DomainError(f"the box search takes forms of total degree <= 2, got {form.degree()}")
    coeffs = form.coeffs
    if not variables:
        return [()] if _HOLDS[comparison](coeffs.get((), 0)) else []
    if any(box[v][0] > box[v][1] for v in variables):
        return []
    bound = _enum_bound()
    # integer coefficients k[(i, j)] of x^i y^j, y the last variable; the
    # positive scale keeps every sign
    ints, _ = scaled(coeffs.values())
    k = {(0,) * (2 - len(exp)) + exp: c for exp, c in zip(coeffs, ints)}

    if len(variables) == 1:
        rows = [((), 0)]
    else:
        x_lo, x_hi = box[variables[0]]
        if x_hi - x_lo + 1 > bound:
            raise GroupTooLarge(f"box search over {x_hi - x_lo + 1} rows exceeds the bound {bound}")
        rows = [((x,), x) for x in range(x_lo, x_hi + 1)]
    lo, hi = box[variables[-1]]
    a, bx, b0, cxx, cx, c0 = (k.get(exp, 0) for exp in ((0, 2), (1, 1), (0, 1), (2, 0), (1, 0), (0, 0)))
    out: list[tuple[int, ...]] = []
    for prefix, x in rows:
        b = bx * x + b0
        c = (cxx * x + cx) * x + c0
        for start, end in _row_runs(a, b, c, lo, hi, comparison):
            if len(out) + end - start + 1 > bound:
                raise GroupTooLarge(f"box search has more than {bound} solutions")
            out.extend(prefix + (y,) for y in range(start, end + 1))
    return out
