"""Shared independent oracles for the test suite.

These deliberately avoid the engine's chamber/iteration code paths: the
Zariski oracle enumerates every negative-definite subset of declared curves
and solves each candidate directly, so agreement with the iterative
algorithm is a genuine two-route check.  The inner loops run on plain
integers (scaled by the subset Gram determinant) to keep the exhaustive
sweep fast; only the surviving decomposition is converted back to exact
rationals.  ``exact_simpson`` integrates the oracle's volumes, which are
quadratic on each chamber, exactly, so a flag invariant can be recomputed
with no chamber code at all.  ``reference_solve_equality_lp`` is the
engine's original two-phase simplex over ``Fraction`` rows, kept verbatim
as the reference for the fraction-free solver.  In the same way,
``reference_isotropic_subgroups``, ``reference_integer_search_quadratic``,
``reference_facets`` and ``reference_ordered_facet_vertices`` are the
engine's original ``Fraction`` and brute-force kernels for the overlattice
walk, the box search, the hull and the facet polygon order, the references
for the integer kernels that replaced them.  ``reference_even_overlattices``
is the overlattice construction as it was before the discriminant elements
became integer numerators: a row HNF of the rational rows [I; subgroup]
over the lcm of their denominators, with the Gram as a ``Fraction`` matrix
product (``mat_mul``, ``mat_transpose``).  ``reference_polytope`` is the
hull's extreme-point test as it was before the integer on-plane indices:
``Fraction`` dot products and a ``Fraction`` rank over ``reference_facets``.
``reference_volume_barycenter`` shares no hull code with the engine: scipy's
Qhull picks the boundary triangles in floating point, and the tetrahedra
they span with an interior point are summed exactly in ``Fraction``.
``reference_decompose``, ``reference_symbolic_decomposition`` and
``reference_pair_poly`` are the chamber layer as it was before its
coefficient-vector kernel: the decomposition re-pairs the whole current
class with every curve each round, and the symbolic decomposition and the
squares are built from ``Polynomial`` products.  ``reference_det``,
``reference_rank``, ``reference_solve_general``, ``reference_mat_inverse``
and ``reference_is_negative_definite`` are the engine's original separate
Gaussian eliminations over ``Fraction`` rows, the references for the single
fraction-free elimination kernel; the Zariski oracles above run on them, so
they stay independent of that kernel.  ``reference_triple_product`` is the
threefold contraction as it was before the integer cubic form: an r^3 loop
over ``model.triple`` that takes rationals or ``Polynomial`` entries, so the
volume polynomial of a chamber can be rebuilt from ``Polynomial`` products.
``reference_parametric_threshold`` is the flag layer's pseudo-effective
threshold tau(t) as it was before the optimal basis proved it: three LPs, at
the midpoint and both ends of a t-chamber, and the chord and kink argument.
``reference_in_rank2_cone`` decides membership in a cone of rank-2 classes
with no LP: by Caratheodory, v is in the cone iff it is 0, a positive
multiple of one generator, or a nonnegative Cramer combination of some
pair, all in plain ``Fraction`` arithmetic.  ``reference_row_runs`` is one
row of the box search as it was before its closed form: on each side of the
vertex, two bisections with exact evaluation find where the comparison
starts and stops holding.  ``reference_signature`` is the lattice inertia as
it was before the characteristic polynomial: a congruence diagonalization
over ``Fraction`` entries.  ``reference_fraction_free_pivot`` is the
elimination kernel ``rationals._pivot`` as it was before it left a row
with f = 0 in place when |p| = D: every row but the pivot row rebuilt as
(x*p - f*y) // D, and every entry checked.
"""

import itertools
from fractions import Fraction as Q
from functools import cmp_to_key
from math import gcd, lcm
from typing import NamedTuple

from kstab.errors import IndefiniteSupport, InvalidModel, InvariantViolation, NotPseudoEffective
from kstab.lattice import GramLattice, Overlattice, discriminant_group, discriminant_quadratic
from kstab.lp import Infeasible, LPResult, Unbounded, max_shift
from kstab.poly import Polynomial
from kstab.rationals import to_q
from kstab.toric import Facet
from kstab.zariski import ZariskiResult, _SplitRequest


def _int_rows(vectors):
    out = []
    for v in vectors:
        row = []
        for x in v:
            q = Q(x)
            assert q.denominator == 1
            row.append(q.numerator)
        out.append(tuple(row))
    return out


def mat_mul(a, b):
    cols = list(zip(*b))
    return [[sum((to_q(x) * y for x, y in zip(row, col)), Q(0)) for col in cols] for row in a]


def mat_transpose(a):
    return [list(row) for row in zip(*a)]


def _ref_copy(a):
    return [[to_q(x) for x in row] for row in a]


def reference_det(a):
    """Exact determinant by Gaussian elimination over Fractions."""
    n = len(a)
    m = _ref_copy(a)
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


def reference_solve_general(a, b):
    """One solution of a consistent system, free variables 0; None when inconsistent."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    m = [list(row) + [to_q(bi)] for row, bi in zip(_ref_copy(a), b, strict=True)]
    pivots = []
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


def reference_mat_inverse(a):
    """Exact inverse by Gauss-Jordan over Fractions; None if singular."""
    n = len(a)
    m = [list(row) + [Q(1) if i == j else Q(0) for j in range(n)]
         for i, row in enumerate(_ref_copy(a))]
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


def reference_rank(a):
    rows = len(a)
    if rows == 0:
        return 0
    cols = len(a[0])
    m = _ref_copy(a)
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


def reference_is_negative_definite(gram):
    """Sylvester test: leading principal minors alternate, starting negative."""
    n = len(gram)
    for k in range(1, n + 1):
        minor = reference_det([row[:k] for row in gram[:k]])
        if (-1) ** k * minor <= 0:
            return False
    return True


class ZariskiOracle:
    """Precomputed exhaustive-subset decomposition oracle for one surface."""

    def __init__(self, surface):
        self.surface = surface
        self.labels = sorted(surface.negative_curves)
        self.curves = _int_rows(surface.negative_curves[l] for l in self.labels)
        gram_int = _int_rows(surface.gram)
        # gc[i] = Gram * curve_i, so pairings are single dot products
        self.gc = [
            tuple(sum(gram_int[r][c] * curve[c] for c in range(len(curve))) for r in range(len(curve)))
            for curve in self.curves
        ]
        self.pairs = [
            [sum(a * b for a, b in zip(ci, gcj)) for gcj in self.gc] for ci in self.curves
        ]
        self.subsets = self._enumerate()

    def _enumerate(self):
        n = len(self.labels)
        out = [((), None, 1)]

        def extend(prefix, start):
            k = len(prefix)
            for i in range(start, n):
                cand = prefix + (i,)
                gram = [[self.pairs[a][b] for b in cand] for a in cand]
                d = reference_det([[Q(x) for x in row] for row in gram])
                if (-1) ** (k + 1) * d <= 0:
                    continue  # not negative definite (earlier minors already hold)
                inv = reference_mat_inverse([[Q(x) for x in row] for row in gram])
                delta = int(d)
                adj = [[int(inv[r][c] * delta) for c in range(k + 1)] for r in range(k + 1)]
                out.append((cand, adj, delta))
                extend(cand, i + 1)

        extend((), 0)
        return out

    def decompose(self, d):
        """Unique valid (positive part, strict negative dict) for an integer class."""
        import numpy as np

        d_int = _int_rows([d])[0]
        if not hasattr(self, "_np"):
            # group subsets by size for a vectorized integer sweep
            by_k = {}
            for idx_set, adj, delta in self.subsets:
                k = len(idx_set)
                if k == 0:
                    continue
                by_k.setdefault(k, []).append((idx_set, adj, delta))
            packed = {}
            for k, items in by_k.items():
                packed[k] = (
                    np.array([it[0] for it in items], dtype=np.int64),
                    np.array([it[1] for it in items], dtype=np.int64),
                    np.array([it[2] for it in items], dtype=np.int64),
                    np.array([[self.curves[i] for i in it[0]] for it in items], dtype=np.int64),
                )
            self._np = packed
            self._gc_np = np.array(self.gc, dtype=np.int64)
            self._curves_np = np.array(self.curves, dtype=np.int64)
        gc = self._gc_np
        dv = np.array(d_int, dtype=np.int64)
        rhs_all = gc @ dv
        found = []
        # the empty support
        if (dv @ gc.T >= 0).all():
            found.append((tuple(Q(x) for x in d_int), {}))
        for k, (idx, adj, delta, cur) in self._np.items():
            sigma = np.sign(delta)[:, None]
            rhs = rhs_all[idx]
            a = np.einsum("nij,nj->ni", adj, rhs)
            ok = (sigma * a >= 0).all(axis=1)
            if not ok.any():
                continue
            p_scaled = delta[ok, None] * dv[None, :] - np.einsum(
                "ni,nik->nk", a[ok], cur[ok]
            )
            nef = (np.sign(delta[ok])[:, None] * (p_scaled @ gc.T) >= 0).all(axis=1)
            for row in np.flatnonzero(ok)[nef]:
                dl = int(delta[row])
                coeffs = [int(x) for x in a[row]]
                p = [dl * x for x in d_int]
                for coeff, ci in zip(coeffs, (self.curves[i] for i in idx[row])):
                    p = [pp - coeff * cc for pp, cc in zip(p, ci)]
                positive = tuple(Q(x, dl) for x in p)
                nu = {self.labels[int(i)]: Q(x, dl) for i, x in zip(idx[row], coeffs)}
                found.append((positive, nu))
        positives = {f[0] for f in found}
        assert len(positives) == 1, f"oracle ambiguity for {d}: {found}"
        strict = [{l: x for l, x in nu.items() if x > 0} for _, nu in found]
        assert all(s == strict[0] for s in strict)
        return found[0][0], strict[0]

    def volume(self, d):
        positive, _ = self.decompose(d)
        return self.surface.square(positive)

    def rational_volume(self, d):
        """Volume of a rational class: clear denominators, then scale back (degree 2)."""
        scale = lcm(*(Q(x).denominator for x in d))
        return self.volume(tuple(int(Q(x) * scale) for x in d)) / (scale * scale)


def exact_simpson(f, lo, hi, panels):
    """Composite Simpson's rule in exact rationals, for f quadratic on each panel.

    Simpson's rule is exact on quadratics.  Each panel is also sampled at
    its quarter points against the quadratic through its three Simpson
    nodes, so a kink inside a panel fails loudly instead of giving a
    wrong "exact" value.
    """
    h = Q(hi - lo) / panels
    total = Q(0)
    for i in range(panels):
        a = lo + i * h
        fa, fm, fb = f(a), f(a + h / 2), f(a + h)
        # Lagrange weights of the nodes 0, 1/2, 1 at x = 1/4 (mirrored for 3/4)
        assert f(a + h / 4) == (3 * fa + 6 * fm - fb) / 8, (a, a + h)
        assert f(a + 3 * h / 4) == (-fa + 6 * fm + 3 * fb) / 8, (a, a + h)
        total += h / 6 * (fa + 4 * fm + fb)
    return total


def random_pseff_class(surface, rng, max_terms=4, max_weight=3):
    """Random nonnegative integer combination of declared curves."""
    labels = sorted(surface.negative_curves)
    while True:
        d = [0] * surface.rank
        for _ in range(rng.randint(1, max_terms)):
            c = surface.negative_curves[labels[rng.randrange(len(labels))]]
            w = rng.randint(0, max_weight)
            d = [x + w * int(y) for x, y in zip(d, c)]
        if any(x != 0 for x in d):
            return tuple(d)


def reference_fraction_free_pivot(tab, basis, denom, row, col):
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
        nums = [x * p - f * y for x, y in zip(cur, prow)] if f else [x * p for x in cur]
        if denom != 1:
            if any(n % denom for n in nums):
                raise InvariantViolation(f"inexact fraction-free pivot: row {r} is not divisible by {denom}")
            nums = [n // denom for n in nums]
        tab[r] = nums
    basis[row] = col
    return p


def _ref_pivot(tab, basis, row, col):
    p = tab[row][col]
    tab[row] = [x / p for x in tab[row]]
    for r in range(len(tab)):
        if r != row and tab[r][col] != 0:
            factor = tab[r][col]
            tab[r] = [x - factor * y for x, y in zip(tab[r], tab[row])]
    basis[row] = col


def _ref_run_simplex(tab, basis, ncols, allowed):
    # maximize; objective row is last, stored as z-row coefficients
    # (reduced costs); Bland's rule: smallest eligible column, then row.
    while True:
        obj = tab[-1]
        col = next((j for j in range(ncols) if j in allowed and obj[j] > 0), None)
        if col is None:
            return
        best_row = None
        best_ratio = None
        for r in range(len(tab) - 1):
            if tab[r][col] > 0:
                ratio = tab[r][-1] / tab[r][col]
                if best_ratio is None or ratio < best_ratio or (
                    ratio == best_ratio and basis[r] < basis[best_row]
                ):
                    best_row, best_ratio = r, ratio
        if best_row is None:
            raise Unbounded()
        _ref_pivot(tab, basis, best_row, col)


def reference_solve_equality_lp(a, b, c):
    """Maximize c*x subject to a*x = b, x >= 0, on a tableau of Fractions.

    Same contract as ``kstab.lp.solve_equality_lp``: raises its Infeasible
    or Unbounded, else returns its LPResult.
    """
    rows = [[to_q(x) for x in row] for row in a]
    rhs = [to_q(x) for x in b]
    # drop linearly dependent rows (inconsistent ones mean infeasible)
    reduced = []
    work = [row + [bi] for row, bi in zip(rows, rhs)]
    ncols = len(rows[0]) if rows else 0
    pivot_cols = []
    for row in work:
        r = row[:]
        for (prow, pcol) in zip(reduced, pivot_cols):
            if r[pcol] != 0:
                factor = r[pcol]
                r = [x - factor * y for x, y in zip(r, prow[0] + [prow[1]])]
        lead = next((j for j in range(ncols) if r[j] != 0), None)
        if lead is None:
            if r[ncols] != 0:
                raise Infeasible()
            continue
        scale = r[lead]
        r = [x / scale for x in r]
        reduced.append((r[:ncols], r[ncols]))
        pivot_cols.append(lead)
    rows = [r for (r, _) in reduced]
    rhs = [v for (_, v) in reduced]
    m = len(rows)
    if m == 0:
        if any(x > 0 for x in c):
            # all-zero constraints: any x works, unbounded unless c <= 0
            raise Unbounded()
        return LPResult(Q(0), tuple([Q(0)] * ncols), (), ())
    # make rhs nonnegative
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-x for x in rows[i]]
            rhs[i] = -rhs[i]
    total = ncols + m  # structural + artificial
    tab = []
    for i in range(m):
        row = rows[i] + [Q(1) if j == i else Q(0) for j in range(m)] + [rhs[i]]
        tab.append(row)
    basis = [ncols + i for i in range(m)]
    # phase 1: maximize -sum(artificials)
    zrow = [Q(0)] * (total + 1)
    for i in range(m):
        for j in range(total + 1):
            zrow[j] += tab[i][j]
    for j in range(ncols, total):
        zrow[j] = Q(0)
    tab.append(zrow)
    _ref_run_simplex(tab, basis, total, allowed=set(range(ncols)))
    if tab[-1][-1] != 0:
        raise Infeasible()
    # pivot any artificial variables out of the basis
    for r in range(m):
        if basis[r] >= ncols:
            col = next((j for j in range(ncols) if tab[r][j] != 0), None)
            if col is None:
                continue  # fully redundant row (should not survive pre-reduction)
            _ref_pivot(tab, basis, r, col)
    tab.pop()
    # phase 2: maximize c
    zrow = [Q(0)] * (total + 1)
    for j in range(ncols):
        zrow[j] = to_q(c[j])
    for r in range(m):
        if basis[r] < ncols and zrow[basis[r]] != 0:
            factor = zrow[basis[r]]
            zrow = [x - factor * y for x, y in zip(zrow, tab[r])]
    tab.append(zrow)
    _ref_run_simplex(tab, basis, total, allowed=set(range(ncols)))
    x = [Q(0)] * ncols
    for r in range(m):
        if basis[r] < ncols:
            x[basis[r]] = tab[r][-1]
    value = sum((to_q(ci) * xi for ci, xi in zip(c, x)), Q(0))
    return LPResult(value, tuple(x), tuple(sorted(b_ for b_ in basis if b_ < ncols)), ())


def reference_signature(lattice):
    """Inertia (positive, negative, zero) by exact congruence diagonalization."""
    n = lattice.rank
    m = [[to_q(x) for x in row] for row in lattice.gram]
    pos = neg = zero = 0

    def sym_op(i, j, c):
        # row_i += c * row_j followed by the same column operation
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
        for row in m:
            row[i] = row[i] + c * row[j]

    def sym_swap(i, j):
        m[i], m[j] = m[j], m[i]
        for row in m:
            row[i], row[j] = row[j], row[i]

    k = 0
    end = n
    while k < end:
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, end) if m[i][i] != 0), None)
            if swap is not None:
                sym_swap(k, swap)
            else:
                off = next((j for j in range(k + 1, end) if m[k][j] != 0), None)
                if off is not None:
                    # all trailing diagonals vanish; e_k += e_off makes the
                    # new diagonal entry 2*m[k][off] != 0
                    sym_op(k, off, Q(1))
                else:
                    # radical direction: park it at the end and shrink
                    sym_swap(k, end - 1)
                    end -= 1
                    zero += 1
                    continue
        d = m[k][k]
        if d > 0:
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, end):
            if m[i][k] != 0:
                sym_op(i, k, -m[i][k] / d)
        k += 1
    return pos, neg, zero


def reference_isotropic_elements(lattice):
    """Isotropic discriminant elements by the Fraction form on every element."""
    group = discriminant_group(lattice)
    elements = {group.element(c) for c in itertools.product(*(range(f) for f in group.factors))}
    return sorted(x for x in elements if discriminant_quadratic(lattice, x) == 0)


def reference_isotropic_subgroups(lattice):
    """Isotropic subgroups, each closed by a search over isotropic vectors."""
    group = discriminant_group(lattice)
    iso = set(reference_isotropic_elements(lattice))
    zero = tuple([Q(0)] * lattice.rank)

    def close(generators):
        # subgroup generated inside the isotropic set, or None if it leaves it
        elems = {zero}
        frontier = [zero]
        while frontier:
            base = frontier.pop()
            for g in generators:
                s = group.canonical([a + b for a, b in zip(base, g)])
                if s not in elems:
                    if s not in iso:
                        return None
                    elems.add(s)
                    frontier.append(s)
        return frozenset(elems)

    subgroups = {frozenset({zero})}
    frontier = [frozenset({zero})]
    while frontier:
        h = frontier.pop()
        for g in iso:
            if g in h:
                continue
            extended = close(frozenset(h | {g}))
            if extended is not None and extended not in subgroups:
                subgroups.add(extended)
                frontier.append(extended)
    return sorted(subgroups, key=lambda h: (len(h), sorted(h)))


def reference_hermite_normal_form(rows):
    """Row-style HNF (nonzero rows, pivot-positive, reduced above pivots)."""
    m = [list(r) for r in rows]
    cols = len(m[0]) if m else 0
    pivot_row = 0
    for col in range(cols):
        pivot = None
        for r in range(pivot_row, len(m)):
            if m[r][col] != 0:
                pivot = r
                break
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


def reference_even_overlattices(lattice):
    """Overlattices of the Fraction closure search's subgroups, by the rational-rows HNF."""
    n = lattice.rank
    gram = [[Q(x) for x in row] for row in lattice.gram]
    out = []
    for subgroup in reference_isotropic_subgroups(lattice):
        rows = [[Q(int(i == j)) for j in range(n)] for i in range(n)] + [list(v) for v in subgroup]
        denom = lcm(*(x.denominator for row in rows for x in row))
        hnf = reference_hermite_normal_form([[int(x * denom) for x in row] for row in rows])
        basis = [[Q(x, denom) for x in row] for row in hnf]
        over = GramLattice(mat_mul(mat_mul(basis, gram), mat_transpose(basis)))
        out.append(Overlattice(over, tuple(tuple(row) for row in basis), tuple(sorted(subgroup))))
    return out


_REF_HOLDS = {
    ">": lambda v: v > 0,
    ">=": lambda v: v >= 0,
    "<": lambda v: v < 0,
    "<=": lambda v: v <= 0,
    "==": lambda v: v == 0,
}


def reference_integer_search_quadratic(form, comparison, box):
    """Every point of the box where ``form <comparison> 0``, tried one by one."""
    test = _REF_HOLDS[comparison]
    ranges = [range(box[v][0], box[v][1] + 1) for v in form.vars]
    terms = [(c if c.denominator != 1 else c.numerator, exp) for exp, c in form.coeffs.items()]
    out = []
    for point in itertools.product(*ranges):
        value = 0
        for c, exp in terms:
            term = c
            for x, e in zip(point, exp):
                if e:
                    term *= x**e
            value += term
        if test(value):
            out.append(point)
    return sorted(out)


_REF_NEGATED = {">": "<", ">=": "<=", "<": ">", "<=": ">=", "==": "=="}


def _ref_first(lo, hi, holds):
    """Least y in [lo, hi] with holds(y), for holds false then true; hi + 1 if none."""
    hi += 1
    while lo < hi:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def reference_row_runs(a, b, c, lo, hi, comparison):
    """Runs [s, e] of the integers y in [lo, hi] with a*y^2 + b*y + c <comparison> 0,
    split at the vertex."""
    if a == 0 and b == 0:
        return [(lo, hi)] if _REF_HOLDS[comparison](c) else []
    if a == 0:
        pieces = [(lo, hi, b > 0)]
    else:
        # strictly monotone on each side of the real vertex -b/2a
        vertex = -b // (2 * a)
        pieces = [(lo, min(hi, vertex), a < 0), (max(lo, vertex + 1), hi, a > 0)]
    runs = []
    for left, right, increasing in pieces:
        if left > right:
            continue
        sign, op = (1, comparison) if increasing else (-1, _REF_NEGATED[comparison])
        first_ge = _ref_first(left, right, lambda y: sign * ((a * y + b) * y + c) >= 0)
        first_gt = _ref_first(left, right, lambda y: sign * ((a * y + b) * y + c) > 0)
        start, end = {
            ">": (first_gt, right),
            ">=": (first_ge, right),
            "<": (left, first_ge - 1),
            "<=": (left, first_gt - 1),
            "==": (first_ge, first_gt - 1),
        }[op]
        if start <= end:
            runs.append((start, end))
    return runs


def _ref_cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _ref_dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _ref_sub(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _ref_primitive(n):
    denoms = [x.denominator for x in n]
    lcm_ = 1
    for d in denoms:
        lcm_ = lcm_ * d // gcd(lcm_, d)
    ints = [int(x * lcm_) for x in n]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    return tuple(Q(x // g) for x in ints)


def reference_facets(vertices):
    """Facets of the hull of 3-vectors of Fractions, every triple tried in Fractions."""
    seen = {}
    for a, b, c in itertools.combinations(vertices, 3):
        n = _ref_cross(_ref_sub(b, a), _ref_sub(c, a))
        if all(x == 0 for x in n):
            continue
        n = _ref_primitive(n)
        offset = _ref_dot(n, a)
        sides = {0}
        for p in vertices:
            d = _ref_dot(n, p) - offset
            sides.add(0 if d == 0 else (1 if d > 0 else -1))
            if {1, -1} <= sides:
                break
        if {1, -1} <= sides:
            continue
        if 1 in sides:
            n = tuple(-x for x in n)
            offset = -offset
        key = (n, offset)
        if key not in seen:
            seen[key] = [p for p in vertices if _ref_dot(n, p) == offset]
    return tuple(Facet(normal=n, offset=c, vertices=tuple(sorted(pts))) for (n, c), pts in sorted(seen.items()))


def reference_polytope(points):
    """(vertices, facets) of the hull: a point is extreme iff the Fraction
    rank of the facet normals through it is 3."""
    pts = sorted({tuple(Q(x) for x in p) for p in points})
    facets = reference_facets(tuple(pts))
    vertices = []
    for p in pts:
        normals = [list(f.normal) for f in facets if _ref_dot(f.normal, p) == f.offset]
        if len(normals) >= 3 and reference_rank(normals) == 3:
            vertices.append(p)
    kept = set(vertices)
    return tuple(vertices), tuple(Facet(f.normal, f.offset, tuple(v for v in f.vertices if v in kept)) for f in facets)


def reference_volume_barycenter(points):
    """(volume, barycenter) of the hull of rational 3-points, from Qhull's facet triangles.

    Each boundary triangle of ``scipy.spatial.ConvexHull`` is coned from the
    exact average of the points, which is interior, and the tetrahedra's
    volumes and weighted centroids are summed in Fractions.
    """
    from scipy.spatial import ConvexHull

    pts = [tuple(Q(x) for x in p) for p in points]
    apex = tuple(sum(p[i] for p in pts) / len(pts) for i in range(3))
    total, moment = Q(0), (Q(0), Q(0), Q(0))
    for tri in ConvexHull([[float(x) for x in p] for p in pts]).simplices:
        a, b, c = (pts[i] for i in tri)
        vol = abs(_ref_dot(_ref_sub(a, apex), _ref_cross(_ref_sub(b, apex), _ref_sub(c, apex)))) / 6
        total += vol
        moment = tuple(m + vol * (apex[i] + a[i] + b[i] + c[i]) / 4 for i, m in enumerate(moment))
    return total, tuple(m / total for m in moment)


def reference_ordered_facet_vertices(f):
    """Vertices of a facet polygon in rotational order, sorted by Fraction cross products."""
    pts = list(f.vertices)
    centroid = tuple(sum(p[i] for p in pts) / len(pts) for i in range(3))
    rel = {p: _ref_sub(p, centroid) for p in pts}
    ref = rel[pts[0]]

    def half(v):
        c = _ref_dot(f.normal, _ref_cross(ref, v))
        if c > 0:
            return 0
        if c < 0:
            return 1
        return 0 if _ref_dot(ref, v) > 0 else 1

    def compare(a, b):
        va, vb = rel[a], rel[b]
        ha, hb = half(va), half(vb)
        if ha != hb:
            return -1 if ha < hb else 1
        c = _ref_dot(f.normal, _ref_cross(va, vb))
        if c == 0:
            return 0
        return -1 if c > 0 else 1

    return sorted(pts, key=cmp_to_key(compare))


# -- the chamber layer before its coefficient-vector kernel --------------------


class RefCert(NamedTuple):
    kind: str
    label: str
    poly: Polynomial


def reference_pair_poly(surface, a, b):
    """Bilinear pairing where either argument may hold polynomials."""
    total = None
    r = surface.rank
    for i in range(r):
        for j in range(r):
            g = surface.gram[i][j]
            if g == 0:
                continue
            term = a[i] * b[j] * g
            total = term if total is None else total + term
    return Q(0) if total is None else total


def _ref_as_poly(x):
    return x if isinstance(x, Polynomial) else Polynomial.constant(x)


def reference_symbolic_decomposition(surface, d_polys, support):
    """Positive part and certificates for a fixed support, by Polynomial products."""
    support = list(support)
    curves = [surface.negative_curves[label] for label in support]
    certs = []
    if support:
        gram = [[surface.pair(a, b) for b in curves] for a in curves]
        if not reference_is_negative_definite(gram):
            raise IndefiniteSupport(f"support {support} has an indefinite Gram matrix")
        inv = reference_mat_inverse(gram)
        rhs = [reference_pair_poly(surface, d_polys, c) for c in curves]
        nus = []
        for i in range(len(support)):
            total = None
            for j in range(len(support)):
                term = rhs[j] * inv[i][j]
                total = term if total is None else total + term
            nus.append(total)
        positive = list(d_polys)
        for nu, curve in zip(nus, curves):
            positive = [p - nu * c for p, c in zip(positive, curve)]
        positive = tuple(positive)
        for label, nu in zip(support, nus):
            certs.append(RefCert("mult", label, nu))
    else:
        positive = tuple(d_polys)
    for label in sorted(surface.negative_curves):
        certs.append(
            RefCert("nef", label, _ref_as_poly(reference_pair_poly(surface, positive, surface.negative_curves[label])))
        )
    return positive, certs


def _ref_pair_curve(surface, vec, label):
    return surface.pair(vec, surface.negative_curves[label])


def _ref_solve_support(surface, d, support):
    curves = [surface.negative_curves[label] for label in support]
    gram = [[_ref_pair_curve(surface, a, label) for label in support] for a in curves]
    if not reference_is_negative_definite(gram):
        raise IndefiniteSupport(f"support {support} has an indefinite Gram matrix")
    inv = reference_mat_inverse(gram)
    rhs = [_ref_pair_curve(surface, d, label) for label in support]
    nu = [sum((inv[i][j] * rhs[j] for j in range(len(rhs))), Q(0)) for i in range(len(rhs))]
    return dict(zip(support, nu))


def reference_decompose(surface, d):
    """Iterative Zariski decomposition, re-pairing the whole current class each round."""
    support = []
    nu = {}
    while True:
        current = d
        for label in support:
            current = tuple(x - nu[label] * y for x, y in zip(current, surface.negative_curves[label]))
        violators = sorted(
            label
            for label in surface.negative_curves
            if label not in support and _ref_pair_curve(surface, current, label) < 0
        )
        if not violators:
            break
        support = sorted(support + violators)
        nu = _ref_solve_support(surface, d, support)
    positive = d
    for label in support:
        positive = tuple(x - nu[label] * y for x, y in zip(positive, surface.negative_curves[label]))
    for label, coeff in nu.items():
        if coeff < 0:
            raise InvalidModel(
                f"negative multiplicity {coeff} on {label}: the declared curve "
                "list is not a genuine configuration of irreducible negative curves"
            )
    gram = tuple(
        tuple(surface.pair(surface.negative_curves[a], surface.negative_curves[b]) for b in support)
        for a in support
    )
    return ZariskiResult(
        positive=positive,
        negative=tuple((label, nu[label]) for label in support),
        support=tuple(support),
        support_gram=gram,
    )


def reference_triple_product(model, a, b, c):
    """Full symmetric contraction; entries may be rationals or polynomials."""
    r = model.rank
    a, b, c = list(a), list(b), list(c)
    if len(a) != r or len(b) != r or len(c) != r:
        raise InvalidModel("class vectors must match the basis size")
    total = None
    for i in range(r):
        for j in range(r):
            for k in range(r):
                coeff = model.triple.get(tuple(sorted((i, j, k))), 0)
                if coeff == 0:
                    continue
                term = a[i] * b[j] * c[k] * coeff
                total = term if total is None else total + term
    if total is None:
        return Q(0)
    return total


# -- the flag threshold before basis verification -------------------------------


def _ref_threshold_at(a_vecs, minus_z, gens, t):
    a_t = tuple(c + s * t for c, s in zip(*a_vecs))
    try:
        return max_shift(a_t, minus_z, gens).value
    except Infeasible:
        raise NotPseudoEffective(f"family leaves the effective cone at {t}") from None


def reference_parametric_threshold(a_vecs, minus_z, gens, tau_mid, t_lo, t_hi):
    """tau(t) = tau0 + tau1*t, by a three-point concavity argument.

    The feasible region {(t, s) : A(t) - sZ effective} is convex because A
    is affine, so tau is concave on the chamber.  A concave function that
    meets the endpoint chord at the midpoint as well equals the chord on
    the whole interval (the difference is concave, >= 0 by the chord bound
    and <= 0 by the three-point bound).  When the midpoint value leaves the
    chord, tau has a kink; the two half-chords locate it exactly and the
    chamber is split there.
    """
    mid = (t_lo + t_hi) / 2
    tau_lo = _ref_threshold_at(a_vecs, minus_z, gens, t_lo)
    tau_hi = _ref_threshold_at(a_vecs, minus_z, gens, t_hi)
    slope = (tau_hi - tau_lo) / (t_hi - t_lo)
    if tau_lo + slope * (mid - t_lo) == tau_mid:
        return (tau_lo - slope * t_lo, slope)
    # kink: intersect the chords through (lo, mid) and (mid, hi)
    left_slope = (tau_mid - tau_lo) / (mid - t_lo)
    right_slope = (tau_hi - tau_mid) / (t_hi - mid)
    if left_slope == right_slope:
        raise _SplitRequest([mid])
    kink = (
        (tau_mid - right_slope * mid) - (tau_lo - left_slope * t_lo)
    ) / (left_slope - right_slope)
    if t_lo < kink < t_hi:
        raise _SplitRequest([kink])
    raise _SplitRequest([mid])


# -- rank-2 cone membership with no LP -------------------------------------------


def reference_in_rank2_cone(gens, v):
    """Whether the rank-2 class v is a nonnegative combination of gens (Caratheodory)."""
    v = [Q(x) for x in v]
    if v == [0, 0]:
        return True
    for g in gens:
        if g[0] * v[1] == g[1] * v[0] and g[0] * v[0] + g[1] * v[1] > 0:
            return True
    for g, h in itertools.combinations(gens, 2):
        det = Q(g[0] * h[1] - g[1] * h[0])
        if det and (v[0] * h[1] - v[1] * h[0]) / det >= 0 and (g[0] * v[1] - g[1] * v[0]) / det >= 0:
            return True
    return False
