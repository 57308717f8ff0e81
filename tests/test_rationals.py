"""The fraction-free elimination kernel behind kstab.rationals, and the
denominator-clearing rule every integer layer starts from.

``scaled`` and ``common`` are pinned by their contract alone: every value
comes back, and the denominator is the least positive one, which for
integer numerators n over D means gcd(D, n...) = 1 (a common factor g > 1
would leave D/g a smaller denominator, and any D that clears the values is
a multiple of the least one).  Three routes pin the elimination: the
engine's original separate Gaussian eliminations, frozen in ``oracles`` (a
hypothesis differential test), sympy's ``Matrix`` (det, rank, inverse and
solve), and hand-made edge cases: a zero leading pivot, on which row 0
pivots on column 1, the empty matrix, singular matrices, an inconsistent
system, a rank-deficient one and malformed matrices.  The kernel itself
is pinned pivot by pivot to its earlier form, also frozen in ``oracles``:
the same tableau, basis and denominator after every pivot, and the same
error on an inexact one.
"""

from fractions import Fraction as Q
from functools import reduce
from math import gcd

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from kstab.errors import InvalidModel, InvariantViolation
from kstab.rationals import (
    _pivot,
    common,
    det,
    is_negative_definite,
    mat_inverse,
    rank,
    scaled,
    solve_each,
    solve_general,
    solve_negative_definite,
)
from oracles import (
    reference_det,
    reference_fraction_free_pivot,
    reference_is_negative_definite,
    reference_mat_inverse,
    reference_rank,
    reference_solve_general,
)

entries = st.one_of(st.just(Q(0)), st.builds(Q, st.integers(-6, 6), st.integers(1, 4)))


@st.composite
def matrices(draw, square=False, max_size=5):
    rows = draw(st.integers(0, max_size))
    cols = rows if square else draw(st.integers(1, max_size))
    return draw(st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows))


@st.composite
def grams(draw):
    """Symmetric matrices, half of them -A*A^T (negative semidefinite, often definite)."""
    a = draw(matrices(square=True))
    if draw(st.booleans()):
        return [[-sum((x * y for x, y in zip(u, v)), Q(0)) for v in a] for u in a]
    return [[a[min(i, j)][max(i, j)] for j in range(len(a))] for i in range(len(a))]


def _mat_vec(m, v):
    return tuple(sum((x * y for x, y in zip(row, v)), Q(0)) for row in m)


def _sym(a):
    return sympy.Matrix(len(a), len(a[0]) if a else 0, [sympy.Rational(x.numerator, x.denominator) for row in a for x in row])


def _q(x):
    x = sympy.Rational(x)
    return Q(int(x.p), int(x.q))


class TestAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(matrices(square=True))
    def test_det_and_inverse(self, a):
        assert det(a) == reference_det(a)
        assert mat_inverse(a) == reference_mat_inverse(a)

    @settings(max_examples=200, deadline=None)
    @given(matrices(), st.data())
    def test_rank_and_solve(self, a, data):
        b = data.draw(st.lists(entries, min_size=len(a), max_size=len(a)))
        assert rank(a) == reference_rank(a)
        assert solve_general(a, b) == reference_solve_general(a, b)

    @settings(max_examples=200, deadline=None)
    @given(matrices(), st.data())
    def test_solve_each(self, a, data):
        rhs = data.draw(st.lists(st.lists(entries, min_size=len(a), max_size=len(a)), max_size=3))
        sols = [reference_solve_general(a, b) for b in rhs]
        assert solve_each(a, rhs) == (None if None in sols else sols)

    @settings(max_examples=200, deadline=None)
    @given(grams(), st.data())
    def test_negative_definite_solve(self, gram, data):
        n = len(gram)
        rhs = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n), max_size=3))
        definite = reference_is_negative_definite(gram)
        assert is_negative_definite(gram) == definite
        sols = _solved(gram, rhs)
        if definite:
            inv = reference_mat_inverse(gram)
            assert sols == [_mat_vec(inv, b) for b in rhs]
        else:
            assert sols is None


def _solved(gram, rhs):
    """solve_negative_definite's integer numerators over their positive denominator, as Fractions."""
    sols = solve_negative_definite(gram, rhs)
    if sols is None:
        return None
    nums, den = sols
    assert den > 0 and all(type(x) is int for y in nums for x in y)
    return [tuple(Q(x, den) for x in y) for y in nums]


class TestAgainstSympy:
    @settings(max_examples=100, deadline=None)
    @given(matrices(square=True))
    def test_det_and_inverse(self, a):
        m = _sym(a)
        assert det(a) == _q(m.det())
        inv = mat_inverse(a)
        if m.det() == 0:
            assert inv is None
        else:
            assert inv == [[_q(x) for x in m.inv().row(i)] for i in range(len(a))]

    @settings(max_examples=100, deadline=None)
    @given(matrices(), st.data())
    def test_rank_and_solve(self, a, data):
        if not a:
            return
        b = data.draw(st.lists(entries, min_size=len(a), max_size=len(a)))
        m = _sym(a)
        assert rank(a) == m.rank()
        x = solve_general(a, b)
        try:
            sol, params = m.gauss_jordan_solve(_sym([[y] for y in b]))
        except ValueError:  # inconsistent
            assert x is None
            return
        # sympy's free parameters are the non-pivot columns; set them to 0
        sol = sol.subs({p: 0 for p in params})
        assert x == tuple(_q(y) for y in sol)


class TestEdgeCases:
    def test_zero_leading_pivot_forces_a_swap(self):
        a = [[Q(0), Q(-1)], [Q(-1), Q(-1)]]
        assert det(a) == -1
        assert rank(a) == 2
        assert mat_inverse(a) == [[1, -1], [-1, 0]]
        assert solve_general(a, [Q(2), Q(3)]) == (-1, -2)
        # no swap: the first leading minor is 0, so row 0 pivots on column 1
        # and row 1 on column 0, both on -1; only the column order shows
        # that it is not definite
        assert not is_negative_definite(a)
        assert solve_negative_definite(a, [[Q(2), Q(3)]]) is None

    def test_zero_pivot_further_down(self):
        gram = [[Q(-1), Q(0), Q(0)], [Q(0), Q(0), Q(1)], [Q(0), Q(1), Q(-1)]]
        assert det(gram) == 1
        assert not is_negative_definite(gram)

    def test_negative_definite_solve(self):
        gram = [[Q(-2), Q(1)], [Q(1), Q(-2)]]
        assert is_negative_definite(gram)
        assert _solved(gram, [[Q(1), Q(0)], [Q(0), Q(3)]]) == [
            (Q(-2, 3), Q(-1, 3)),
            (Q(-1), Q(-2)),
        ]
        assert not is_negative_definite([[Q(2), Q(1)], [Q(1), Q(-2)]])

    def test_empty_matrix(self):
        assert det([]) == 1
        assert rank([]) == 0
        assert mat_inverse([]) == []
        assert solve_general([], []) == ()
        assert is_negative_definite([])
        assert _solved([], [[]]) == [()]

    @pytest.mark.parametrize(
        "a",
        [
            [[Q(0), Q(0)], [Q(0), Q(0)]],
            [[Q(1), Q(2)], [Q(2), Q(4)]],
            [[Q(0), Q(0)], [Q(0), Q(-1)]],
            [[Q(1, 2), Q(1, 3), Q(1)], [Q(1), Q(2, 3), Q(2)], [Q(0), Q(1), Q(5)]],
        ],
    )
    def test_singular(self, a):
        assert det(a) == 0
        assert rank(a) < len(a)
        assert mat_inverse(a) is None
        assert not is_negative_definite(a)
        assert solve_negative_definite(a, [[Q(0)] * len(a)]) is None

    def test_inconsistent_system(self):
        assert solve_general([[Q(1), Q(1)], [Q(2), Q(2)]], [Q(1), Q(3)]) is None
        assert solve_general([[Q(0), Q(0)]], [Q(1)]) is None

    def test_rank_deficient_system_sets_free_variables_to_zero(self):
        # x0 + 2x1 + x3 = 3 and 2x0 + 4x1 + x2 + 3x3 = 7: pivots in columns 0 and 2
        a = [[Q(1), Q(2), Q(0), Q(1)], [Q(2), Q(4), Q(1), Q(3)], [Q(3), Q(6), Q(1), Q(4)]]
        b = [Q(3), Q(7), Q(10)]
        assert rank(a) == 2
        assert solve_general(a, b) == (3, 0, 1, 0)
        # wide and tall systems
        assert solve_general([[Q(0), Q(2), Q(4)]], [Q(1)]) == (0, Q(1, 2), 0)
        assert solve_general([[Q(1)], [Q(2)], [Q(3)]], [Q(1, 3), Q(2, 3), Q(1)]) == (Q(1, 3),)


class TestMalformed:
    @pytest.mark.parametrize("a", [[[1, 2]], [[1, 2], [3]], [[]], [[1], [2, 3]]])
    def test_det_needs_a_square_matrix(self, a):
        with pytest.raises(InvalidModel, match="square"):
            det([[Q(x) for x in row] for row in a])

    @pytest.mark.parametrize("a", [[[1, 2], [3]], [[1], [2, 3]], [[], [1]]])
    def test_rank_needs_rows_of_one_length(self, a):
        with pytest.raises(InvalidModel, match="one length"):
            rank([[Q(x) for x in row] for row in a])

    def test_the_empty_cases_stand(self):
        assert det([]) == 1
        assert rank([]) == rank([[]]) == rank([[], []]) == 0


@st.composite
def pivot_runs(draw):
    """An integer tableau over D = 1 and pivot positions; each is taken when its entry is nonzero."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    tab = draw(st.lists(st.lists(st.integers(-5, 5), min_size=n, max_size=n), min_size=m, max_size=m))
    return tab, draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, n - 1)), max_size=8))


def _run_both(tab, pivots):
    """Each pivot by both kernels on copies of tab from D = 1, compared after each; returns the (p, D) pivoted on."""
    ours, ref = [list(row) for row in tab], [list(row) for row in tab]
    basis, ref_basis = list(range(len(tab))), list(range(len(tab)))
    denom = ref_denom = 1
    met = []
    for row, col in pivots:
        if not ours[row][col]:
            continue
        met.append((ours[row][col], denom))
        denom = _pivot(ours, basis, denom, row, col)
        ref_denom = reference_fraction_free_pivot(ref, ref_basis, ref_denom, row, col)
        assert (ours, basis, denom) == (ref, ref_basis, ref_denom)
    return met


class TestFrozenKernel:
    @settings(max_examples=300, deadline=None)
    @given(pivot_runs())
    def test_every_pivot_matches_the_frozen_kernel(self, run):
        _run_both(*run)

    def test_every_kind_of_pivot_matches(self):
        tab = [[1, 2, 0, 1], [0, -1, 3, 2], [2, 0, 5, 1]]
        # p = 1 over D = 1, then -1 over 1, -7 over 1, 7 over 7 and 13 over 7
        met = _run_both(tab, [(0, 0), (1, 1), (2, 2), (0, 0), (1, 3)])
        assert met == [(1, 1), (-1, 1), (-7, 1), (7, 7), (13, 7)]
        # a row with f = 0 under |p| = D keeps its list: x*p // D is x
        row = tab[1]
        assert _pivot(tab, [0, 1, 2], 1, 0, 0) == 1
        assert tab[1] is row and tab[1] == [0, -1, 3, 2]

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.lists(st.integers(-6, 6), min_size=3, max_size=3), min_size=1, max_size=4),
        st.integers(1, 6),
        st.data(),
    )
    @example([[2, 1], [1, 1]], 3, None)
    def test_an_inexact_pivot_fails_the_same_way(self, tab, denom, data):
        # any tableau over any D: both kernels raise on the same row, or return the same
        entries = [(r, c) for r, row in enumerate(tab) for c, x in enumerate(row) if x]
        if not entries:
            return
        row, col = (0, 0) if data is None else data.draw(st.sampled_from(entries))
        ours, ref = [list(r) for r in tab], [list(r) for r in tab]
        basis, ref_basis = list(range(len(tab))), list(range(len(tab)))
        try:
            got = _pivot(ours, basis, denom, row, col)
        except InvariantViolation as e:
            got = str(e)
        try:
            want = reference_fraction_free_pivot(ref, ref_basis, denom, row, col)
        except InvariantViolation as e:
            want = str(e)
        assert (got, ours, basis) == (want, ref, ref_basis)
        if data is None:
            assert got == "inexact fraction-free pivot: row 1 is not divisible by 3"


class TestClearingDenominators:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.integers(-50, 50), st.fractions(-20, 20, max_denominator=30)), max_size=8))
    def test_scaled(self, values):
        ints, den = scaled(values)
        assert den > 0 and all(type(x) is int for x in ints)
        assert [Q(x, den) for x in ints] == [Q(v) for v in values]
        assert gcd(den, *ints) == 1
        if all(type(v) is int for v in values):
            assert (ints, den) == (values, 1)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.lists(st.integers(-50, 50), min_size=3, max_size=3), st.integers(1, 30)), max_size=5))
    def test_common(self, parts):
        vectors, den = common(parts)
        assert [[Q(x, den) for x in v] for v in vectors] == [[Q(x, d) for x in v] for v, d in parts]
        # the least common multiple, folded pairwise as x*y/gcd(x, y)
        assert den == reduce(lambda x, y: x * y // gcd(x, y), (d for _, d in parts), 1)
        if all(gcd(d, *v) == 1 for v, d in parts):
            assert gcd(den, *(x for v in vectors for x in v)) == 1

    def test_strings_and_empty_input(self):
        assert scaled(["1/2", Q(2, 3), 4]) == ([3, 4, 24], 6)
        assert scaled([]) == ([], 1)
        assert common([]) == ([], 1)
        assert common([([1, 2], 2), ([3], 3), ([], 1)]) == ([[3, 6], [6], []], 6)
