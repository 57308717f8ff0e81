"""The fraction-free elimination kernel behind kstab.rationals.

Three routes pin it: the engine's original separate Gaussian eliminations,
frozen in ``oracles`` (a hypothesis differential test), sympy's ``Matrix``
(det, rank, inverse and solve), and hand-made edge cases: a zero leading
pivot that forces a row swap, the empty matrix, singular matrices, an
inconsistent system and a rank-deficient one.
"""

from fractions import Fraction as Q

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from kstab.rationals import (
    det,
    is_negative_definite,
    mat_inverse,
    rank,
    solve_each,
    solve_general,
    solve_negative_definite,
)
from oracles import (
    reference_det,
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
        # the first leading minor is 0; after the swap the pivots are -1
        # and 1, which alternate, so only the swap shows it is not definite
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
