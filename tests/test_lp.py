"""Exact simplex tests against hand-solved cone problems, and a differential
test of the integer-tableau solver against the reference simplex over
Fractions in ``oracles``."""

from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings, strategies as st

from kstab import lp
from kstab.errors import InvariantViolation, KstabError
from kstab.lp import Infeasible, LPResult, Unbounded, _pivot, in_cone, max_shift, solve_equality_lp
from oracles import reference_solve_equality_lp


class TestSimplex:
    def test_simple_max(self):
        # max x + y st x + 2y = 4, x,y >= 0 -> x=4
        res = solve_equality_lp([[1, 2]], [4], [1, 1])
        assert res.value == 4

    def test_infeasible(self):
        with pytest.raises(Infeasible):
            solve_equality_lp([[1, 1], [1, 1]], [1, 2], [0, 0])

    def test_redundant_rows_ok(self):
        res = solve_equality_lp([[1, 1], [2, 2]], [1, 2], [1, 0])
        assert res.value == 1

    def test_unbounded(self):
        with pytest.raises(Unbounded):
            solve_equality_lp([[1, -1]], [0], [1, 0])


class TestCone:
    def test_membership(self):
        gens = [(1, 0), (0, 1)]
        assert in_cone(gens, (3, 2)) is not None
        assert in_cone(gens, (-1, 2)) is None

    def test_membership_nontrivial(self):
        gens = [(1, 1), (1, -1)]
        coeffs = in_cone(gens, (2, 0))
        assert coeffs == (1, 1)
        assert in_cone(gens, (0, 1)) is None

    def test_empty_generator_list(self):
        assert in_cone([], (0, 0)) == ()
        assert in_cone([], (1, 0)) is None

    def test_max_shift_orthant(self):
        # (3,2) - s(1,1) stays in the positive orthant until s = 2
        res = max_shift((3, 2), (-1, -1), [(1, 0), (0, 1)])
        assert res.value == 2

    def test_max_shift_unbounded(self):
        with pytest.raises(Unbounded):
            max_shift((1, 1), (1, 0), [(1, 0), (0, 1)])

    def test_max_shift_rational_answer(self):
        # (4,-1)-type threshold: 4 - s*1 >= 0 paired against gen (2,1)
        res = max_shift((4, 6), (-2, -1), [(1, 0), (0, 1)])
        assert res.value == 2
        res = max_shift((4, 6), (-3, -1), [(1, 0), (0, 1)])
        assert res.value == Q(4, 3)


class TestIntegerTableau:
    def test_inexact_pivot_raises(self):
        # a pivot on 2 over the denominator 3 leaves the second row 2*1 - 1*1 = 1,
        # which 3 does not divide: a broken tableau, reported as an error
        with pytest.raises(InvariantViolation):
            _pivot([[2, 1], [1, 1]], [0, 1], 3, 0, 0)
        assert issubclass(InvariantViolation, KstabError)

    def test_negative_drive_out_pivot(self, monkeypatch):
        # x + y = 2, -2x = 0: after phase 1 an artificial is still basic at
        # zero and leaves through the entry -2; the tableau is negated so the
        # answer is still read over a positive denominator
        seen = []

        def spy(tab, basis, denom, row, col):
            seen.append(tab[row][col])
            return _pivot(tab, basis, denom, row, col)

        monkeypatch.setattr(lp, "_pivot", spy)
        a, b, c = [[1, 1], [-2, 0]], [2, 0], [1, 1]
        res = solve_equality_lp(a, b, c)
        assert min(seen) < 0
        assert res == LPResult(Q(2), (Q(0), Q(2)), (0, 1))
        assert res == reference_solve_equality_lp(a, b, c)


entries = st.one_of(st.just(Q(0)), st.fractions(min_value=-5, max_value=5, max_denominator=4))


@st.composite
def small_lps(draw):
    """LPs with 1-4 rows and 1-6 columns, with zero columns, dependent or
    inconsistent rows, and zero right-hand sides mixed in."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 6))
    a = [[draw(entries) for _ in range(n)] for _ in range(m)]
    b = [draw(entries) for _ in range(m)]
    for j in draw(st.sets(st.integers(0, n - 1), max_size=2)):
        for row in a:
            row[j] = Q(0)
    if m > 1 and draw(st.booleans()):
        # a combination of two other rows; its right-hand side is consistent or not
        order = draw(st.permutations(range(m)))
        i, k, l = order[0], order[1], order[-1]
        f, g = draw(entries), draw(entries)
        a[i] = [f * x + g * y for x, y in zip(a[k], a[l])]
        b[i] = f * b[k] + g * b[l] + draw(st.sampled_from([Q(0), Q(0), Q(1)]))
    for i in draw(st.sets(st.integers(0, m - 1), max_size=m)):
        b[i] = Q(0)
    c = [draw(entries) for _ in range(n)]
    return a, b, c


def _outcome(solver, a, b, c):
    try:
        return solver(a, b, c)
    except (Infeasible, Unbounded) as exc:
        return type(exc)


@settings(max_examples=250, deadline=None)
@given(small_lps())
# degenerate: rows weighted otherwise in phase 1 end in the basis (0, 2, 3)
@example(([[4, 4, 4, 0], [Q(-4, 3), 0, -1, Q(-2, 3)], [Q(-1, 2), 0, 0, 0]], [0, 0, 0], [Q(1, 2), -1, Q(-2, 3), 0]))
def test_matches_fraction_reference(problem):
    a, b, c = problem
    got = _outcome(solve_equality_lp, a, b, c)
    assert got == _outcome(reference_solve_equality_lp, a, b, c)
    if isinstance(got, LPResult):
        assert all(x >= 0 for x in got.x)
        assert all(sum(aij * xj for aij, xj in zip(row, got.x)) == bi for row, bi in zip(a, b))
        assert got.value == sum(cj * xj for cj, xj in zip(c, got.x))
