"""Exact simplex tests against hand-solved cone problems, a differential
test of the integer-tableau solver against the reference Bland simplex over
Fractions in ``oracles``, and tests of the certificates every answer carries:
each is rechecked here over Fractions, and a solver that hands over a broken
one is stopped by ``InvariantViolation``."""

from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings, strategies as st

from kstab import lp
from kstab.errors import InvalidModel, InvariantViolation, KstabError
from kstab.lp import Infeasible, Unbounded, _pivot, _run_simplex, in_cone, max_shift, solve_equality_lp
from oracles import reference_solve_equality_lp


def _dot(u, v):
    return sum((Q(x) * Q(y) for x, y in zip(u, v, strict=True)), Q(0))


def _cols(a):
    return [list(col) for col in zip(*a)]


def check_optimum(a, b, c, res):
    """x >= 0, a*x = b and c*x = value; the dual y has y*a >= c and y*b = value."""
    assert all(x >= 0 for x in res.x)
    assert all(_dot(row, res.x) == bi for row, bi in zip(a, b))
    assert res.value == _dot(c, res.x)
    assert all(_dot(res.dual, col) >= cj for col, cj in zip(_cols(a), c))
    assert _dot(res.dual, b) == res.value


def check_farkas(a, b, exc):
    """y*a >= 0 and y*b < 0: no x >= 0 can solve a*x = b."""
    y = exc.farkas
    assert all(_dot(y, col) >= 0 for col in _cols(a))
    assert _dot(y, b) < 0


def check_ray(a, c, exc):
    """r >= 0, a*r = 0 and c*r > 0: the objective grows without bound."""
    r = exc.ray
    assert all(x >= 0 for x in r)
    assert all(_dot(row, r) == 0 for row in a)
    assert _dot(c, r) > 0


def solve_checked(a, b, c):
    """solve_equality_lp with its certificate rechecked here; the outcome as in ``_outcome``."""
    try:
        res = solve_equality_lp(a, b, c)
    except Infeasible as exc:
        check_farkas(a, b, exc)
        return Infeasible
    except Unbounded as exc:
        check_ray(a, c, exc)
        return Unbounded
    check_optimum(a, b, c, res)
    return res.value


class TestSimplex:
    def test_simple_max(self):
        # max x + y st x + 2y = 4, x,y >= 0 -> x=4
        res = solve_equality_lp([[1, 2]], [4], [1, 1])
        assert res.value == 4
        assert res.dual == (1,)

    def test_infeasible(self):
        with pytest.raises(Infeasible):
            solve_equality_lp([[1, 1], [1, 1]], [1, 2], [0, 0])
        # the reduction finds 0 = 1: the certificate is its row combination
        assert solve_checked([[1, 1], [1, 1]], [1, 2], [0, 0]) is Infeasible

    def test_infeasible_in_phase_1(self):
        # x - y = 1 and x + y = -3 have the one solution x = -1, y = -2
        assert solve_checked([[1, -1], [1, 1]], [1, -3], [0, 0]) is Infeasible

    def test_redundant_rows_ok(self):
        res = solve_equality_lp([[1, 1], [2, 2]], [1, 2], [1, 0])
        assert res.value == 1

    def test_unbounded(self):
        with pytest.raises(Unbounded):
            solve_equality_lp([[1, -1]], [0], [1, 0])
        assert solve_checked([[1, -1]], [0], [1, 0]) is Unbounded

    def test_all_zero_rows(self):
        assert solve_checked([[0, 0], [0, 0]], [0, 0], [1, 0]) is Unbounded
        assert solve_checked([[0, 0]], [0], [-1, 0]) == 0


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
        # the dual is the functional (1/3, 0): 1/3 on (3, 1), >= 0 on both
        # generators, and 4/3 on the base
        assert res.dual == (Q(1, 3), 0)


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
        assert (res.value, res.x, res.basis) == (Q(2), (Q(0), Q(2)), (0, 1))
        assert res.value == reference_solve_equality_lp(a, b, c).value
        check_optimum(a, b, c, res)


# Beale's example (1955): max 3/4 x4 - 20 x5 + 1/2 x6 - 6 x7 subject to
# 1/4 x4 - 8 x5 - x6 + 9 x7 <= 0, 1/2 x4 - 12 x5 - 1/2 x6 + 3 x7 <= 0 and
# x6 <= 1, with slacks x1, x2, x3 (columns 0-2; x4..x7 are columns 3-6).
# From the slack basis, Dantzig's rule with ties to the lowest index cycles
# through six degenerate bases; the optimum is 5/4 at x4 = x6 = 1.
BEALE_A = [
    [1, 0, 0, Q(1, 4), -8, -1, 9],
    [0, 1, 0, Q(1, 2), -12, Q(-1, 2), 3],
    [0, 0, 1, 0, 0, 1, 0],
]
BEALE_B = [0, 0, 1]
BEALE_C = [0, 0, 0, Q(3, 4), -20, Q(1, 2), -6]


class TestPricing:
    def test_dantzig_enters_the_largest_reduced_cost(self, monkeypatch):
        # max x0 + 2*x1 with x0 + x1 + x2 = 4 from the slack basis: Dantzig's
        # rule enters x1 and is done in one pivot; Bland's would enter x0 first
        entered = []

        def spy(tab, basis, denom, row, col):
            entered.append(col)
            return _pivot(tab, basis, denom, row, col)

        monkeypatch.setattr(lp, "_pivot", spy)
        tab = [[1, 1, 1, 4], [1, 2, 0, 0]]
        denom, col = _run_simplex(tab, [2], 1, 3)
        assert (col, entered) == (None, [1])
        assert Q(-tab[-1][-1], denom) == 8


class TestAntiCycling:
    def test_beale_from_the_slack_basis(self):
        # the tableau T/D with D = 32 clears every minor's denominator (4 * 2 * 1 * 4)
        denom = 32
        tab = [[int(denom * Q(x)) for x in row] + [denom * bi] for row, bi in zip(BEALE_A, BEALE_B)]
        tab.append([int(denom * Q(x)) for x in BEALE_C] + [0])
        basis = [0, 1, 2]
        denom, col = _run_simplex(tab, basis, denom, 7)
        assert col is None
        assert Q(-tab[-1][-1], denom) == Q(5, 4)

    def test_beale_through_the_solver(self):
        res = solve_equality_lp(BEALE_A, BEALE_B, BEALE_C)
        assert res.value == Q(5, 4)
        check_optimum(BEALE_A, BEALE_B, BEALE_C, res)


class TestCertificateMutants:
    """Each certificate kind, corrupted on its way out, is caught."""

    def _mutate(self, monkeypatch, name, change):
        real = getattr(lp, name)

        def mutant(*args):
            args = list(args)
            change(args)
            return real(*args)

        monkeypatch.setattr(lp, name, mutant)

    def test_dual_with_a_flipped_sign(self, monkeypatch):
        # _optimum(rows, scales, cost, cscale, xs, denom, u, basis): flip u[0]
        self._mutate(monkeypatch, "_optimum", lambda args: args.__setitem__(6, [-args[6][0]] + args[6][1:]))
        with pytest.raises(InvariantViolation, match="dual"):
            solve_equality_lp([[1, 2]], [4], [1, 1])

    def test_perturbed_primal_entry(self, monkeypatch):
        self._mutate(monkeypatch, "_optimum", lambda args: args[4].__setitem__(0, args[4][0] + 1))
        with pytest.raises(InvariantViolation, match="feasible"):
            solve_equality_lp([[1, 2]], [4], [1, 1])

    def test_corrupted_farkas_functional(self, monkeypatch):
        # _infeasible(rows, scales, y): negate y
        self._mutate(monkeypatch, "_infeasible", lambda args: args.__setitem__(2, [-v for v in args[2]]))
        with pytest.raises(InvariantViolation, match="Farkas"):
            solve_equality_lp([[1, -1], [1, 1]], [1, -3], [0, 0])
        with pytest.raises(InvariantViolation, match="Farkas"):
            solve_equality_lp([[1, 1], [1, 1]], [1, 2], [0, 0])

    def test_ray_off_the_kernel(self, monkeypatch):
        # _unbounded(rows, cost, ray, denom): lengthen the ray's last entry, so a*r != 0
        self._mutate(monkeypatch, "_unbounded", lambda args: args[2].__setitem__(-1, args[2][-1] + 1))
        with pytest.raises(InvariantViolation, match="ray"):
            solve_equality_lp([[1, -1]], [0], [1, 0])

    def test_unmutated_answers_pass(self):
        assert solve_checked([[1, 2]], [4], [1, 1]) == 4
        assert solve_checked([[1, -1], [1, 1]], [1, -3], [0, 0]) is Infeasible
        assert solve_checked([[1, -1]], [0], [1, 0]) is Unbounded


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
    """Infeasible, Unbounded or the optimal value: the part of an answer
    that does not depend on the pivot rule."""
    try:
        return solver(a, b, c).value
    except (Infeasible, Unbounded) as exc:
        return type(exc)


@settings(max_examples=250, deadline=None)
@given(small_lps())
# degenerate: at the optimum 0 this solver ends in the basis (0, 1, 2), the
# reference in (0, 2, 3)
@example(([[4, 4, 4, 0], [Q(-4, 3), 0, -1, Q(-2, 3)], [Q(-1, 2), 0, 0, 0]], [0, 0, 0], [Q(1, 2), -1, Q(-2, 3), 0]))
def test_matches_fraction_reference(problem):
    a, b, c = problem
    got = solve_checked(a, b, c)
    assert got == _outcome(reference_solve_equality_lp, a, b, c)


def _full_outcome(a, b, c):
    """The whole answer: the LPResult, or the exception type with its certificate."""
    try:
        return solve_equality_lp(a, b, c)
    except Infeasible as exc:
        return Infeasible, exc.farkas
    except Unbounded as exc:
        return Unbounded, exc.ray


@settings(max_examples=200, deadline=None)
@given(small_lps(), st.lists(entries, min_size=4, max_size=4))
def test_a_cone_of_columns_solves_as_its_rows(problem, head):
    """A Cone as the matrix, and a widened Cone, give the rows written out:
    the same scaled rows, so the same pivots, answer and certificate."""
    a, b, c = problem
    cone = lp.Cone(_cols(a))
    assert cone.rows == [lp._integer_row(row) for row in a]
    assert _full_outcome(cone, b, c) == _full_outcome(a, b, c)
    wide = [[h, *row] for h, row in zip(head, a)]
    c_wide = [Q(1), *c]
    assert _full_outcome(cone.widened(head[:len(a)]), b, c_wide) == _full_outcome(wide, b, c_wide)


def test_cone_entry_points_reuse_the_rows():
    gens = [(1, 0), (1, 2), (0, Q(1, 3))]
    cone = lp.Cone(gens)
    assert in_cone(cone, (3, 2)) == in_cone(gens, (3, 2))
    assert max_shift((3, 2), (-1, -1), cone) == max_shift((3, 2), (-1, -1), gens)
    res = max_shift((1, 0), (-1, 0), lp.Cone([]))
    assert res == max_shift((1, 0), (-1, 0), []) and res.value == 1


@pytest.mark.parametrize(
    "call",
    [
        lambda: in_cone([(1, 0), (1,)], (1, 1)),
        lambda: in_cone([(1, 0, 5), (0, 1, 0)], (1, 1)),
        lambda: max_shift((1, 1), (1,), [(1, 0), (0, 1)]),
        lambda: solve_equality_lp(lp.Cone([(1, 0)]), [1], [1]),
    ],
    ids=["ragged-generators", "longer-generators", "short-direction", "short-right-hand-side"],
)
def test_vectors_of_another_length_are_rejected(call):
    # unchecked, the longer generators are cut to the target's length and
    # the answer is (1, 1), their third coordinates never read
    with pytest.raises(InvalidModel, match="basis size"):
        call()
