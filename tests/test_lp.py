"""Exact simplex tests against hand-solved cone problems, a differential
test of the integer-tableau solver against the reference Bland simplex over
Fractions in ``oracles``, and tests of the certificates every answer carries:
each is rechecked here over Fractions, and a solver that hands over a broken
one is stopped by ``InvariantViolation``.  One pass of the ``surfaces``
benchmark pins the pivot path: the same LP solves and pivots as under the
earlier kernel frozen in ``oracles``."""

import importlib
import json
import random
import sys
from fractions import Fraction as Q
from operator import mul
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from kstab import lp, rationals
from kstab.errors import InvalidModel, InvariantViolation, KstabError
from kstab.lp import Infeasible, Unbounded, _run_simplex, in_cone, max_shift, solve_equality_lp
from kstab.rationals import _pivot
from oracles import _ref_pivot, reference_det, reference_fraction_free_pivot, reference_solve_equality_lp

ROOT = Path(__file__).resolve().parents[1]


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


def _spy_infeasible(monkeypatch):
    """The names of the functions that build each Farkas certificate."""
    callers = []
    real = lp._infeasible

    def spy(*args):
        callers.append(sys._getframe(1).f_code.co_name)
        return real(*args)

    monkeypatch.setattr(lp, "_infeasible", spy)
    return callers


class TestSimplex:
    def test_simple_max(self):
        # max x + y st x + 2y = 4, x,y >= 0 -> x=4
        res = solve_equality_lp([[1, 2]], [4], [1, 1])
        assert res.value == 4
        assert res.dual == (1,)

    def test_infeasible(self, monkeypatch):
        callers = _spy_infeasible(monkeypatch)
        with pytest.raises(Infeasible):
            solve_equality_lp([[1, 1], [1, 1]], [1, 2], [0, 0])
        # the reduction finds 0 = 1: the certificate is its row combination
        assert callers == ["_reduced"]
        assert solve_checked([[1, 1], [1, 1]], [1, 2], [0, 0]) is Infeasible

    def test_infeasible_in_phase_1(self, monkeypatch):
        # the first phase is the dual simplex: x - y = 1 and x + y = -3 have
        # the one solution x = -1, y = -2, which the reduction leaves basic;
        # the row of x has no negative entry, so its transform (1, 1) is the
        # certificate: (1, 1)*a = (2, 0) and (1, 1)*b = -2
        callers = _spy_infeasible(monkeypatch)
        with pytest.raises(Infeasible) as info:
            solve_equality_lp([[1, -1], [1, 1]], [1, -3], [0, 0])
        assert callers == ["_dual_simplex"]
        assert info.value.farkas == (1, 1)
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

    def test_a_matrix_with_no_columns(self):
        # each row reads 0 = b_i: the empty x is optimal when b = 0, with
        # the zero dual, and otherwise a Farkas vector picks a nonzero b_i
        res = solve_equality_lp([[], []], [0, 0], [])
        assert (res.value, res.x, res.basis, res.dual) == (0, (), (), (0, 0))
        for b, farkas in (([1, 0], (-1, 0)), ([0, -2], (0, 1))):
            with pytest.raises(Infeasible) as info:
                solve_equality_lp([[], []], b, [])
            assert info.value.farkas == farkas


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

    def test_a_negative_pivot_keeps_the_denominator_positive(self, monkeypatch):
        # a pivot on -2 returns 2 and negates every row, so T/D is the
        # rational pivot's tableau
        tab, basis = [[-2, 1, 3], [1, 1, 1], [4, 0, 2]], [3, 4, 5]
        want, want_basis = [[Q(x) for x in row] for row in tab], list(basis)
        _ref_pivot(want, want_basis, 0, 0)
        assert _pivot(tab, basis, 1, 0, 0) == 2
        assert [[Q(x, 2) for x in row] for row in tab] == want and basis == want_basis == [0, 4, 5]
        # the dual simplex pivots on a negative entry: (-1, 2) from the basis
        # {(1, 0), (0, 1)} leaves through x0 = -1 and enters (-1, 1)
        seen = []

        def spy(tab, basis, denom, row, col):
            seen.append(tab[row][col])
            return _pivot(tab, basis, denom, row, col)

        monkeypatch.setattr(lp, "_pivot", spy)
        a, b, c = [[1, 0, -1], [0, 1, 1]], [-1, 2], [0, 0, 1]
        res = solve_equality_lp(a, b, c)
        assert min(seen) < 0
        assert (res.value, res.x, res.basis) == (Q(2), (Q(1), Q(0), Q(2)), (0, 2))
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
        # _optimum(rows, cols, scales, cost, cscale, xs, denom, u, basis, q): flip u[0]
        self._mutate(monkeypatch, "_optimum", lambda args: args.__setitem__(7, [-args[7][0]] + args[7][1:]))
        with pytest.raises(InvariantViolation, match="dual"):
            solve_equality_lp([[1, 2]], [4], [1, 1])

    def test_a_zero_dual_is_checked_against_every_column(self, monkeypatch):
        # max x1 with x0 + x1 = 0 has the optimum 0 and needs a dual y >= 1;
        # y = 0 has y*b = 0 but fails y*a >= c on the last column
        self._mutate(monkeypatch, "_optimum", lambda args: args.__setitem__(7, [0] * len(args[7])))
        with pytest.raises(InvariantViolation, match="dual"):
            solve_equality_lp([[1, 1]], [0], [0, 1])

    def test_perturbed_primal_entry(self, monkeypatch):
        self._mutate(monkeypatch, "_optimum", lambda args: args[5].__setitem__(0, args[5][0] + 1))
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
    """A fresh Cone as the matrix, and a fresh Cone's widened copy, give the
    rows written out: the same scaled rows, so the same pivots, answer and
    certificate.  (A used Cone may start from a remembered basis, and so
    return another optimum's x, basis and dual.)"""
    a, b, c = problem
    cone = lp.Cone(_cols(a))
    assert cone.rows == [rationals.scaled(row) for row in a]
    assert _full_outcome(cone, b, c) == _full_outcome(a, b, c)
    wide = [[h, *row] for h, row in zip(head, a)]
    c_wide = [Q(1), *c]
    assert _full_outcome(lp.Cone(_cols(a)).widened(head[:len(a)]), b, c_wide) == _full_outcome(wide, b, c_wide)


@pytest.mark.parametrize("c", [[1], [1, 0, 0]], ids=["short", "long"])
def test_a_cost_of_another_length_is_rejected(c):
    # unchecked, the short cost failed the dual check (InvariantViolation)
    # and the long one was solved with its last entry never read
    with pytest.raises(InvalidModel, match="cost"):
        solve_equality_lp([[1, 1]], [1], c)


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


# -- the memory of bases: warm answers against a fresh Cone's ----------------


def _dp4_generators():
    from kstab.intersect import dp4_surface

    gens = dp4_surface().eff_generators
    return [gens[k] for k in sorted(gens)]


QUADRIC_GENERATORS = [(1, 0), (0, 1)]
weights = st.one_of(st.integers(0, 3), st.just(Q(1, 2)))


@st.composite
def cone_query_sequences(draw, reused_directions=False):
    """A generator list (the dp4 preset, the quadric or a small random cone)
    and a sequence of queries ("in", target) and ("shift", base, direction),
    or of shifts alone along 2-3 directions.
    Targets are mostly nonnegative combinations of the generators, so the
    remembered bases get used; some carry a 1/2, which puts a denominator
    on b, and some are random vectors, integer or fractional, mostly outside
    the cone."""
    kind = draw(st.sampled_from(["dp4", "quadric", "random"]))
    if kind == "dp4":
        gens = _dp4_generators()
    elif kind == "quadric":
        gens = QUADRIC_GENERATORS
    else:
        n = draw(st.integers(1, 4))
        gens = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * n), min_size=1, max_size=6))
    n = len(gens[0])
    combination = st.lists(weights, min_size=len(gens), max_size=len(gens)).map(
        lambda w: tuple(sum(wj * g[i] for wj, g in zip(w, gens)) for i in range(n)))
    fractional = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    vector = st.one_of(combination, combination, combination,
                       st.tuples(*[st.integers(-3, 3)] * n), st.tuples(*[fractional] * n))
    negated = st.sampled_from(gens).map(lambda g: tuple(-x for x in g))
    direction = st.one_of(negated, st.tuples(*[st.integers(-2, 2)] * n))
    if reused_directions:
        # max_shift alone, along 2-3 directions used again and again
        direction = st.sampled_from(draw(st.lists(direction, min_size=2, max_size=3)))
        return gens, draw(st.lists(st.tuples(st.just("shift"), vector, direction), min_size=2, max_size=12))
    query = st.one_of(st.tuples(st.just("in"), vector), st.tuples(st.just("shift"), vector, direction))
    return gens, draw(st.lists(query, min_size=1, max_size=12))


def _shift_value(base, direction, generators):
    try:
        return max_shift(base, direction, generators).value
    except (Infeasible, Unbounded) as exc:
        return type(exc)


def _reference_outcome(a, b, c):
    try:
        return reference_solve_equality_lp(a, b, c).value
    except (Infeasible, Unbounded) as exc:
        return type(exc)


def _check_memory(cone):
    """The Cone's integer columns are those of its rows, and every remembered
    (key, columns, T, T*A, d) has T*B = d*I, d = |det B| and T*A as the
    products of T with the Cone's integer rows.  A generator basis has the
    key None; an optimum of a widened LP has its widened columns' entries as
    the key and at least one of them in B, as a negative column -1, -2, ...
    (key[-1], key[-2], ...)."""
    a = [row for row, _ in cone.rows]
    assert [list(col) for col in cone.cols] == [[row[j] for row in a] for j in range(len(cone))]
    for memory, widened in ((cone._bases, False), (cone._shifts, True)):
        for key, cols, t, ta, d in memory:
            assert (key is not None) == widened == (min(cols, default=0) < 0)
            b = [[key[j][i] if j < 0 else row[j] for j in cols] for i, row in enumerate(a)]
            n = len(cols)
            assert [[sum(map(mul, trow, col)) for col in zip(*b)] for trow in t] == \
                [[d * (i == j) for j in range(n)] for i in range(n)]
            assert d == abs(reference_det(b))
            assert ta == [[sum(map(mul, trow, col)) for col in zip(*a)] for trow in t]


@settings(max_examples=120, deadline=None)
@given(cone_query_sequences())
def test_a_reused_cone_answers_as_a_fresh_one(case):
    """in_cone and max_shift(...).value on one Cone, started from whatever
    the queries before left in its memory, give the answers of a fresh Cone
    and the outcome of the Bland simplex over Fractions in ``oracles`` for
    each query alone: the same value, the same None or the same exception
    type.  Each coefficient vector is checked here, and the memory then
    holds only bases with T = d*B^-1."""
    gens, queries = case
    cone = lp.Cone(gens)
    rows = [list(row) for row in zip(*gens)]
    for query in queries:
        if query[0] == "in":
            target = query[1]
            got = in_cone(cone, target)
            assert (got is None) == (in_cone(lp.Cone(gens), target) is None)
            assert (got is None) == (_reference_outcome(rows, target, [0] * len(gens)) is Infeasible)
            if got is not None:
                assert all(x >= 0 for x in got)
                assert all(_dot(got, row) == t for row, t in zip(zip(*gens), target))
        else:
            _, base, direction = query
            got = _shift_value(base, direction, cone)
            assert got == _shift_value(base, direction, lp.Cone(gens))
            wide = [[-x, *row] for x, row in zip(direction, rows)]
            assert got == _reference_outcome(wide, base, [1] + [0] * len(gens))
        assert len(cone._bases) <= lp.MEMORY and len(cone._shifts) <= lp.MEMORY
    _check_memory(cone)


@settings(max_examples=120, deadline=None)
@given(cone_query_sequences(reused_directions=True))
def test_max_shift_along_reused_directions_answers_as_a_fresh_cone(case):
    """max_shift(...).value on one Cone along a few directions, where an LP
    may start from an optimum along its direction (the priced start), gives
    the answer of a fresh Cone and of the Bland simplex over Fractions in
    ``oracles``; the memory then holds only bases with T = d*B^-1."""
    gens, queries = case
    cone = lp.Cone(gens)
    rows = [list(row) for row in zip(*gens)]
    for _, base, direction in queries:
        got = _shift_value(base, direction, cone)
        assert got == _shift_value(base, direction, lp.Cone(gens))
        wide = [[-x, *row] for x, row in zip(direction, rows)]
        assert got == _reference_outcome(wide, base, [1] + [0] * len(gens))
        assert len(cone._shifts) <= lp.MEMORY
    _check_memory(cone)


def test_every_remembered_basis_is_d_times_an_inverse():
    rng = random.Random(16)
    gens = _dp4_generators()
    cone = lp.Cone(gens)
    for _ in range(40):
        w = [rng.randint(0, 2) for _ in gens]
        d = tuple(sum(Q(wj, rng.randint(1, 2)) * g[i] for wj, g in zip(w, gens)) for i in range(6))
        in_cone(cone, d)
        _shift_value(d, tuple(-x for x in rng.choice(gens)), cone)
    assert len(cone._bases) == lp.MEMORY
    _check_memory(cone)


def _count_pivots(monkeypatch):
    seen = []

    def spy(*args):
        seen.append(args[3:])
        return _pivot(*args)

    # the simplex pivots through lp, the reduction that starts an LP through rationals
    monkeypatch.setattr(lp, "_pivot", spy)
    monkeypatch.setattr(rationals, "_pivot", spy)
    return seen


def test_a_repeated_membership_query_runs_no_pivot(monkeypatch):
    pivots = _count_pivots(monkeypatch)
    cone = lp.Cone(_dp4_generators())
    d = (3, -1, -1, -1, -1, 0)  # -K - e5
    first = in_cone(cone, d)
    assert first is not None and pivots
    pivots.clear()
    assert in_cone(cone, d) == first
    assert pivots == []
    # the threshold of the same class starts from that basis, feasible: the primal simplex only
    z = (-1, 0, 0, 0, 0, 0)
    warm = max_shift(d, z, cone).value
    warm_pivots = len(pivots)
    assert max_shift(d, z, _dp4_generators()).value == warm
    assert 0 < warm_pivots < len(pivots) - warm_pivots


class TestMemory:
    def test_an_infeasible_remembered_basis_starts_the_dual_simplex(self, monkeypatch):
        # (1, 1) leaves the basis {(1, 0), (0, 1)}, which gives x = b =
        # (-1, 3) for the next target: one dual pivot, (1, 0) out and the
        # lower-indexed of (-1, 1) and (-1, 2) in, finds 2*(0, 1) + (-1, 1),
        # where a fresh Cone first reduces the rows
        gens = [(1, 0), (0, 1), (-1, 1), (-1, 2)]
        cone = lp.Cone(gens)
        assert in_cone(cone, (1, 1)) == (1, 1, 0, 0)
        assert [e[1] for e in cone._bases] == [(0, 1)]
        pivots = _count_pivots(monkeypatch)
        assert in_cone(cone, (-1, 3)) == (0, 2, 1, 0)
        assert pivots == [(0, 2)]
        assert in_cone(gens, (-1, 3)) == (0, 2, 1, 0)
        assert len(pivots) == 4
        assert [e[1] for e in cone._bases] == [(1, 2), (0, 1)]
        # (2, 1) is -2 on (-1, 1) in the recent basis and feasible in the
        # older one, which has fewer negative entries: no pivot
        pivots.clear()
        assert in_cone(cone, (2, 1)) == (2, 1, 0, 0)
        assert pivots == []

    def test_of_two_feasible_remembered_bases_the_most_recent_starts(self, monkeypatch):
        # (0, 2) is 2*(0, 1) in both {(0, 1), (-1, 1)} and {(1, 0), (0, 1)}:
        # the first, the more recent, starts the LP and is its optimum
        gens = [(1, 0), (0, 1), (-1, 1), (-1, 2)]
        cone = lp.Cone(gens)
        in_cone(cone, (1, 1))
        in_cone(cone, (-1, 3))
        assert [e[1] for e in cone._bases] == [(1, 2), (0, 1)]
        rows = [row + [bi] for (row, _), bi in zip(cone.rows, (0, 2))]
        tab, basis, d, priced = lp._remembered(cone, rows)
        assert (basis, d, [row[-1] for row in tab], priced) == ([1, 2], 1, [2, 0], False)
        pivots = _count_pivots(monkeypatch)
        res = solve_equality_lp(cone, (0, 2), [0] * len(gens))
        assert (res.x, res.basis, pivots) == ((0, 2, 0, 0), (1, 2), [])
        assert [e[1] for e in cone._bases] == [(1, 2), (0, 1)]

    def test_a_denominator_on_b_starts_from_memory(self, monkeypatch):
        cone = lp.Cone(QUADRIC_GENERATORS)
        assert in_cone(cone, (1, 1)) == (1, 1)
        pivots = _count_pivots(monkeypatch)
        monkeypatch.setattr(lp, "_reduced", None)  # no cold start
        assert in_cone(cone, (Q(1, 2), 1)) == (Q(1, 2), 1)
        assert max_shift((Q(1, 2), Q(3, 4)), (-1, 0), cone).value == Q(1, 2)
        assert pivots == [(0, 0)]

    def test_the_memory_is_capped(self):
        rng = random.Random(7)
        gens = _dp4_generators()
        cone = lp.Cone(gens)
        for _ in range(100):
            w = [rng.randint(0, 2) for _ in gens]
            d = tuple(sum(wj * g[i] for wj, g in zip(w, gens)) for i in range(6))
            z = tuple(-x for x in rng.choice(gens))
            assert in_cone(cone, d) is not None
            assert _shift_value(d, z, cone) == _shift_value(d, z, gens)
        assert 1 < len(cone._bases) <= lp.MEMORY

    def test_a_widened_cone_shares_the_memory(self, monkeypatch):
        # max_shift widens the cone by s: it starts from the basis in_cone
        # left, and its optimum, with s basic, is remembered for its column
        # (1, 0) alone, apart from the generator bases; the next max_shift
        # along (-1, 0) starts there and runs no pivot
        cone = lp.Cone(QUADRIC_GENERATORS)
        in_cone(cone, (2, 3))
        assert cone.widened((1, 1))._base is cone
        pivots = _count_pivots(monkeypatch)
        assert max_shift((2, 3), (-1, 0), cone).value == 2
        warm_pivots = len(pivots)
        assert max_shift((2, 3), (-1, 0), QUADRIC_GENERATORS).value == 2
        assert warm_pivots < len(pivots) - warm_pivots
        assert [e[1] for e in cone._bases] == [(0, 1)]
        assert [e[:2] for e in cone._shifts] == [(((1, 0),), (-1, 1))]
        pivots.clear()
        assert max_shift((5, 1), (-1, 0), cone).value == 5
        assert pivots == []
        _check_memory(cone)


def _spy_pivot_callers(monkeypatch):
    """The names of the functions that make each simplex pivot."""
    callers = []

    def spy(*args):
        callers.append(sys._getframe(1).f_code.co_name)
        return _pivot(*args)

    monkeypatch.setattr(lp, "_pivot", spy)
    return callers


class TestPricedStart:
    """max_shift along a direction whose optimum the Cone remembers may start
    there: that basis stays dual feasible when only b moves, so the dual
    simplex priced by c makes it feasible and the primal simplex finds it
    optimal as it is."""

    def test_a_same_direction_re_solve_runs_no_primal_pivot(self, monkeypatch):
        # tau(-K - t*e1) along L on dP4: the optimum at t = 0 (tau = 1)
        # starts t = 1/2, which takes two dual pivots and no primal one
        cone = lp.Cone(_dp4_generators())
        minus_k, minus_l = (3, -1, -1, -1, -1, -1), (-1, 0, 0, 0, 0, 0)
        assert max_shift(minus_k, minus_l, cone).value == 1
        assert [e[0] for e in cone._shifts] == [((1, 0, 0, 0, 0, 0),)]
        callers = _spy_pivot_callers(monkeypatch)
        base = (3, Q(-3, 2), -1, -1, -1, -1)
        assert max_shift(base, minus_l, cone).value == Q(2, 3)
        assert callers == ["_dual_simplex", "_dual_simplex"]
        callers.clear()
        assert max_shift(base, minus_l, _dp4_generators()).value == Q(2, 3)
        assert "_run_simplex" in callers
        wide = [[-x, *row] for x, row in zip(minus_l, zip(*_dp4_generators()))]
        assert reference_solve_equality_lp(wide, base, [1] + [0] * len(cone)).value == Q(2, 3)
        _check_memory(cone)

    def test_a_priced_start_outside_the_cone_is_infeasible(self, monkeypatch):
        # (-1, 3) + s*(-1, 0) leaves the quadrant for every s >= 0: from the
        # optimum of (2, 3), s = -1 leaves and its row has no negative entry,
        # so the row's transform is the Farkas vector
        cone = lp.Cone(QUADRIC_GENERATORS)
        assert max_shift((2, 3), (-1, 0), cone).value == 2
        starts, remembered = [], lp._remembered
        monkeypatch.setattr(lp, "_remembered", lambda *args: starts.append(remembered(*args)) or starts[-1])
        callers = _spy_infeasible(monkeypatch)
        with pytest.raises(Infeasible) as info:
            max_shift((-1, 3), (-1, 0), cone)
        assert [start[3] for start in starts] == [True] and callers == ["_dual_simplex"]
        check_farkas([[1, 1, 0], [0, 0, 1]], (-1, 3), info.value)

    def test_another_objective_is_not_priced_from_it(self, monkeypatch):
        # the optimum of max s at (2, 3) prices x0 at 1 > 0 for max x0: not
        # dual feasible, so that LP runs the dual simplex at cost 0, then the primal
        cone = lp.Cone(QUADRIC_GENERATORS)
        max_shift((2, 3), (-1, 0), cone)
        priced, dual = [], lp._dual_simplex
        monkeypatch.setattr(lp, "_dual_simplex", lambda *args: priced.append(args[-1]) or dual(*args))
        res = solve_equality_lp(cone.widened((1, 0)), (2, 3), [0, 1, 0])
        assert (res.value, priced) == (2, [False])
        check_optimum([[1, 1, 0], [0, 0, 1]], (2, 3), [0, 1, 0], res)

    @pytest.mark.parametrize("z2, entering", [(-2, 1), (-1, 2)], ids=["tie", "smaller-ratio"])
    def test_the_dual_ratio_test_enters_the_lowest_index_on_a_tie(self, monkeypatch, z2, entering):
        # x0 = -1 leaves; x1 and x2 have a = -1 and -2 in its row and z = -1
        # and z2: the ratios z/a are 1 and -z2/2, so a tie at z2 = -2 enters
        # x1, the lower index, and z2 = -1 enters x2; z stays <= 0
        callers = _spy_pivot_callers(monkeypatch)
        tab, basis = [[1, -1, -2, 1, -1], [0, -1, z2, 0, 0]], [0]
        denom = lp._dual_simplex(tab, basis, 1, 3, [[1, -1, -2, -1]], [1], True)
        assert (basis, callers) == ([entering], ["_dual_simplex"])
        assert tab[0][-1] >= 0 and all(x <= 0 for x in tab[1][:3]) and denom > 0


def test_a_surfaces_pass_pivots_as_the_frozen_kernel_does(monkeypatch):
    # one pass of the surfaces benchmark makes the same LP solves and the
    # same pivots, (module, row, col, D) one by one, under the kernel and
    # under its earlier form; under the kernel each pivot also leaves the
    # tableau the earlier form leaves.  The simplex pivots (lp's) and the
    # LP solves are pinned apart from the elimination pivots (rationals'),
    # which the Zariski layer's memos may only reduce
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text(encoding="utf-8"))["surfaces"]
    workload = importlib.import_module("wl_surfaces").SurfacesWorkload(str(ROOT), 1, reference)
    solve = lp.solve_equality_lp

    def checked(tab, basis, denom, row, col):
        want, want_basis = [list(r) for r in tab], list(basis)
        d = reference_fraction_free_pivot(want, want_basis, denom, row, col)
        assert (_pivot(tab, basis, denom, row, col), tab, basis) == (d, want, want_basis)
        return d

    def one_pass(kernel):
        solves, pivots = [], []

        def counted(*args):
            solves.append(None)
            return solve(*args)

        def spy(module):
            def pivot(tab, basis, denom, row, col):
                d = kernel(tab, basis, denom, row, col)
                pivots.append((module.__name__, row, col, d))
                return d

            monkeypatch.setattr(module, "_pivot", pivot)

        monkeypatch.setattr(lp, "solve_equality_lp", counted)
        spy(lp)
        spy(rationals)
        problems = {task.name: task.check(task.run()) for task in workload.tasks(0)}
        assert not {task: found for task, found in problems.items() if found}
        return len(solves), pivots

    frozen = one_pass(reference_fraction_free_pivot)
    simplex = sum(module == lp.__name__ for module, *_ in frozen[1])
    assert (frozen[0], simplex, len(frozen[1])) == (132, 397, 522)
    assert one_pass(checked) == frozen
