"""Zariski decomposition tests.

The exhaustive-subset oracle at the bottom re-derives decompositions with
no shared code path: it enumerates every negative-definite subset of the
declared curves, solves for the candidate negative part, and keeps the
unique subset whose certificates all hold.  DERIVED chamber data for the
flag decompositions was computed by hand from the dp4 Gram diag(1,-1^5).
The threefold certificate is a cone membership of the residual at both
ends of each chamber; on rank-2 tables it is checked against
``reference_in_rank2_cone`` in ``oracles``, which runs no LP.
"""

import itertools
import random
import sys
from fractions import Fraction as Q
from unittest import mock

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from kstab import records, zariski
from kstab.errors import (
    CertificateViolation,
    IndefiniteSupport,
    InvalidModel,
    KstabError,
    NotPseudoEffective,
    UnboundedDirection,
    WallCrossingDegeneracy,
)
from kstab.intersect import (
    Chamber,
    SurfaceModel,
    ThreefoldModel,
    bl_p3_quintic,
    blowup_node,
    dp4_surface,
    quadric_surface,
    restrict_to_surface,
    sing_line_model,
)
from kstab.invariants import s_invariant
from kstab.lp import Infeasible, LPResult, Unbounded, _remembered, in_cone, max_shift
from kstab.poly import Polynomial, check_c1, parse_polynomial
from kstab.rationals import qvec, scaled
from oracles import (
    reference_decompose,
    reference_in_rank2_cone,
    reference_is_negative_definite,
    reference_pair_poly,
    reference_parametric_threshold,
    reference_solve_equality_lp,
    reference_symbolic_decomposition,
)
from kstab.zariski import (
    FlagCell,
    FlagChamber,
    FlagDecomposition,
    _affine_square,
    _affine_vectors,
    _decompose,
    _integer_family,
    _symbolic_decomposition,
    one_param_volume,
    pseff_threshold,
    threefold_volume_certified,
    two_param_flag_volume,
    volume,
    zariski_decompose,
)

DP4 = dp4_surface()
QUADRIC = quadric_surface()


def p(text, variables):
    return parse_polynomial(text, variables)


def dp4_class(l, e1, e2, e3, e4, e5):
    return qvec((l, e1, e2, e3, e4, e5))


class TestDecompose:
    def test_interior_nef_class(self):
        res = zariski_decompose(DP4, dp4_class(3, -2, 0, 0, 0, 0))
        assert res.support == ()
        assert res.positive == dp4_class(3, -2, 0, 0, 0, 0)

    def test_flag_slice_example(self):
        # (9/4)L - sum(e): support is the conic, P = (1/4)(5L - 2 sum e)
        d = dp4_class(Q(9, 4), -1, -1, -1, -1, -1)
        res = zariski_decompose(DP4, d)
        assert res.support == ("conic",)
        assert res.positive == dp4_class(Q(5, 4), Q(-1, 2), Q(-1, 2), Q(-1, 2), Q(-1, 2), Q(-1, 2))
        assert res.negative == (("conic", Q(1, 2)),)

    def test_not_pseudo_effective(self):
        with pytest.raises(NotPseudoEffective):
            zariski_decompose(DP4, dp4_class(1, -2, 0, 0, 0, 0))

    def test_invariants_on_valid_results(self):
        d = dp4_class(Q(9, 4), -1, -1, -1, -1, -1)
        res = zariski_decompose(DP4, d)
        for label, coeff in res.negative:
            assert coeff >= 0
            assert DP4.pair(res.positive, DP4.negative_curves[label]) == 0
        for curve in DP4.negative_curves.values():
            assert DP4.pair(res.positive, curve) >= 0
        assert reference_is_negative_definite([[Q(x) for x in row] for row in res.support_gram])
        assert DP4.square(res.positive) >= 0

    def test_indefinite_support_canary(self):
        # two "curves" with pairing 2 are not a valid negative configuration;
        # the class (-3,-3) meets both negatively at once
        bad = SurfaceModel(
            "bad",
            ("a", "b"),
            [[-1, 2], [2, -1]],
            negative_curves={"a": (1, 0), "b": (0, 1)},
            eff_generators={"g": (-1, -1)},
        )
        with pytest.raises(IndefiniteSupport):
            zariski_decompose(bad, (-3, -3))

    def test_quadric_identity(self):
        res = zariski_decompose(QUADRIC, (3, 2))
        assert res.support == ()
        assert volume(QUADRIC, (3, 2)) == 12


class TestThreshold:
    def test_dp4_line_direction(self):
        d = dp4_class(4, -1, -1, -1, -1, -1)
        assert pseff_threshold(DP4, d, dp4_class(1, -1, -1, 0, 0, 0)) == Q(5, 2)

    def test_dp4_l_direction(self):
        d = dp4_class(4, -1, -1, -1, -1, -1)
        assert pseff_threshold(DP4, d, dp4_class(1, 0, 0, 0, 0, 0)) == 2

    def test_quadric_min(self):
        assert pseff_threshold(QUADRIC, (3, 2), (1, 1)) == 2

    def test_unbounded(self):
        with pytest.raises(UnboundedDirection):
            pseff_threshold(QUADRIC, (3, 2), (-1, 0))

    def test_a_class_outside_the_cone_is_not_pseudo_effective(self):
        # D - 2Z is in the cone for this Z, which is no declared generator, but D is not
        d, z = dp4_class(-1, -3, 0, 3, 1, 2), dp4_class(-3, -2, 2, 2, 3, -1)
        assert max_shift(d, tuple(-x for x in z), zariski._eff_data(DP4)).value == 2
        with pytest.raises(NotPseudoEffective):
            pseff_threshold(DP4, d, z)


@st.composite
def threshold_queries(draw):
    """A surface, an integer class D and a direction Z: a declared curve by label or by vector, or an integer vector."""
    surface = draw(st.sampled_from(KERNEL_SURFACES))
    d = tuple(draw(st.lists(st.integers(-3, 3), min_size=surface.rank, max_size=surface.rank)))
    label = draw(st.sampled_from(surface.curve_labels))
    kind = draw(st.sampled_from(["label", "curve", "vector"]))
    if kind == "vector":
        return surface, d, tuple(draw(st.lists(st.integers(-3, 3), min_size=surface.rank, max_size=surface.rank)))
    return surface, d, label if kind == "label" else surface.negative_curves[label]


def _reference_threshold(surface, d, z):
    """pseff_threshold by the Fraction-tableau LP: D's membership first, then the largest s >= 0."""
    gens = [surface.eff_generators[k] for k in sorted(surface.eff_generators)]
    columns = [z] + gens  # D = s*Z + gens*x
    try:
        reference_solve_equality_lp([list(row) for row in zip(*gens)], d, [0] * len(gens))
    except Infeasible:
        return NotPseudoEffective
    try:
        return reference_solve_equality_lp([list(row) for row in zip(*columns)], d, [1] + [0] * len(gens)).value
    except Unbounded:
        return UnboundedDirection


@settings(max_examples=150, deadline=None)
@given(threshold_queries())
@example((DP4, (-1, -3, 0, 3, 1, 2), (-3, -2, 2, 2, 3, -1)))
@example((DP4, (4, -1, -1, -1, -1, -1), "e1"))
@example((QUADRIC, (3, 2), (-1, 0)))
def test_pseff_threshold_matches_the_reference_lp(case):
    surface, d, direction = case
    z = surface.class_vector(direction)
    got = _outcome(pseff_threshold, surface, d, direction)
    assert (got[0] if isinstance(got, tuple) else got) == _reference_threshold(surface, d, z)


class TestOneParam:
    def test_dp4_slice(self):
        # D(s) = (4 - s)L - sum(e): walls at 3/2, pseff out at 2
        family = (
            p("4 - s", ("s",)),
            p("-1", ("s",)),
            p("-1", ("s",)),
            p("-1", ("s",)),
            p("-1", ("s",)),
            p("-1", ("s",)),
        )
        vf = one_param_volume(DP4, family, 0, 2)
        assert [(c.lo, c.hi) for c in vf.chambers] == [(0, Q(3, 2)), (Q(3, 2), 2)]
        assert vf.pw.pieces[0].poly == p("(4 - s)^2 - 5", ("s",))
        assert vf.pw.pieces[1].poly == p("5*(2 - s)^2", ("s",))
        assert vf.chambers[1].support == ("conic",)

    def test_quadric_diagonal(self):
        family = (p("3 - s", ("s",)), p("2 - s", ("s",)))
        vf = one_param_volume(QUADRIC, family, 0, 2)
        assert len(vf.chambers) == 1
        assert vf.pw.pieces[0].poly == p("2*(3 - s)*(2 - s)", ("s",))

    def test_constant_family(self):
        family = (Polynomial.constant(1, ("s",)), Polynomial.constant(1, ("s",)))
        vf = one_param_volume(QUADRIC, family, 0, 5)
        assert vf.pw.pieces[0].poly == Polynomial.constant(2, ("s",))

    def test_surface_volume_is_c1(self):
        family = (
            p("4 - s", ("s",)),
            p("-1", ("s",)),
            p("-1", ("s",)),
            p("-1", ("s",)),
            p("-1", ("s",)),
            p("-1", ("s",)),
        )
        vf = one_param_volume(DP4, family, 0, 2)
        assert all(flag for (_, _, _, flag) in check_c1(vf.pw))

    def test_monotone_nonincreasing(self):
        family = (
            p("4 - s", ("s",)),
            p("-1", ("s",)),
            p("-1", ("s",)),
            p("-1", ("s",)),
            p("-1", ("s",)),
            p("-1", ("s",)),
        )
        vf = one_param_volume(DP4, family, 0, 2)
        for piece in vf.pw.pieces:
            dv = piece.poly.derivative("s")
            assert dv(piece.lo) <= 0 and dv(piece.hi) <= 0


def flag_A_polys():
    # restriction of the hyperplane family on dp4: (4-2t)L - (2-t)/2 * sum(e)
    c = ("t",)
    return (
        p("4 - 2*t", c),
        p("-1 + 1/2*t", c),
        p("-1 + 1/2*t", c),
        p("-1 + 1/2*t", c),
        p("-1 + 1/2*t", c),
        p("-1 + 1/2*t", c),
    )


@st.composite
def interpolated_flags(draw):
    """A(t) = (1 - t)*A0 + t*A1 over [0, 1] on dp4 or the quadric, and a class Z.

    Each end is -K plus a nonnegative combination of cone generators, so
    A(t) stays in the cone; Z is a nonzero sum of generators.
    """
    surface = draw(st.sampled_from((DP4, QUADRIC)))
    pool = sorted(surface.eff_generators.values())

    def generator_sum(weights, min_size):
        v = [Q(0)] * surface.rank
        for g in draw(st.lists(st.sampled_from(pool), min_size=min_size, max_size=3)):
            w = draw(weights)
            v = [x + w * y for x, y in zip(v, g)]
        return v

    weights = st.fractions(min_value=0, max_value=2, max_denominator=3)
    a0, a1 = ([x - k for k, x in zip(surface.canonical, generator_sum(weights, 0))] for _ in range(2))
    family = tuple(Polynomial(("t",), {(0,): x, (1,): y - x}) for x, y in zip(a0, a1))
    return surface, family, tuple(generator_sum(st.just(1), 1))


def _to_sympy(poly):
    return sympy.Add(*(
        sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(sympy.Symbol(v) ** e for v, e in zip(poly.vars, exp)))
        for exp, c in poly.coeffs.items()
    ))


class TestTwoParam:
    def test_dp4_ruling_flag(self):
        flag = two_param_flag_volume(DP4, flag_A_polys(), 0, 2, dp4_class(1, 0, 0, 0, 0, 0))
        assert len(flag.chambers) == 1
        cells = flag.chambers[0].cells
        assert len(cells) == 2
        both = ("t", "s")
        assert cells[0].s_hi == p("3/2 - 3/4*t", ("t",))
        assert cells[1].s_hi == p("2 - t", ("t",))
        assert cells[0].volume == p("(4 - 2*t - s)^2 - 5/4*(2 - t)^2", both)
        assert cells[1].volume == p("5*(2 - t - s)^2", both)
        # printed positive part of the second cell: (2 - t - s)(5L - 2 sum e)
        w = p("2 - t - s", both)
        assert cells[1].positive == (5 * w, -2 * w, -2 * w, -2 * w, -2 * w, -2 * w)
        assert flag.integral() == Q(53, 12)  # (53/48) * int_0^2 (2-t)^3 scaling folded in

    def test_dp4_line_flag_true_cells(self):
        # Z = L - e1 - e2: the honest decomposition has three cells
        flag = two_param_flag_volume(DP4, flag_A_polys(), 0, 2, dp4_class(1, -1, -1, 0, 0, 0))
        cells = flag.chambers[0].cells
        both = ("t", "s")
        assert [c.s_hi for c in cells] == [
            p("1 - 1/2*t", ("t",)),
            p("2 - t", ("t",)),
            p("5/2 - 5/4*t", ("t",)),
        ]
        assert cells[0].volume == p("11/4*(2 - t)^2 - 2*s*(2 - t) - s^2", both)
        assert cells[1].volume == p("(2*(2 - t) - s)^2 - 3/4*(2 - t)^2", both)
        assert cells[2].volume == p("(5/2*(2 - t) - 2*s)^2", both)
        assert cells[1].support == ("e1", "e2")
        assert cells[2].support == ("e1", "e2", "l_34", "l_35", "l_45")
        assert flag.integral() == Q(73, 12)

    def test_quadric_flag_piece(self):
        a = (p("3 - t", ("t",)), p("2*t", ("t",)))
        flag = two_param_flag_volume(QUADRIC, a, 0, 1, (1, 1))
        cells = flag.chambers[0].cells
        assert len(cells) == 1
        assert cells[0].s_hi == p("2*t", ("t",))
        assert cells[0].volume == p("2*(3 - t - s)*(2*t - s)", ("t", "s"))
        assert flag.integral() == Q(7, 3)

    def test_quadric_flag_second_piece(self):
        a = (p("4 - 2*t", ("t",)), p("4 - 2*t", ("t",)))
        flag = two_param_flag_volume(QUADRIC, a, 1, 2, (1, 1))
        assert flag.integral() == Q(4, 3)

    def test_volume_vanishes_at_threshold(self):
        flag = two_param_flag_volume(DP4, flag_A_polys(), 0, 2, dp4_class(1, 0, 0, 0, 0, 0))
        chamber = flag.chambers[0]
        last = chamber.cells[-1]
        # vol(t, s_hi(t)) is a quadratic in t, so three zeros make it zero
        for t in (chamber.t_lo, (chamber.t_lo + chamber.t_hi) / 2, chamber.t_hi):
            assert last.volume(t=t, s=last.s_hi(t)) == 0

    @settings(max_examples=40, deadline=None)
    @given(interpolated_flags())
    def test_integral_matches_sympy_double_integral(self, case):
        surface, family, z = case
        try:
            flag = two_param_flag_volume(surface, family, 0, 1, z)
        except WallCrossingDegeneracy:
            return  # a kink of the threshold at a non-dyadic t; see TestSplitGuard
        t, s = sympy.symbols((flag.tvar, flag.svar))
        expected = sum(
            sympy.integrate(_to_sympy(cell.volume), (s, _to_sympy(cell.s_lo), _to_sympy(cell.s_hi)), (t, ch.t_lo, ch.t_hi))
            for ch in flag.chambers
            for cell in ch.cells
        )
        got = flag.integral()
        assert sympy.Rational(got.numerator, got.denominator) == expected

    def test_integral_rejects_cells_beyond_its_exact_degree(self):
        both = ("t", "s")
        quadratic, affine = p("(2 - t - s)^2", both), p("1 - t", ("t",))
        for s_lo, s_hi, vol in [
            (p("0", ("t",)), affine, p("(2 - t - s)^3", both)),
            (p("0", ("t",)), p("1 - t^2", ("t",)), quadratic),
            (p("0", ("s",)), affine, quadratic),
            (p("0", ("t",)), affine, p("(2 - x - s)^2", ("x", "s"))),
        ]:
            cell = FlagCell(s_lo, s_hi, vol, (), ())
            flag = FlagDecomposition((FlagChamber(Q(0), Q(1), (cell,)),), "t", "s")
            with pytest.raises(InvalidModel, match="quadratic"):
                flag.integral()
        # by hand: the inner integral is ((2 - t)^3 - 1)/3, whose integral over [0, 1] is 11/12
        cell = FlagCell(p("0", ("t",)), affine, quadratic, (), ())
        assert FlagDecomposition((FlagChamber(0, 1, (cell,)),), "t", "s").integral() == Q(11, 12)


class TestConeChecks:
    """Start points and flag families outside the declared cone are rejected.

    max_shift is feasible as soon as some s >= 0 works, so it replaces a
    membership LP only when the step direction lies in the cone; these
    inputs reach both sides of that rule.
    """

    def test_public_decompose_rejects_non_pseff(self):
        with pytest.raises(NotPseudoEffective):
            zariski_decompose(DP4, dp4_class(-1, 0, 0, 0, 0, 0))
        assert volume(DP4, dp4_class(1, -1, -1, -1, -1, -1)) == 0

    def test_one_param_start_outside_cone_no_lp_check(self):
        # -L - t*e1: -slope = e1 is a generator, so only max_shift runs,
        # and its Infeasible surfaces as NotPseudoEffective
        family = (p("-1", ("t",)), p("-t", ("t",)), 0, 0, 0, 0)
        with pytest.raises(NotPseudoEffective, match="not pseudo-effective at 0"):
            one_param_volume(DP4, family, 0, 3)

    def test_one_param_start_outside_cone_enters_later(self):
        # t*L - e1 starts at -e1, outside the cone, but enters it at t = 1 and
        # stays: max_shift alone finds no fault (it is feasible, and
        # unbounded); the start still has to be rejected
        gens = list(DP4.eff_generators.values())
        with pytest.raises(Unbounded):
            max_shift(dp4_class(0, -1, 0, 0, 0, 0), dp4_class(1, 0, 0, 0, 0, 0), gens)
        family = (p("t", ("t",)), -1, 0, 0, 0, 0)
        with pytest.raises(NotPseudoEffective, match="not pseudo-effective at 0"):
            one_param_volume(DP4, family, 0, 3)

    def test_flag_outside_cone_with_effective_z(self):
        with pytest.raises(NotPseudoEffective, match="leaves the effective cone"):
            two_param_flag_volume(DP4, dp4_class(-1, 0, 0, 0, 0, 0), 0, 1, "L")

    def test_flag_family_leaves_cone(self):
        # (3 - 4t)L - sum(e) is -K at t = 0 and leaves the cone before t = 1
        a = (p("3 - 4*t", ("t",)), -1, -1, -1, -1, -1)
        with pytest.raises(NotPseudoEffective):
            two_param_flag_volume(DP4, a, 0, 1, "L")

    def test_flag_outside_cone_with_non_effective_z(self):
        # A = -e1, Z = -e1: A - s*Z is effective for every s >= 1, so
        # max_shift is unbounded; A itself is outside the cone
        with pytest.raises(NotPseudoEffective):
            two_param_flag_volume(DP4, dp4_class(0, -1, 0, 0, 0, 0), 0, 1, dp4_class(0, -1, 0, 0, 0, 0))


def with_table(model, b, chambers):
    """model with one more divisor B = b, which carries the chamber table chambers."""
    return ThreefoldModel(
        model.name, model.basis, model.triple, model.anticanonical, curves=model.curves,
        effective_classes=model.effective_classes, divisors={**model.divisors, "B": b}, chambers={"B": chambers},
    )


class TestThreefoldCertified:
    def test_quintic_quadric_family(self):
        m = bl_p3_quintic()
        vf = threefold_volume_certified(m, "Qtilde")
        assert vf.pw.pieces[0].poly == p("(4 - 2*t)^3 - 15*(4 - 2*t)*(1 - t)^2 + 18*(1 - t)^3", ("t",))
        assert vf.pw.pieces[1].poly == p("(4 - 2*t)^3", ("t",))

    def test_quintic_exceptional_family(self):
        m = bl_p3_quintic()
        vf = threefold_volume_certified(m, "E")
        assert vf.pw.pieces[0].poly == p("22*(1 - t)^3", ("t",))

    def test_sing_line_family(self):
        m = sing_line_model(12, 0)
        vf = threefold_volume_certified(m, "E")
        assert vf.pw.pieces[0].poly == p("22 - 6*t^2 - 4*t^3", ("t",))
        assert vf.pw.pieces[1].poly == p("12*(2 - t)^3", ("t",))
        assert check_c1(vf.pw) == [(1, Q(-24), Q(-36), False)]

    def test_constant_family(self):
        m = bl_p3_quintic()
        chambers = (Chamber(Q(0), Q(1), qvec((4, -1)), qvec((0, 0))),)
        vf = threefold_volume_certified(with_table(m, (0, 0), chambers), "B")
        assert vf.pw.pieces[0].poly == Polynomial.constant(22, ("t",))

    def test_bad_positive_part_rejected(self):
        m = bl_p3_quintic()
        # claim P = -K on all of [0,2]: the residual u*Qtilde - (stuff) fails
        chambers = (Chamber(Q(0), Q(2), qvec((4, -1)), qvec((0, 0))),)
        with pytest.raises(CertificateViolation):
            threefold_volume_certified(with_table(m, m.divisors["Qtilde"], chambers), "B")

    def test_discontinuous_chambers_rejected(self):
        m = bl_p3_quintic()
        # (3 - 3t/2)H passes both endpoint certificates on [1,2] but does
        # not glue to the first chamber's volume at t = 1
        chambers = (
            Chamber(Q(0), Q(1), qvec((4, -1)), qvec((-2, 1))),
            Chamber(Q(1), Q(2), qvec((3, 0)), qvec((Q(-3, 2), 0))),
        )
        with pytest.raises(ValueError, match="discontinuity"):
            threefold_volume_certified(with_table(m, m.divisors["Qtilde"], chambers), "B")


# -- exhaustive oracle --------------------------------------------------------


class TestIterativeVsExhaustive:
    def test_dp4_batch(self):
        from oracles import ZariskiOracle, random_pseff_class

        oracle = ZariskiOracle(DP4)
        rng = random.Random(2024)
        for _ in range(40):
            d = random_pseff_class(DP4, rng)
            res = zariski_decompose(DP4, d)
            oracle_p, oracle_nu = oracle.decompose(d)
            assert res.positive == oracle_p
            assert {l: c for l, c in res.negative if c > 0} == oracle_nu


# -- coefficient-vector kernel against the Polynomial-product reference --------


def dp3_surface():
    """Cubic surface: the 27 lines e_i, L - e_i - e_j and 2L - sum of five e."""
    r = 6
    basis = ("L",) + tuple(f"e{i}" for i in range(1, r + 1))
    gram = [[(1 if i == 0 else -1) if i == j else 0 for j in range(r + 1)] for i in range(r + 1)]

    def cls(l, es):
        return (l,) + tuple(-1 if i in es else 0 for i in range(1, r + 1))

    curves = {f"e{i}": tuple(int(j == i) for j in range(r + 1)) for i in range(1, r + 1)}
    curves.update({f"l_{i}{j}": cls(1, (i, j)) for i, j in itertools.combinations(range(1, r + 1), 2)})
    curves.update({f"c_{i}": cls(2, [k for k in range(1, r + 1) if k != i]) for i in range(1, r + 1)})
    return SurfaceModel("dp3", basis, gram, canonical=(-3,) + (1,) * r, negative_curves=curves)


def rational_gram_surface():
    """A - E restricted to the nodal blowup, in a basis with denominators 2 and 3.

    The Gram is [[95/18, -2/9], [-2/9, -2/9]]; c = b1 - 6*b2 has square -1/18,
    e = b2 has square -2/9, and c.e = 10/9.
    """
    base = restrict_to_surface(blowup_node(22), (1, -1), [(Q(1, 2), Q(1, 3)), (0, Q(1, 3))])
    return SurfaceModel("node|S", base.basis, base.gram, negative_curves={"c": (1, -6), "e": (0, 1)})


def a2_chain_surface():
    """Two (-2)-curves meeting once, orthogonal to H with H^2 = 2.

    H + 2*c1 + c2 needs two rounds: c1 alone first (nu = 3/2), after which
    the mobile part meets c2 negatively; the final support is {c1, c2} with
    nu = (2, 1) and positive part H.
    """
    return SurfaceModel(
        "a2-chain",
        ("H", "c1", "c2"),
        [[2, 0, 0], [0, -2, 1], [0, 1, -2]],
        negative_curves={"c1": (0, 1, 0), "c2": (0, 0, 1)},
    )


DP3 = dp3_surface()
RATIONAL = rational_gram_surface()
A2 = a2_chain_surface()
KERNEL_SURFACES = (DP4, DP3, RATIONAL, A2)
fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except KstabError as exc:
        return type(exc), str(exc)


def _unit_exps(n):
    return [(0,) * n] + [tuple(int(j == k) for j in range(n)) for k in range(n)]


def _poly(variables, coeffs):
    """An affine polynomial through the public constructor."""
    return Polynomial(variables, dict(zip(_unit_exps(len(variables)), coeffs)))


@st.composite
def affine_families(draw):
    """A surface, an affine one- or two-parameter family on it, and a support.

    The constant vector is a nonnegative combination of declared curves, so
    the family meets the cone; the support is either a random set of curves
    or the one the iterative decomposition finds at a sampled point.
    """
    surface = draw(st.sampled_from(KERNEL_SURFACES))
    labels = sorted(surface.negative_curves)
    variables = draw(st.sampled_from([("t",), ("t", "s")]))
    r = surface.rank
    const = [Q(0)] * r
    for label in draw(st.lists(st.sampled_from(labels), min_size=1, max_size=4)):
        w = draw(st.fractions(min_value=0, max_value=3, max_denominator=3))
        const = [x + w * y for x, y in zip(const, surface.negative_curves[label])]
    slopes = [[draw(fractions) for _ in range(r)] for _ in variables]
    vecs = (tuple(const),) + tuple(tuple(v) for v in slopes)
    if draw(st.booleans()):
        support = sorted(draw(st.sets(st.sampled_from(labels), max_size=3)))
    else:
        point = [draw(st.fractions(min_value=0, max_value=1, max_denominator=4)) for _ in variables]
        sample = tuple(c + sum(x * v[n] for x, v in zip(point, vecs[1:])) for n, c in enumerate(const))
        found = _outcome(_decompose, surface, sample)
        support = [] if isinstance(found, tuple) else list(found.support)
    return surface, variables, vecs, support


def _labelled_rows(surface, certs):
    """Every certificate row as (kind, label, coeffs, den), in the order of certs.rows.

    The multiplicity rows are labelled by the support, the nef rows by the
    declared curves; both counts are checked, so no row goes unlabelled.
    """
    assert certs.mult_den > 0 and certs.nef_den > 0
    n = len(certs.support)
    assert len(certs.rows) == n + len(surface.curve_labels)
    rows = [("mult", label, c, certs.mult_den) for label, c in zip(certs.support, certs.rows[:n])]
    rows += [("nef", label, c, certs.nef_den) for label, c in zip(surface.curve_labels, certs.rows[n:])]
    assert all(type(x) is int for _, _, c, _ in rows for x in c)
    return rows


def _symbolic_outcome(surface, variables, vecs, support):
    """The kernel's output as polynomials in the family's variables.

    The positive part and every certificate are integer numerators over a
    positive denominator; each is rebuilt here as exact Fractions, so the
    comparison with the reference is equality, not equality up to scale.
    """
    got = _outcome(_symbolic_decomposition, surface, _integer_family(vecs), support)
    if isinstance(got[0], type):
        return got
    (pvecs, den), certs = got
    assert den > 0 and certs.support == tuple(support)
    assert all(type(x) is int for v in pvecs for x in v)
    positive = tuple(_poly(variables, [Q(x, den) for x in c]) for c in zip(*pvecs))
    return (
        positive,
        [(kind, label, _poly(variables, [Q(x, d) for x in c])) for kind, label, c, d in _labelled_rows(surface, certs)],
        _affine_square(surface, (pvecs, den), variables),
    )


def _reference_outcome(surface, variables, polys, support):
    got = _outcome(reference_symbolic_decomposition, surface, polys, support)
    if isinstance(got[0], type):
        return got
    positive, certs = got
    square = reference_pair_poly(surface, positive, positive)
    square = square if isinstance(square, Polynomial) else Polynomial.constant(square, variables)
    return positive, [tuple(c) for c in certs], square


def _check_against_reference(surface, variables, vecs, support):
    polys = tuple(_poly(variables, c) for c in zip(*vecs))
    assert _affine_vectors(polys, variables, "affine") == vecs
    got = _symbolic_outcome(surface, variables, vecs, support)
    want = _reference_outcome(surface, variables, polys, support)
    assert got == want
    return got


@settings(max_examples=120, deadline=None)
@given(affine_families())
def test_symbolic_decomposition_matches_reference(case):
    _check_against_reference(*case)


def _sign(x):
    return (x > 0) - (x < 0)


@settings(max_examples=120, deadline=None)
@given(affine_families(), st.data())
def test_integer_signs_match_fraction_values(case, data):
    """At random rational points, the integer sign of every certificate is the sign of its Fraction value."""
    surface, variables, vecs, support = case
    got = _outcome(_symbolic_decomposition, surface, _integer_family(vecs), support)
    if isinstance(got[0], type):
        return
    point = [data.draw(st.fractions(min_value=-3, max_value=3, max_denominator=9)) for _ in variables]
    rows = _labelled_rows(surface, got[1])
    for (_, _, coeffs, den), value in zip(rows, zariski._values([c for _, _, c, _ in rows], *point)):
        exact = sum((Q(x, den) * y for x, y in zip(coeffs, [1, *point])), Q(0))
        assert _sign(value) == _sign(exact)
        if len(variables) == 1 and coeffs[1]:
            (root,) = zariski._root(coeffs)
            assert exact + Q(coeffs[1], den) * (root - point[0]) == 0


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2), st.lists(st.lists(st.integers(-60, 60), min_size=3, max_size=3), max_size=8), st.data())
def test_bulk_values_are_the_row_values(n, rows, data):
    """_values of 0-, 1- and 2-parameter rows at a rational point is each row's value there times the denominators."""
    rows = [tuple(c[:n + 1]) for c in rows]
    point = [data.draw(st.fractions(min_value=-3, max_value=3, max_denominator=9)) for _ in range(n)]
    scale = 1
    for x in point:
        scale *= x.denominator
    bulk = zariski._values(rows, *point)
    assert all(type(v) is int for v in bulk)
    assert bulk == [sum((x * y for x, y in zip(c, [1, *point])), Q(0)) * scale for c in rows]


def _dp4_vec(*entries):
    return tuple(Q(x) for x in entries)


class TestVectorKernel:
    def test_multiplicity_constant_in_t(self):
        # (3 + t)L + 2e1 has support e1 with nu = 2 for every t, since L.e1 = 0
        vecs = (_dp4_vec(3, 2, 0, 0, 0, 0), _dp4_vec(1, 0, 0, 0, 0, 0))
        _, certs, _ = _check_against_reference(DP4, ("t",), vecs, ["e1"])
        assert certs[0] == ("mult", "e1", Polynomial.constant(2, ("t",)))
        assert [kind for kind, _, _ in certs] == ["mult"] + ["nef"] * len(DP4.curve_labels)
        vf = one_param_volume(DP4, (p("3 + t", ("t",)), 2, 0, 0, 0, 0), 0, 1)
        assert [c.support for c in vf.chambers] == [("e1",)]
        assert vf.pw.pieces[0].poly == p("(3 + t)^2", ("t",))

    def test_indefinite_support_raises_in_both(self):
        bad = SurfaceModel(
            "bad",
            ("a", "b"),
            [[-1, 2], [2, -1]],
            negative_curves={"a": (1, 0), "b": (0, 1)},
            eff_generators={"g": (-1, -1)},
        )
        vecs = (_dp4_vec(-3, -3), _dp4_vec(1, 0))
        got = _check_against_reference(bad, ("t",), vecs, ["a", "b"])
        assert got[0] is IndefiniteSupport
        assert _outcome(_decompose, bad, _dp4_vec(-3, -3)) == _outcome(
            reference_decompose, bad, _dp4_vec(-3, -3)
        )
        assert _outcome(_decompose, bad, _dp4_vec(-3, -3))[0] is IndefiniteSupport

    def test_rational_gram_pairings(self):
        c, e = RATIONAL.negative_curves["c"], RATIONAL.negative_curves["e"]
        assert RATIONAL.curve_labels == ("c", "e")
        assert [RATIONAL.pair(c, x) for x in (c, e)] == [Q(-1, 18), Q(10, 9)]
        assert [RATIONAL.pair(e, x) for x in (c, e)] == [Q(10, 9), Q(-2, 9)]
        for v in (c, e, (Q(1, 5), Q(2, 7))):
            ints, den = scaled(v)
            got = [Q(x, den * RATIONAL._gc_den) for x in RATIONAL._pairings(ints)]
            assert got == [RATIONAL.pair(v, x) for x in (c, e)]

    def test_terms_of_degree_two_are_rejected(self):
        with pytest.raises(InvalidModel, match="affine"):
            _affine_vectors((p("t^2", ("t",)), 0), ("t",), "family must be affine")
        with pytest.raises(InvalidModel, match="affine"):
            _affine_vectors((p("t*s", ("t", "s")), 0), ("t", "s"), "family must be affine")
        with pytest.raises(InvalidModel, match="affine in its parameter"):
            one_param_volume(DP4, (p("4 - t^2", ("t",)), -1, -1, -1, -1, -1), 0, 1)
        with pytest.raises(InvalidModel, match="affine in t"):
            two_param_flag_volume(DP4, (p("4 - t^2", ("t",)), -1, -1, -1, -1, -1), 0, 1, "L")

    def test_an_entry_in_another_variable_is_rejected(self):
        # the parameter is read off the family, so entries in t and u leave it ambiguous
        family = (p("4 - t", ("t",)), p("-1 + u", ("u",)), -1, -1, -1, -1)
        with pytest.raises(InvalidModel, match="ambiguous family variable: \\['t', 'u'\\]"):
            two_param_flag_volume(DP4, family, 0, 1, "L")
        with pytest.raises(InvalidModel, match="ambiguous family variable: \\['t', 'u'\\]"):
            one_param_volume(DP4, family, 0, 1)


@st.composite
def surface_classes(draw):
    """A surface and a class: a rational nonnegative combination of curves,
    sometimes pushed off the cone by a random vector."""
    surface = draw(st.sampled_from(KERNEL_SURFACES))
    labels = sorted(surface.negative_curves)
    d = [Q(0)] * surface.rank
    for label in draw(st.lists(st.sampled_from(labels), min_size=1, max_size=5)):
        w = draw(st.fractions(min_value=0, max_value=3, max_denominator=4))
        d = [x + w * y for x, y in zip(d, surface.negative_curves[label])]
    if draw(st.booleans()):
        d = [x + draw(fractions) for x in d]
    return surface, tuple(d)


@settings(max_examples=150, deadline=None)
@given(surface_classes())
@example((DP4, _dp4_vec(Q(9, 4), -1, -1, -1, -1, -1)))
@example((RATIONAL, (Q(1), Q(-5))))
@example((A2, _dp4_vec(1, 2, 1)))
def test_decompose_matches_reference(case):
    surface, d = case
    assert _outcome(_decompose, surface, d) == _outcome(reference_decompose, surface, d)


def test_decompose_second_round():
    res = _decompose(A2, _dp4_vec(1, 2, 1))
    assert res.support == ("c1", "c2")
    assert res.negative == (("c1", Q(2)), ("c2", Q(1)))
    assert res.positive == _dp4_vec(1, 0, 0)
    assert res.support_gram == ((-2, 1), (1, -2))


@st.composite
def family_points(draw):
    """A surface, an affine one-parameter family on it (constant part a
    nonnegative combination of curves, random slope) and a rational point."""
    surface = draw(st.sampled_from(KERNEL_SURFACES))
    labels = sorted(surface.negative_curves)
    const = [Q(0)] * surface.rank
    for label in draw(st.lists(st.sampled_from(labels), min_size=1, max_size=4)):
        w = draw(st.fractions(min_value=0, max_value=3, max_denominator=3))
        const = [x + w * y for x, y in zip(const, surface.negative_curves[label])]
    slope = tuple(draw(fractions) for _ in range(surface.rank))
    point = draw(st.fractions(min_value=-1, max_value=2, max_denominator=9))
    return surface, (tuple(const), slope), point


@settings(max_examples=150, deadline=None)
@given(family_points())
@example((DP4, (_dp4_vec(3, -1, -1, -1, -1, -1), _dp4_vec(0, -1, 0, 0, 0, 0)), Q(5, 4)))
@example((A2, (_dp4_vec(1, 2, 1), _dp4_vec(0, 0, 0)), Q(1, 3)))
def test_iterative_decomposition_at_a_point_matches_reference(case):
    """The family's decomposition at t, rebuilt in Fractions, is the reference decomposition of its class at t."""
    surface, vecs, t = case
    got = _outcome(zariski._iterative_decomposition, surface, _integer_family(vecs), {}, t)
    want = _outcome(reference_decompose, surface, tuple(c + s * t for c, s in zip(*vecs)))
    if isinstance(want, tuple):  # (error type, message)
        assert got == want
        return
    ((p0, p1), den), certs = got
    mults = [(label, c, d) for kind, label, c, d in _labelled_rows(surface, certs) if kind == "mult"]
    assert certs.support == want.support
    assert tuple((label, Q(c0, d) + Q(c1, d) * t) for label, (c0, c1), d in mults) == want.negative
    assert tuple(Q(x, den) + Q(y, den) * t for x, y in zip(p0, p1)) == want.positive


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(KERNEL_SURFACES), st.data())
def test_support_gram_is_the_scaled_fraction_gram(surface, data):
    support = sorted(data.draw(st.sets(st.sampled_from(surface.curve_labels), min_size=1)))
    scale = surface._curve_den * surface._gc_den
    curves = surface.negative_curves
    want = [[surface.pair(curves[a], curves[b]) * scale for b in support] for a in support]
    got = zariski._support_gram(surface, support)
    assert all(type(x) is int for row in got for x in row)
    assert got == want


def test_the_chamber_loops_decompose_each_cell_once(monkeypatch):
    """Each cell's decomposition runs on its family: the class-vector decomposition is never called."""
    def refuse(*args):
        raise AssertionError("a chamber loop decomposed a class vector")

    monkeypatch.setattr(zariski, "_decompose", refuse)
    moving = (3, p("-1 - t", ("t",)), -1, -1, -1, -1)  # -K - t*e1
    vf = one_param_volume(DP4, moving, 0, 3)
    assert [(c.lo, c.hi, c.support) for c in vf.chambers] == [
        (0, 1, ()), (1, Q(3, 2), ("conic", "l_12", "l_13", "l_14", "l_15")), (Q(3, 2), 3, ()),
    ]
    flag = two_param_flag_volume(DP4, moving, 0, 1, "L")
    ((t_lo, t_hi, cells),) = [(c.t_lo, c.t_hi, c.cells) for c in flag.chambers]
    assert (t_lo, t_hi) == (0, 1)
    assert [(str(c.s_lo), str(c.s_hi), c.support) for c in cells] == [
        ("0", "1/2 - 1/2*t", ()),
        ("1/2 - 1/2*t", "1 - t", ("conic",)),
        ("1 - t", "1 - 2/3*t", ("conic", "l_12", "l_13", "l_14", "l_15")),
    ]
    assert flag.integral() == Q(53, 72)
    constant = two_param_flag_volume(DP4, (3, -1, -1, -1, -1, -1), 0, 1, "L")
    assert [[(str(c.s_lo), str(c.s_hi), c.support) for c in ch.cells] for ch in constant.chambers] == [
        [("0", "1/2", ()), ("1/2", "1", ("conic",))]
    ]
    assert constant.integral() == Q(3, 2)


def test_the_certificates_of_a_support_are_one_record_decided_in_bulk(monkeypatch):
    """A support's certificates are one record of integer rows, decided a whole support at a time.

    The record constructors are counted by profiling one symbolic
    decomposition on dP4's 16 curves.  _values is counted in a march, a
    class decomposition and a flag decomposition: each round, end, wall or
    corner takes one call over all its rows, never one call per row.
    """
    inits = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "__init__" and frame.f_code.co_filename == records.__file__:
            inits.append(frame.f_locals["self"].__class__)

    family = _integer_family((_dp4_vec(3, -1, -1, -1, -1, -1), _dp4_vec(0, -1, 0, 0, 0, 0)))
    sys.setprofile(profile)
    try:
        (_, den), certs = _symbolic_decomposition(DP4, family, ["conic", "l_12"])
    finally:
        sys.setprofile(None)
    assert inits == [zariski._Certs]
    assert len(certs.rows) == 2 + len(DP4.curve_labels)
    assert all(type(row) is tuple and all(type(x) is int for x in row) for row in certs.rows)

    sizes = []
    values = zariski._values

    def counted(rows, *point):
        rows = list(rows)
        sizes.append(len(rows))
        return values(rows, *point)

    monkeypatch.setattr(zariski, "_values", counted)
    chambers = zariski._march_one_param(DP4, family, {}, Q(0), Q(3, 2))
    assert [(ch.lo, ch.hi, ch.support) for ch in chambers] == [
        (0, 1, ()), (1, Q(3, 2), ("conic", "l_12", "l_13", "l_14", "l_15")),
    ]
    assert _decompose(DP4, dp4_class(Q(9, 4), -1, -1, -1, -1, -1)).negative == (("conic", Q(1, 2)),)
    flag = two_param_flag_volume(DP4, (3, p("-1 - t", ("t",)), -1, -1, -1, -1), 0, 1, "L")
    assert sum(len(ch.cells) for ch in flag.chambers) == 3
    # every call is over a whole support's rows, a class's coordinates or one wall gap
    assert set(sizes) <= {1, DP4.rank} | {len(DP4.curve_labels) + k for k in range(6)}
    assert len(sizes) < 60


# -- the threefold certificate: the residual in the cone at both chamber ends ----


def test_a_residual_off_the_declared_basis_certifies():
    # with H = (1, 0) declared effective too, the E table's residual 2t*Qtilde
    # has a free variable; pinned to 0 it read as 4t*H - 2t*E, a negative E
    m = bl_p3_quintic()
    model = ThreefoldModel(
        "bl_h", m.basis, m.triple, m.anticanonical, curves=m.curves,
        effective_classes={**m.effective_classes, "H": (1, 0)}, divisors=m.divisors, chambers=m.chambers,
    )
    vol_e = threefold_volume_certified(model, "E")
    assert s_invariant(vol_e, 22) == Q(1, 4)
    assert s_invariant(threefold_volume_certified(model, "Qtilde"), 22) == Q(19, 22)
    assert vol_e == threefold_volume_certified(bl_p3_quintic(), "E")


def test_a_residual_outside_the_cone_names_the_chamber_end():
    # P = -K on [0, 1]: the residual -t*E is in the cone at t = 0 only
    chambers = (Chamber(Q(0), Q(1), qvec((4, -1)), qvec((0, 0))),)
    with pytest.raises(CertificateViolation, match="residual at t = 1 on \\[0, 1\\]"):
        threefold_volume_certified(with_table(bl_p3_quintic(), (0, 1), chambers), "B")


_small = st.integers(-3, 3)
_vec2 = st.tuples(_small, _small)


@st.composite
def rank2_tables(draw):
    """bl_p3_quintic's form and curves with 1-4 random effective classes, a
    random divisor B and a chamber table over walls t_0 < ... < t_n.  The
    table is continuous by construction: P runs affinely between its values
    at the walls, each the class -K - t_i*B - R_i for a residual R_i that is
    a nonnegative combination of the effective classes or a random class."""
    base = bl_p3_quintic()
    gens = draw(st.lists(_vec2, min_size=1, max_size=4))
    b = draw(_vec2)
    walls = sorted(draw(st.sets(st.fractions(0, 3, max_denominator=3), min_size=2, max_size=4)))
    weights = st.lists(st.fractions(0, 2, max_denominator=2), min_size=len(gens), max_size=len(gens))
    in_cone_residual = weights.map(lambda w: tuple(sum(x * g[i] for x, g in zip(w, gens)) for i in (0, 1)))
    residuals = [draw(st.one_of(in_cone_residual, in_cone_residual, _vec2)) for _ in walls]
    k = base.anticanonical
    values = [tuple(k[i] - t * b[i] - r[i] for i in (0, 1)) for t, r in zip(walls, residuals)]
    chambers = []
    for (lo, p_lo), (hi, p_hi) in zip(zip(walls, values), zip(walls[1:], values[1:])):
        p1 = tuple((y - x) / (hi - lo) for x, y in zip(p_lo, p_hi))
        chambers.append(Chamber(lo, hi, tuple(x - lo * v for x, v in zip(p_lo, p1)), p1))
    model = ThreefoldModel(
        "rank2", base.basis, base.triple, base.anticanonical, curves=base.curves,
        effective_classes={f"g{i}": g for i, g in enumerate(gens)}, divisors={"B": b}, chambers={"B": chambers},
    )
    return model, b, tuple(chambers)


@settings(max_examples=200, deadline=None)
@given(rank2_tables())
def test_the_threefold_certificate_matches_the_rank2_oracle(case):
    model, b, chambers = case
    gens = list(model.effective_classes.values())
    want = True
    for ch in chambers:
        for t in (ch.lo, ch.hi):
            p = [x + t * y for x, y in zip(ch.p0, ch.p1)]
            residual = [k - t * bi - x for k, bi, x in zip(model.anticanonical, b, p)]
            pairs = [sum(x * c for x, c in zip(p, curve)) for curve in model.curves.values()]
            want = want and reference_in_rank2_cone(gens, residual) and all(x >= 0 for x in pairs)
    try:
        vf = threefold_volume_certified(model, "B")
    except CertificateViolation:
        assert not want
    else:
        assert want
        assert [(c.lo, c.hi) for c in vf.chambers] == [(c.lo, c.hi) for c in chambers]


# -- the basis-verified flag threshold against the three-LP probe ---------------


def sing_line_surface(c, k):
    """sing_line(g, k), g = c^2 + 1, restricted to its anticanonical surface A.

    The Gram is diag(2g - 2, -2) = diag(2c^2, -2), whatever k is.  E is the
    negative curve; the cone is spanned by E and the isotropic class
    R = A - cE, so that the volume vanishes on the cone's boundary.
    """
    model = sing_line_model(c * c + 1, k)
    base = restrict_to_surface(model, model.anticanonical, [(1, 0), (0, 1)])
    return SurfaceModel(
        base.name, base.basis, base.gram,
        negative_curves={"E": (0, 1)}, eff_generators={"E": (0, 1), "R": (1, -c)},
    )


@st.composite
def flag_families(draw):
    """A(t) = a0 + t*a1 and a curve Z on dp4 or a sing_line(g, k) restriction.

    a0 is an ample class (-K on dp4, A on the restriction) plus a
    nonnegative combination of cone generators, a1 a small integer
    combination of them; Z is a generator or a basis class.
    """
    if draw(st.booleans()):
        surface, a0 = DP4, [3, -1, -1, -1, -1, -1]
    else:
        surface, a0 = sing_line_surface(draw(st.integers(2, 6)), draw(st.integers(0, 12))), [1, 0]
    pool = sorted(surface.eff_generators.values())
    a1 = [0] * surface.rank
    for g in draw(st.lists(st.sampled_from(pool), max_size=3)):
        a0 = [x + draw(st.integers(0, 2)) * y for x, y in zip(a0, g)]
    for g in draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3)):
        a1 = [x + draw(st.integers(-1, 1)) * y for x, y in zip(a1, g)]
    units = [tuple(int(i == j) for j in range(surface.rank)) for i in range(surface.rank)]
    z = draw(st.sampled_from(pool + units))
    family = tuple(_poly(("t",), (c, s)) for c, s in zip(a0, a1))
    return surface, family, draw(st.sampled_from([Q(1, 2), Q(1), Q(2)])), z


def _flag_outcome(surface, family, hi, z):
    try:
        return two_param_flag_volume(surface, family, 0, hi, z)
    except KstabError as exc:
        return type(exc), str(exc)


def _rational(family):
    """The frozen probe's inputs: A(t)'s vectors (A0, A1) and -Z as rationals, from the integer flag family."""
    (a0, a1, minus_z), den = family
    return tuple(tuple(Q(x, den) for x in v) for v in (a0, a1)), tuple(Q(x, den) for x in minus_z)


def _probe(family, gens, lp, t_lo, t_hi, lines):
    return reference_parametric_threshold(*_rational(family), gens, lp.value, t_lo, t_hi)


def _proved_thresholds(surface, family, hi, z):
    """The flag outcome, and each (arguments, tau) that the optimal basis proved."""
    proved = []
    real = zariski._threshold_from_basis

    def spy(*args):
        tau = real(*args)
        proved.append((args, tau))
        return tau

    with mock.patch.object(zariski, "_threshold_from_basis", spy):
        return _flag_outcome(surface, family, hi, z), proved


T = Polynomial.var("t")


def _moving(minus_k):
    """-K - t*e1."""
    return tuple(Polynomial.constant(x, ("t",)) - (T if i == 1 else 0) for i, x in enumerate(minus_k))


L4, L3 = (1, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0, 0)
MINUS_K4, MINUS_K3 = (3, -1, -1, -1, -1, -1), (3, -1, -1, -1, -1, -1, -1)


@settings(max_examples=60, deadline=None)
@given(flag_families())
@example((DP4, MINUS_K4, Q(1), L4))
@example((DP4, _moving(MINUS_K4), Q(1), L4))
@example((DP3, _moving(MINUS_K3), Q(1), L3))
def test_basis_threshold_matches_three_lp_probe(case):
    got, proved = _proved_thresholds(*case)
    for (family, gens, lp, t_lo, t_hi, _), tau in proved:
        if tau is not None:
            assert reference_parametric_threshold(*_rational(family), gens, lp.value, t_lo, t_hi) == tau
    with mock.patch.object(zariski, "_parametric_threshold", _probe):
        want = _flag_outcome(*case)
    assert got == want


def test_moving_flag_takes_both_routes():
    # -K - t*e1 against L on the cubic surface: tau(t) has a kink in [0, 1/2],
    # so the first two t-chambers fall back to the probe, which splits at it,
    # and the three chambers after the splits are proved from the basis alone
    got, proved = _proved_thresholds(DP3, _moving(MINUS_K3), Q(1), L3)
    assert isinstance(got, zariski.FlagDecomposition)
    assert [tau is not None for _, tau in proved] == [False, False, True, True, True]


def test_a_dual_off_the_basis_sends_the_chamber_to_the_probe():
    # doubling the midpoint dual keeps it feasible (y*g >= 0, y*Z >= 1) but
    # it no longer prices the basis: y*A(t) = 2*tau(t), so no tau is proved;
    # -K/2 puts the integer family over the denominator 2
    gens = [DP4.eff_generators[k] for k in sorted(DP4.eff_generators)]
    for a in (MINUS_K4, tuple(Q(x, 2) for x in MINUS_K4)):
        a_vecs = _affine_vectors(a, ("t",), "affine")
        minus_z = tuple(-x for x in L4)
        family = _integer_family((*a_vecs, minus_z))
        lp = max_shift(a_vecs[0], minus_z, gens)
        assert zariski._threshold_from_basis(family, gens, lp, Q(0), Q(1), {}) == (lp.value, 0)
        doubled = LPResult(lp.value, lp.x, lp.basis, tuple(2 * y for y in lp.dual))
        assert zariski._threshold_from_basis(family, gens, doubled, Q(0), Q(1), {}) is None
    assert family[1] == 2


@pytest.mark.parametrize(
    "make, minus_k, line", [(dp4_surface, MINUS_K4, L4), (dp3_surface, MINUS_K3, L3)], ids=["dp4", "dp3"]
)
def test_a_warmed_cone_leaves_the_chamber_records_unchanged(make, minus_k, line, monkeypatch):
    """The flag and one-parameter records on a surface whose cone first
    answered 30 zariski_decompose and 30 pseff_threshold queries equal those
    of a fresh surface, though the LPs whose basis and dual prove tau start
    from the remembered bases too: a basis that proves tau proves the exact
    tau, and the chamber splits do not depend on the basis."""
    remembered_by = []

    def spy(*args):
        # spy <- solve_equality_lp <- max_shift or in_cone <- the zariski caller
        remembered_by.append((sys._getframe(2).f_code.co_name, sys._getframe(3).f_code.co_name))
        return _remembered(*args)

    monkeypatch.setattr("kstab.lp._remembered", spy)
    rng = random.Random(14)
    warmed = make()
    curves = warmed.negative_curves
    labels = sorted(curves)
    for _ in range(30):
        weights = {c: rng.randint(0, 3) for c in rng.sample(labels, rng.randint(1, 4))}
        d = tuple(sum(w * curves[c][i] for c, w in weights.items()) for i in range(warmed.rank))
        zariski_decompose(warmed, d)
        pseff_threshold(warmed, d, rng.choice(labels))
    assert warmed._cone._bases
    calls = [
        lambda s: two_param_flag_volume(s, minus_k, 0, 1, line),
        lambda s: two_param_flag_volume(s, _moving(minus_k), 0, 1, line),
        lambda s: one_param_volume(s, _moving(minus_k), 0, 3),
    ]
    for call in calls:
        got, want = call(warmed), call(make())
        assert got == want
        if isinstance(got, zariski.VolumeFunction):
            assert got.pw.pieces == want.pw.pieces  # with their labels
    assert ("max_shift", "_certify_t_chamber") in remembered_by


# -- one memo per family: each support decomposed, each basis solved, once per call ----


@pytest.mark.parametrize("tvar", ["s", "", 3], ids=["same-as-t", "empty", "not-a-string"])
def test_the_flag_variables_must_be_two_distinct_names(tvar):
    # the outer parameter is read off the family and the inner one is s: a
    # family in s would make both s, one in "" was taken as it stood, and
    # one in 3 raised a bare TypeError
    family = tuple(Polynomial.constant(x, (tvar,)) - (Polynomial.var(tvar) if i == 1 else 0) for i, x in enumerate(MINUS_K4))
    with pytest.raises(InvalidModel, match=f"two distinct names, not {tvar!r} and 's'"):
        two_param_flag_volume(DP4, family, 0, 1, "L")


def test_a_flag_family_in_s_is_rejected():
    # the inner parameter is always s: a family in s would build its cells
    # in ('s', 's'), where a volume reads 4 - 6*s - 2*s + s^2 - s^2
    in_s = tuple(Polynomial.constant(x, ("s",)) - (Polynomial.var("s") if i == 1 else 0) for i, x in enumerate(MINUS_K4))
    with pytest.raises(InvalidModel, match="must not be in s"):
        two_param_flag_volume(DP4, in_s, 0, 1, "L")
    with pytest.raises(InvalidModel, match="must not be in s"):
        two_param_flag_volume(DP4, (p("3", ("s",)), -1, -1, -1, -1, -1), 0, 1, "L")
    # any other name is the outer parameter
    in_u = two_param_flag_volume(QUADRIC, (p("3 - u", ("u",)), p("2*u", ("u",))), 0, 1, (1, 1))
    assert (in_u.tvar, in_u.svar) == ("u", "s")
    assert in_u.chambers[0].cells[0].volume == p("2*(3 - u - s)*(2*u - s)", ("u", "s"))
    assert in_u.integral() == Q(7, 3)


def test_a_flag_call_decomposes_each_support_and_solves_each_basis_once(monkeypatch):
    # -K - t*e1 against L on the cubic surface: its t-chambers and s-cells
    # made 21 decompositions of 3 supports when each cell and each chamber
    # decomposed afresh; one memo per call makes 3, and the next call
    # keeps nothing of it
    def spy(name, log, entry):
        real = getattr(zariski, name)
        monkeypatch.setattr(zariski, name, lambda *args: log.append(entry(args)) or real(*args))

    supports, bases, solves = [], [], []
    spy("_symbolic_decomposition", supports, lambda args: tuple(args[2]))
    spy("_threshold_from_basis", bases, lambda args: args[2].basis)
    spy("solve_each", solves, lambda args: None)
    flag = two_param_flag_volume(DP3, _moving(MINUS_K3), 0, 1, L3)
    assert sorted(supports) == [(), tuple(f"c_{i}" for i in range(1, 7)), tuple(f"c_{i}" for i in range(2, 7))]
    # each basis with s basic is solved for its tau-line once, and then read
    s_basic = [tuple(b) for b in bases if b and b[0] == 0]
    assert (len(bases), len(s_basic), len(set(s_basic)), len(solves)) == (5, 5, 2, 2)
    assert two_param_flag_volume(DP3, _moving(MINUS_K3), 0, 1, L3) == flag
    assert (len(supports), len(solves)) == (6, 4)


@st.composite
def memo_families(draw):
    """dP4 or dP3, A(t) = -K + A0 + t*A1 (A0 >= 0 and A1 small integer
    combinations of cone generators), an interval end and a direction Z."""
    surface, minus_k = draw(st.sampled_from([(DP4, MINUS_K4), (DP3, MINUS_K3)]))
    pool = sorted(surface.eff_generators.values())
    a0, a1 = list(minus_k), [0] * surface.rank
    for g in draw(st.lists(st.sampled_from(pool), max_size=2)):
        a0 = [x + draw(st.integers(0, 2)) * y for x, y in zip(a0, g)]
    for g in draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3)):
        a1 = [x + draw(st.integers(-1, 1)) * y for x, y in zip(a1, g)]
    units = [tuple(int(i == j) for j in range(surface.rank)) for i in range(surface.rank)]
    family = tuple(_poly(("t",), (c, s)) for c, s in zip(a0, a1))
    return surface, family, draw(st.sampled_from([Q(1, 2), Q(1), Q(2)])), draw(st.sampled_from(pool + units))


def _without_memos():
    """Patches under which every decomposition and every tau-line is computed afresh.

    Each _iterative_decomposition starts from an empty memo and leaves only
    its own result for the flag's cell rebuild to read, and each
    _threshold_from_basis solves its basis again.
    """
    iterative, from_basis = zariski._iterative_decomposition, zariski._threshold_from_basis

    def fresh(surface, family, memo, *point):
        positive, certs = iterative(surface, family, {}, *point)
        memo[certs.support] = positive, certs
        return positive, certs

    return (
        mock.patch.object(zariski, "_iterative_decomposition", fresh),
        mock.patch.object(zariski, "_threshold_from_basis", lambda *args: from_basis(*args[:5], {})),
    )


@settings(max_examples=40, deadline=None)
@given(memo_families())
@example((DP3, _moving(MINUS_K3), Q(1), L3))
@example((DP4, _moving(MINUS_K4), Q(2), L4))
def test_the_memos_change_no_record(case):
    """Flag and one-parameter records, with the memos and with none, are equal, and so are the integrals."""
    surface, family, hi, z = case
    calls = [lambda: two_param_flag_volume(surface, family, 0, hi, z), lambda: one_param_volume(surface, family, 0, hi)]
    for call in calls:
        got = _outcome(call)
        fresh, from_basis = _without_memos()
        with fresh, from_basis:
            want = _outcome(call)
        assert got == want
        if isinstance(got, FlagDecomposition):
            assert got.integral() == want.integral()
        elif isinstance(got, zariski.VolumeFunction):
            assert got.pw.pieces == want.pw.pieces  # with their labels


@settings(max_examples=40, deadline=None)
@given(memo_families(), st.fractions(min_value=0, max_value=1, max_denominator=6))
@example((DP3, _moving(MINUS_K3), Q(1), L3), Q(1, 4))
def test_the_march_at_a_fixed_t_is_the_march_of_the_class_there(case, t):
    """The s-march on (A0, A1, -Z) at t makes the chambers (lo, hi, support,
    upper_cert) of the march on (A(t), -Z), and its positive parts at t are
    that march's."""
    surface, family, _, z = case
    a_vecs = _affine_vectors(family, ("t",), "affine")
    minus_z = tuple(-x for x in surface.class_vector(z))
    a_t = zariski._at((a_vecs, 1), t)
    gens = zariski._eff_data(surface)
    if in_cone(gens, a_t) is None:
        return
    try:
        tau = max_shift(a_t, minus_z, gens).value
    except Unbounded:
        return
    if tau == 0:
        return

    def at_t(positive):
        vecs, den = positive
        if len(vecs) == 3:
            vecs = (tuple(c + t * x for c, x in zip(*vecs[:2])), vecs[2])
        return tuple(tuple(Q(x, den) for x in v) for v in vecs)

    def chambers(march):
        if isinstance(march, tuple):  # (error type, message)
            return march
        return [(c.lo, c.hi, c.support, c.upper_cert, at_t(c.positive)) for c in march]

    family_2p = _integer_family((*a_vecs, minus_z))
    got = _outcome(zariski._march_one_param, surface, family_2p, {}, Q(0), tau, t)
    want = _outcome(zariski._march_one_param, surface, _integer_family((a_t, minus_z)), {}, Q(0), tau)
    assert chambers(got) == chambers(want)
