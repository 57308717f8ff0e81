"""Zariski decomposition tests.

The exhaustive-subset oracle at the bottom re-derives decompositions with
no shared code path: it enumerates every negative-definite subset of the
declared curves, solves for the candidate negative part, and keeps the
unique subset whose certificates all hold.  DERIVED chamber data for the
flag decompositions was computed by hand from the dp4 Gram diag(1,-1^5).
"""

import random
from fractions import Fraction as Q

import pytest

from kstab.errors import (
    CertificateViolation,
    IndefiniteSupport,
    NotPseudoEffective,
    UnboundedDirection,
)
from kstab.intersect import (
    Chamber,
    SurfaceModel,
    bl_p3_quintic,
    dp4_surface,
    quadric_surface,
    sing_line_model,
)
from kstab.lp import Unbounded, max_shift
from kstab.poly import Polynomial, check_c1, parse_polynomial
from kstab.rationals import is_negative_definite, qvec
from kstab.zariski import (
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
        assert is_negative_definite([[Q(x) for x in row] for row in res.support_gram])
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
        a = (p("3 - u", ("u",)), p("2*u", ("u",)))
        flag = two_param_flag_volume(QUADRIC, a, 0, 1, (1, 1), tvar="u", svar="v")
        cells = flag.chambers[0].cells
        assert len(cells) == 1
        assert cells[0].s_hi == p("2*u", ("u",))
        assert cells[0].volume == p("2*(3 - u - v)*(2*u - v)", ("u", "v"))
        assert flag.integral() == Q(7, 3)

    def test_quadric_flag_second_piece(self):
        a = (p("4 - 2*u", ("u",)), p("4 - 2*u", ("u",)))
        flag = two_param_flag_volume(QUADRIC, a, 1, 2, (1, 1), tvar="u", svar="v")
        assert flag.integral() == Q(4, 3)

    def test_volume_vanishes_at_threshold(self):
        flag = two_param_flag_volume(DP4, flag_A_polys(), 0, 2, dp4_class(1, 0, 0, 0, 0, 0))
        last = flag.chambers[0].cells[-1]
        assert last.volume.subs("s", last.s_hi).is_zero()


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
        vf = threefold_volume_certified(m, (0, 0), chambers=chambers)
        assert vf.pw.pieces[0].poly == Polynomial.constant(22, ("t",))

    def test_bad_positive_part_rejected(self):
        m = bl_p3_quintic()
        # claim P = -K on all of [0,2]: the residual u*Qtilde - (stuff) fails
        chambers = (Chamber(Q(0), Q(2), qvec((4, -1)), qvec((0, 0))),)
        with pytest.raises(CertificateViolation):
            threefold_volume_certified(m, "Qtilde", chambers=chambers)

    def test_discontinuous_chambers_rejected(self):
        m = bl_p3_quintic()
        # (3 - 3t/2)H passes both endpoint certificates on [1,2] but does
        # not glue to the first chamber's volume at t = 1
        chambers = (
            Chamber(Q(0), Q(1), qvec((4, -1)), qvec((-2, 1))),
            Chamber(Q(1), Q(2), qvec((3, 0)), qvec((Q(-3, 2), 0))),
        )
        with pytest.raises(ValueError, match="discontinuity"):
            threefold_volume_certified(m, "Qtilde", chambers=chambers)


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
