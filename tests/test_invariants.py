"""Stability invariant tests.

The two flag values 53/88 and 1/2 and the divisorial values 1/4 and 19/22
were verified by hand against the chamber data before being frozen here;
the numeric quadrature cross-check lives in test_properties.py.  The value
73/88 for the line flag is the engine's own (oracle-confirmed) correction
of the printed 29/44 - see tests/test_acceptance.py for the full story.
"""

from fractions import Fraction as Q

import pytest

from kstab.errors import InvalidModel, NonpositiveVolume
from kstab.intersect import bl_p3_quintic, dp4_surface, quadric_surface, sing_line_model
from kstab.invariants import (
    FlagReport,
    beta,
    refined_s_flag,
    restricted_family,
    s_invariant,
    sing_line_bound,
)
from kstab.poly import PiecewisePolynomial, Polynomial, parse_polynomial
from kstab.zariski import VolumeFunction, threefold_volume_certified

DP4 = dp4_surface()
QUADRIC = quadric_surface()


def p(text, variables):
    return parse_polynomial(text, variables)


def volume_function(pw):
    """A volume function with no chamber records, as s_invariant takes it."""
    return VolumeFunction(pw, (), "relative to declared curves")


def dp4_restriction():
    c = ("t",)
    family = (
        p("4 - 2*t", c),
        p("-1 + 1/2*t", c),
        p("-1 + 1/2*t", c),
        p("-1 + 1/2*t", c),
        p("-1 + 1/2*t", c),
        p("-1 + 1/2*t", c),
    )
    return [(Q(0), Q(2), family)]


def quadric_restriction():
    c = ("t",)
    return [
        (Q(0), Q(1), (p("3 - t", c), p("2*t", c))),
        (Q(1), Q(2), (p("4 - 2*t", c), p("4 - 2*t", c))),
    ]


class TestSInvariant:
    def test_exceptional_divisor(self):
        vf = threefold_volume_certified(bl_p3_quintic(), "E")
        assert s_invariant(vf, 22) == Q(1, 4)

    def test_quadric_strict_transform(self):
        vf = threefold_volume_certified(bl_p3_quintic(), "Qtilde")
        assert s_invariant(vf, 22) == Q(19, 22)

    def test_constant_volume(self):
        pw = PiecewisePolynomial([(0, 1, p("22", ("t",)))])
        assert s_invariant(volume_function(pw), 22) == 1

    def test_nonpositive_volume_rejected(self):
        pw = PiecewisePolynomial([(0, 1, p("22", ("t",)))])
        with pytest.raises(NonpositiveVolume):
            s_invariant(volume_function(pw), 0)

    def test_wrong_normalization_rejected(self):
        pw = PiecewisePolynomial([(0, 1, p("22", ("t",)))])
        with pytest.raises(InvalidModel):
            s_invariant(volume_function(pw), 11)

    def test_scaling_identity(self):
        # testing c*E instead of E divides S by c: t -> t/c scales each t^k by c^-k
        vf = threefold_volume_certified(bl_p3_quintic(), "E")
        c = Q(3, 2)
        scaled_pieces = [
            (piece.lo * c, piece.hi * c, Polynomial(("t",), {(k,): a / c**k for (k,), a in piece.poly.coeffs.items()}))
            for piece in vf.pw.pieces
        ]
        scaled = PiecewisePolynomial(scaled_pieces, "t")
        assert s_invariant(volume_function(scaled), 22) == s_invariant(vf, 22) * c
        # S(cE) = S(E)/c reads: the family -K - t(cE) = -K - (tc)E

    def test_beta_values(self):
        verdict = beta("Qtilde", 1, Q(19, 22))
        assert verdict.beta == Q(3, 22)
        assert verdict.classification == "positive"
        assert beta("x", 1, 1).classification == "semistable-boundary"
        assert beta("E_line", 1, sing_line_bound(12, 1)).classification == "unstable-witness"


class TestSingLineBound:
    def test_equality_case(self):
        assert sing_line_bound(12, 0) == 1

    @pytest.mark.parametrize("g,k", [(2, 0), (12, -1)])
    def test_out_of_range_inputs_are_invalid_models(self, g, k):
        # the same inputs sing_line_model rejects
        for make in (sing_line_bound, sing_line_model):
            with pytest.raises(InvalidModel):
                make(g, k)

    def test_closed_form_values(self):
        assert sing_line_bound(12, 3) == 1 + Q(3, 44)
        assert sing_line_bound(13, 0) == 1 + Q(1, 48)

    def test_route_equality(self):
        # closed form == assembled chamber-integral route, exactly
        for g in range(12, 21):
            for k in range(0, 5):
                model = sing_line_model(g, k)
                vf = threefold_volume_certified(model, "E")
                assembled = s_invariant(vf, 2 * g - 2)
                assert assembled == sing_line_bound(g, k), (g, k)


class TestFlagInvariants:
    def test_ruling_flag(self):
        report = refined_s_flag(DP4, dp4_restriction(), (1, 0, 0, 0, 0, 0), 22, curve_label="l2")
        assert report.value == Q(53, 88)
        assert report.prefactor == "3/22"

    def test_line_flag_engine_value(self):
        report = refined_s_flag(DP4, dp4_restriction(), (1, -1, -1, 0, 0, 0), 22, curve_label="l1")
        assert report.value == Q(73, 88)

    def test_quadric_diagonal(self):
        report = refined_s_flag(QUADRIC, quadric_restriction(), (1, 1), 22, curve_label="diag")
        assert report.value == Q(1, 2)

    def test_flag_halves_under_doubled_curve(self):
        single = refined_s_flag(DP4, dp4_restriction(), (1, 0, 0, 0, 0, 0), 22)
        double = refined_s_flag(DP4, dp4_restriction(), (2, 0, 0, 0, 0, 0), 22)
        assert double.value == single.value / 2

    def test_report_is_nonnegative_and_documents_cells(self):
        report = refined_s_flag(DP4, dp4_restriction(), (1, 0, 0, 0, 0, 0), 22)
        assert report.value >= 0
        assert len(report.cells) == 2
        assert isinstance(report, FlagReport)


class TestRestrictedFamily:
    @pytest.mark.parametrize(
        "divisor,images",
        [
            ("Qtilde", ((1, 1), (1, 3))),  # E.E.Qtilde = 8, but (1, 3)^2 = 6
            ("Qtilde", ((1, 4), (1, 1))),  # H.H.Qtilde = 2, but (1, 4)^2 = 8
            ("E", ((1, 1), (1, 4))),  # the map of Qtilde, checked against E
            ("Qtilde", ((1, 1),)),  # one image for a basis of two
            ("Qtilde", ((1, 1), (1, 4), (0, 1))),
            ("Qtilde", ((1, 1), (1, 4, 0))),  # not a class on the quadric
        ],
    )
    def test_a_wrong_restriction_map_is_an_invalid_model(self, divisor, images):
        with pytest.raises(InvalidModel):
            restricted_family(bl_p3_quintic(), divisor, QUADRIC, images)
