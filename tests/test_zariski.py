"""Zariski decomposition tests.

The exhaustive-subset oracle at the bottom re-derives decompositions with
no shared code path: it enumerates every negative-definite subset of the
declared curves, solves for the candidate negative part, and keeps the
unique subset whose certificates all hold.  DERIVED chamber data for the
flag decompositions was computed by hand from the dp4 Gram diag(1,-1^5).
The threefold certificate solves for both residual vectors in one
elimination; it is checked against two separate solves, by the engine's
``solve_general`` and by the original elimination frozen in ``oracles``.
"""

import itertools
import random
from fractions import Fraction as Q
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from kstab import zariski
from kstab.errors import (
    CertificateViolation,
    IndefiniteSupport,
    InvalidModel,
    KstabError,
    NotPseudoEffective,
    UnboundedDirection,
)
from kstab.intersect import (
    Chamber,
    SurfaceModel,
    bl_p3_quintic,
    blowup_node,
    dp4_surface,
    quadric_surface,
    restrict_to_surface,
    sing_line_model,
)
from kstab.lp import LPResult, Unbounded, max_shift
from kstab.poly import Polynomial, check_c1, parse_polynomial
from kstab.rationals import is_negative_definite, qvec, solve_general
from oracles import (
    reference_decompose,
    reference_pair_poly,
    reference_parametric_threshold,
    reference_solve_general,
    reference_symbolic_decomposition,
)
from kstab.zariski import (
    _affine_combination,
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
    assert den > 0 and all(c.den > 0 for c in certs)
    assert all(type(x) is int for v in pvecs for x in v) and all(type(x) is int for c in certs for x in c.coeffs)
    positive = tuple(_poly(variables, [Q(x, den) for x in c]) for c in zip(*pvecs))
    return (
        positive,
        [(c.kind, c.label, _poly(variables, [Q(x, c.den) for x in c.coeffs])) for c in certs],
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
    for cert in got[1]:
        exact = sum((Q(x, cert.den) * y for x, y in zip(cert.coeffs, [1, *point])), Q(0))
        assert _sign(zariski._value(cert.coeffs, *point)) == _sign(exact)
        if len(variables) == 1 and cert.coeffs[1]:
            (root,) = zariski._root(cert.coeffs)
            assert exact + Q(cert.coeffs[1], cert.den) * (root - point[0]) == 0


def _dp4_vec(*entries):
    return tuple(Q(x) for x in entries)


class TestVectorKernel:
    def test_multiplicity_constant_in_t(self):
        # (3 + t)L + 2e1 has support e1 with nu = 2 for every t, since L.e1 = 0
        vecs = (_dp4_vec(3, 2, 0, 0, 0, 0), _dp4_vec(1, 0, 0, 0, 0, 0))
        _, certs, _ = _check_against_reference(DP4, ("t",), vecs, ["e1"])
        assert certs[0] == ("mult", "e1", Polynomial.constant(2, ("t",)))
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
        assert RATIONAL.curve_pairings(c) == (Q(-1, 18), Q(10, 9))
        assert RATIONAL.curve_pairings(e) == (Q(10, 9), Q(-2, 9))
        assert RATIONAL.curve_pairings((Q(1, 5), Q(2, 7))) == tuple(
            RATIONAL.pair((Q(1, 5), Q(2, 7)), x) for x in (c, e)
        )

    def test_terms_of_degree_two_are_rejected(self):
        with pytest.raises(InvalidModel, match="affine"):
            _affine_vectors((p("t^2", ("t",)), 0), ("t",), "family must be affine")
        with pytest.raises(InvalidModel, match="affine"):
            _affine_vectors((p("t*s", ("t", "s")), 0), ("t", "s"), "family must be affine")
        with pytest.raises(InvalidModel, match="affine in its parameter"):
            one_param_volume(DP4, (p("4 - t^2", ("t",)), -1, -1, -1, -1, -1), 0, 1)
        with pytest.raises(InvalidModel, match="affine in t"):
            two_param_flag_volume(DP4, (p("4 - t^2", ("t",)), -1, -1, -1, -1, -1), 0, 1, "L")


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


# -- the threefold certificate: one elimination for both residual vectors -----

THREEFOLDS = (bl_p3_quintic(),) + tuple(sing_line_model(g, k) for g, k in ((12, 0), (12, 1), (12, 2), (10, 1)))


def _separate_solves(solve, residual, eff_vecs):
    mat = [[v[i] for v in eff_vecs] for i in range(len(residual[0]))]
    x0, x1 = solve(mat, list(residual[0])), solve(mat, list(residual[1]))
    return None if x0 is None or x1 is None else list(zip(x0, x1))


def _check_combination(residual, eff_vecs):
    got = _affine_combination(residual, eff_vecs)
    assert got == _separate_solves(solve_general, residual, eff_vecs)
    assert got == _separate_solves(reference_solve_general, residual, eff_vecs)
    return got


@pytest.mark.parametrize("model", THREEFOLDS, ids=lambda m: m.name)
def test_affine_combination_on_declared_chambers(model):
    eff_vecs = [model.effective_classes[label] for label in sorted(model.effective_classes)]
    for divisor, chambers in model.chambers.items():
        b = model.class_vector(divisor)
        for ch in chambers:
            residual = (
                tuple(x - y for x, y in zip(model.anticanonical, ch.p0)),
                tuple(-x - y for x, y in zip(b, ch.p1)),
            )
            assert _check_combination(residual, eff_vecs) is not None


@st.composite
def affine_residuals(draw):
    """Effective classes and a residual: half an affine combination of them, half arbitrary."""
    vec = st.tuples(*[fractions] * draw(st.integers(1, 4)))
    eff_vecs = draw(st.lists(vec, max_size=4))
    if eff_vecs and draw(st.booleans()):
        coeffs = [(draw(fractions), draw(fractions)) for _ in eff_vecs]
        residual = tuple(
            tuple(sum((c[j] * x for c, x in zip(coeffs, col)), Q(0)) for col in zip(*eff_vecs)) for j in (0, 1)
        )
    else:
        residual = (draw(vec), draw(vec))
    return residual, eff_vecs


@settings(max_examples=150, deadline=None)
@given(affine_residuals())
# parallel classes: a free variable, which stays at zero; no classes at all
@example((((Q(1), Q(2)), (Q(3), Q(6))), [(Q(1), Q(2)), (Q(2), Q(4))]))
@example((((Q(0), Q(1)), (Q(0), Q(0))), []))
def test_affine_combination_matches_separate_solves(case):
    _check_combination(*case)


def test_affine_combination_inconsistent():
    eff_vecs = [(Q(0), Q(1))]
    # inconsistent in the constant vector, then in the slope vector only
    assert _check_combination(((Q(1), Q(0)), (Q(0), Q(0))), eff_vecs) is None
    assert _check_combination(((Q(0), Q(1)), (Q(1), Q(1))), eff_vecs) is None
    assert _check_combination(((Q(0), Q(2)), (Q(0), Q(-1))), eff_vecs) == [(2, -1)]


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


def _probe(a_vecs, minus_z, gens, lp, t_lo, t_hi):
    return reference_parametric_threshold(a_vecs, minus_z, gens, lp.value, t_lo, t_hi)


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
    for (a_vecs, minus_z, gens, lp, t_lo, t_hi), tau in proved:
        if tau is not None:
            assert reference_parametric_threshold(a_vecs, minus_z, gens, lp.value, t_lo, t_hi) == tau
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
    # it no longer prices the basis: y*A(t) = 2*tau(t), so no tau is proved
    gens = [DP4.eff_generators[k] for k in sorted(DP4.eff_generators)]
    a_vecs = _affine_vectors(MINUS_K4, ("t",), "affine")
    minus_z = tuple(-x for x in L4)
    lp = max_shift(a_vecs[0], minus_z, gens)
    assert zariski._threshold_from_basis(a_vecs, minus_z, gens, lp, Q(0), Q(1)) == (lp.value, 0)
    doubled = LPResult(lp.value, lp.x, lp.basis, tuple(2 * y for y in lp.dual))
    assert zariski._threshold_from_basis(a_vecs, minus_z, gens, doubled, Q(0), Q(1)) is None
