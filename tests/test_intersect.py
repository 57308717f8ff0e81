"""Intersection-ring tests.

The closed form (4H - E)^3 = 62 - 8d + 2g for blowups of P^3 along curves
is implemented here independently of the tensor contraction, per the
dual-route requirement; restriction Grams are checked against values
computed by hand from the preset tensors.  The integer cubic form behind
``triple_product`` and ``affine_cube`` is compared with the r^3 loop of
``Polynomial`` products it replaced (``oracles.reference_triple_product``)
on random classes, random affine chambers and every declared chamber.
A surface's integer Gram * C rows, built from the Gram scaled to integers
once, are compared with the ``Fraction`` products of ``gram_vector``.
"""

import itertools
import random
from fractions import Fraction as Q
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from kstab.errors import InvalidModel
from kstab.intersect import (
    SurfaceModel,
    ThreefoldModel,
    affine_cube,
    anticanonical_volume,
    bl_p3_quintic,
    blowup_node,
    blowup_p3_curve,
    blowup_v4_conic,
    dp4_surface,
    quadric_surface,
    restrict_to_surface,
    sing_line_model,
    triple_product,
)
from kstab.models import PRESET_NAMES, preset
from kstab.poly import Polynomial
from oracles import reference_triple_product


class TestTripleProduct:
    def test_quintic_volume(self):
        m = bl_p3_quintic()
        k = m.anticanonical
        assert triple_product(m, k, k, k) == 22

    def test_sing_line_contraction(self):
        m = sing_line_model(12, 0)
        v = (Q(1), Q(-1))
        assert triple_product(m, v, v, v) == 12

    def test_zero_argument(self):
        m = bl_p3_quintic()
        h = (Q(1), Q(0))
        assert triple_product(m, h, h, (Q(0), Q(0))) == 0

    def test_symmetry_and_multilinearity(self):
        m = blowup_p3_curve(3, 1)
        rng = random.Random(7)
        for _ in range(20):
            a, b, c = (tuple(Q(rng.randint(-4, 4)) for _ in range(2)) for _ in range(3))
            base = triple_product(m, a, b, c)
            for perm in itertools.permutations((a, b, c)):
                assert triple_product(m, *perm) == base
            scaled = tuple(Q(3, 2) * x for x in a)
            assert triple_product(m, scaled, b, c) == Q(3, 2) * base
            shifted = tuple(x + y for x, y in zip(a, b))
            assert triple_product(m, shifted, b, c) == base + triple_product(m, b, b, c)

    def test_affine_family_cube(self):
        # (A - tE)^3 on the singular-line model = 22 - 6t^2 - 4t^3
        m = sing_line_model(12, 0)
        assert affine_cube(m, (1, 0), (0, -1)) == (22, 0, -6, -4)

    def test_polynomial_entries_are_rejected(self):
        t = Polynomial.var("t")
        with pytest.raises(TypeError):
            triple_product(sing_line_model(12, 0), (1, -t), (1, 0), (1, 0))


THREEFOLD_PRESETS = ("bl_node_22", "bl_p3_quintic", "bl_v4_conic", "sing_line")
fractions = st.fractions(min_value=-5, max_value=5, max_denominator=7)


@st.composite
def threefold_models(draw):
    """Every threefold preset, sing_line(g, k) for any g >= 3 and k >= 0, and random forms."""
    kind = draw(st.sampled_from(THREEFOLD_PRESETS + ("sing_line(g,k)", "random")))
    if kind == "sing_line(g,k)":
        return preset(f"sing_line({draw(st.integers(3, 40))},{draw(st.integers(0, 12))})")
    if kind == "random":
        r = draw(st.integers(1, 4))
        keys = list(itertools.combinations_with_replacement(range(r), 3))
        triple = {key: draw(fractions) for key in keys if draw(st.booleans())}
        return ThreefoldModel("random", [f"b{i}" for i in range(r)], triple, [1] * r)
    return preset(kind)


def _vectors(draw, model, n):
    return [tuple(draw(fractions) for _ in range(model.rank)) for _ in range(n)]


class TestAgainstThePolynomialContraction:
    """The integer form against the r^3 loop it replaced, frozen in oracles."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_triple_product(self, data):
        model = data.draw(threefold_models())
        a, b, c = _vectors(data.draw, model, 3)
        assert triple_product(model, a, b, c) == reference_triple_product(model, a, b, c)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_random_affine_chambers(self, data):
        model = data.draw(threefold_models())
        p0, p1 = _vectors(data.draw, model, 2)
        t = Polynomial.var("t")
        p_t = [Polynomial.constant(x, ("t",)) + y * t for x, y in zip(p0, p1)]
        cubic = reference_triple_product(model, p_t, p_t, p_t)
        cubic = cubic if isinstance(cubic, Polynomial) else Polynomial.constant(cubic, ("t",))
        assert affine_cube(model, p0, p1) == tuple(cubic.coefficient((k,)) for k in range(4))

    @pytest.mark.parametrize("name", THREEFOLD_PRESETS + ("sing_line(12,1)", "sing_line(12,2)", "sing_line(10,1)"))
    def test_declared_chambers(self, name):
        from kstab.zariski import threefold_volume_certified

        model = preset(name)
        t = Polynomial.var("t")
        for divisor, chambers in model.chambers.items():
            vf = threefold_volume_certified(model, divisor)
            for piece, ch in zip(vf.pw.pieces, chambers):
                p_t = [Polynomial.constant(x, ("t",)) + y * t for x, y in zip(ch.p0, ch.p1)]
                assert piece.poly == reference_triple_product(model, p_t, p_t, p_t)


class TestBlowupPresets:
    @pytest.mark.parametrize("d,g,expected", [(5, 0, 22), (1, 0, 54), (2, 0, 46)])
    def test_p3_curve_volumes(self, d, g, expected):
        assert anticanonical_volume(blowup_p3_curve(d, g)) == expected

    def test_p3_curve_closed_form(self):
        # oracle: the closed form 62 - 8d + 2g, implemented independently
        for d in range(1, 21):
            for g in range(0, 6):
                assert anticanonical_volume(blowup_p3_curve(d, g)) == 62 - 8 * d + 2 * g

    def test_node_volume(self):
        m = blowup_node(22)
        assert anticanonical_volume(m) == 20

    def test_node_requires_even_volume(self):
        with pytest.raises(InvalidModel):
            blowup_node(0)
        with pytest.raises(InvalidModel):
            blowup_node(21)

    def test_v4_conic_volume(self):
        m = blowup_v4_conic()
        assert anticanonical_volume(m) == 22
        l = (Q(1), Q(0))
        assert triple_product(m, l, l, l) == 4

    def test_sing_line_numbers(self):
        m = sing_line_model(12, 3)
        e = (Q(0), Q(1))
        assert triple_product(m, e, e, e) == 1  # 4 - k at k = 3
        assert anticanonical_volume(sing_line_model(12, 0)) == 22

    def test_quintic_curve_pairings(self):
        m = bl_p3_quintic()
        # nef throughout [0,2]: the generic line; pinned at u=1: the ruling fiber
        p = (Q(4) - 2 * Q(1), -(Q(1) - Q(1)))
        assert m.curve_pairing("line", p) == 2
        assert m.curve_pairing("fiber", (Q(0), Q(-1))) == 1


class TestRestriction:
    def test_node_restriction(self):
        m = blowup_node(22)
        s = (Q(1), Q(-1))
        surf = restrict_to_surface(m, s, [(1, 0), (0, 1)])
        assert surf.gram == ((Q(22), Q(0)), (Q(0), Q(-2)))

    def test_v4_restriction(self):
        m = blowup_v4_conic()
        s = (Q(2), Q(-1))
        surf = restrict_to_surface(m, s, [(2, -1), (1, 0)])
        assert surf.gram == ((Q(22), Q(14)), (Q(14), Q(8)))

    def test_zero_surface(self):
        m = blowup_v4_conic()
        surf = restrict_to_surface(m, (0, 0), [(1, 0), (0, 1)])
        assert all(x == 0 for row in surf.gram for x in row)

    def test_symmetric_for_random_tensors(self):
        rng = random.Random(11)
        for _ in range(10):
            triple = {}
            for idx in itertools.combinations_with_replacement(range(3), 3):
                triple[idx] = Q(rng.randint(-5, 5))
            from kstab.intersect import ThreefoldModel

            m = ThreefoldModel("rand", ("a", "b", "c"), triple, (1, 0, 0))
            s = tuple(Q(rng.randint(-3, 3)) for _ in range(3))
            basis = [tuple(Q(rng.randint(-2, 2)) for _ in range(3)) for _ in range(3)]
            surf_gram = restrict_to_surface(m, s, basis).gram
            for i in range(3):
                for j in range(3):
                    assert surf_gram[i][j] == surf_gram[j][i]


class TestSurfaces:
    def test_dp4_sixteen_curves(self):
        s = dp4_surface()
        assert len(s.negative_curves) == 16
        for cls in s.negative_curves.values():
            assert s.square(cls) == -1
            assert s.pair(s.canonical, cls) == -1  # -K . C = 1

    def test_dp4_conic_square(self):
        s = dp4_surface()
        assert s.square(s.negative_curves["conic"]) == -1

    def test_dp4_degree(self):
        s = dp4_surface()
        assert s.square(s.canonical) == 4

    def test_quadric_pairing(self):
        s = quadric_surface()
        assert s.square((3, 2)) == 12
        assert s.square(s.canonical) == 8
        assert not s.negative_curves

    def test_negative_curve_validation(self):
        from kstab.intersect import SurfaceModel

        with pytest.raises(InvalidModel):
            SurfaceModel("bad", ("x",), [[1]], negative_curves={"c": (1,)})


def _fraction_gc_rows(surface):
    """Gram * C for every curve by Fraction products, over the least common denominator."""
    gcs = [
        tuple(sum((g * x for g, x in zip(row, surface.negative_curves[label])), Q(0)) for row in surface.gram)
        for label in surface.curve_labels
    ]
    den = lcm(*(x.denominator for gc in gcs for x in gc))
    return den, [tuple(x.numerator * (den // x.denominator) for x in gc) for gc in gcs]


SURFACE_PRESETS = [name for name in PRESET_NAMES if isinstance(preset(name), SurfaceModel)]


@st.composite
def surface_grams(draw):
    """A symmetric rational Gram of rank 1-4 and 1-5 curves with rational entries."""
    r = draw(st.integers(1, 4))
    entries = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    gram = [[Q(0)] * r for _ in range(r)]
    for i in range(r):
        for j in range(i, r):
            gram[i][j] = gram[j][i] = draw(entries)
    curves = {f"c{k}": tuple(draw(entries) for _ in range(r)) for k in range(draw(st.integers(1, 5)))}
    return gram, curves


class TestIntegerGramRows:
    @pytest.mark.parametrize("name", SURFACE_PRESETS)
    def test_presets(self, name):
        s = preset(name)
        assert (s._gc_den, s._gc_rows) == _fraction_gc_rows(s)

    def test_restricted_surface_with_denominators(self):
        base = restrict_to_surface(blowup_node(22), (1, -1), [(Q(1, 2), Q(1, 3)), (0, Q(1, 3))])
        s = SurfaceModel("node|S", base.basis, base.gram, negative_curves={"c": (1, -6), "e": (0, 1)})
        assert s._gc_den > 1
        assert (s._gc_den, s._gc_rows) == _fraction_gc_rows(s)

    @settings(max_examples=200, deadline=None)
    @given(surface_grams())
    def test_random_grams(self, case):
        gram, curves = case
        basis = [f"b{i}" for i in range(len(gram))]

        def square(c):
            return sum(x * gram[i][j] * y for i, x in enumerate(c) for j, y in enumerate(c))

        negative = {k: c for k, c in curves.items() if square(c) < 0}
        s = SurfaceModel("random", basis, gram, negative_curves=negative)
        assert (s._gc_den, s._gc_rows) == _fraction_gc_rows(s)
        # the Gram and the curves as integers over one positive denominator each
        assert [[Q(x, s._gram_den) for x in row] for row in s._int_gram] == [list(row) for row in s.gram]
        assert {k: tuple(Q(x, s._curve_den) for x in v) for k, v in s._curve_ints.items()} == s.negative_curves
        if len(negative) < len(curves):
            with pytest.raises(InvalidModel, match="square >= 0"):
                SurfaceModel("random", basis, gram, negative_curves=curves)
