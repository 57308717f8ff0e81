"""Toric polytope tests.

Volumes were derived by hand (prism = triangle area 3/2 times height 2;
bipyramid = two pyramids over a lattice triangle of area 9/2) and the
asymmetric control's dual barycenter (1/4, -1/4, 0) by the pyramid-centroid
formula, all before running the engine.  The integer facet scan and facet
polygon order are checked against the original Fraction routines frozen in
``oracles``.
"""

import itertools
import random
from fractions import Fraction as Q
from math import lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from kstab import toric
from kstab.errors import DegeneratePolytope, InvariantViolation, NotReflexive, OriginNotInterior
from kstab.toric import (
    Facet,
    LatticePolytope,
    anticanonical_degree,
    asymmetric_reflexive,
    barycenter,
    bipyramid,
    cube,
    is_reflexive,
    octahedron,
    polar_dual,
    prism,
    simplex_p3,
    toric_kps_check,
    volume,
)
from oracles import (
    reference_facets,
    reference_ordered_facet_vertices,
    reference_polytope,
    reference_rank,
    reference_volume_barycenter,
)


class TestHull:
    def test_redundant_points_dropped(self):
        p = LatticePolytope(list(cube().vertices) + [(0, 0, 0), (1, 1, 0)])
        assert p == cube()

    def test_degenerate_rejected(self):
        # coplanar (also on a rational plane), collinear, one point, none
        for points in (
            [(0, 0, 0), (1, 0, 0), (0, 1, 0), (2, 3, 0)],
            [(0, 0, 0), (1, 0, Q(1, 2)), (0, 1, Q(1, 2)), (1, 1, 1), (2, -1, Q(1, 2))],
            [(1, 1, 1), (2, 2, 2), (-1, -1, -1), (Q(1, 2), Q(1, 2), Q(1, 2))],
            [(1, 2, 3), (1, 2, 3)],
            [],
        ):
            with pytest.raises(DegeneratePolytope):
                LatticePolytope(points)

    def test_facet_counts(self):
        assert len(cube().facets) == 6
        assert len(octahedron().facets) == 8
        assert len(prism().facets) == 5
        assert len(bipyramid().facets) == 6

    def test_coplanar_merging(self):
        # a cube facet proposed by many triples is reported once
        facet_normals = {f.normal for f in cube().facets}
        assert facet_normals == {
            (1, 0, 0),
            (-1, 0, 0),
            (0, 1, 0),
            (0, -1, 0),
            (0, 0, 1),
            (0, 0, -1),
        }


class TestPolarDual:
    def test_prism_dual_is_bipyramid(self):
        assert polar_dual(prism()) == bipyramid()

    def test_cube_octahedron(self):
        assert polar_dual(cube()) == octahedron()
        assert polar_dual(octahedron()) == cube()

    def test_involution_on_prism(self):
        assert polar_dual(polar_dual(prism())) == prism()

    def test_origin_must_be_interior(self):
        shifted = LatticePolytope([(v[0] + 5, v[1], v[2]) for v in cube().vertices])
        with pytest.raises(OriginNotInterior):
            polar_dual(shifted)


class TestReflexive:
    def test_examples(self):
        assert is_reflexive(prism())
        assert is_reflexive(cube())
        assert is_reflexive(simplex_p3())
        assert is_reflexive(asymmetric_reflexive())

    def test_stretched_octahedron_not_reflexive(self):
        p = LatticePolytope([(2, 0, 0), (-2, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)])
        assert not is_reflexive(p)


class TestVolumeBarycenter:
    def test_prism(self):
        assert volume(prism()) == 3
        assert barycenter(prism()) == (0, 0, 0)

    def test_bipyramid(self):
        assert volume(bipyramid()) == 3
        assert barycenter(bipyramid()) == (0, 0, 0)

    def test_cube(self):
        assert volume(cube()) == 8
        assert barycenter(cube()) == (0, 0, 0)

    def test_independent_triangulations_agree(self):
        # the Qhull triangles of each polytope and of its dual, whose
        # vertices have denominators for the stretched octahedron
        stretched = LatticePolytope([(2, 0, 0), (-2, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)])
        for p in (prism(), bipyramid(), cube(), octahedron(), simplex_p3(), asymmetric_reflexive(), stretched):
            for q in (p, polar_dual(p)):
                assert (volume(q), barycenter(q)) == reference_volume_barycenter(q.vertices)

    def test_asymmetric_dual_barycenter(self):
        dual = polar_dual(asymmetric_reflexive())
        assert barycenter(dual) == (Q(1, 4), Q(-1, 4), 0)


class TestDegreesAndKps:
    def test_prism_degree(self):
        assert anticanonical_degree(prism()) == 18

    def test_simplex_degree(self):
        assert anticanonical_degree(simplex_p3()) == 64

    def test_octahedron_degree(self):
        assert anticanonical_degree(octahedron()) == 48

    def test_non_integer_degree_raises(self, monkeypatch):
        # raised, not asserted, so the check survives python -O
        monkeypatch.setattr(toric, "volume", lambda p: Q(1, 7))
        with pytest.raises(InvariantViolation):
            anticanonical_degree(prism())

    def test_not_reflexive_rejected(self):
        p = LatticePolytope([(2, 0, 0), (-2, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)])
        with pytest.raises(NotReflexive):
            anticanonical_degree(p)

    def test_prism_kps(self):
        flag, bary = toric_kps_check(prism())
        assert flag and bary == (0, 0, 0)

    def test_simplex_kps(self):
        flag, _ = toric_kps_check(simplex_p3())
        assert flag

    def test_asymmetric_fails_kps(self):
        flag, bary = toric_kps_check(asymmetric_reflexive())
        assert not flag
        assert bary != (0, 0, 0)


def random_unimodular(rng):
    """Product of elementary shears and signed permutations: det = +-1."""
    m = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for _ in range(6):
        i, j = rng.sample(range(3), 2)
        c = rng.randint(-2, 2)
        for col in range(3):
            m[i][col] += c * m[j][col]
    perm = list(rng.sample(range(3), 3))
    signs = [rng.choice((1, -1)) for _ in range(3)]
    return [[signs[r] * m[perm[r]][col] for col in range(3)] for r in range(3)]


def transform(polytope, m):
    """The image of the polytope under the integer matrix m."""
    return LatticePolytope([tuple(sum(a * x for a, x in zip(row, v)) for row in m) for v in polytope.vertices])


class TestEquivariance:
    def test_unimodular_invariance(self):
        rng = random.Random(5)
        base = prism()
        vol0, bary0, deg0 = volume(base), barycenter(base), anticanonical_degree(base)
        for _ in range(10):
            m = random_unimodular(rng)
            moved = transform(base, m)
            assert volume(moved) == vol0
            expected = tuple(
                sum(Q(m[r][c]) * bary0[c] for c in range(3)) for r in range(3)
            )
            assert barycenter(moved) == expected
            assert anticanonical_degree(moved) == deg0


COORDS = st.one_of(st.integers(-2, 2), st.fractions(-2, 2, max_denominator=3))
POINT_SETS = st.lists(st.tuples(COORDS, COORDS, COORDS), min_size=4, max_size=20)
# a square with its centre and an edge midpoint under an apex: collinear
# triples and a five-point coplanar facet
COPLANAR = [(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (1, 1, 0), (1, 0, 0), (1, 1, 2)]


def _rational_facets(pts):
    """toric._facets read back as Facets, or None if it rejects the points as flat."""
    try:
        scale, facets = toric._facets(pts)
    except DegeneratePolytope:
        return None
    assert all(isinstance(x, int) for (n, c), _ in facets for x in (*n, c))
    return tuple(Facet(tuple(Q(x) for x in n), Q(c, scale), tuple(pts[i] for i in on)) for (n, c), on in facets)


def _flat(pts):
    return reference_rank([[b - a for a, b in zip(pts[0], p)] for p in pts[1:]]) < 3


@settings(max_examples=40, deadline=None)
@given(POINT_SETS)
@example(COPLANAR)
def test_facet_scan_matches_reference(points):
    pts = tuple(sorted({tuple(Q(x) for x in p) for p in points}))
    assert _rational_facets(pts) == (None if _flat(pts) else reference_facets(pts))


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.lists(st.tuples(*[st.integers(-3, 3)] * 3), min_size=4, max_size=12), POINT_SETS))
@example(COPLANAR)
def test_volume_and_barycenter_match_reference(points):
    # the integer triangulation on integer clouds (scale = vertex count) and
    # rational ones and their polar duals (the denominators enter the scale)
    try:
        p = LatticePolytope(points)
    except DegeneratePolytope:
        return
    for q in [p, polar_dual(p)] if p.contains_origin_interior() else [p]:
        assert (volume(q), barycenter(q)) == reference_volume_barycenter(q.vertices)


@settings(max_examples=40, deadline=None)
@given(POINT_SETS)
@example(COPLANAR)
def test_polytope_matches_reference(points):
    try:
        p = LatticePolytope(points)
    except DegeneratePolytope:
        return
    assert (p.vertices, p.facets) == reference_polytope(points)


def _vertices(p):
    return [tuple(int(x) for x in v) for v in p.vertices]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(*[st.integers(-2, 2)] * 3), min_size=4, max_size=12))
@example(_vertices(prism()))
@example(_vertices(cube()))
@example(_vertices(octahedron()))
def test_facet_order_matches_reference(points):
    # a lattice polytope, and its rational polar dual when the origin is inside
    try:
        p = LatticePolytope(points)
    except DegeneratePolytope:
        return
    # the order is taken on the vertices scaled to integers, by the
    # polytope's common denominator times 3 here (any positive scale)
    polytopes = [p, polar_dual(p)] if p.contains_origin_interior() else [p]
    for q in polytopes:
        scale = 3 * lcm(*(x.denominator for v in q.vertices for x in v))
        for f in q.facets:
            ints = [tuple(int(x * scale) for x in v) for v in f.vertices]
            expected = [tuple(int(x * scale) for x in v) for v in reference_ordered_facet_vertices(f)]
            assert toric._ordered_facet_vertices(ints, f.normal) == expected


@settings(max_examples=40, deadline=None)
@given(POINT_SETS)
@example(_vertices(prism()))
@example(_vertices(asymmetric_reflexive()))
def test_polar_dual_is_a_stored_involution(points):
    try:
        p = LatticePolytope(points)
    except DegeneratePolytope:
        return
    if not p.contains_origin_interior():
        return
    assert polar_dual(p) is polar_dual(p)
    assert polar_dual(polar_dual(p)).vertices == p.vertices


def test_each_polytope_is_triangulated_once(monkeypatch):
    # the degree reads vol(P*) and the criterion bar(P*): one triangulation of P*
    seen = []
    real = toric._ordered_facet_vertices

    def spy(ring, normal):
        seen.append(normal)
        return real(ring, normal)

    monkeypatch.setattr(toric, "_ordered_facet_vertices", spy)
    p = asymmetric_reflexive()
    anticanonical_degree(p)
    assert not toric_kps_check(p)[0]
    assert len(seen) == len(polar_dual(p).facets)


GRID5 = [(x, y, z) for x in range(-2, 3) for y in range(-2, 3) for z in range(-2, 3)]
# x^2 + y^2 + z^2 = 27: the 24 permutations of (+-5, +-1, +-1) and the 8 points (+-3, +-3, +-3)
SHELL27 = [(x, y, z) for x in range(-5, 6) for y in range(-5, 6) for z in range(-5, 6) if x * x + y * y + z * z == 27]


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(*[st.integers(-2, 2)] * 3), min_size=4, max_size=30))
@example(SHELL27)
def test_large_clouds_match_reference(points):
    # many points interior to the hull or coplanar with a facet, where the
    # incremental hull skips and extends; the oracle tries every triple
    pts = tuple(sorted({tuple(Q(x) for x in p) for p in points}))
    assert _rational_facets(pts) == (None if _flat(pts) else reference_facets(pts))
    try:
        p = LatticePolytope(points)
    except DegeneratePolytope:
        return
    assert (p.vertices, p.facets) == reference_polytope(points)


def test_grid_and_shell_hulls():
    grid = LatticePolytope(GRID5)
    assert grid == LatticePolytope(list(itertools.product((-2, 2), repeat=3)))
    assert len(grid.facets) == 6
    assert all(len(on) == 25 for _, on in toric._facets(sorted(tuple(Q(x) for x in p) for p in GRID5))[1])
    shell = LatticePolytope(SHELL27)
    assert len(SHELL27) == 32 and len(shell.vertices) == 32


@pytest.mark.parametrize("side", [1, 3])
def test_hull_cost_follows_the_vertices(monkeypatch, side):
    # the (2 side + 1)^3 grid has 8 vertices: the hull tries a few dozen
    # triples, where every triple of the 27 or 343 points would be 2 925 or
    # 6 667 165
    seen = []
    real = toric._planes

    def spy(triples, pts):
        triples = list(triples)
        seen.extend(triples)
        return real(triples, pts)

    monkeypatch.setattr(toric, "_planes", spy)
    grid = LatticePolytope(list(itertools.product(range(-side, side + 1), repeat=3)))
    assert len(grid.vertices) == 8 and len(grid.facets) == 6
    assert 0 < len(seen) <= 100
