"""Lattice polytopes in rank 3: exact hulls, polar duals, toric criteria.

The hull is built by beneath-beyond insertion (Preparata and Hong 1977) on
the points scaled to integers, added farthest-first from their centroid.
Four affinely independent points seed a tetrahedron.  A later point on or
beneath every current facet plane lies in the hull so far: it costs one
side check per facet and is dropped.  A point beyond some facets removes
them and adds each plane through it and two kept points on a removed facet
that has every kept point on one side.  This is exact: a facet of
conv(S + p) that misses p is a facet of conv(S), and one through p either
lies in the plane of a facet of conv(S) that p is on, which stays, or is
spanned by p and an edge of conv(S) on a facet that p is beyond.  So the
cost follows the vertices, not the points: the 343 points of [-3, 3]^3 try
19 triples, not C(343, 3).  A set with no four affinely independent points
has no seed and is rejected as flat.  A final scan reads each facet's
points.  All arithmetic is on integers, immune to the degeneracies of
floating-point hulls.  Volume and barycenter cone each facet fan from the
vertex average on the vertices scaled to integers, and build one Fraction
per result.

Polar duality uses the convention that pairs a reflexive polytope with the
convex hull of the *inward* facet normals, P* = {y : <y, x> >= -1 for all
x in P}; facets of a reflexive polytope sit at lattice distance one, and
this is the pairing under which the engine reproduces its reference data.
The two classical conventions differ by a global sign, which changes no
volume, no degree, and no barycenter-vanishing test.

The dimension is fixed at three on purpose: it keeps the hull code small
and exactly verifiable, and it is all the Fano-threefold applications need.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cmp_to_key
from math import gcd
from typing import Iterable, Sequence

from .errors import DegeneratePolytope, InvariantViolation, NotReflexive, OriginNotInterior

from .rationals import Q, scaled, to_q
from .records import Record

Vec3 = tuple[Fraction, Fraction, Fraction]


def _cross(a: Sequence[Fraction], b: Sequence[Fraction]) -> Vec3:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _sub(a: Sequence[Fraction], b: Sequence[Fraction]) -> Vec3:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


class Facet(Record):
    normal: Vec3  # primitive integer outward normal
    offset: Fraction  # <normal, x> <= offset on the polytope
    vertices: tuple[Vec3, ...]


class LatticePolytope:
    """Full-dimensional polytope in rank 3 with exact rational vertices.

    Construction canonicalizes the input: duplicates and non-extreme points
    are dropped, so ``vertices`` are exactly the extreme points.
    """

    def __init__(self, points: Iterable[Sequence]):
        pts = sorted({tuple(to_q(x) for x in p) for p in points})
        if any(len(p) != 3 for p in pts):
            raise ValueError("points must be 3-vectors")
        scale, facets = _facets(pts)
        # a point is extreme iff the facets through it have normals of rank 3
        through: list[list[tuple[int, ...]]] = [[] for _ in pts]
        for (n, _), on in facets:
            for i in on:
                through[i].append(n)
        extreme = [_spans_space(normals) for normals in through]
        self.vertices: tuple[Vec3, ...] = tuple(p for p, keep in zip(pts, extreme) if keep)
        self.facets: tuple[Facet, ...] = tuple(
            Facet(tuple(Q(x) for x in n), Q(c, scale), tuple(pts[i] for i in on if extreme[i]))
            for (n, c), on in facets
        )
        self._dual: LatticePolytope | None = None
        self._tets: tuple[int, list] | None = None  # _triangulation, built on first use

    def __eq__(self, other):
        return isinstance(other, LatticePolytope) and self.vertices == other.vertices

    def __repr__(self):
        return f"LatticePolytope({[tuple(map(str, v)) for v in self.vertices]})"

    def is_lattice(self) -> bool:
        return all(x.denominator == 1 for v in self.vertices for x in v)

    def contains_origin_interior(self) -> bool:
        return all(f.offset > 0 for f in self.facets)


def _spans_space(normals: Sequence[tuple[int, ...]]) -> bool:
    """True iff the integer 3-vectors have rank 3."""
    for a, b in itertools.combinations(normals, 2):
        axb = _cross(a, b)
        if axb != (0, 0, 0):
            return any(_dot(axb, c) for c in normals)
    return False


def _planes(triples: Iterable[tuple[tuple[int, ...], ...]], pts: Sequence[tuple[int, ...]]) -> set:
    """The primitive outward planes (n, c), <n, x> <= c, through the given
    triples of integer points that have every point of ``pts`` on one side.

    Each distinct plane gets one side scan, recorded for it and its
    negation; ``pts`` spans space, so no plane holds every point.
    """
    # each plane's side decision, for (n, c) and (-n, -c): the outward plane, or None
    decided: dict[tuple[tuple[int, ...], int], tuple | None] = {}
    for a, b, c in triples:
        n = _cross(_sub(b, a), _sub(c, a))
        if n == (0, 0, 0):
            continue
        g = gcd(*n)
        n = n0, n1, n2 = (n[0] // g, n[1] // g, n[2] // g)
        offset = n0 * a[0] + n1 * a[1] + n2 * a[2]
        if (n, offset) in decided:
            continue
        above = below = False
        side = None  # stays None if points lie strictly on both sides
        for x, y, z in pts:
            d = n0 * x + n1 * y + n2 * z - offset
            if d > 0:
                if below:
                    break
                above = True
            elif d < 0:
                if above:
                    break
                below = True
        else:
            side = ((-n0, -n1, -n2), -offset) if above else (n, offset)
        decided[n, offset] = decided[(-n0, -n1, -n2), -offset] = side
    return {plane for plane in decided.values() if plane is not None}


def _seed(pts: Sequence[tuple[int, ...]], order: Sequence[int]) -> list[int] | None:
    """The first four affinely independent points in ``order``, or None if there are none."""
    if len(order) < 4:
        return None
    a, b = pts[order[0]], pts[order[1]]
    chosen, normal = list(order[:2]), None
    for i in order[2:]:
        v = _sub(pts[i], a)
        if normal is None:
            axv = _cross(_sub(b, a), v)
            if axv != (0, 0, 0):
                chosen.append(i)
                normal = axv
        elif _dot(normal, v):
            return chosen + [i]
    return None


def _facets(vertices: Sequence[Vec3]) -> tuple[int, list]:
    """(D, facets) for sorted distinct points, D the lcm of their denominators:
    each facet's primitive integer plane (n, c), <n, x> <= c / D, with the
    indices of the points on it.  DegeneratePolytope if the points are flat."""
    # scaled by D, the points are integers with the same normals
    flat, scale = scaled([x for p in vertices for x in p])
    pts = [tuple(flat[k:k + 3]) for k in range(0, len(flat), 3)]
    # farthest-first from the centroid, compared on the integer offsets m.p - sum(p)
    m, total = len(pts), tuple(sum(flat[i::3]) for i in range(3))
    order = sorted(range(m), key=lambda i: -sum((m * x - t) ** 2 for x, t in zip(pts[i], total)))
    seed = _seed(pts, order)
    if seed is None:
        raise DegeneratePolytope("points do not span a 3-dimensional polytope")
    kept = [pts[i] for i in seed]
    planes = _planes(itertools.combinations(kept, 3), kept)
    for p in (pts[i] for i in order):
        visible = {(n, c) for n, c in planes if _dot(n, p) > c}
        if not visible:  # on or inside the hull so far, as every seed point is
            continue
        # a new facet through p is p and an edge of conv(kept) on a visible facet
        rim = [a for a in kept if any(_dot(n, a) == c for n, c in visible)]
        planes -= visible
        planes |= _planes(((p, a, b) for a, b in itertools.combinations(rim, 2)), kept + [p])
        kept.append(p)
    return scale, sorted(((n, c), tuple(i for i, x in enumerate(pts) if _dot(n, x) == c)) for n, c in planes)


def polar_dual(p: LatticePolytope) -> LatticePolytope:
    """Dual polytope conv{-n/c : <n, x> <= c a facet}, origin strictly inside.

    Equivalently {y : <y, x> >= -1 for all x in P}; applying it twice
    returns the original polytope.  The dual is built once and stored on
    ``p``, so a LatticePolytope must not be changed after construction.
    """
    if p._dual is None:
        if not p.contains_origin_interior():
            raise OriginNotInterior("polar duality needs the origin strictly inside")
        p._dual = LatticePolytope([tuple(-x / f.offset for x in f.normal) for f in p.facets])
    return p._dual


def is_reflexive(p: LatticePolytope) -> bool:
    """True iff the origin is interior and the dual has integer vertices."""
    if not p.contains_origin_interior():
        raise OriginNotInterior("reflexivity needs the origin strictly inside")
    return polar_dual(p).is_lattice()


def _ordered_facet_vertices(ring: list[tuple[int, ...]], normal: Sequence[Fraction]) -> list[tuple[int, ...]]:
    """A facet polygon's vertices, scaled to integers, in rotational order, exactly.

    The order compares the vertices' offsets from their centroid.  Scaled by
    the vertex count, those offsets are integer vectors, and a positive
    scale keeps the sign of every cross and dot product below, so the order
    is the one of the rational offsets.
    """
    n = len(ring)
    total = tuple(sum(q[i] for q in ring) for i in range(3))
    rel = [_sub(tuple(n * x for x in q), total) for q in ring]
    normal = tuple(int(x) for x in normal)

    def half(v: Vec3) -> int:
        c = _dot(normal, _cross(rel[0], v))
        return 0 if c > 0 or c == 0 and _dot(rel[0], v) > 0 else 1

    halves = [half(v) for v in rel]

    def compare(a: int, b: int) -> int:
        if halves[a] != halves[b]:
            return halves[a] - halves[b]
        c = _dot(normal, _cross(rel[a], rel[b]))
        return (c < 0) - (c > 0)

    return [ring[i] for i in sorted(range(n), key=cmp_to_key(compare))]


def _triangulation(p: LatticePolytope) -> tuple[int, list[tuple[tuple[int, ...], ...]]]:
    """(s, tetrahedra): the polytope scaled by s, the vertex count times the
    lcm of the denominators, cut into integer tetrahedra, each facet fan
    coned from the vertex average (an interior point, the integer vertex sum
    after the scaling).  Built once and stored on ``p``."""
    if p._tets is None:
        flat, den = scaled([x for v in p.vertices for x in v])
        n = len(p.vertices)
        ints = {v: tuple(n * x for x in flat[3 * k:3 * k + 3]) for k, v in enumerate(p.vertices)}
        apex = tuple(sum(flat[i::3]) for i in range(3))
        tets = []
        for f in p.facets:
            ring = _ordered_facet_vertices([ints[v] for v in f.vertices], f.normal)
            tets += [(apex, ring[0], ring[i], ring[i + 1]) for i in range(1, len(ring) - 1)]
        p._tets = n * den, tets
    return p._tets


def _dets(tets: list[tuple[tuple[int, ...], ...]]) -> list[int]:
    """|det(b - a, c - a, d - a)|, six times each tetrahedron's volume."""
    return [abs(_dot(_sub(b, a), _cross(_sub(c, a), _sub(d, a)))) for a, b, c, d in tets]


def volume(p: LatticePolytope) -> Fraction:
    """Exact Euclidean volume via triangulation."""
    s, tets = _triangulation(p)
    return Q(sum(_dets(tets)), 6 * s**3)


def barycenter(p: LatticePolytope) -> Vec3:
    """Exact centroid: volume-weighted average of tetrahedron centroids."""
    s, tets = _triangulation(p)
    dets = _dets(tets)
    total = sum(dets)
    if total == 0:
        raise DegeneratePolytope("zero volume")
    return tuple(Q(sum(d * sum(pt[i] for pt in t) for d, t in zip(dets, tets)), 4 * s * total) for i in range(3))


def anticanonical_degree(p: LatticePolytope) -> int:
    """Degree 3! * vol(dual) of the Fano toric variety of the spanning fan."""
    if not is_reflexive(p):
        raise NotReflexive("the anticanonical degree formula needs a reflexive polytope")
    deg = 6 * volume(polar_dual(p))
    if deg.denominator != 1:
        raise InvariantViolation(f"anticanonical degree {deg} of a reflexive polytope is not an integer")
    return int(deg)


def toric_kps_check(p: LatticePolytope) -> tuple[bool, Vec3]:
    """Vanishing-barycenter criterion on the dual (moment) polytope.

    Returns (flag, barycenter of the dual).  A True flag means K-polystable
    by the toric criterion (the Futaki character vanishes); the engine
    claims nothing beyond the criterion itself.
    """
    if not is_reflexive(p):
        raise NotReflexive("the barycenter criterion needs a reflexive polytope")
    b = barycenter(polar_dual(p))
    return (b == (0, 0, 0), b)


# reference instances


def prism() -> LatticePolytope:
    """Triangular prism whose spanning fan defines the volume-18 example."""
    return LatticePolytope(
        [
            (-1, -1, -1),
            (1, 0, -1),
            (0, 1, -1),
            (-1, -1, 1),
            (1, 0, 1),
            (0, 1, 1),
        ]
    )


def bipyramid() -> LatticePolytope:
    """The dual of the prism."""
    return LatticePolytope([(2, -1, 0), (-1, 2, 0), (-1, -1, 0), (0, 0, 1), (0, 0, -1)])


def cube() -> LatticePolytope:
    return LatticePolytope(list(itertools.product((-1, 1), repeat=3)))


def octahedron() -> LatticePolytope:
    return LatticePolytope([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)])


def simplex_p3() -> LatticePolytope:
    """Spanning-fan polytope of 3-dimensional projective space."""
    return LatticePolytope([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)])


def asymmetric_reflexive() -> LatticePolytope:
    """A reflexive prism (weighted plane times a line) with nonzero dual barycenter."""
    return LatticePolytope(
        [(1, 0, -1), (0, 1, -1), (-1, -2, -1), (1, 0, 1), (0, 1, 1), (-1, -2, 1)]
    )
