"""Intersection rings of threefold and surface models.

A model is pure data: a divisor basis, a symmetric trilinear (threefold) or
bilinear (surface) form, the anticanonical class, and declared curve classes
and effective-cone generators.  Correctness of a preset means "matches the
stated intersection numbers of the geometry it encodes"; the engine checks
arithmetic consequences (symmetry, multilinearity, restriction Grams), never
the geometry itself.

Sign conventions are pinned by worked identities in the test suite, e.g.
(4H - E)^3 = 22 for the blowup of projective 3-space along a rational
quintic; conventions are the dominant bug source in intersection rings.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from operator import mul
from typing import Mapping, Sequence

from .errors import InvalidModel, UnknownLabel
from .rationals import Q, QVec, qvec, scaled, to_q
from .records import Record

ClassVec = QVec


def _sorted_key(idx: Sequence[int]) -> tuple[int, ...]:
    return tuple(sorted(int(i) for i in idx))


def _exact(ref) -> ClassVec:
    """A vector of exact rationals; InvalidModel for a float, None or a non-numeric string."""
    try:
        return qvec(ref)
    except (TypeError, ValueError) as exc:
        raise InvalidModel(f"not a class vector of exact rationals: {exc}") from None


def _sized(v: ClassVec, rank: int) -> ClassVec:
    if len(v) != rank:
        raise InvalidModel("class vectors must match the basis size")
    return v


class Chamber(Record):
    """One certified chamber of a one-parameter family on a threefold.

    The positive part is affine in the parameter: P(t) = p0 + t * p1.
    """

    lo: Fraction
    hi: Fraction
    p0: ClassVec
    p1: ClassVec


class ThreefoldModel:
    """Divisor basis with a symmetric trilinear intersection form."""

    def __init__(
        self,
        name: str,
        basis: Sequence[str],
        triple: Mapping[tuple[int, int, int], Fraction],
        anticanonical: Sequence,
        curves: Mapping[str, Sequence] | None = None,
        effective_classes: Mapping[str, Sequence] | None = None,
        divisors: Mapping[str, Sequence] | None = None,
        chambers: Mapping[str, Sequence[Chamber]] | None = None,
    ):
        self.name = name
        self.basis = tuple(basis)
        r = len(self.basis)
        if r > 4:
            raise InvalidModel("threefold models carry at most four basis classes")
        table: dict[tuple[int, int, int], Fraction] = {}
        for idx, value in triple.items():
            key = _sorted_key(idx)
            if any(i < 0 or i >= r for i in key):
                raise InvalidModel(f"triple index {idx} out of range")
            value = to_q(value)
            if key in table and table[key] != value:
                raise InvalidModel(f"conflicting values for triple index {key}")
            table[key] = value
        self.triple = table
        # the form as integer terms (i, j, k, w) over one denominator, one
        # per ordered index triple with a nonzero entry
        weights, self._den = scaled(table.values())
        self._terms = [(*idx, w) for key, w in zip(table, weights) if w for idx in set(permutations(key))]
        self.anticanonical = qvec(anticanonical)
        if len(self.anticanonical) != r:
            raise InvalidModel("anticanonical vector has the wrong length")
        self.curves = {k: qvec(v) for k, v in (curves or {}).items()}
        self.effective_classes = {k: qvec(v) for k, v in (effective_classes or {}).items()}
        self.divisors = {k: qvec(v) for k, v in (divisors or {}).items()}
        self.chambers = {k: tuple(v) for k, v in (chambers or {}).items()}
        for label, vec in {**self.curves, **self.effective_classes, **self.divisors}.items():
            if len(vec) != r:
                raise InvalidModel(f"vector for {label!r} has the wrong length")

    @property
    def rank(self) -> int:
        return len(self.basis)

    def class_vector(self, ref) -> ClassVec:
        """Resolve a class given as a vector, a basis label, or a named divisor."""
        if isinstance(ref, str):
            if ref in self.divisors:
                return self.divisors[ref]
            if ref in self.basis:
                return tuple(Q(1) if b == ref else Q(0) for b in self.basis)
            raise UnknownLabel(f"unknown divisor {ref!r} on model {self.name}")
        return _sized(_exact(ref), self.rank)


def _contraction(model: ThreefoldModel, x: Sequence[int], y: Sequence[int], z: Sequence[int]) -> int:
    return sum(w * x[i] * y[j] * z[k] for i, j, k, w in model._terms)


def triple_product(model: ThreefoldModel, a, b, c) -> Fraction:
    """The symmetric trilinear form on three rational class vectors."""
    (x, dx), (y, dy), (z, dz) = (scaled(_sized(_exact(v), model.rank)) for v in (a, b, c))
    return Fraction(_contraction(model, x, y, z), model._den * dx * dy * dz)


def affine_cube(model: ThreefoldModel, p0, p1) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """Coefficients of 1, t, t^2, t^3 in (p0 + t*p1)^3.

    The coefficient of t^k is C(3, k) * p0^(3-k) * p1^k: four contractions
    of the integer form.
    """
    (x, dx), (y, dy) = (scaled(_sized(_exact(v), model.rank)) for v in (p0, p1))
    factors = ((x, x, x), (x, x, y), (x, y, y), (y, y, y))
    return tuple(
        Fraction(binomial * _contraction(model, *rows), model._den * dx ** (3 - k) * dy**k)
        for k, (binomial, rows) in enumerate(zip((1, 3, 3, 1), factors))
    )


def anticanonical_volume(model: ThreefoldModel) -> Fraction:
    k = model.anticanonical
    return triple_product(model, k, k, k)


class SurfaceModel:
    """Divisor basis with a bilinear form, negative curves, effective cone."""

    def __init__(
        self,
        name: str,
        basis: Sequence[str],
        gram: Sequence[Sequence],
        canonical: Sequence | None = None,
        negative_curves: Mapping[str, Sequence] | None = None,
        eff_generators: Mapping[str, Sequence] | None = None,
    ):
        self.name = name
        self.basis = tuple(basis)
        r = len(self.basis)
        rows = [qvec(row) for row in gram]
        if len(rows) != r or any(len(row) != r for row in rows):
            raise InvalidModel("Gram matrix size must match the basis")
        for i in range(r):
            for j in range(r):
                if rows[i][j] != rows[j][i]:
                    raise InvalidModel("surface Gram must be symmetric")
        self.gram: tuple[QVec, ...] = tuple(rows)
        self.canonical = qvec(canonical) if canonical is not None else None
        if self.canonical is not None and len(self.canonical) != r:
            raise InvalidModel("class vectors must match the basis size")
        self.negative_curves = {k: qvec(v) for k, v in (negative_curves or {}).items()}
        # the Gram and the curves each scaled to integers once, and Gram * C
        # for every declared curve as an integer row over their product, so
        # that a class meets every curve in integer dots
        self.curve_labels = tuple(sorted(self.negative_curves))
        if any(len(self.negative_curves[label]) != r for label in self.curve_labels):
            raise InvalidModel("class vectors must match the basis size")
        flat, self._gram_den = scaled([x for row in rows for x in row])
        self._int_gram = [flat[i * r:(i + 1) * r] for i in range(r)]
        flat, self._curve_den = scaled([x for label in self.curve_labels for x in self.negative_curves[label]])
        self._curve_ints = {label: flat[i * r:(i + 1) * r] for i, label in enumerate(self.curve_labels)}
        self._gc_den = self._gram_den * self._curve_den
        self._gc_rows = []
        for label, ints in self._curve_ints.items():
            gc = tuple(sum(map(mul, row, ints)) for row in self._int_gram)
            if sum(map(mul, ints, gc)) >= 0:
                raise InvalidModel(f"declared negative curve {label!r} has square >= 0")
            self._gc_rows.append(gc)
        if eff_generators is None:
            eff_generators = dict(self.negative_curves)
        self.eff_generators = {k: qvec(v) for k, v in eff_generators.items()}
        if any(len(v) != r for v in self.eff_generators.values()):
            raise InvalidModel("class vectors must match the basis size")
        self._cone = None  # the generators in label order as an lp.Cone, built by kstab.zariski on first use

    @property
    def rank(self) -> int:
        return len(self.basis)

    def pair(self, a: Sequence, b: Sequence) -> Fraction:
        a, b = (_sized(_exact(v), self.rank) for v in (a, b))
        return sum((a[i] * self.gram[i][j] * b[j] for i in range(self.rank) for j in range(self.rank)), Q(0))

    def _pairings(self, ints: Sequence[int]) -> list[int]:
        """_gc_den * v.C for every declared curve C, for an integer vector v."""
        return [sum(map(mul, ints, row)) for row in self._gc_rows]

    def square(self, a: Sequence) -> Fraction:
        return self.pair(a, a)

    def class_vector(self, ref) -> ClassVec:
        if isinstance(ref, str):
            if ref in self.negative_curves:
                return self.negative_curves[ref]
            if ref in self.basis:
                return tuple(Q(1) if b == ref else Q(0) for b in self.basis)
            raise UnknownLabel(f"unknown class {ref!r} on surface {self.name}")
        return _sized(_exact(ref), self.rank)


def restrict_to_surface(
    model: ThreefoldModel,
    surface_class: Sequence,
    restricted_basis: Sequence[Sequence],
) -> SurfaceModel:
    """Surface model with Gram(i, j) = (b_i . b_j . S) on the threefold.

    The negative-curve list starts empty; the caller populates it when the
    geometry provides one.
    """
    s = _exact(surface_class)
    basis_vecs = [_exact(b) for b in restricted_basis]
    gram = [[triple_product(model, x, y, s) for y in basis_vecs] for x in basis_vecs]
    labels = [f"r{i}" for i in range(len(basis_vecs))]
    return SurfaceModel(f"{model.name}|S", labels, gram, canonical=None, negative_curves={}, eff_generators={})


# -- preset constructors -----------------------------------------------------


def blowup_p3_curve(d: int, g: int, name: str | None = None) -> ThreefoldModel:
    """Blowup of projective 3-space along a smooth curve of degree d, genus g.

    Basis (H, E) with H^3 = 1, H^2 E = 0, H E^2 = -d, E^3 = -(4d + 2g - 2);
    anticanonical 4H - E.  Declared curves: a generic line (H.l = 1, E.l = 0)
    and a ruling fiber of E (H.f = 0, E.f = -1).
    """
    if d < 1 or g < 0:
        raise InvalidModel("need degree >= 1 and genus >= 0")
    triple = {
        (0, 0, 0): Q(1),
        (0, 0, 1): Q(0),
        (0, 1, 1): Q(-d),
        (1, 1, 1): Q(-(4 * d + 2 * g - 2)),
    }
    return ThreefoldModel(
        name or f"bl_p3_curve_{d}_{g}",
        ("H", "E"),
        triple,
        anticanonical=(4, -1),
        curves={"line": (1, 0), "fiber": (0, -1)},
        effective_classes={"E": (0, 1)},
        divisors={"E": (0, 1)},
    )


def bl_p3_quintic() -> ThreefoldModel:
    """Blowup of P^3 along the special rational quintic on a quadric.

    Carries the strict transform Qtilde = 2H - E of the quadric through the
    curve, and the chamber tables of the families -K - u*Qtilde, -K - u*E and
    -K - u*H.  On [0, 2], -K - uH = (1 - u/2)(-K) + (u/2)Qtilde.
    """
    base = blowup_p3_curve(5, 0, name="bl_p3_quintic")
    return ThreefoldModel(
        "bl_p3_quintic",
        base.basis,
        base.triple,
        base.anticanonical,
        curves=base.curves,
        effective_classes={"E": (0, 1), "Qtilde": (2, -1)},
        divisors={"E": (0, 1), "Qtilde": (2, -1)},
        chambers={
            "Qtilde": (
                Chamber(Q(0), Q(1), qvec((4, -1)), qvec((-2, 1))),
                Chamber(Q(1), Q(2), qvec((4, 0)), qvec((-2, 0))),
            ),
            "E": (Chamber(Q(0), Q(1), qvec((4, -1)), qvec((-4, 1))),),
            "H": (Chamber(Q(0), Q(2), qvec((4, -1)), qvec((-2, Q(1, 2)))),),
        },
    )


def blowup_node(volume: int) -> ThreefoldModel:
    """Blowup of a node on a threefold of the given anticanonical volume.

    Basis (A, E) with A^3 = volume, A^2 E = 0, A E^2 = 0, E^3 = 2, and
    anticanonical A - E; E is the exceptional quadric over the node.
    """
    if volume <= 0 or volume % 2 != 0:
        raise InvalidModel("volume must be even and positive")
    triple = {
        (0, 0, 0): Q(volume),
        (0, 0, 1): Q(0),
        (0, 1, 1): Q(0),
        (1, 1, 1): Q(2),
    }
    return ThreefoldModel(
        f"bl_node_{volume}",
        ("A", "E"),
        triple,
        anticanonical=(1, -1),
        curves={"ruling": (0, -1)},
        effective_classes={"E": (0, 1)},
        divisors={"E": (0, 1)},
    )


def blowup_v4_conic() -> ThreefoldModel:
    """Blowup of the quartic del Pezzo threefold along a conic.

    Basis (L, E) with L^3 = 4, L^2 E = 0, L E^2 = -2, E^3 = -2 and
    anticanonical 2L - E.
    """
    triple = {
        (0, 0, 0): Q(4),
        (0, 0, 1): Q(0),
        (0, 1, 1): Q(-2),
        (1, 1, 1): Q(-2),
    }
    return ThreefoldModel(
        "bl_v4_conic",
        ("L", "E"),
        triple,
        anticanonical=(2, -1),
        curves={"line": (1, 0), "fiber": (0, -1)},
        effective_classes={"E": (0, 1)},
        divisors={"E": (0, 1)},
    )


def sing_line_model(g: int, k: int) -> ThreefoldModel:
    """Crepant blowup model of a genus-g threefold singular along a line.

    Basis (A, E), A the anticanonical pullback: A^3 = 2g - 2, A^2 E = 0,
    A E^2 = -2, E^3 = 4 - k, with k the number of pinch points on the line.
    The residual class A - 2E is declared effective: it moves in the linear
    system cut out by hyperplanes through the line, which is nonempty for
    g >= 12 and is what the second chamber's negative part is written in.
    """
    if g < 3 or k < 0:
        raise InvalidModel("need genus >= 3 and k >= 0")
    triple = {
        (0, 0, 0): Q(2 * g - 2),
        (0, 0, 1): Q(0),
        (0, 1, 1): Q(-2),
        (1, 1, 1): Q(4 - k),
    }
    return ThreefoldModel(
        f"sing_line({g},{k})",
        ("A", "E"),
        triple,
        anticanonical=(1, 0),
        curves={"fiber": (0, -2), "section": (1, 1)},
        effective_classes={"E": (0, 1), "residual": (1, -2)},
        divisors={"E": (0, 1)},
        chambers={
            "E": (
                Chamber(Q(0), Q(1), qvec((1, 0)), qvec((0, -1))),
                Chamber(Q(1), Q(2), qvec((2, -2)), qvec((-1, 1))),
            ),
        },
    )


def dp4_surface() -> SurfaceModel:
    """Degree-4 del Pezzo: P^2 blown up in five points on a smooth conic.

    Basis (L, e1..e5), Gram diag(1, -1, -1, -1, -1, -1), canonical
    -3L + sum(e).  The sixteen (-1)-classes generate the effective cone.
    """
    basis = ("L", "e1", "e2", "e3", "e4", "e5")
    gram = [[0] * 6 for _ in range(6)]
    gram[0][0] = 1
    for i in range(1, 6):
        gram[i][i] = -1
    curves: dict[str, tuple] = {}
    for i in range(1, 6):
        vec = [0] * 6
        vec[i] = 1
        curves[f"e{i}"] = tuple(vec)
    for i in range(1, 6):
        for j in range(i + 1, 6):
            vec = [0] * 6
            vec[0] = 1
            vec[i] = -1
            vec[j] = -1
            curves[f"l_{i}{j}"] = tuple(vec)
    curves["conic"] = (2, -1, -1, -1, -1, -1)
    return SurfaceModel(
        "dp4",
        basis,
        gram,
        canonical=(-3, 1, 1, 1, 1, 1),
        negative_curves=curves,
    )


def quadric_surface() -> SurfaceModel:
    """Smooth quadric surface: basis (f1, f2), Gram [[0,1],[1,0]].

    No negative curves; the two rulings generate the effective cone.
    """
    return SurfaceModel(
        "quadric",
        ("f1", "f2"),
        [[0, 1], [1, 0]],
        canonical=(-2, -2),
        negative_curves={},
        eff_generators={"f1": (1, 0), "f2": (0, 1)},
    )
