"""Zariski decompositions and certified piecewise volume functions.

Surface side: the classical iterative decomposition (grow the support by
every declared curve the mobile part meets negatively, re-solve, repeat)
against the model's negative-curve list, with pseudo-effectivity decided by
an exact LP over the declared effective-cone generators, whose integer LP
rows each surface builds once.  The rounds run on an integer family at a
point, a class being the constant family.  Each support is decomposed once
per family: a call keeps one memo of its family's supports, which every
round, cell and chamber of that call reads.  The support Gram and
right-hand sides pair only the support curves, each by its own Gram * C row.

One- and two-parameter families are handled symbolically: on a chamber the
support is constant, so the negative-part coefficients and the positive
part are affine in the parameters and every certificate (coefficient
nonnegativity, nefness against each declared curve) is an affine function
checked exactly at chamber endpoints or cell vertices.  A family is read
once into coefficient vectors (the constant class and one slope class per
parameter; a term of degree > 1 is rejected) and held as integer
numerators over one positive denominator.  The multiplicities come from
one fraction-free solve on the integer support Gram, the positive part is
an integer combination, and a support's certificates are integer rows
(constant, slopes), one per support curve and one per declared curve.
A decision is a sign, a zero or a root, which no positive scale changes,
so a row at p/q is the integer c0*q + c1*p; a loop decides all rows in
one pass.  The volume P^2 is the quadratic form of the positive part's
vectors on the Gram scaled to integers once.  Fractions and polynomials
are built only for the results.  A failed certificate splits the chamber
at the root of the offending affine function, which is rational, so
every wall is rational.  Both families run one certified-cell loop:
certify a cell, or split it at the points the failed certification names.

Threefold side: there is no Zariski decomposition in general, so chamber
data (interval plus positive part, affine in the parameter) is *input*, and
this module only certifies it: the residual must lie in the cone of the
declared effective classes, by the same checked LP membership as on
surfaces, and the positive part must pair nonnegatively with every declared
curve.  Both are affine in the parameter and the cone is convex, hence
checks at the chamber ends are complete proofs.  The output volume
function is tagged as certified relative to the declared curves - never
absolutely.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from operator import mul
from typing import Callable, Iterable, Sequence

from .errors import (
    CertificateViolation,
    IndefiniteSupport,
    InvalidModel,
    NotPseudoEffective,
    UnboundedDirection,
    WallCrossingDegeneracy,
)
from .intersect import SurfaceModel, ThreefoldModel, affine_cube
from .lp import Cone, Infeasible, LPResult, Unbounded, in_cone, max_shift
from .poly import PiecewisePolynomial, Polynomial
from .rationals import Q, QVec, dot, format_rational, qvec, scaled, solve_each, solve_negative_definite, to_q
from .records import Record

_MAX_SPLIT_DEPTH = 32


class ZariskiResult(Record):
    """Positive/negative splitting of a pseudo-effective surface class."""

    positive: QVec
    negative: tuple[tuple[str, Fraction], ...]
    support: tuple[str, ...]
    support_gram: tuple[QVec, ...]


class VolumeChamber(Record):
    """One chamber of a one-parameter volume function.

    positive part P(t) = p0 + t*p1; support lists the curves carrying the
    negative part on the chamber.
    """

    lo: Fraction
    hi: Fraction
    p0: QVec
    p1: QVec
    support: tuple[str, ...]


class VolumeFunction(Record):
    pw: PiecewisePolynomial
    chambers: tuple[VolumeChamber, ...]
    certificate: str

    @property
    def variable(self) -> str:
        return self.pw.variable

    def __call__(self, t) -> Fraction:
        return self.pw(t)


def _eff_data(surface: SurfaceModel) -> Cone:
    """The declared effective generators in label order, as an LP cone built once per surface."""
    if surface._cone is None:
        surface._cone = Cone(surface.eff_generators[k] for k in sorted(surface.eff_generators))
    return surface._cone


def _shown(v: Sequence[Fraction]) -> str:
    """A class vector in canonical rationals, as (1, -1/2)."""
    return f"({', '.join(map(format_rational, v))})"


def zariski_decompose(surface: SurfaceModel, divisor) -> ZariskiResult:
    """Zariski decomposition of a pseudo-effective class, exactly.

    Raises NotPseudoEffective when the class is outside the cone spanned by
    the declared effective generators, and IndefiniteSupport when the
    accumulated support Gram stops being negative definite (the canary for
    an incomplete negative-curve list).
    """
    d = surface.class_vector(divisor)
    if in_cone(_eff_data(surface), d) is None:
        raise NotPseudoEffective(f"{_shown(d)} is outside the declared effective cone")
    return _decompose(surface, d)


def _decompose(surface: SurfaceModel, d: QVec) -> ZariskiResult:
    """Zariski decomposition of a class vector already known to be in the cone.

    The iterative decomposition of d as a constant family, decomposed once;
    only the result is built in rationals.
    """
    ((positive,), den), certs = _iterative_decomposition(surface, _integer_family((d,)), {})
    support = certs.support
    nu = tuple((label, Fraction(c0, certs.mult_den)) for label, (c0,) in zip(support, certs.rows))
    scale = surface._curve_den * surface._gc_den
    gram = tuple(tuple(Fraction(x, scale) for x in row) for row in _support_gram(surface, support))
    return ZariskiResult(tuple(Fraction(x, den) for x in positive), nu, support, gram)


def volume(surface: SurfaceModel, divisor) -> Fraction:
    """vol(D) = P^2 of the positive part (0 for non-pseudo-effective D)."""
    try:
        res = zariski_decompose(surface, divisor)
    except NotPseudoEffective:
        return Q(0)
    return surface.square(res.positive)


def pseff_threshold(surface: SurfaceModel, divisor, direction) -> Fraction:
    """Largest s >= 0 with D - s*Z still inside the declared effective cone.

    Raises NotPseudoEffective when D is outside the cone.  When Z is a
    declared generator, D - s*Z in the cone puts D = (D - s*Z) + s*Z in it
    too, so only another Z costs a membership LP for D.
    """
    d = surface.class_vector(divisor)
    z = surface.class_vector(direction)
    gens = _eff_data(surface)
    try:
        if z not in gens and in_cone(gens, d) is None:
            raise Infeasible
        res = max_shift(d, tuple(-x for x in z), gens)
    except Infeasible:
        raise NotPseudoEffective(f"{_shown(d)} is outside the declared effective cone") from None
    except Unbounded:
        raise UnboundedDirection(
            f"{_shown(z)} is anti-effective for the declared cone; the threshold is infinite"
        ) from None
    return res.value


# -- affine coefficient vectors ------------------------------------------------

# An affine class family is held as its coefficient vectors: the constant
# class, then one slope class per parameter.  The chamber loops hold a
# family as integer numerators over one positive denominator; an affine
# scalar, such as a certificate, is the matching tuple (constant, slope,
# ...), with a denominator wherever its value is needed.
Affine = tuple[QVec, ...]
Family = tuple[tuple[tuple[int, ...], ...], int]


def _family_var(family) -> str:
    """The one variable of a family's polynomial entries, or "t" for a constant family."""
    names = {v for entry in family if isinstance(entry, Polynomial) for v in entry.vars}
    if len(names) > 1:
        raise InvalidModel(f"ambiguous family variable: {sorted(names)}")
    return names.pop() if names else "t"


def _affine_vectors(family: Sequence, variables: Sequence[str], message: str) -> Affine:
    """Coefficient vectors (constant, slope per variable) of a class family.

    Each entry is read once; rationals are constants.  A term of degree > 1
    raises InvalidModel with the given message; an entry that is neither a
    polynomial nor an exact rational raises InvalidModel too.
    """
    variables = tuple(variables)
    cols = [[Q(0)] * len(family) for _ in range(len(variables) + 1)]
    for i, entry in enumerate(family):
        if not isinstance(entry, Polynomial):
            try:
                cols[0][i] = to_q(entry)
            except (TypeError, ValueError) as exc:
                raise InvalidModel(f"family entries must be exact rationals: {exc}") from None
            continue
        for exp, c in entry.in_vars(variables).coeffs.items():
            degree = sum(exp)
            if degree > 1:
                raise InvalidModel(message)
            cols[exp.index(1) + 1 if degree else 0][i] = c
    return tuple(tuple(col) for col in cols)


def _integer_family(vecs: Affine) -> Family:
    """Rational coefficient vectors as integer numerators over one positive denominator."""
    flat, den = scaled([x for v in vecs for x in v])
    r = len(vecs[0])
    return tuple(tuple(flat[k:k + r]) for k in range(0, len(flat), r)), den


def _values(rows: Iterable[Sequence], *point: Fraction) -> list:
    """Affine scalars (constant, slope, ...) at a rational point of at most two coordinates, in one comprehension.

    Each value is times the product of the point's denominators, so its sign
    and zeros are the scalar's: at t = p/q a row is c0*q + c1*p, and at
    (t, s) = (p/q, p'/q') it is c0*q*q' + c1*p*q' + c2*p'*q.
    """
    if not point:
        return [c0 for (c0,) in rows]
    if len(point) == 1:
        q, p = point[0].denominator, point[0].numerator
        return [c0 * q + c1 * p for c0, c1 in rows]
    (t, s) = point
    a, b, e = t.denominator * s.denominator, t.numerator * s.denominator, s.numerator * t.denominator
    return [c0 * a + c1 * b + c2 * e for c0, c1, c2 in rows]


def _at(family: Family, *point: Fraction) -> QVec:
    """A family at a rational point, as a rational class; its vectors may also hold rationals."""
    vecs, den = family
    for x in point:
        den *= x.denominator
    return tuple(Fraction(v, den) for v in _values(zip(*vecs), *point))


def _root(c: Sequence[int]) -> tuple[Fraction, ...]:
    """Where an affine scalar in one variable vanishes: (root,), or () when its slope is 0."""
    return (Fraction(-c[0], c[1]),) if c[1] else ()


def _exponents(n: int) -> list[tuple[int, ...]]:
    """Exponents of 1, then of each of n variables, in coefficient-vector order."""
    return [(0,) * n] + [tuple(int(j == k) for j in range(n)) for k in range(n)]


def _affine_poly(variables: tuple[str, ...], c: Sequence[int], den: int) -> Polynomial:
    """The polynomial (c[0] + c[1]*variables[0] + ...) / den, built directly."""
    return Polynomial._make(variables, {e: Fraction(x, den) for e, x in zip(_exponents(len(variables)), c) if x})


def _affine_square(surface: SurfaceModel, family: Family, variables: Sequence[str]) -> Polynomial:
    """P^2 for an affine class P, as the quadratic form of its coefficient vectors on the integer Gram."""
    vecs, den = family
    variables = tuple(variables)
    exps = _exponents(len(variables))
    gvs = [[sum(map(mul, row, v)) for row in surface._int_gram] for v in vecs]
    scale = surface._gram_den * den * den
    coeffs = {}
    for i, v in enumerate(vecs):
        for j in range(i, len(vecs)):
            exp = tuple(a + b for a, b in zip(exps[i], exps[j]))
            coeffs[exp] = Fraction(sum(map(mul, v, gvs[j])) * (1 if i == j else 2), scale)
    return Polynomial._make(variables, coeffs)


# -- symbolic chamber machinery ----------------------------------------------


class _Certs(Record):
    """The affine certificates of one support, as integer rows (constant, slope, ...).

    rows holds one multiplicity row per support curve, in support order, over
    mult_den > 0, then one nef row per declared curve, in curve_labels order,
    over nef_den > 0; a failing row or a wall is chosen in this order.
    """

    support: tuple[str, ...]
    rows: tuple[tuple[int, ...], ...]
    mult_den: int
    nef_den: int


def _support_gram(surface: SurfaceModel, support: Sequence[str]) -> list[list[int]]:
    """The Gram of the support curves, times _curve_den * _gc_den, from their Gram * C rows alone."""
    rows = [surface._gc_rows[surface.curve_labels.index(label)] for label in support]
    return [[sum(map(mul, surface._curve_ints[a], row)) for row in rows] for a in support]


def _symbolic_decomposition(surface: SurfaceModel, family: Family, support: Sequence[str]) -> tuple[Family, _Certs]:
    """Positive part and certificates of an integer affine family for a fixed support.

    With V_k the family's vectors, the integer support Gram G gives
    G * y_k = (V_k.C)_C up to positive scales, solved for every k in one
    elimination that also checks that G is negative definite, as y_k over
    one p > 0.  The multiplicities are y_k up to a positive scale, and
    P_k = p*V_k - sum(y_kC * C) over p times the family's denominator;
    P.C is each nef certificate.
    """
    vecs, den = family
    support = list(support)
    mult, mult_den = (), den
    if support:
        rows = [surface._gc_rows[surface.curve_labels.index(label)] for label in support]
        rhs = [[sum(map(mul, v, row)) for row in rows] for v in vecs]
        sols = solve_negative_definite(_support_gram(surface, support), rhs)
        if sols is None:
            raise IndefiniteSupport(f"support {support} has an indefinite Gram matrix")
        ys, p = sols
        curves = [surface._curve_ints[label] for label in support]
        vecs = tuple(
            tuple(p * x - sum(y * c[n] for y, c in zip(yk, curves)) for n, x in enumerate(v)) for v, yk in zip(vecs, ys)
        )
        cd = surface._curve_den
        mult = tuple(tuple(y * cd for y in row) for row in zip(*ys))
        den = mult_den = p * den
    rows = mult + tuple(zip(*map(surface._pairings, vecs)))
    return (vecs, den), _Certs(tuple(support), rows, mult_den, den * surface._gc_den)


def _iterative_decomposition(
    surface: SurfaceModel, family: Family, memo: dict, *point: Fraction
) -> tuple[Family, _Certs]:
    """The iterative Zariski decomposition of an integer affine family at a point in the cone.

    Each round is the symbolic decomposition on the support so far, which
    memo maps to its (positive, certs) on family, each support decomposed
    once; a curve whose nef row is negative at the point joins it.  Returns
    the last round's (positive, certs), whose multiplicities must be
    nonnegative at the point.  Each round decides the signs of all its rows
    at once.
    """
    support: tuple[str, ...] = ()
    while True:
        if support not in memo:
            memo[support] = _symbolic_decomposition(surface, family, support)
        positive, certs = memo[support]
        values = _values(certs.rows, *point)
        nef = values[len(support):]
        violators = [label for label, v in zip(surface.curve_labels, nef) if v < 0 and label not in support]
        if not violators:
            break
        support = tuple(sorted(support + tuple(violators)))
    for label, v in zip(support, values):
        if v < 0:
            coeff = Fraction(v, certs.mult_den * prod(x.denominator for x in point))
            raise InvalidModel(
                f"negative multiplicity {coeff} on {label}: the declared curve "
                "list is not a genuine configuration of irreducible negative curves"
            )
    return positive, certs


class _SChamber(Record):
    lo: Fraction
    hi: Fraction
    support: tuple[str, ...]
    upper_cert: int | None  # index in _Certs.rows of the row vanishing at hi (None at the threshold)
    positive: Family


class _SplitRequest(Exception):
    def __init__(self, points: Sequence[Fraction]):
        self.points = list(points)


def _certified_cells(lo: Fraction, hi: Fraction, certify: Callable[[Fraction, Fraction], object]) -> list:
    """Certify [lo, hi] as cells, left to right, splitting where certification fails.

    certify(a, b) returns the cell on [a, b] or raises _SplitRequest with
    the points to split at; only the points inside (a, b) count.
    """
    cells = []
    stack = [(lo, hi, 0)]
    while stack:
        a, b, depth = stack.pop()
        if depth > _MAX_SPLIT_DEPTH:
            raise WallCrossingDegeneracy("chamber subdivision did not terminate")
        if a == b:
            continue
        try:
            cells.append(certify(a, b))
        except _SplitRequest as split:
            cuts = sorted({r for r in split.points if a < r < b})
            if not cuts:
                raise WallCrossingDegeneracy(
                    f"cannot certify [{a}, {b}] and no interior split point was found"
                ) from None
            bounds = [a] + cuts + [b]
            stack.extend((x, y, depth + 1) for x, y in reversed(list(zip(bounds, bounds[1:]))))
    return cells


def _interval(lo, hi) -> tuple[Fraction, Fraction]:
    """lo and hi as rationals; InvalidModel unless both are exact rationals and lo < hi."""
    try:
        lo, hi = to_q(lo), to_q(hi)
    except (TypeError, ValueError) as exc:
        raise InvalidModel(f"interval bounds must be exact rationals: {exc}") from None
    if not lo < hi:
        raise InvalidModel(f"the interval [{lo}, {hi}] is empty")
    return lo, hi


def _march_one_param(
    surface: SurfaceModel, family: Family, memo: dict, lo: Fraction, hi: Fraction, *t: Fraction
) -> list[_SChamber]:
    """Chambers in s of an affine family on [lo, hi] in pseff, each support decomposed once through memo.

    family is (F0, F1), or (A0, A1, -Z) at a given t = p/q: each row (c0, ct,
    cs) is then decided as (c0*q + ct*p, cs*q), a positive multiple of the
    row of (A(t), -Z), so every sign, root and wall is that family's.
    """

    def certify(a: Fraction, b: Fraction) -> _SChamber:
        # both ends are in the cone, which is convex, so the midpoint is too
        positive, certs = _iterative_decomposition(surface, family, memo, *t, (a + b) / 2)
        rows = certs.rows
        if t:
            q, p = t[0].denominator, t[0].numerator
            rows = [(c0 * q + ct * p, cs * q) for c0, ct, cs in rows]
        at_b = _values(rows, b)
        failed = [c for c, u, v in zip(rows, _values(rows, a), at_b) if u < 0 or v < 0]
        if failed:
            raise _SplitRequest(r for c in failed for r in _root(c))
        # the wall at b: a row that vanishes there and decreases across it
        upper = next((i for i, (c, v) in enumerate(zip(rows, at_b)) if v == 0 and c[1] < 0), None)
        return _SChamber(a, b, certs.support, upper, positive)

    # stitch identical neighbours (a split point that was not a real wall)
    stitched: list[_SChamber] = []
    for ch in _certified_cells(lo, hi, certify):
        if stitched and stitched[-1].support == ch.support:
            stitched[-1] = _SChamber(stitched[-1].lo, ch.hi, ch.support, ch.upper_cert, ch.positive)
        else:
            stitched.append(ch)
    return stitched


def one_param_volume(surface: SurfaceModel, family: Sequence[Polynomial | Fraction | int], lo, hi) -> VolumeFunction:
    """Certified volume function of an affine one-parameter family.

    The family is a class vector whose entries are affine polynomials in a
    single parameter, the volume's variable ("t" if the family is constant).
    The interval, which must have lo < hi, is subdivided at the rational
    chamber walls; on each chamber the support is constant, the negative
    part is affine, and vol = P(t)^2 is an exact quadratic.  The assembled
    function is continuous by construction (the piecewise constructor
    re-checks).
    """
    lo, hi = _interval(lo, hi)
    if len(family) != surface.rank:
        raise InvalidModel("class vectors must match the basis size")
    var = _family_var(family)
    vecs = _affine_vectors(family, (var,), "family must be affine in its parameter")
    start, slope = _at((vecs, 1), lo), vecs[1]
    gens = _eff_data(surface)
    if in_cone(gens, start) is None:
        raise NotPseudoEffective(f"family is not pseudo-effective at {lo}")
    try:
        s_end = min(hi, lo + max_shift(start, slope, gens).value)
    except Unbounded:
        s_end = hi
    pieces = []
    vol_chambers = []
    for ch in _march_one_param(surface, _integer_family(vecs), {}, lo, s_end):
        vol = _affine_square(surface, ch.positive, (var,))
        pieces.append((ch.lo, ch.hi, vol, ",".join(ch.support) if ch.support else "nef"))
        vecs, den = ch.positive
        p0, p1 = (tuple(Fraction(x, den) for x in v) for v in vecs)
        vol_chambers.append(VolumeChamber(ch.lo, ch.hi, p0, p1, ch.support))
    if s_end < hi:
        zero = Polynomial.constant(0, (var,))
        pieces.append((s_end, hi, zero, "outside-pseff"))
        vol_chambers.append(VolumeChamber(s_end, hi, (Q(0),) * surface.rank, (Q(0),) * surface.rank, ()))
    pw = PiecewisePolynomial(pieces, var)
    if pw(s_end) < 0:
        raise CertificateViolation("volume is negative at the pseudo-effective threshold")
    return VolumeFunction(pw, tuple(vol_chambers), "relative to declared curves")


# -- two-parameter flag machinery --------------------------------------------


class FlagCell(Record):
    """One cell of a two-parameter decomposition.

    The bounds are affine polynomials in the outer parameter; the volume is
    the bivariate quadratic P(s,t)^2 with P the (affine) positive part.
    """

    s_lo: Polynomial
    s_hi: Polynomial
    volume: Polynomial
    positive: tuple[Polynomial, ...]
    support: tuple[str, ...]


class FlagChamber(Record):
    t_lo: Fraction
    t_hi: Fraction
    cells: tuple[FlagCell, ...]


class FlagDecomposition(Record):
    chambers: tuple[FlagChamber, ...]
    tvar: str
    svar: str

    def integral(self) -> Fraction:
        """Exact double integral of the volume over all cells, by Simpson's rule in s and then in t.

        On a cell the volume is a quadratic in (t, s) and the s-bounds are
        affine in t.  For fixed t the integrand is a quadratic in s, so
        Simpson's rule gives the inner integral F(t) exactly; F(t) is a
        cubic in t, so Simpson's rule over the chamber is exact too.  A cell
        of higher degree, or in other variables, raises InvalidModel.
        """
        t, s = self.tvar, self.svar
        total = Q(0)
        for chamber in self.chambers:
            t_lo, t_hi = to_q(chamber.t_lo), to_q(chamber.t_hi)
            weighted = Q(0)
            for cell in chamber.cells:
                bounds, vol = (cell.s_lo, cell.s_hi), cell.volume
                if vol.degree() > 2 or not set(vol.vars) <= {t, s} or any(
                    b.degree() > 1 or not set(b.vars) <= {t} for b in bounds
                ):
                    raise InvalidModel("a flag cell needs a volume quadratic in (t, s) and s-bounds affine in t")
                for wt, tk in zip((1, 4, 1), (t_lo, (t_lo + t_hi) / 2, t_hi)):
                    lo, hi = (b(**{t: tk}) for b in bounds)
                    inner = sum(ws * vol(**{t: tk, s: sk}) for ws, sk in zip((1, 4, 1), (lo, (lo + hi) / 2, hi)))
                    weighted += wt * (hi - lo) * inner
            total += (t_hi - t_lo) * weighted / 36
        return total


def two_param_flag_volume(
    surface: SurfaceModel, a_family: Sequence[Polynomial | Fraction | int], t_lo, t_hi, z
) -> FlagDecomposition:
    """Certified cell structure of vol(A(t) - s*Z) over a t-interval, t_lo < t_hi.

    The outer parameter is the family's own variable ("t" if it is
    constant) and the inner one is "s"; a family in s raises InvalidModel.
    On every cell the Zariski support of A(t) - s*Z is constant, the s-walls
    are affine functions of t, and the volume is a bivariate polynomial.
    Certificates (negative-part coefficients, nefness against every declared
    curve, wall ordering, and vanishing of the volume at the pseudo-effective
    threshold) are affine, so checks at cell vertices are complete; any
    failure splits the t-interval at the rational root responsible.
    """
    t_lo, t_hi = _interval(t_lo, t_hi)
    if len(a_family) != surface.rank:
        raise InvalidModel("class vectors must match the basis size")
    tvar = _family_var(a_family)
    if not (isinstance(tvar, str) and tvar and tvar != "s"):
        raise InvalidModel(
            f"the flag variables must be two distinct names, not {tvar!r} and 's': "
            "the flag family must not be in s, the inner parameter"
        )
    a_vecs = _affine_vectors(a_family, (tvar,), "restriction family must be affine in t")
    z_vec = surface.class_vector(z)
    # max_shift only finds some s >= 0 with A(t) - s*Z in the cone; that
    # puts A(t) in the cone too when Z lies in it
    z_in_cone = in_cone(_eff_data(surface), z_vec) is not None
    family = _integer_family((*a_vecs, tuple(-x for x in z_vec)))
    memo, lines = {}, {}  # this call's supports of family and tau-lines of bases, read by every chamber
    chambers = _certified_cells(
        t_lo, t_hi, lambda a, b: _certify_t_chamber(surface, family, a, b, z_in_cone, (tvar, "s"), memo, lines)
    )
    return FlagDecomposition(tuple(chambers), tvar, "s")


def _flag_at(family: Family, t: Fraction) -> tuple[QVec, QVec]:
    """A(t) and -Z of a flag family (A0, A1, -Z), as rational classes."""
    (a0, a1, minus_z), den = family
    return _at(((a0, a1), den), t), _at(((minus_z,), den))


def _certify_t_chamber(
    surface: SurfaceModel, family: Family, t_lo: Fraction, t_hi: Fraction,
    z_in_cone: bool, both: tuple[str, str], memo: dict, lines: dict,
) -> FlagChamber:
    """One t-chamber of A(t) - s*Z; family is (A0, A1, -Z) over its denominator.

    memo holds the supports of family decomposed so far, and lines the
    tau-lines of optimal bases, both for every chamber of one call.  A wall
    s = (w0 + w1*t) / dw is held as ((w0, w1), dw) with dw > 0.
    """
    mid = (t_lo + t_hi) / 2
    a_mid, minus_z = _flag_at(family, mid)
    gens = _eff_data(surface)
    if not z_in_cone and in_cone(gens, a_mid) is None:
        raise NotPseudoEffective(f"restriction family leaves the effective cone at {mid}")
    try:
        lp = max_shift(a_mid, minus_z, gens)
    except Infeasible:
        raise NotPseudoEffective(f"restriction family leaves the effective cone at {mid}") from None
    except Unbounded:
        raise UnboundedDirection("flag class is anti-effective for the declared cone") from None
    tau_mid = lp.value
    if tau_mid == 0:
        # a concave nonnegative function that vanishes at the midpoint and
        # at both ends vanishes identically: no s-range on this chamber
        for t_end in (t_lo, t_hi):
            if _threshold_at(family, gens, t_end) != 0:
                raise _SplitRequest([mid])
        return FlagChamber(t_lo, t_hi, ())
    tau = scaled(_parametric_threshold(family, gens, lp, t_lo, t_hi, lines))
    # sampled chamber structure in s at the midpoint, on family itself
    s_chambers = _march_one_param(surface, family, memo, Q(0), tau_mid, mid)
    # symbolic (t, s) reconstruction of each cell, from the support the march decomposed
    cells: list[FlagCell] = []
    lower = ((0, 0), 1)
    for idx, sch in enumerate(s_chambers):
        positive, certs = memo[sch.support]
        upper = _wall_from_cert(certs.rows, sch.upper_cert, mid, sch.hi) if idx + 1 < len(s_chambers) else tau
        (l, dl), (u, du) = lower, upper
        gap = (l[0] * du - u[0] * dl, l[1] * du - u[1] * dl)  # (lower - upper) * dl * du
        if any(v > 0 for t in (t_lo, t_hi) for v in _values([gap], t)):
            raise _SplitRequest(_root(gap))
        # every row at the cell's four corners (t, w(t)), t an end of the chamber and w a wall
        rows = certs.rows
        corners = [_values(rows, t, (w[0] + w[1] * t) / dw) for w, dw in (lower, upper) for t in (t_lo, t_hi)]
        failed = [c for c, *at in zip(rows, *corners) if min(at) < 0]
        if failed:
            # on a wall s = w(t) a row, times the wall's dw, is affine in t
            on_walls = [(c0 * dw + cs * w[0], ct * dw + cs * w[1]) for c0, ct, cs in failed for w, dw in (lower, upper)]
            raise _SplitRequest(r for c in on_walls for r in _root(c))
        vecs, pden = positive
        cells.append(FlagCell(
            _affine_poly(both[:1], *lower), _affine_poly(both[:1], *upper), _affine_square(surface, positive, both),
            tuple(_affine_poly(both, c, pden) for c in zip(*vecs)), sch.support,
        ))
        lower = upper
    if cells:
        # the volume must vanish at the pseudo-effective threshold: P(t, tau(t))^2 = 0
        (p0, pt, ps), pden = positive
        (w0, w1), dw = tau
        at_tau = (tuple(x * dw + w0 * y for x, y in zip(p0, ps)), tuple(x * dw + w1 * y for x, y in zip(pt, ps)))
        if not _affine_square(surface, (at_tau, pden * dw), both[:1]).is_zero():
            raise _SplitRequest([mid])
    return FlagChamber(t_lo, t_hi, tuple(cells))


def _wall_from_cert(
    rows: Sequence[tuple[int, ...]], index: int | None, t_mid: Fraction, s_at_mid: Fraction
) -> tuple[tuple[int, int], int]:
    """Wall s = (w0 + w1*t) / dw as ((w0, w1), dw): from rows[index], or the first row zero at (t_mid, s_at_mid)."""
    if index is None:
        index = next((i for i, v in enumerate(_values(rows, t_mid, s_at_mid)) if v == 0), None)
    if index is None:
        raise WallCrossingDegeneracy("no certificate vanishes on the sampled wall")
    c0, ct, cs = rows[index] if rows[index][2] > 0 else (-x for x in rows[index])
    if cs == 0:
        raise WallCrossingDegeneracy("wall certificate does not depend on the inner parameter")
    return (-c0, -ct), cs


def _threshold_at(family: Family, gens: Sequence[QVec], t: Fraction) -> Fraction:
    try:
        return max_shift(*_flag_at(family, t), gens).value
    except Infeasible:
        raise NotPseudoEffective(f"family leaves the effective cone at {t}") from None


def _parametric_threshold(
    family: Family, gens: Sequence[QVec], lp: LPResult, t_lo: Fraction, t_hi: Fraction, lines: dict
) -> tuple[Fraction, Fraction]:
    """tau(t) = tau0 + tau1*t, from the midpoint's optimal basis or by a three-point probe.

    lp is max_shift at the midpoint.  When its basis proves tau affine on
    the chamber (``_threshold_from_basis``) no further LP runs.  Otherwise
    the probe decides: the feasible region {(t, s) : A(t) - sZ effective}
    is convex because A is affine, so tau is concave on the chamber.  A
    concave function that meets the endpoint chord at the midpoint as well
    equals the chord on the whole interval (the difference is concave, >= 0
    by the chord bound and <= 0 by the three-point bound).  When the
    midpoint value leaves the chord, tau has a kink; the two half-chords
    locate it exactly and the chamber is split there.  When the basis
    proves tau affine, the probe would accept the same line.
    """
    tau = _threshold_from_basis(family, gens, lp, t_lo, t_hi, lines)
    if tau is not None:
        return tau
    mid = (t_lo + t_hi) / 2
    tau_mid = lp.value
    tau_lo = _threshold_at(family, gens, t_lo)
    tau_hi = _threshold_at(family, gens, t_hi)
    slope = (tau_hi - tau_lo) / (t_hi - t_lo)
    if tau_lo + slope * (mid - t_lo) == tau_mid:
        return (tau_lo - slope * t_lo, slope)
    # kink: intersect the chords through (lo, mid) and (mid, hi)
    left_slope = (tau_mid - tau_lo) / (mid - t_lo)
    right_slope = (tau_hi - tau_mid) / (t_hi - mid)
    if left_slope == right_slope:
        raise _SplitRequest([mid])
    kink = ((tau_mid - right_slope * mid) - (tau_lo - left_slope * t_lo)) / (left_slope - right_slope)
    if t_lo < kink < t_hi:
        raise _SplitRequest([kink])
    raise _SplitRequest([mid])


def _threshold_from_basis(
    family: Family, gens: Sequence[QVec], lp: LPResult, t_lo: Fraction, t_hi: Fraction, lines: dict
) -> tuple[Fraction, Fraction] | None:
    """tau(t) on [t_lo, t_hi] as proved by the optimal basis of lp, or None.

    family is (A0, A1, -Z) over its denominator den.  In max_shift(A(t),
    -Z, gens) the parameter enters only through the right-hand side A(t)
    (Gass-Saaty 1955).  On the basis B of the midpoint optimum, whose
    columns are Z and generators, [Z*den | gens*den]*x = A0 + t*A1 has the
    affine solution x(t), solved once per basis into lines, this call's
    memo, as integer lines over one denominator.  If x(t) >= 0 at both ends
    it is feasible on the whole chamber.  The checked dual y of the
    midpoint does not involve t, so it stays feasible; if y*A_k / den is
    the s-entry of x(t), as affine functions, weak duality makes that entry
    tau(t).  None when any of this fails; the dual is lp's own, so it is
    checked on every call.
    """
    basis = lp.basis
    if not basis or basis[0] != 0:  # s, column 0, is not basic
        return None
    (a0, a1, minus_z), den = family
    key = tuple(basis)
    if key not in lines:
        mat = [[-minus_z[i] if j == 0 else gens[j - 1][i] * den for j in basis] for i in range(len(minus_z))]
        sols = solve_each(mat, (a0, a1))
        lines[key] = None if sols is None else _integer_family(sols)
    if lines[key] is None:
        return None
    (x0, x1), xden = lines[key]
    if any(v < 0 for t in (t_lo, t_hi) for v in _values(zip(x0, x1), t)):
        return None
    tau = (Fraction(x0[0], xden), Fraction(x1[0], xden))
    if tuple(dot(lp.dual, a) / den for a in (a0, a1)) != tau:
        return None
    return tau


# -- threefold chamber certification ------------------------------------------


def threefold_volume_certified(model: ThreefoldModel, divisor: str) -> VolumeFunction:
    """Volume function of -K - t*B from the model's own chamber table for B.

    B is a divisor label with a table in model.chambers; any other divisor
    raises CertificateViolation.  A custom table is a model that carries
    it: ThreefoldModel(..., chambers=...) or a model file's ``chambers B``
    section.  Each chamber supplies the claimed positive part P(t), affine
    in t.  The certificate has two halves, both decided at the chamber
    ends.  The residual (-K - tB) - P(t) must lie in the cone of the
    declared effective classes: it is affine in t and the cone is convex,
    so a checked ``lp.in_cone`` certificate at each end proves the whole
    chamber.  And P(t) must pair nonnegatively with every declared curve.
    Continuity across walls is enforced by the piecewise constructor.  The
    result never claims more than nefness relative to the declared curves.
    """
    b_vec = model.class_vector(divisor)
    if not (isinstance(divisor, str) and divisor in model.chambers):
        raise CertificateViolation(f"no chamber table declared for {divisor!r}")
    k = model.anticanonical
    eff = Cone(model.effective_classes[label] for label in sorted(model.effective_classes))
    pieces = []
    vol_chambers = []
    for chamber in model.chambers[divisor]:
        lo, hi = to_q(chamber.lo), to_q(chamber.hi)
        p0, p1 = qvec(chamber.p0), qvec(chamber.p1)
        if len(p0) != model.rank or len(p1) != model.rank:
            raise InvalidModel("class vectors must match the basis size")
        # the residual (-K - tB) - P(t), as its constant and slope vectors
        residual = (tuple(x - y for x, y in zip(k, p0)), tuple(-x - y for x, y in zip(b_vec, p1)))
        for t_end in (lo, hi):
            if in_cone(eff, _at((residual, 1), t_end)) is None:
                raise CertificateViolation(
                    f"residual at t = {t_end} on [{lo}, {hi}] is outside the declared effective cone"
                )
        for curve_label, curve in sorted(model.curves.items()):
            c0, c1 = dot(p0, curve), dot(p1, curve)
            for t_end in (lo, hi):
                if c0 + c1 * t_end < 0:
                    raise CertificateViolation(
                        f"positive part pairs negatively with curve {curve_label!r} at t = {t_end}"
                    )
        vol = Polynomial._make(("t",), {(k,): c for k, c in enumerate(affine_cube(model, p0, p1))})
        pieces.append((lo, hi, vol))
        vol_chambers.append(VolumeChamber(lo, hi, chamber.p0, chamber.p1, ()))
    pw = PiecewisePolynomial(pieces, "t")
    return VolumeFunction(pw, tuple(vol_chambers), "relative to declared curves")
