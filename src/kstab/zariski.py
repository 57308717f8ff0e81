"""Zariski decompositions and certified piecewise volume functions.

Surface side: the classical iterative decomposition (grow the support by
every declared curve the mobile part meets negatively, re-solve, repeat)
against the model's negative-curve list, with pseudo-effectivity decided by
an exact LP over the declared effective-cone generators, whose integer LP
rows each surface builds once.  Each round is the symbolic decomposition
below of the constant family on the support so far.

One- and two-parameter families are handled symbolically: on a chamber the
support is constant, so the negative-part coefficients and the positive
part are affine in the parameters and every certificate (coefficient
nonnegativity, nefness against each declared curve) is an affine function
checked exactly at chamber endpoints or cell vertices.  A family is read
once into coefficient vectors (the constant class and one slope class per
parameter; a term of degree > 1 is rejected) and held as integer
numerators over one positive denominator.  The multiplicities come from
one fraction-free solve on the integer support Gram, the positive part is
an integer combination, and a certificate is its integer tuple (constant,
slopes) over a positive denominator.  Every decision is a sign, a zero or
a root, none of which a positive scale changes, so a certificate at a
rational point p/q is the integer c0*q + c1*p.  The volume P^2 is the
quadratic form of the positive part's vectors on the Gram scaled to
integers once.  Fractions and polynomials are built only for the results.
A failed certificate splits the chamber at the root of the offending
affine function, which is rational, so every wall is rational.  Both
families run one certified-cell loop: certify a cell, or split it at the
points the failed certification names.

Threefold side: there is no Zariski decomposition in general, so chamber
data (interval plus positive part, affine in the parameter) is *input*, and
this module only certifies it: the residual must be a nonnegative
combination of the declared effective classes and the positive part must
pair nonnegatively with every declared curve, all affine in the parameter,
hence endpoint checks are complete proofs.  The output volume function is
tagged as certified relative to the declared curves - never absolutely.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Callable, Sequence

from .errors import (
    CertificateViolation,
    IndefiniteSupport,
    InvalidModel,
    NotPseudoEffective,
    UnboundedDirection,
    WallCrossingDegeneracy,
)
from .intersect import Chamber, SurfaceModel, ThreefoldModel, _scaled, affine_cube
from .lp import Cone, Infeasible, LPResult, Unbounded, in_cone, max_shift
from .poly import PiecewisePolynomial, Polynomial
from .rationals import Q, QVec, dot, qvec, solve_each, solve_negative_definite, to_q
from .records import Record

_MAX_SPLIT_DEPTH = 32


class ZariskiResult(Record):
    """Positive/negative splitting of a pseudo-effective surface class."""

    positive: QVec
    negative: tuple[tuple[str, Fraction], ...]
    support: tuple[str, ...]
    support_gram: tuple[QVec, ...]

    def negative_coefficient(self, label: str) -> Fraction:
        for name, c in self.negative:
            if name == label:
                return c
        return Q(0)


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


def _on_generator_ray(gens: Sequence[QVec], v: Sequence[Fraction]) -> bool:
    """Whether v is 0 or a positive multiple of one generator: in the cone, no LP needed."""
    for g in gens:
        i = next((j for j, x in enumerate(g) if x != 0), None)
        if i is not None and v[i] * g[i] > 0:
            c = v[i] / g[i]
            if all(x == c * y for x, y in zip(v, g)):
                return True
    return all(x == 0 for x in v)


def zariski_decompose(surface: SurfaceModel, divisor) -> ZariskiResult:
    """Zariski decomposition of a pseudo-effective class, exactly.

    Raises NotPseudoEffective when the class is outside the cone spanned by
    the declared effective generators, and IndefiniteSupport when the
    accumulated support Gram stops being negative definite (the canary for
    an incomplete negative-curve list).
    """
    d = surface.class_vector(divisor)
    if in_cone(_eff_data(surface), d) is None:
        raise NotPseudoEffective(f"{d} is outside the declared effective cone")
    return _decompose(surface, d)


def _decompose(surface: SurfaceModel, d: QVec) -> ZariskiResult:
    """Zariski decomposition of a class vector already known to be in the cone.

    Each round decomposes the constant family d on the support found so
    far; its nef certificates are the mobile part's pairings with every
    curve, and each curve met negatively joins the support.
    """
    family = _integer_family((d,))
    support: list[str] = []
    while True:
        ((positive,), den), certs = _symbolic_decomposition(surface, family, support)
        violators = [c.label for c in certs if c.kind == "nef" and c.coeffs[0] < 0 and c.label not in support]
        if not violators:
            break
        support = sorted(support + violators)
    nu = tuple((c.label, Fraction(c.coeffs[0], c.den)) for c in certs if c.kind == "mult")
    for label, coeff in nu:
        if coeff < 0:
            raise InvalidModel(
                f"negative multiplicity {coeff} on {label}: the declared curve "
                "list is not a genuine configuration of irreducible negative curves"
            )
    scale = surface._curve_den * surface._gc_den
    gram = tuple(tuple(Fraction(x, scale) for x in row) for row in _support_gram(surface, support))
    return ZariskiResult(tuple(Fraction(x, den) for x in positive), nu, tuple(support), gram)


def volume(surface: SurfaceModel, divisor) -> Fraction:
    """vol(D) = P^2 of the positive part (0 for non-pseudo-effective D)."""
    try:
        res = zariski_decompose(surface, divisor)
    except NotPseudoEffective:
        return Q(0)
    return surface.square(res.positive)


def pseff_threshold(surface: SurfaceModel, divisor, direction) -> Fraction:
    """Largest s with D - s*Z still inside the declared effective cone."""
    d = surface.class_vector(divisor)
    z = surface.class_vector(direction)
    try:
        res = max_shift(d, tuple(-x for x in z), _eff_data(surface))
    except Infeasible:
        raise NotPseudoEffective(f"{d} is outside the declared effective cone") from None
    except Unbounded:
        raise UnboundedDirection(f"{z} is anti-effective for the declared cone; the threshold is infinite") from None
    return res.value


# -- affine coefficient vectors ------------------------------------------------

# An affine class family is held as its coefficient vectors: the constant
# class, then one slope class per parameter.  The chamber loops hold a
# family as integer numerators over one positive denominator; an affine
# scalar, such as a certificate, is the matching tuple (constant, slope,
# ...), with a denominator wherever its value is needed.
Affine = tuple[QVec, ...]
Family = tuple[tuple[tuple[int, ...], ...], int]


def _family_var(family, var: str | None) -> str:
    names = {v for entry in family if isinstance(entry, Polynomial) for v in entry.vars}
    if var is None:
        if len(names) > 1:
            raise InvalidModel(f"ambiguous family variable: {sorted(names)}")
        var = names.pop() if names else "t"
    return var


def _affine_vectors(family: Sequence, variables: Sequence[str], message: str) -> Affine:
    """Coefficient vectors (constant, slope per variable) of a class family.

    Each entry is read once; rationals are constants.  A term of degree > 1
    raises InvalidModel with the given message.
    """
    variables = tuple(variables)
    cols = [[Q(0)] * len(family) for _ in range(len(variables) + 1)]
    for i, entry in enumerate(family):
        if not isinstance(entry, Polynomial):
            cols[0][i] = to_q(entry)
            continue
        for exp, c in entry.in_vars(variables).coeffs.items():
            degree = sum(exp)
            if degree > 1:
                raise InvalidModel(message)
            cols[exp.index(1) + 1 if degree else 0][i] = c
    return tuple(tuple(col) for col in cols)


def _integer_family(vecs: Affine) -> Family:
    """Rational coefficient vectors as integer numerators over one positive denominator."""
    flat, den = _scaled([x for v in vecs for x in v])
    r = len(vecs[0])
    return tuple(tuple(flat[k:k + r]) for k in range(0, len(flat), r)), den


def _value(c: Sequence, *point: Fraction):
    """An affine scalar (constant, slope, ...) at a rational point, times a positive scale.

    The scale is the product of the point's denominators, so the sign and
    the zeros are those of the value.
    """
    total, scale = c[0], 1
    for slope, x in zip(c[1:], point):
        total = total * x.denominator + slope * x.numerator * scale
        scale *= x.denominator
    return total


def _at(family: Family, *point: Fraction) -> QVec:
    """A family at a rational point, as a rational class; its vectors may also hold rationals."""
    vecs, den = family
    for x in point:
        den *= x.denominator
    return tuple(Fraction(_value(c, *point), den) for c in zip(*vecs))


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


class _Cert(Record):
    """An affine certificate: integer coefficients (constant, slope, ...) over den > 0, with provenance."""

    kind: str  # "mult" or "nef"
    label: str
    coeffs: tuple[int, ...]
    den: int


def _support_gram(surface: SurfaceModel, support: Sequence[str]) -> list[list[int]]:
    """The Gram of the support curves, times _curve_den * _gc_den."""
    index = [surface.curve_labels.index(label) for label in support]
    return [[row[j] for j in index] for row in (surface._pairings(surface._curve_ints[a]) for a in support)]


def _symbolic_decomposition(
    surface: SurfaceModel, family: Family, support: Sequence[str]
) -> tuple[Family, list[_Cert]]:
    """Positive part and certificates of an integer affine family for a fixed support.

    With V_k the family's vectors, the integer support Gram G gives
    G * y_k = (V_k.C)_C up to positive scales, solved for every k in one
    elimination that also checks that G is negative definite, as y_k over
    one p > 0.  The multiplicities are y_k up to a positive scale, and
    P_k = p*V_k - sum(y_kC * C) over p times the family's denominator;
    P.C is each nef certificate.  With a sorted support the certificates
    come sorted by (kind, label).
    """
    vecs, den = family
    support = list(support)
    certs: list[_Cert] = []
    if support:
        index = [surface.curve_labels.index(label) for label in support]
        rhs = [[row[j] for j in index] for row in map(surface._pairings, vecs)]
        sols = solve_negative_definite(_support_gram(surface, support), rhs)
        if sols is None:
            raise IndefiniteSupport(f"support {support} has an indefinite Gram matrix")
        ys, p = sols
        curves = [surface._curve_ints[label] for label in support]
        vecs = tuple(
            tuple(p * x - sum(y * c[n] for y, c in zip(yk, curves)) for n, x in enumerate(v)) for v, yk in zip(vecs, ys)
        )
        cd = surface._curve_den
        certs = [_Cert("mult", label, tuple(y[i] * cd for y in ys), p * den) for i, label in enumerate(support)]
        den *= p
    nef = zip(*map(surface._pairings, vecs))
    certs += [_Cert("nef", label, c, den * surface._gc_den) for label, c in zip(surface.curve_labels, nef)]
    return (vecs, den), certs


class _SChamber(Record):
    lo: Fraction
    hi: Fraction
    support: tuple[str, ...]
    upper_cert: tuple[str, str] | None  # certificate vanishing at hi (None at the threshold)
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
    """lo and hi as rationals; InvalidModel unless lo < hi."""
    lo, hi = to_q(lo), to_q(hi)
    if not lo < hi:
        raise InvalidModel(f"the interval [{lo}, {hi}] is empty")
    return lo, hi


def _march_one_param(surface: SurfaceModel, family: Family, lo: Fraction, hi: Fraction) -> list[_SChamber]:
    """Chamber structure of an affine one-parameter family on [lo, hi] (all within pseff)."""

    def certify(a: Fraction, b: Fraction) -> _SChamber:
        # both ends are in the cone, which is convex, so the midpoint is too
        decomp = _decompose(surface, _at(family, (a + b) / 2))
        positive, certs = _symbolic_decomposition(surface, family, decomp.support)
        failed = [c.coeffs for c in certs if _value(c.coeffs, a) < 0 or _value(c.coeffs, b) < 0]
        if failed:
            raise _SplitRequest(r for c in failed for r in _root(c))
        # the wall at b: a certificate that vanishes there and decreases across it
        upper = next(((c.kind, c.label) for c in certs if _value(c.coeffs, b) == 0 and c.coeffs[1] < 0), None)
        return _SChamber(a, b, decomp.support, upper, positive)

    # stitch identical neighbours (a split point that was not a real wall)
    stitched: list[_SChamber] = []
    for ch in _certified_cells(lo, hi, certify):
        if stitched and stitched[-1].support == ch.support:
            stitched[-1] = _SChamber(stitched[-1].lo, ch.hi, ch.support, ch.upper_cert, ch.positive)
        else:
            stitched.append(ch)
    return stitched


def one_param_volume(
    surface: SurfaceModel,
    family: Sequence[Polynomial | Fraction | int],
    lo,
    hi,
    var: str | None = None,
) -> VolumeFunction:
    """Certified volume function of an affine one-parameter family.

    The family is a class vector whose entries are affine polynomials in a
    single parameter.  The interval, which must have lo < hi, is subdivided
    at the rational chamber walls; on each chamber the support is constant,
    the negative part is affine, and vol = P(t)^2 is an exact quadratic.
    The assembled function is continuous by construction (the piecewise
    constructor re-checks).
    """
    lo, hi = _interval(lo, hi)
    if len(family) != surface.rank:
        raise InvalidModel("class vectors must match the basis size")
    var = _family_var(family, var)
    vecs = _affine_vectors(family, (var,), "family must be affine in its parameter")
    start, slope = _at((vecs, 1), lo), vecs[1]
    gens = _eff_data(surface)
    # max_shift only finds some s >= 0 with start + s*slope in the cone;
    # that puts the start in the cone too when -slope lies in it
    if not _on_generator_ray(gens, tuple(-x for x in slope)) and in_cone(gens, start) is None:
        raise NotPseudoEffective(f"family is not pseudo-effective at {lo}")
    try:
        res = max_shift(start, slope, gens)
        s_end = min(hi, lo + res.value)
    except Infeasible:
        raise NotPseudoEffective(f"family is not pseudo-effective at {lo}") from None
    except Unbounded:
        s_end = hi
    pieces = []
    vol_chambers = []
    for ch in _march_one_param(surface, _integer_family(vecs), lo, s_end):
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
        """Exact double integral of the volume over all cells."""
        total = Q(0)
        for chamber in self.chambers:
            for cell in chamber.cells:
                inner = cell.volume.integrate(self.svar, cell.s_lo, cell.s_hi)
                if isinstance(inner, Polynomial):
                    value = inner.integrate(self.tvar, chamber.t_lo, chamber.t_hi)
                else:
                    value = inner * (chamber.t_hi - chamber.t_lo)
                total += to_q(value)
        return total


def two_param_flag_volume(
    surface: SurfaceModel,
    a_family: Sequence[Polynomial | Fraction | int],
    t_lo,
    t_hi,
    z,
    tvar: str | None = None,
    svar: str = "s",
) -> FlagDecomposition:
    """Certified cell structure of vol(A(t) - s*Z) over a t-interval, t_lo < t_hi.

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
    tvar = _family_var(a_family, tvar)
    a_vecs = _affine_vectors(a_family, (tvar,), "restriction family must be affine in t")
    z_vec = surface.class_vector(z)
    gens = _eff_data(surface)
    # max_shift only finds some s >= 0 with A(t) - s*Z in the cone; that
    # puts A(t) in the cone too when Z lies in it
    z_in_cone = _on_generator_ray(gens, z_vec) or in_cone(gens, z_vec) is not None
    minus_z = tuple(-x for x in z_vec)
    family = _integer_family((*a_vecs, minus_z))
    chambers = _certified_cells(
        t_lo, t_hi,
        lambda a, b: _certify_t_chamber(surface, a_vecs, minus_z, family, a, b, z_in_cone, (tvar, svar)),
    )
    return FlagDecomposition(tuple(chambers), tvar, svar)


def _certify_t_chamber(
    surface: SurfaceModel, a_vecs: Affine, minus_z: QVec, family: Family,
    t_lo: Fraction, t_hi: Fraction, z_in_cone: bool, both: tuple[str, str],
) -> FlagChamber:
    """One t-chamber of A(t) - s*Z; family is (A0, A1, -Z) over its denominator.

    A wall s = (w0 + w1*t) / dw is held as ((w0, w1), dw) with dw > 0.
    """
    mid = (t_lo + t_hi) / 2
    a_mid = _at((a_vecs, 1), mid)
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
            if _threshold_at(a_vecs, minus_z, gens, t_end) != 0:
                raise _SplitRequest([mid])
        return FlagChamber(t_lo, t_hi, ())
    tau = _scaled(_parametric_threshold(a_vecs, minus_z, gens, lp, t_lo, t_hi))
    # sampled chamber structure in s at the midpoint
    s_chambers = _march_one_param(surface, _integer_family((a_mid, minus_z)), Q(0), tau_mid)
    # symbolic (t, s) reconstruction of each cell
    cells: list[FlagCell] = []
    lower = ((0, 0), 1)
    for idx, sch in enumerate(s_chambers):
        positive, certs = _symbolic_decomposition(surface, family, sch.support)
        upper = _wall_from_cert(certs, sch.upper_cert, mid, sch.hi) if idx + 1 < len(s_chambers) else tau
        (l, dl), (u, du) = lower, upper
        gap = (l[0] * du - u[0] * dl, l[1] * du - u[1] * dl)  # (lower - upper) * dl * du
        if any(_value(gap, t) > 0 for t in (t_lo, t_hi)):
            raise _SplitRequest(_root(gap))
        split_points: list[Fraction] = []
        for cert in certs:
            c0, ct, cs = cert.coeffs
            # on a wall s = w(t) the certificate, times the wall's dw, is affine in t
            on_walls = [(c0 * dw + cs * w[0], ct * dw + cs * w[1]) for w, dw in (lower, upper)]
            if any(_value(c, t) < 0 for c in on_walls for t in (t_lo, t_hi)):
                for c in on_walls:
                    split_points.extend(_root(c))
        if split_points:
            raise _SplitRequest(split_points)
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
    certs: list[_Cert], tag: tuple[str, str] | None, t_mid: Fraction, s_at_mid: Fraction
) -> tuple[tuple[int, int], int]:
    """Wall s = (w0 + w1*t) / dw from the certificate that vanishes on it, as ((w0, w1), dw)."""
    chosen = next((c for c in certs if (c.kind, c.label) == tag), None)
    if chosen is None:
        chosen = next((c for c in certs if _value(c.coeffs, t_mid, s_at_mid) == 0), None)
    if chosen is None:
        raise WallCrossingDegeneracy("no certificate vanishes on the sampled wall")
    c0, ct, cs = chosen.coeffs if chosen.coeffs[2] > 0 else (-x for x in chosen.coeffs)
    if cs == 0:
        raise WallCrossingDegeneracy("wall certificate does not depend on the inner parameter")
    return (-c0, -ct), cs


def _threshold_at(a_vecs: Affine, minus_z: QVec, gens: Sequence[QVec], t: Fraction) -> Fraction:
    try:
        return max_shift(_at((a_vecs, 1), t), minus_z, gens).value
    except Infeasible:
        raise NotPseudoEffective(f"family leaves the effective cone at {t}") from None


def _parametric_threshold(
    a_vecs: Affine, minus_z: QVec, gens: Sequence[QVec], lp: LPResult, t_lo: Fraction, t_hi: Fraction
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
    tau = _threshold_from_basis(a_vecs, minus_z, gens, lp, t_lo, t_hi)
    if tau is not None:
        return tau
    mid = (t_lo + t_hi) / 2
    tau_mid = lp.value
    tau_lo = _threshold_at(a_vecs, minus_z, gens, t_lo)
    tau_hi = _threshold_at(a_vecs, minus_z, gens, t_hi)
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
    a_vecs: Affine, minus_z: QVec, gens: Sequence[QVec], lp: LPResult, t_lo: Fraction, t_hi: Fraction
) -> tuple[Fraction, Fraction] | None:
    """tau(t) on [t_lo, t_hi] as proved by the optimal basis of lp, or None.

    In max_shift(A(t), -Z, gens) the parameter enters only through the
    right-hand side A(t) (Gass-Saaty 1955).  On the basis B of the
    midpoint optimum, B*x = A(t) has the affine solution x(t).  If x(t) >= 0
    at both ends it is feasible on the whole chamber.  The checked dual y
    of the midpoint does not involve t, so it stays feasible; if y*A(t) is
    the s-entry of x(t), as affine functions, weak duality makes that entry
    tau(t).  None when any of this fails.
    """
    basis = lp.basis
    if not basis or basis[0] != 0:  # s, column 0, is not basic
        return None
    mat = [[-minus_z[i] if j == 0 else gens[j - 1][i] for j in basis] for i in range(len(minus_z))]
    sols = solve_each(mat, a_vecs)
    if sols is None:
        return None
    x0, x1 = sols
    if any(u + v * t < 0 for u, v in zip(x0, x1) for t in (t_lo, t_hi)):
        return None
    tau = (x0[0], x1[0])
    if tuple(dot(lp.dual, a) for a in a_vecs) != tau:
        return None
    return tau


# -- threefold chamber certification ------------------------------------------


def threefold_volume_certified(
    model: ThreefoldModel,
    divisor,
    chambers: Sequence[Chamber] | None = None,
    var: str = "t",
) -> VolumeFunction:
    """Volume function of -K - t*B from a declared chamber table.

    Each chamber supplies the claimed positive part P(t), affine in t.  The
    certificate has two halves, both affine in t and hence decided by
    endpoint checks: the residual (-K - tB) - P(t) must be a nonnegative
    combination of the declared effective classes, and P(t) must pair
    nonnegatively with every declared curve.  Continuity across walls is
    enforced by the piecewise constructor.  The result never claims more
    than nefness relative to the declared curve list.
    """
    b_vec = model.class_vector(divisor)
    if chambers is None:
        if isinstance(divisor, str) and divisor in model.chambers:
            chambers = model.chambers[divisor]
        else:
            raise CertificateViolation(f"no chamber table declared for {divisor!r}")
    k = model.anticanonical
    eff_labels = sorted(model.effective_classes)
    eff_vecs = [model.effective_classes[l] for l in eff_labels]
    pieces = []
    vol_chambers = []
    for chamber in chambers:
        lo, hi = to_q(chamber.lo), to_q(chamber.hi)
        p0, p1 = qvec(chamber.p0), qvec(chamber.p1)
        if len(p0) != model.rank or len(p1) != model.rank:
            raise InvalidModel("class vectors must match the basis size")
        # the residual (-K - tB) - P(t), as its constant and slope vectors
        residual = (tuple(x - y for x, y in zip(k, p0)), tuple(-x - y for x, y in zip(b_vec, p1)))
        mu = _affine_combination(residual, eff_vecs)
        if mu is None:
            raise CertificateViolation(
                f"residual on [{lo}, {hi}] is not a combination of the declared effective classes"
            )
        for label, (c0, c1) in zip(eff_labels, mu):
            for t_end in (lo, hi):
                if c0 + c1 * t_end < 0:
                    raise CertificateViolation(
                        f"negative coefficient of {label} at {var} = {t_end} on [{lo}, {hi}]"
                    )
        for curve_label, curve in sorted(model.curves.items()):
            c0, c1 = dot(p0, curve), dot(p1, curve)
            for t_end in (lo, hi):
                if c0 + c1 * t_end < 0:
                    raise CertificateViolation(
                        f"positive part pairs negatively with curve {curve_label!r} at {var} = {t_end}"
                    )
        vol = Polynomial._make((var,), {(k,): c for k, c in enumerate(affine_cube(model, p0, p1))})
        pieces.append((lo, hi, vol))
        vol_chambers.append(VolumeChamber(lo, hi, chamber.p0, chamber.p1, ()))
    pw = PiecewisePolynomial(pieces, var)
    return VolumeFunction(pw, tuple(vol_chambers), "relative to declared curves")


def _affine_combination(residual: Affine, eff_vecs: list[QVec]) -> list[tuple[Fraction, Fraction]] | None:
    """Write an affine class family as an affine combination of fixed classes."""
    mat = [[eff_vecs[j][i] for j in range(len(eff_vecs))] for i in range(len(residual[0]))]
    sols = solve_each(mat, residual)
    return None if sols is None else list(zip(*sols))
