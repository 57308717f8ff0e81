"""Zariski decompositions and certified piecewise volume functions.

Surface side: the classical iterative decomposition (grow the support by
every declared curve the mobile part meets negatively, re-solve, repeat)
against the model's negative-curve list, with pseudo-effectivity decided by
an exact LP over the declared effective-cone generators.  One- and
two-parameter families are handled symbolically: on a chamber the support
is constant, so the negative-part coefficients and the positive part are
affine in the parameters and every certificate (coefficient nonnegativity,
nefness against each declared curve) is an affine function checked exactly
at chamber endpoints or cell vertices.  A failed certificate splits the
chamber at the rational root of the offending affine function; an
irrational wall raises instead of approximating.

Threefold side: there is no Zariski decomposition in general, so chamber
data (interval plus positive part, affine in the parameter) is *input*, and
this module only certifies it: the residual must be a nonnegative
combination of the declared effective classes and the positive part must
pair nonnegatively with every declared curve, all affine in the parameter,
hence endpoint checks are complete proofs.  The output volume function is
tagged as certified relative to the declared curves - never absolutely.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import (
    CertificateViolation,
    IndefiniteSupport,
    InvalidModel,
    NotPseudoEffective,
    UnboundedDirection,
    WallCrossingDegeneracy,
)
from .intersect import Chamber, SurfaceModel, ThreefoldModel, triple_product
from .lp import Infeasible, LPResult, Unbounded, in_cone, max_shift
from .poly import PiecewisePolynomial, Polynomial
from .rationals import Q, QVec, is_negative_definite, mat_inverse, solve_general, to_q

_MAX_SPLIT_DEPTH = 32


@dataclass(frozen=True)
class ZariskiResult:
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


@dataclass(frozen=True)
class VolumeChamber:
    """One chamber of a one-parameter volume function.

    positive part P(t) = p0 + t*p1; support lists the curves carrying the
    negative part on the chamber.
    """

    lo: Fraction
    hi: Fraction
    p0: QVec
    p1: QVec
    support: tuple[str, ...]


@dataclass(frozen=True)
class VolumeFunction:
    pw: PiecewisePolynomial
    chambers: tuple[VolumeChamber, ...]
    certificate: str

    @property
    def variable(self) -> str:
        return self.pw.variable

    def __call__(self, t) -> Fraction:
        return self.pw(t)


def _eff_data(surface: SurfaceModel) -> tuple[list[str], list[QVec]]:
    labels = sorted(surface.eff_generators)
    return labels, [surface.eff_generators[k] for k in labels]


def _on_generator_ray(gens: list[QVec], v: Sequence[Fraction]) -> bool:
    """Whether v is 0 or a positive multiple of one generator: in the cone, no LP needed."""
    for g in gens:
        i = next((j for j, x in enumerate(g) if x != 0), None)
        if i is not None and v[i] * g[i] > 0:
            c = v[i] / g[i]
            if all(x == c * y for x, y in zip(v, g)):
                return True
    return all(x == 0 for x in v)


def _pair_poly(surface: SurfaceModel, a: Sequence, b: Sequence):
    """Bilinear pairing where either argument may hold polynomials."""
    total = None
    r = surface.rank
    for i in range(r):
        for j in range(r):
            g = surface.gram[i][j]
            if g == 0:
                continue
            term = a[i] * b[j] * g
            total = term if total is None else total + term
    return Q(0) if total is None else total


def zariski_decompose(surface: SurfaceModel, divisor) -> ZariskiResult:
    """Zariski decomposition of a pseudo-effective class, exactly.

    Raises NotPseudoEffective when the class is outside the cone spanned by
    the declared effective generators, and IndefiniteSupport when the
    accumulated support Gram stops being negative definite (the canary for
    an incomplete negative-curve list).
    """
    d = surface.class_vector(divisor)
    _, gens = _eff_data(surface)
    if in_cone(gens, d) is None:
        raise NotPseudoEffective(f"{d} is outside the declared effective cone")
    return _decompose(surface, d)


def _decompose(surface: SurfaceModel, d: QVec) -> ZariskiResult:
    """Zariski decomposition of a class vector already known to be in the cone."""
    support: list[str] = []
    nu: dict[str, Fraction] = {}
    while True:
        current = d
        for label in support:
            current = tuple(
                x - nu[label] * y for x, y in zip(current, surface.negative_curves[label])
            )
        violators = sorted(
            label
            for label in surface.negative_curves
            if label not in support and surface.pair_curve(current, label) < 0
        )
        if not violators:
            break
        support = sorted(support + violators)
        nu = _solve_support(surface, d, support)
    positive = d
    for label in support:
        positive = tuple(x - nu[label] * y for x, y in zip(positive, surface.negative_curves[label]))
    for label, coeff in nu.items():
        if coeff < 0:
            raise InvalidModel(
                f"negative multiplicity {coeff} on {label}: the declared curve "
                "list is not a genuine configuration of irreducible negative curves"
            )
    gram = tuple(
        tuple(surface.pair(surface.negative_curves[a], surface.negative_curves[b]) for b in support)
        for a in support
    )
    return ZariskiResult(
        positive=positive,
        negative=tuple((label, nu[label]) for label in support),
        support=tuple(support),
        support_gram=gram,
    )


def _solve_support(surface: SurfaceModel, d: Sequence, support: list[str]) -> dict[str, Fraction]:
    curves = [surface.negative_curves[label] for label in support]
    gram = [[surface.pair_curve(a, label) for label in support] for a in curves]
    if not is_negative_definite(gram):
        raise IndefiniteSupport(f"support {support} has an indefinite Gram matrix")
    inv = mat_inverse(gram)
    rhs = [surface.pair_curve(d, label) for label in support]
    nu = [sum((inv[i][j] * rhs[j] for j in range(len(rhs))), Q(0)) for i in range(len(rhs))]
    return dict(zip(support, nu))


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
    _, gens = _eff_data(surface)
    try:
        res = max_shift(d, tuple(-x for x in z), gens)
    except Infeasible:
        raise NotPseudoEffective(f"{d} is outside the declared effective cone") from None
    except Unbounded:
        raise UnboundedDirection(
            f"{z} is anti-effective for the declared cone; the threshold is infinite"
        ) from None
    return res.value


# -- symbolic chamber machinery ----------------------------------------------


@dataclass(frozen=True)
class _Cert:
    """An affine certificate function with provenance."""

    kind: str  # "mult" or "nef"
    label: str
    poly: Polynomial


def _symbolic_decomposition(
    surface: SurfaceModel, d_polys: tuple[Polynomial, ...], support: Sequence[str]
) -> tuple[tuple[Polynomial, ...], list[_Cert]]:
    """Positive part and certificates for a fixed support, symbolic input."""
    support = list(support)
    curves = [surface.negative_curves[label] for label in support]
    certs: list[_Cert] = []
    if support:
        gram = [[surface.pair(a, b) for b in curves] for a in curves]
        if not is_negative_definite(gram):
            raise IndefiniteSupport(f"support {support} has an indefinite Gram matrix")
        inv = mat_inverse(gram)
        rhs = [_pair_poly(surface, d_polys, c) for c in curves]
        nus = []
        for i in range(len(support)):
            total = None
            for j in range(len(support)):
                term = rhs[j] * inv[i][j]
                total = term if total is None else total + term
            nus.append(total)
        positive = list(d_polys)
        for nu, curve in zip(nus, curves):
            positive = [p - nu * c for p, c in zip(positive, curve)]
        positive = tuple(positive)
        for label, nu in zip(support, nus):
            certs.append(_Cert("mult", label, nu))
    else:
        positive = tuple(d_polys)
    for label in sorted(surface.negative_curves):
        certs.append(
            _Cert("nef", label, _as_poly(_pair_poly(surface, positive, surface.negative_curves[label])))
        )
    return positive, certs


def _as_poly(x) -> Polynomial:
    return x if isinstance(x, Polynomial) else Polynomial.constant(x)


def _affine_root(poly: Polynomial, var: str) -> Fraction | None:
    """Root of an affine polynomial in one variable, if the slope is nonzero."""
    if poly.degree() > 1:
        raise InvalidModel("expected an affine certificate")
    i = poly.vars.index(var)
    slope = poly.coefficient(tuple(1 if j == i else 0 for j in range(len(poly.vars))))
    if slope == 0:
        return None
    const = poly.coefficient((0,) * len(poly.vars))
    return -const / slope


@dataclass(frozen=True)
class _SChamber:
    lo: Fraction
    hi: Fraction
    support: tuple[str, ...]
    upper_cert: tuple[str, str] | None  # certificate vanishing at hi (None at the threshold)


def _march_one_param(
    surface: SurfaceModel,
    family: tuple[Polynomial, ...],
    lo: Fraction,
    hi: Fraction,
    var: str,
    depth: int = 0,
) -> list[_SChamber]:
    """Chamber structure of an affine family on [lo, hi] (all within pseff)."""
    if depth > _MAX_SPLIT_DEPTH:
        raise WallCrossingDegeneracy("chamber subdivision did not terminate")
    if lo == hi:
        return []
    mid = (lo + hi) / 2
    sample = tuple(p(**{var: mid}) for p in family)
    # both ends are in the cone, which is convex, so the sample is too
    decomp = _decompose(surface, sample)
    positive, certs = _symbolic_decomposition(surface, family, decomp.support)
    roots: set[Fraction] = set()
    for cert in certs:
        if cert.poly(**{var: lo}) < 0 or cert.poly(**{var: hi}) < 0:
            root = _affine_root(cert.poly, var)
            if root is not None and lo < root < hi:
                roots.add(root)
    if not roots:
        upper = _vanishing_cert(certs, var, hi)
        return [_SChamber(lo, hi, decomp.support, upper)]
    cuts = [lo] + sorted(roots) + [hi]
    out: list[_SChamber] = []
    for a, b in zip(cuts, cuts[1:]):
        out.extend(_march_one_param(surface, family, a, b, var, depth + 1))
    # stitch identical neighbours (a split point that was not a real wall)
    stitched: list[_SChamber] = []
    for ch in out:
        if stitched and stitched[-1].support == ch.support and stitched[-1].hi == ch.lo:
            stitched[-1] = _SChamber(stitched[-1].lo, ch.hi, ch.support, ch.upper_cert)
        else:
            stitched.append(ch)
    return stitched


def _vanishing_cert(certs: list[_Cert], var: str, at: Fraction) -> tuple[str, str] | None:
    """A certificate that vanishes at the wall and decreases across it."""
    best = None
    for cert in sorted(certs, key=lambda c: (c.kind, c.label)):
        if cert.poly(**{var: at}) == 0:
            i = cert.poly.vars.index(var)
            slope = cert.poly.coefficient(tuple(1 if j == i else 0 for j in range(len(cert.poly.vars))))
            if slope < 0:
                best = (cert.kind, cert.label)
                break
    return best


def one_param_volume(
    surface: SurfaceModel,
    family: Sequence[Polynomial | Fraction | int],
    lo,
    hi,
    var: str | None = None,
) -> VolumeFunction:
    """Certified volume function of an affine one-parameter family.

    The family is a class vector whose entries are affine polynomials in a
    single parameter.  The interval is subdivided at the rational chamber
    walls; on each chamber the support is constant, the negative part is
    affine, and vol = P(t)^2 is an exact quadratic.  The assembled function
    is continuous by construction (the piecewise constructor re-checks).
    """
    lo, hi = to_q(lo), to_q(hi)
    polys, var = _family_polys(family, var)
    for p in polys:
        if p.degree() > 1:
            raise InvalidModel("family must be affine in its parameter")
    start = tuple(p(**{var: lo}) for p in polys)
    _, gens = _eff_data(surface)
    slope = tuple(p.coefficient(_unit_exp(p, var)) for p in polys)
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
    chambers = _march_one_param(surface, polys, lo, s_end, var)
    pieces = []
    vol_chambers = []
    for ch in chambers:
        positive, _ = _symbolic_decomposition(surface, polys, ch.support)
        vol = _as_poly(_pair_poly(surface, positive, positive)).in_vars((var,))
        pieces.append((ch.lo, ch.hi, vol, ",".join(ch.support) if ch.support else "nef"))
        p0 = tuple(_as_poly(p).in_vars((var,)).coefficient((0,)) for p in positive)
        p1 = tuple(_as_poly(p).in_vars((var,)).coefficient((1,)) for p in positive)
        vol_chambers.append(VolumeChamber(ch.lo, ch.hi, p0, p1, ch.support))
    if s_end < hi:
        zero = Polynomial.constant(0, (var,))
        pieces.append((s_end, hi, zero, "outside-pseff"))
        vol_chambers.append(
            VolumeChamber(s_end, hi, tuple([Q(0)] * surface.rank), tuple([Q(0)] * surface.rank), ())
        )
    pw = PiecewisePolynomial(pieces, var)
    if pw(s_end) < 0:
        raise CertificateViolation("volume is negative at the pseudo-effective threshold")
    return VolumeFunction(pw, tuple(vol_chambers), certificate="relative to declared curves")


def _family_polys(family, var: str | None) -> tuple[tuple[Polynomial, ...], str]:
    names = {v for entry in family if isinstance(entry, Polynomial) for v in entry.vars}
    if var is None:
        if len(names) > 1:
            raise InvalidModel(f"ambiguous family variable: {sorted(names)}")
        var = names.pop() if names else "t"
    polys = tuple(
        entry.in_vars((var,)) if isinstance(entry, Polynomial) else Polynomial.constant(entry, (var,))
        for entry in family
    )
    return polys, var


def _unit_exp(p: Polynomial, var: str) -> tuple[int, ...]:
    i = p.vars.index(var)
    return tuple(1 if j == i else 0 for j in range(len(p.vars)))


# -- two-parameter flag machinery --------------------------------------------


@dataclass(frozen=True)
class FlagCell:
    """One cell of a two-parameter decomposition.

    The bounds are affine polynomials in the outer parameter; the volume is
    the bivariate quadratic P(s,t)^2 with P the (affine) positive part.
    """

    s_lo: Polynomial
    s_hi: Polynomial
    volume: Polynomial
    positive: tuple[Polynomial, ...]
    support: tuple[str, ...]


@dataclass(frozen=True)
class FlagChamber:
    t_lo: Fraction
    t_hi: Fraction
    cells: tuple[FlagCell, ...]


@dataclass(frozen=True)
class FlagDecomposition:
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
    """Certified cell structure of vol(A(t) - s*Z) over a t-interval.

    On every cell the Zariski support of A(t) - s*Z is constant, the s-walls
    are affine functions of t, and the volume is a bivariate polynomial.
    Certificates (negative-part coefficients, nefness against every declared
    curve, wall ordering, and vanishing of the volume at the pseudo-effective
    threshold) are affine, so checks at cell vertices are complete; any
    failure splits the t-interval at the rational root responsible.
    """
    t_lo, t_hi = to_q(t_lo), to_q(t_hi)
    a_polys, tvar = _family_polys(a_family, tvar)
    for p in a_polys:
        if p.degree() > 1:
            raise InvalidModel("restriction family must be affine in t")
    z_vec = surface.class_vector(z)
    _, gens = _eff_data(surface)
    # max_shift only finds some s >= 0 with A(t) - s*Z in the cone; that
    # puts A(t) in the cone too when Z lies in it
    z_in_cone = _on_generator_ray(gens, z_vec) or in_cone(gens, z_vec) is not None
    chambers = _flag_chambers(surface, a_polys, t_lo, t_hi, z_vec, z_in_cone, tvar, svar, depth=0)
    return FlagDecomposition(tuple(chambers), tvar, svar)


def _flag_chambers(
    surface: SurfaceModel,
    a_polys: tuple[Polynomial, ...],
    t_lo: Fraction,
    t_hi: Fraction,
    z_vec: QVec,
    z_in_cone: bool,
    tvar: str,
    svar: str,
    depth: int,
) -> list[FlagChamber]:
    if depth > _MAX_SPLIT_DEPTH:
        raise WallCrossingDegeneracy("t-chamber subdivision did not terminate")
    if t_lo == t_hi:
        return []
    try:
        return [_certify_t_chamber(surface, a_polys, t_lo, t_hi, z_vec, z_in_cone, tvar, svar)]
    except _SplitRequest as split:
        cuts = sorted({r for r in split.points if t_lo < r < t_hi})
        if not cuts:
            raise WallCrossingDegeneracy(
                f"cannot certify [{t_lo}, {t_hi}] and no interior split point was found"
            ) from None
        out: list[FlagChamber] = []
        for a, b in zip([t_lo] + cuts, cuts + [t_hi]):
            out.extend(_flag_chambers(surface, a_polys, a, b, z_vec, z_in_cone, tvar, svar, depth + 1))
        return out


class _SplitRequest(Exception):
    def __init__(self, points: Sequence[Fraction]):
        self.points = list(points)


def _certify_t_chamber(
    surface: SurfaceModel,
    a_polys: tuple[Polynomial, ...],
    t_lo: Fraction,
    t_hi: Fraction,
    z_vec: QVec,
    z_in_cone: bool,
    tvar: str,
    svar: str,
) -> FlagChamber:
    mid = (t_lo + t_hi) / 2
    a_mid = tuple(p(**{tvar: mid}) for p in a_polys)
    _, gens = _eff_data(surface)
    if not z_in_cone and in_cone(gens, a_mid) is None:
        raise NotPseudoEffective(f"restriction family leaves the effective cone at {mid}")
    try:
        lp = max_shift(a_mid, tuple(-x for x in z_vec), gens)
    except Infeasible:
        raise NotPseudoEffective(f"restriction family leaves the effective cone at {mid}") from None
    except Unbounded:
        raise UnboundedDirection("flag class is anti-effective for the declared cone") from None
    tau_mid = lp.value
    if tau_mid == 0:
        # a concave nonnegative function that vanishes at the midpoint and
        # at both ends vanishes identically: no s-range on this chamber
        for t_end in (t_lo, t_hi):
            if _threshold_at(a_polys, z_vec, gens, tvar, t_end) != 0:
                raise _SplitRequest([mid])
        return FlagChamber(t_lo, t_hi, ())
    tau = _parametric_threshold(a_polys, z_vec, gens, tau_mid, tvar, t_lo, t_hi)
    # sampled chamber structure in s at the midpoint
    family_mid = tuple(
        Polynomial.constant(a, (svar,)) - Polynomial.var(svar) * Polynomial.constant(zc, (svar,))
        for a, zc in zip(a_mid, z_vec)
    )
    s_chambers = _march_one_param(surface, family_mid, Q(0), tau_mid, svar)
    # symbolic (s, t) reconstruction of each cell
    both = (tvar, svar)
    d_polys = tuple(
        p.in_vars(both) - Polynomial.var(svar, both) * Polynomial.constant(zc, both)
        for p, zc in zip(a_polys, z_vec)
    )
    cells: list[FlagCell] = []
    lower = Polynomial.constant(0, (tvar,))
    split_points: list[Fraction] = []
    for idx, sch in enumerate(s_chambers):
        positive, certs = _symbolic_decomposition(surface, d_polys, sch.support)
        if idx + 1 < len(s_chambers):
            upper = _wall_from_cert(certs, sch.upper_cert, tvar, svar, sch.hi, mid)
        else:
            upper = tau
        vertex_ts = (t_lo, t_hi)
        ordering_ok = all(lower(**{tvar: t}) <= upper(**{tvar: t}) for t in vertex_ts)
        if not ordering_ok:
            split_points.extend(_affine_intersection(lower, upper, tvar, t_lo, t_hi))
            raise _SplitRequest(split_points)
        for cert in certs:
            for t in vertex_ts:
                for bound in (lower, upper):
                    s_val = bound(**{tvar: t})
                    if cert.poly(**{tvar: t, svar: s_val}) < 0:
                        split_points.extend(
                            _cert_split_points(cert.poly, lower, upper, tvar, svar, t_lo, t_hi)
                        )
        if split_points:
            raise _SplitRequest(split_points)
        vol = _as_poly(_pair_poly(surface, positive, positive)).in_vars(both)
        cells.append(
            FlagCell(
                s_lo=lower,
                s_hi=upper,
                volume=vol,
                positive=tuple(_as_poly(p).in_vars(both) for p in positive),
                support=sch.support,
            )
        )
        lower = upper
    if cells:
        last = cells[-1]
        residual = last.volume.subs(svar, tau.in_vars((tvar,)))
        if not residual.is_zero():
            # the volume must vanish at the pseudo-effective threshold
            raise _SplitRequest([(t_lo + t_hi) / 2])
    return FlagChamber(t_lo, t_hi, tuple(cells))


def _wall_from_cert(
    certs: list[_Cert],
    tag: tuple[str, str] | None,
    tvar: str,
    svar: str,
    s_at_mid: Fraction,
    t_mid: Fraction,
) -> Polynomial:
    """Wall s = w(t) from the certificate that vanishes on it."""
    chosen = None
    if tag is not None:
        for cert in certs:
            if (cert.kind, cert.label) == tag:
                chosen = cert
                break
    if chosen is None:
        for cert in sorted(certs, key=lambda c: (c.kind, c.label)):
            if cert.poly(**{tvar: t_mid, svar: s_at_mid}) == 0:
                chosen = cert
                break
    if chosen is None:
        raise WallCrossingDegeneracy("no certificate vanishes on the sampled wall")
    poly = chosen.poly.in_vars((tvar, svar))
    s_slope = poly.coefficient((0, 1))
    if s_slope == 0:
        raise WallCrossingDegeneracy("wall certificate does not depend on the inner parameter")
    t_slope = poly.coefficient((1, 0))
    const = poly.coefficient((0, 0))
    if poly.degree() > 1:
        raise InvalidModel("wall certificate is not affine")
    return Polynomial((tvar,), {(0,): -const / s_slope, (1,): -t_slope / s_slope})


def _affine_intersection(a: Polynomial, b: Polynomial, tvar: str, lo: Fraction, hi: Fraction) -> list[Fraction]:
    diff = a.in_vars((tvar,)) - b.in_vars((tvar,))
    if diff.is_zero():
        return []
    root = _affine_root(diff, tvar)
    return [root] if root is not None and lo < root < hi else []


def _cert_split_points(
    cert: Polynomial,
    lower: Polynomial,
    upper: Polynomial,
    tvar: str,
    svar: str,
    t_lo: Fraction,
    t_hi: Fraction,
) -> list[Fraction]:
    """Interior t-values where an affine certificate changes sign on a wall."""
    points = []
    for bound in (lower, upper):
        restricted = cert.in_vars((tvar, svar)).subs(svar, bound.in_vars((tvar,)))
        if restricted.degree() > 1:
            continue
        root = _affine_root(restricted, tvar) if not restricted.is_zero() else None
        if root is not None and t_lo < root < t_hi:
            points.append(root)
    return points


def _threshold_at(a_polys: tuple[Polynomial, ...], z_vec: QVec, gens: list[QVec], tvar: str, t: Fraction) -> Fraction:
    a_t = tuple(p(**{tvar: t}) for p in a_polys)
    try:
        return max_shift(a_t, tuple(-x for x in z_vec), gens).value
    except Infeasible:
        raise NotPseudoEffective(f"family leaves the effective cone at {t}") from None


def _parametric_threshold(
    a_polys: tuple[Polynomial, ...],
    z_vec: QVec,
    gens: list[QVec],
    tau_mid: Fraction,
    tvar: str,
    t_lo: Fraction,
    t_hi: Fraction,
) -> Polynomial:
    """tau(t) as an affine polynomial, by a three-point concavity argument.

    The feasible region {(t, s) : A(t) - sZ effective} is convex because A
    is affine, so tau is concave on the chamber.  A concave function that
    meets the endpoint chord at the midpoint as well equals the chord on
    the whole interval (the difference is concave, >= 0 by the chord bound
    and <= 0 by the three-point bound).  When the midpoint value leaves the
    chord, tau has a kink; the two half-chords locate it exactly and the
    chamber is split there.
    """
    mid = (t_lo + t_hi) / 2
    tau_lo = _threshold_at(a_polys, z_vec, gens, tvar, t_lo)
    tau_hi = _threshold_at(a_polys, z_vec, gens, tvar, t_hi)
    slope = (tau_hi - tau_lo) / (t_hi - t_lo)
    if tau_lo + slope * (mid - t_lo) == tau_mid:
        return Polynomial((tvar,), {(0,): tau_lo - slope * t_lo, (1,): slope})
    # kink: intersect the chords through (lo, mid) and (mid, hi)
    left_slope = (tau_mid - tau_lo) / (mid - t_lo)
    right_slope = (tau_hi - tau_mid) / (t_hi - mid)
    if left_slope == right_slope:
        raise _SplitRequest([mid])
    kink = (
        (tau_mid - right_slope * mid) - (tau_lo - left_slope * t_lo)
    ) / (left_slope - right_slope)
    if t_lo < kink < t_hi:
        raise _SplitRequest([kink])
    raise _SplitRequest([mid])


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
        t = Polynomial.var(var)
        p_t = tuple(
            Polynomial.constant(c0, (var,)) + t * Polynomial.constant(c1, (var,))
            for c0, c1 in zip(chamber.p0, chamber.p1)
        )
        fam_t = tuple(
            Polynomial.constant(kv, (var,)) - t * Polynomial.constant(bv, (var,))
            for kv, bv in zip(k, b_vec)
        )
        residual = tuple(f - p for f, p in zip(fam_t, p_t))
        mu = _affine_combination(residual, eff_vecs, var, lo, hi)
        if mu is None:
            raise CertificateViolation(
                f"residual on [{lo}, {hi}] is not a combination of the declared effective classes"
            )
        for label, coeff in zip(eff_labels, mu):
            for t_end in (lo, hi):
                if coeff(**{var: t_end}) < 0:
                    raise CertificateViolation(
                        f"negative coefficient of {label} at {var} = {t_end} on [{lo}, {hi}]"
                    )
        for curve_label, curve in sorted(model.curves.items()):
            pairing = _as_poly(sum((p * c for p, c in zip(p_t, curve)), Polynomial.constant(0, (var,))))
            for t_end in (lo, hi):
                if pairing(**{var: t_end}) < 0:
                    raise CertificateViolation(
                        f"positive part pairs negatively with curve {curve_label!r} at {var} = {t_end}"
                    )
        vol = _as_poly(triple_product(model, p_t, p_t, p_t)).in_vars((var,))
        pieces.append((lo, hi, vol))
        vol_chambers.append(VolumeChamber(lo, hi, chamber.p0, chamber.p1, ()))
    pw = PiecewisePolynomial(pieces, var)
    return VolumeFunction(pw, tuple(vol_chambers), certificate="relative to declared curves")


def _affine_combination(
    residual: tuple[Polynomial, ...],
    eff_vecs: list[QVec],
    var: str,
    lo: Fraction,
    hi: Fraction,
) -> list[Polynomial] | None:
    """Write an affine class family as an affine combination of fixed classes."""
    if not eff_vecs:
        return [] if all(p.is_zero() for p in residual) else None
    mat = [[eff_vecs[j][i] for j in range(len(eff_vecs))] for i in range(len(residual))]
    r0 = [p.in_vars((var,)).coefficient((0,)) for p in residual]
    r1 = [p.in_vars((var,)).coefficient((1,)) for p in residual]
    x0 = solve_general(mat, r0)
    x1 = solve_general(mat, r1)
    if x0 is None or x1 is None:
        return None
    return [Polynomial((var,), {(0,): c0, (1,): c1}) for c0, c1 in zip(x0, x1)]
