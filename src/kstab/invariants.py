"""Stability invariants assembled from exact volume functions.

The expected-vanishing integral S = (1/V) * int_0^tau vol(-K - tE) dt and
the difference beta = A - S, with the log discrepancy A always a supplied
input: the engine never derives discrepancies from geometry, it only turns
declared chamber data into exact rational values.

The flag refinement S(W; Z) is the double integral of the volumes of
A(t) - s*Z over the certified two-parameter cell structure, scaled by 3/V.
The family A(t) is never typed in: ``restricted_family`` sends a
threefold's certified chamber table of -K - tS through a restriction map to
the surface S, checked against the trilinear form.  No correction term is
added; that is the right value when the flag curve is no component of any
negative part, which the flag setups declare.

Verdicts aggregate to "divisorially semistable relative to the tested
divisors" - completeness over all divisors is never a computation.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvalidModel, NonpositiveVolume
from .intersect import SurfaceModel, ThreefoldModel, restrict_to_surface
from .poly import Polynomial, integrate_piecewise
from .rationals import Q, to_q
from .records import Record
from .zariski import VolumeFunction, threefold_volume_certified, two_param_flag_volume


class DivisorialVerdict(Record):
    divisor: str
    log_discrepancy: Fraction
    expected_vanishing: Fraction

    @property
    def beta(self) -> Fraction:
        return self.log_discrepancy - self.expected_vanishing

    @property
    def classification(self) -> str:
        if self.beta < 0:
            return "unstable-witness"
        if self.beta == 0:
            return "semistable-boundary"
        return "positive"


class FlagReport(Record):
    surface: str
    curve: str
    value: Fraction
    cells: tuple[tuple[str, str, str], ...]  # (t-range, s-range, volume) strings
    prefactor: str


def s_invariant(vol: VolumeFunction, volume_at_zero) -> Fraction:
    """(1/V) * integral of the volume function over its whole domain.

    The function is zero beyond its right endpoint (the pseudo-effective
    threshold), so integrating the stored domain is the full integral.
    """
    v = to_q(volume_at_zero)
    if v <= 0:
        raise NonpositiveVolume(f"normalizing volume {v} must be positive")
    pw = vol.pw
    if pw(pw.lo) != v:
        raise InvalidModel(
            f"volume function starts at {pw(pw.lo)}, not at the declared volume {v}"
        )
    if pw(pw.hi) < 0:
        raise InvalidModel("volume function is negative at the threshold")
    return integrate_piecewise(pw, pw.lo, pw.hi) / v


def beta(divisor: str, log_discrepancy, expected_vanishing) -> DivisorialVerdict:
    """Verdict record for one divisor: beta = A - S with its classification."""
    return DivisorialVerdict(divisor, to_q(log_discrepancy), to_q(expected_vanishing))


def sing_line_bound(g: int, k: int) -> Fraction:
    """Closed-form lower bound 1 + (g - 12 + k) / (4(g - 1)).

    This is the expected-vanishing bound for the exceptional divisor over a
    line of singularities on a genus-g model with k pinch points; the
    assembled-integral route through the chamber table must agree exactly
    (tested), which is what makes the g = 12, k = 0 equality case rigid.
    """
    if g < 3:
        raise InvalidModel("genus must be at least 3")
    if k < 0:
        raise InvalidModel("pinch-point count must be nonnegative")
    return 1 + Q(g - 12 + k, 4 * (g - 1))


def restricted_family(
    model: ThreefoldModel, divisor: str, surface: SurfaceModel, images, certify=threefold_volume_certified
) -> list[tuple[Fraction, Fraction, tuple[Polynomial, ...]]]:
    """The certified positive parts of -K - t*S on a threefold, restricted to the surface S.

    ``images[i]`` is the surface class of threefold basis class i.  The map
    r is checked against the trilinear form first: r(a).r(b) on the surface
    must equal a.b.S for every pair of basis classes, or InvalidModel is
    raised.  Each chamber p0 + t*p1 of ``certify(model, divisor)`` then
    becomes the chamber r(p0) + t*r(p1) that refined_s_flag integrates; a
    caller that certifies the same table elsewhere passes a cached certify.
    """
    images = [surface.class_vector(v) for v in images]
    basis = [model.class_vector(b) for b in model.basis]
    gram = restrict_to_surface(model, model.class_vector(divisor), basis).gram
    if len(images) != model.rank or gram != tuple(tuple(surface.pair(x, y) for y in images) for x in images):
        raise InvalidModel(
            f"the restriction to {surface.name} does not match the intersection form of {model.name} on {divisor}"
        )

    def image(p):
        return [sum((c * v[j] for c, v in zip(p, images)), Q(0)) for j in range(surface.rank)]

    return [
        (ch.lo, ch.hi, tuple(Polynomial(("t",), {(0,): a, (1,): b}) for a, b in zip(image(ch.p0), image(ch.p1))))
        for ch in certify(model, divisor).chambers
    ]


def refined_s_flag(
    surface: SurfaceModel,
    restriction_family: list[tuple[Fraction, Fraction, tuple]],
    flag_class,
    total_volume,
    surface_label: str | None = None,
    curve_label: str = "Z",
) -> FlagReport:
    """Refined flag invariant (3/V) * double integral.

    ``restriction_family`` lists (t_lo, t_hi, class polynomials) chambers of
    the restricted positive part A(t); each chamber is decomposed into
    certified two-parameter cells automatically.
    """
    v = to_q(total_volume)
    if v <= 0:
        raise NonpositiveVolume(f"normalizing volume {v} must be positive")
    total = Q(0)
    cell_rows: list[tuple[str, str, str]] = []
    for t_lo, t_hi, family in restriction_family:
        flag = two_param_flag_volume(surface, family, t_lo, t_hi, flag_class)
        total += flag.integral()
        for chamber in flag.chambers:
            for cell in chamber.cells:
                cell_rows.append(
                    (
                        f"[{chamber.t_lo}, {chamber.t_hi}]",
                        f"{cell.s_lo} <= s <= {cell.s_hi}",
                        str(cell.volume),
                    )
                )
    value = 3 * total / v
    if value < 0:
        raise InvalidModel("flag invariant came out negative; inputs are inconsistent")
    return FlagReport(
        surface=surface_label or surface.name,
        curve=str(curve_label),
        value=value,
        cells=tuple(cell_rows),
        prefactor=f"3/{v}",
    )

