"""Stability invariants assembled from exact volume functions.

The expected-vanishing integral S = (1/V) * int_0^tau vol(-K - tE) dt and
the difference beta = A - S, with the log discrepancy A always a supplied
input: the engine never derives discrepancies from geometry, it only turns
declared chamber data into exact rational values.

The flag refinement S(W; Z) is the double integral of the volumes of
A(t) - s*Z over the certified two-parameter cell structure, scaled by 3/V.
A correction term (the Z-multiplicity of the negative parts, weighted by
the squared restricted class) is exposed but defaults to zero, which is the
correct convention whenever the flag curve avoids every negative part; the
report records the convention used.

Verdicts aggregate to "divisorially semistable relative to the tested
divisors" - completeness over all divisors is never a computation.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvalidModel, NonpositiveVolume
from .intersect import SurfaceModel
from .poly import PiecewisePolynomial, integrate_piecewise
from .rationals import Q, to_q
from .records import Record
from .zariski import (
    FlagDecomposition,
    VolumeFunction,
    _affine_square,
    _affine_vectors,
    _integer_family,
    two_param_flag_volume,
)


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
    correction_used: bool


def s_invariant(vol: VolumeFunction | PiecewisePolynomial, volume_at_zero) -> Fraction:
    """(1/V) * integral of the volume function over its whole domain.

    The function is zero beyond its right endpoint (the pseudo-effective
    threshold), so integrating the stored domain is the full integral.
    """
    v = to_q(volume_at_zero)
    if v <= 0:
        raise NonpositiveVolume(f"normalizing volume {v} must be positive")
    pw = vol.pw if isinstance(vol, VolumeFunction) else vol
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
        raise ValueError("genus must be at least 3")
    if k < 0:
        raise ValueError("pinch-point count must be nonnegative")
    return 1 + Q(g - 12 + k, 4 * (g - 1))


def refined_s_flag(
    surface: SurfaceModel,
    restriction_family: list[tuple[Fraction, Fraction, tuple]],
    flag_class,
    total_volume,
    correction: PiecewisePolynomial | None = None,
    surface_label: str | None = None,
    curve_label: str = "Z",
) -> FlagReport:
    """Refined flag invariant (3/V) * (double integral + correction term).

    ``restriction_family`` lists (t_lo, t_hi, class polynomials) chambers of
    the restricted positive part A(t); each chamber is decomposed into
    certified two-parameter cells automatically.  The correction term
    integrates correction(t) * A(t)^2 and defaults to zero, the right value
    whenever the flag curve is not a component of any negative part.
    """
    v = to_q(total_volume)
    if v <= 0:
        raise NonpositiveVolume(f"normalizing volume {v} must be positive")
    total = Q(0)
    cell_rows: list[tuple[str, str, str]] = []
    decompositions: list[FlagDecomposition] = []
    for t_lo, t_hi, family in restriction_family:
        flag = two_param_flag_volume(surface, family, t_lo, t_hi, flag_class)
        decompositions.append(flag)
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
    correction_used = correction is not None
    if correction is not None:
        total += _correction_integral(surface, restriction_family, correction)
    value = 3 * total / v
    if value < 0:
        raise InvalidModel("flag invariant came out negative; inputs are inconsistent")
    return FlagReport(
        surface=surface_label or surface.name,
        curve=str(curve_label),
        value=value,
        cells=tuple(cell_rows),
        prefactor=f"3/{v}",
        correction_used=correction_used,
    )


def _correction_integral(
    surface: SurfaceModel,
    restriction_family: list[tuple[Fraction, Fraction, tuple]],
    correction: PiecewisePolynomial,
) -> Fraction:
    """integral of correction(t) * A(t)^2 over the family's t-domain."""
    total = Q(0)
    var = correction.variable
    for t_lo, t_hi, family in restriction_family:
        vecs = _affine_vectors(family, (var,), "restriction family must be affine in t")
        square = _affine_square(surface, _integer_family(vecs), (var,))
        for piece in correction.pieces:
            lo, hi = max(piece.lo, to_q(t_lo)), min(piece.hi, to_q(t_hi))
            if lo >= hi:
                continue
            product = piece.poly * square
            total += to_q(product.integrate(var, lo, hi))
    return total
