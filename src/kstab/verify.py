"""Golden verification suite: replay every reference computation.

Each row recomputes one frozen value through the public engine and compares
exactly.  Rows carry machine-readable claim identifiers instead of source
citations; a row with a ``note`` records a finding worth reading.  The
dp4-line flag row is a *known discrepancy*: the engine's certified chamber
computation (independently confirmed by an exhaustive-subset oracle and by
numeric quadrature) yields 73/88 where the reference tables print 29/44,
whose printed chamber data is internally inconsistent (the pieces do not
even glue continuously).  The row is reported as FAIL against the printed
value, on purpose: an honest mismatch beats a doctored pass.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import Callable

from .intersect import anticanonical_volume, restrict_to_surface, triple_product
from .invariants import refined_s_flag, restricted_family, s_invariant, sing_line_bound
from .k3cat import (
    BN_EXCLUDING_PAIRS,
    TYPE_PAIRS,
    cyclic_cover_volume,
    genus_volume,
    k3_section_count,
    nl_gram,
)
from .lattice import (
    GramLattice,
    determinant,
    discriminant_group,
    discriminant_quadratic,
    even_overlattices,
    integer_search_quadratic,
    is_primitivity_forced,
    is_saturated,
    isotropic_elements,
    signature,
)
from .models import FLAG_SETUPS, log_discrepancy_default, preset
from .poly import check_c1, parse_polynomial
from .rationals import Q, format_rational
from .records import Record
from .toric import (
    anticanonical_degree,
    barycenter,
    is_reflexive,
    octahedron,
    polar_dual,
    prism,
    simplex_p3,
    toric_kps_check,
    volume as polytope_volume,
)
from .zariski import threefold_volume_certified


class Row(Record):
    claim: str
    expected: str
    computed: str
    ok: bool
    note: str = ""


def _row(claim: str, expected, computed, note: str = "") -> Row:
    exp_s = expected if isinstance(expected, str) else _fmt(expected)
    got_s = computed if isinstance(computed, str) else _fmt(computed)
    return Row(claim, exp_s, got_s, exp_s == got_s, note)


def _try_row(claim: str, expected, thunk, note: str = "") -> Row:
    """Build a row, degrading computation errors to a FAIL with the message."""
    try:
        value = thunk()
    except Exception as exc:
        return _row(claim, expected, f"error: {type(exc).__name__}: {exc}", note)
    return _row(claim, expected, value, note)


def _fmt(value) -> str:
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, tuple):
        return "(" + ", ".join(_fmt(v) for v in value) + ")"
    return str(value)


def _models(overrides: dict | None) -> Callable[[str], object]:
    overrides = overrides or {}

    def get(name: str):
        return overrides.get(name, preset(name))

    return get


def verify_paper(overrides: dict | None = None) -> list[Row]:
    """Run the whole golden suite and return its rows."""
    get = _models(overrides)
    rows: list[Row] = []
    t = ("t",)
    pp = lambda s: parse_polynomial(s, t)

    # divisorial stability and flag refinements on the quintic blowup; each
    # chamber table is certified once, and the flag families are its
    # restricted positive parts
    quintic = get("bl_p3_quintic")
    certified = cache(threefold_volume_certified)

    def flag(label: str, curve) -> Fraction:
        setup = FLAG_SETUPS[("bl_p3_quintic", label)]
        surface = get(setup.surface)
        family = restricted_family(quintic, setup.divisor, surface, setup.images, certified)
        return refined_s_flag(surface, family, curve, anticanonical_volume(quintic)).value

    line_note = (
        "printed value 29/44 is arithmetically inconsistent (its chamber "
        "data is discontinuous at the first wall); the certified three-cell "
        "decomposition gives 73/88, confirmed by an exhaustive-subset oracle "
        "and by numeric quadrature. Expected mismatch."
    )
    rows.extend(_try_row(*spec) for spec in (
        ("divisorial:vol(-K-uQtilde)|[0,1]", str(pp("(4 - 2*t)^3 - 15*(4 - 2*t)*(1 - t)^2 + 18*(1 - t)^3")),
         lambda: str(certified(quintic, "Qtilde").pw.pieces[0].poly)),
        ("divisorial:vol(-K-uQtilde)|[1,2]", str(pp("(4 - 2*t)^3")),
         lambda: str(certified(quintic, "Qtilde").pw.pieces[1].poly)),
        ("divisorial:S(Qtilde)", Q(19, 22), lambda: s_invariant(certified(quintic, "Qtilde"), 22)),
        ("divisorial:S(E)", Q(1, 4), lambda: s_invariant(certified(quintic, "E"), 22)),
        ("flag:dp4-ruling", Q(53, 88), lambda: flag("S", (1, 0, 0, 0, 0, 0))),
        ("flag:dp4-line", Q(29, 44), lambda: flag("S", (1, -1, -1, 0, 0, 0)), line_note),
        ("flag:quadric-diagonal", Q(1, 2), lambda: flag("Qtilde", (1, 1))),
    ))

    # singular-line mechanics
    sing = get("sing_line(12,0)")
    vf_s = threefold_volume_certified(sing, "E")
    rows.append(_row("sing-line:vol|[0,1]", str(pp("22 - 6*t^2 - 4*t^3")), str(vf_s.pw.pieces[0].poly)))
    rows.append(_row("sing-line:vol|[1,2]", str(pp("12*(2 - t)^3")), str(vf_s.pw.pieces[1].poly)))
    kink = check_c1(vf_s.pw)
    rows.append(_row("sing-line:kink", "(1, -24, -36, False)", _fmt(tuple(kink[0]))))
    rows.append(_row("sing-line:bound(12,0)", Q(1), sing_line_bound(12, 0)))
    route_ok = all(
        s_invariant(threefold_volume_certified(preset(f"sing_line({g},{k})"), "E"), 2 * g - 2)
        == sing_line_bound(g, k)
        for g in range(12, 21)
        for k in range(0, 5)
    )
    rows.append(_row("sing-line:route-equality[g 12..20, k 0..4]", "True", str(route_ok)))

    # nodal lattice arithmetic
    nodal = GramLattice([[22, 0], [0, -2]])
    group = discriminant_group(nodal)
    rows.append(_row("lattice:nodal-disc-group", "(2, 22)", _fmt(group.factors)))
    qform_ok = all(
        discriminant_quadratic(nodal, group.element((b, a))) == (Q(a * a, 22) - Q(b * b, 2)) % 2
        for a in range(22)
        for b in range(2)
    )
    rows.append(_row("lattice:nodal-q-form[a^2/22-b^2/2 on all 44]", "True", str(qform_ok)))
    iso = "[" + ", ".join(_fmt(x) for x in isotropic_elements(nodal)) + "]"
    rows.append(_row("lattice:nodal-isotropic", "[(0, 0)]", iso))
    rows.append(_row("lattice:nodal-primitivity-forced", "True", str(is_primitivity_forced(nodal))))
    rows.append(_row("lattice:nodal-overlattices", "1", str(len(even_overlattices(nodal)))))
    control = GramLattice([[2, 0], [0, -2]])
    control_iso = (Q(1, 2), Q(1, 2)) in isotropic_elements(control)
    control_dets = sorted(determinant(o.gram) for o in even_overlattices(control))
    rows.append(_row("lattice:control-isotropic(1,1)", "True", str(control_iso)))
    rows.append(_row("lattice:control-overlattice-dets", "[-4, -1]", str(control_dets)))

    # catalog
    type_dets = tuple(determinant(nl_gram(22, *TYPE_PAIRS[k])) for k in ("I", "II", "III", "IV"))
    rows.append(_row("catalog:type-determinants", "(-33, -37, -36, -25)", _fmt(type_dets)))
    type_sigs_ok = all(
        signature(nl_gram(22, *TYPE_PAIRS[k])) == (1, 1, 0) for k in ("I", "II", "III", "IV")
    )
    rows.append(_row("catalog:type-signatures(1,1)", "True", str(type_sigs_ok)))
    # the pairs the Brill-Noether rule excludes in degree 22, in increasing h, are the frozen table:
    # 1 <= h <= 11, even m >= 0, h^2 > 22m and (m/2 + 2)(13 - h + m/2) >= 13
    bn_rule = tuple(
        (h, m) for h in range(1, 12) for m in range(0, h * h, 2)
        if h * h > 22 * m and (m // 2 + 2) * (13 - h + m // 2) >= 13
    )
    rows.append(_row("catalog:eleven-BN-pairs", "True", str(bn_rule == BN_EXCLUDING_PAIRS)))
    rank3 = GramLattice([[22, 11, 6], [11, 4, 1], [6, 1, -2]])
    rows.append(
        _row("catalog:type-I-saturated-in-rank3", "True", str(is_saturated(rank3, [(1, 0, 0), (0, 1, 0)])))
    )

    # quasi-polarized limit arithmetic
    v4 = get("bl_v4_conic")
    rows.append(_row("limit:vol(2L-E)^3", Q(22), triple_product(v4, *(v4.anticanonical,) * 3)))
    surf = restrict_to_surface(v4, v4.anticanonical, [(2, -1), (1, 0)])
    rows.append(_row("limit:restriction-gram", "((22, 14), (14, 8))", _fmt(surf.gram)))
    nef_search = integer_search_quadratic(
        parse_polynomial("-8*a^2 + 28*a*b - 22*b^2 + 40", ("a", "b")),
        ">",
        {"a": (1, 100), "b": (-100, -1)},
    )
    rows.append(_row("limit:nef-obstruction-search[box]", "[]", str(nef_search)))
    unigonal_search = integer_search_quadratic(
        parse_polynomial("-22 + 28*c - 8*c^2", ("c",)), ">", {"c": (-100, 100)}
    )
    rows.append(_row("limit:unigonal-search[c]", "[(2,)]", str(unigonal_search)))
    rows.append(_row("limit:h0(degree 8)", "6", str(k3_section_count(8))))

    # nodal blowup arithmetic
    node = get("bl_node_22")
    rows.append(_row("nodal:vol(A-E)^3", Q(20), triple_product(node, *(node.anticanonical,) * 3)))
    nsurf = restrict_to_surface(node, node.anticanonical, [(1, 0), (0, 1)])
    rows.append(_row("nodal:restriction-gram", "((22, 0), (0, -2))", _fmt(nsurf.gram)))
    rows.append(_row("nodal:log-discrepancy-input", "2", log_discrepancy_default("bl_node_22", "E")))

    # elliptic / special-divisor identities on the seven degree-22 lattices
    recon = [
        ("unigonal:(L-12F)^2", GramLattice([[22, 1], [1, 0]]).evaluate((1, -12)), -2),
        ("hyperelliptic:(L-6F)^2", GramLattice([[22, 2], [2, 0]]).evaluate((1, -6)), -2),
        ("trigonal:(L-4F)^2", GramLattice([[22, 3], [3, 0]]).evaluate((1, -4)), -2),
        ("tetragonal:(L-3F)^2", GramLattice([[22, 4], [4, 0]]).evaluate((1, -3)), -2),
        ("tritangent:(L-3D)^2", GramLattice([[22, 7], [7, 2]]).evaluate((1, -3)), -2),
        ("tritangent:(4D-L)^2", GramLattice([[22, 7], [7, 2]]).evaluate((-1, 4)), -2),
        ("tritangent:(B.B')", GramLattice([[22, 7], [7, 2]]).pair((1, -3), (-1, 4)), 3),
        ("conic:(L-D)^2", GramLattice([[22, 8], [8, 2]]).evaluate((1, -1)), 8),
        ("conic:(L-2D)^2", GramLattice([[22, 8], [8, 2]]).evaluate((1, -2)), -2),
        ("nodal-quadric:(L-D)^2", GramLattice([[22, 10], [10, 4]]).evaluate((1, -1)), 6),
        ("nodal-quadric:(L-2D)^2", GramLattice([[22, 10], [10, 4]]).evaluate((1, -2)), -2),
        ("nodal-quadric:(L-D.L-2D)", GramLattice([[22, 10], [10, 4]]).pair((1, -1), (1, -2)), 0),
    ]
    recon_ok = all(got == want for _, got, want in recon)
    rows.append(_row("reconstruction:twelve-lattice-identities", "True", str(recon_ok)))

    # toric example
    rows.append(_row("toric:prism-reflexive", "True", str(is_reflexive(prism()))))
    rows.append(_row("toric:prism-degree", "18", str(anticanonical_degree(prism()))))
    rows.append(_row("toric:prism-dual-barycenter", "(0, 0, 0)", _fmt(barycenter(polar_dual(prism())))))
    rows.append(_row("toric:prism-kps", "True", str(toric_kps_check(prism())[0])))
    rows.append(_row("toric:simplex-degree", "64", str(anticanonical_degree(simplex_p3()))))
    rows.append(_row("toric:octahedron-degree", "48", str(anticanonical_degree(octahedron()))))
    rows.append(_row("toric:prism-volume", Q(3), polytope_volume(prism())))

    # numerics
    rows.append(_row("genus:volume-22-is-genus-12", "12", str(genus_volume(22, "volume->genus"))))
    rows.append(_row("genus:volume-18-is-genus-10", "10", str(genus_volume(18, "volume->genus"))))
    rows.append(_row("cover:volume(m=2)", "88", str(cyclic_cover_volume(2))))
    return rows


def rows_as_dicts(rows: list[Row]) -> list[dict]:
    return [
        {
            "claim": r.claim,
            "expected": r.expected,
            "computed": r.computed,
            "status": "PASS" if r.ok else "FAIL",
            **({"note": r.note} if r.note else {}),
        }
        for r in rows
    ]
