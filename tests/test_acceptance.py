"""Acceptance gate: one test per criterion, exact equalities unless a
floating oracle is named.

Every expected value is frozen from the reference data or from an
independent oracle computed before wiring the assertion.  The one
exception to the reference data is criterion 2's line flag: the reference
tables print 29/44 for it, but that value is an arithmetic slip (its own
chamber pieces do not glue continuously, and its first-chamber formula
contradicts a direct bilinear square at interior points).  The automatic
Zariski chamber computation gives 73/88, and so does a route that shares
no chamber code: the exhaustive-subset oracle integrated by exact Simpson.
test_criterion_2_line_flag_printed_value_EXPECTED_RED checks the clause
against that oracle-proved 73/88 and keeps the 29/44 slip visible as an
explicit inequality; its name is kept only so the node id stays stable.
"""

import random
from fractions import Fraction as Q

from oracles import ZariskiOracle, exact_simpson, random_pseff_class

from kstab.intersect import bl_p3_quintic, dp4_surface, quadric_surface, sing_line_model
from kstab.invariants import refined_s_flag, s_invariant, sing_line_bound
from kstab.k3cat import BN_EXCLUDING_PAIRS, TYPE_PAIRS, is_bn_excluding, k3_section_count, nl_gram
from kstab.lattice import (
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
from kstab.intersect import restrict_to_surface
from kstab.poly import PiecewisePolynomial, Polynomial, check_c1, integrate_piecewise, parse_polynomial
from kstab.toric import (
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
from kstab.zariski import threefold_volume_certified, zariski_decompose

DP4 = dp4_surface()
QUADRIC = quadric_surface()


def announce(number: int, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE CRITERION {number}: {status}" + (f"  ({detail})" if detail else ""))
    assert ok, f"criterion {number} failed: {detail}"


def p(text, variables=("t",)):
    return parse_polynomial(text, variables)


def dp4_restriction():
    c = ("t",)
    return [
        (Q(0), Q(2), (p("4 - 2*t", c), p("-1 + 1/2*t", c), p("-1 + 1/2*t", c),
                      p("-1 + 1/2*t", c), p("-1 + 1/2*t", c), p("-1 + 1/2*t", c)))
    ]


def quadric_restriction():
    c = ("t",)
    return [
        (Q(0), Q(1), (p("3 - t", c), p("2*t", c))),
        (Q(1), Q(2), (p("4 - 2*t", c), p("4 - 2*t", c))),
    ]


def test_the_derived_flag_families_are_the_typed_ones():
    """The flag setups' families, derived from the certified threefold tables, equal the copies typed above."""
    from kstab.invariants import restricted_family
    from kstab.models import FLAG_SETUPS

    model = bl_p3_quintic()
    for label, surface, typed in (("S", DP4, dp4_restriction()), ("Qtilde", QUADRIC, quadric_restriction())):
        setup = FLAG_SETUPS[("bl_p3_quintic", label)]
        assert restricted_family(model, setup.divisor, surface, setup.images) == typed, label


def test_criterion_1_divisorial_s_invariants():
    """S(E) = 1/4 and S(Qtilde) = 19/22 from certified two-chamber volumes."""
    model = bl_p3_quintic()
    vf_q = threefold_volume_certified(model, "Qtilde")
    piece1_ok = vf_q.pw.pieces[0].poly == p("(4 - 2*t)^3 - 15*(4 - 2*t)*(1 - t)^2 + 18*(1 - t)^3")
    piece2_ok = vf_q.pw.pieces[1].poly == p("(4 - 2*t)^3")
    s_q = s_invariant(vf_q, 22)
    vf_e = threefold_volume_certified(model, "E")
    s_e = s_invariant(vf_e, 22)
    announce(
        1,
        piece1_ok and piece2_ok and s_q == Q(19, 22) and s_e == Q(1, 4),
        f"S(Qtilde)={s_q}, S(E)={s_e}",
    )


def test_criterion_2_flag_invariants_passing_clauses():
    """53/88 and 1/2 via automatic two-parameter chambers, positive parts verbatim."""
    ruling = refined_s_flag(DP4, dp4_restriction(), (1, 0, 0, 0, 0, 0), 22, curve_label="l2")
    diag = refined_s_flag(QUADRIC, quadric_restriction(), (1, 1), 22, curve_label="diagonal")
    # the ruling flag's printed positive parts, recomputed automatically
    from kstab.zariski import two_param_flag_volume

    flag = two_param_flag_volume(DP4, dp4_restriction()[0][2], 0, 2, (1, 0, 0, 0, 0, 0))
    cells = flag.chambers[0].cells
    both = ("t", "s")
    w = parse_polynomial("2 - t - s", both)
    printed_ok = (
        cells[0].s_hi == parse_polynomial("3/2 - 3/4*t", ("t",))
        and cells[1].positive == (5 * w, -2 * w, -2 * w, -2 * w, -2 * w, -2 * w)
        and cells[0].volume == parse_polynomial("(4 - 2*t - s)^2 - 5/4*(2 - t)^2", both)
        and cells[1].volume == parse_polynomial("5*(2 - t - s)^2", both)
    )
    announce(
        2,
        ruling.value == Q(53, 88) and diag.value == Q(1, 2) and printed_ok,
        f"ruling={ruling.value}, diagonal={diag.value}, printed positive parts match",
    )


def test_criterion_2_line_flag_printed_value_EXPECTED_RED():
    """The criterion's line-flag clause, checked against the oracle-proved 73/88.

    The engine computes the flag of the line Z = L - e1 - e2 by automatic
    Zariski chambers.  The independent route uses no chamber code:
    A(t) = (2 - t)*A0 with A0 = 2L - 1/2*(e1 + ... + e5), and volume is
    homogeneous of degree 2, so substituting s = (2 - t)*u gives

        S = 3/22 * int_0^2 (2 - t)^3 dt * int_0^{5/4} vol(A0 - u*Z) du,

    with vol from the exhaustive-subset oracle and the inner integral by
    exact Simpson.  Both routes must agree on 73/88, and both must differ
    from the 29/44 printed in the reference tables.  The name
    ``..._printed_value_EXPECTED_RED`` is kept only so the node id stays
    stable; the test is expected to pass.
    """
    line = refined_s_flag(DP4, dp4_restriction(), (1, -1, -1, 0, 0, 0), 22, curve_label="l1")
    oracle = ZariskiOracle(DP4)

    def vol_a0_minus(u):
        half = Q(1, 2)
        return oracle.rational_volume((2 - u, u - half, u - half, -half, -half, -half))

    # Z is effective, so the volume is nonincreasing in u: zero at 5/4 ends the range
    assert vol_a0_minus(Q(5, 4)) == 0
    inner = [exact_simpson(vol_a0_minus, Q(0), Q(5, 4), panels) for panels in (5, 10)]
    assert inner[0] == inner[1], inner
    independent = Q(3, 22) * 4 * inner[0]  # int_0^2 (2 - t)^3 dt = 4
    assert line.value != Q(29, 44) and independent != Q(29, 44)
    announce(
        2,
        line.value == independent == Q(73, 88),
        f"line flag engine {line.value}, oracle + Simpson {independent}, reference tables 29/44",
    )


def test_criterion_2_line_flag_oracle_confirmed_value():
    """Companion: the automatic value 73/88, pinned by an independent oracle.

    The exhaustive-subset oracle recomputes vol(A(t) - s*Z) at rational
    sample points with no chamber machinery; the certified cells must agree
    pointwise, and their exact double integral is 73/88.
    """
    line = refined_s_flag(DP4, dp4_restriction(), (1, -1, -1, 0, 0, 0), 22, curve_label="l1")
    assert line.value == Q(73, 88)
    oracle = ZariskiOracle(DP4)
    from kstab.zariski import two_param_flag_volume

    flag = two_param_flag_volume(DP4, dp4_restriction()[0][2], 0, 2, (1, -1, -1, 0, 0, 0))
    cells = flag.chambers[0].cells
    assert [c.s_hi for c in cells] == [
        parse_polynomial("1 - 1/2*t", ("t",)),
        parse_polynomial("2 - t", ("t",)),
        parse_polynomial("5/2 - 5/4*t", ("t",)),
    ]
    for t in (Q(0), Q(1, 3), Q(1), Q(3, 2)):
        a_t = (4 - 2 * t, *(-(2 - t) / 2 for _ in range(5)))
        for cell in cells:
            lo, hi = cell.s_lo(t=t), cell.s_hi(t=t)
            if lo >= hi:
                continue
            for s in (lo, (lo + hi) / 2, hi):
                d = (a_t[0] - s, a_t[1] + s, a_t[2] + s, a_t[3], a_t[4], a_t[5])
                assert cell.volume(t=t, s=s) == oracle.rational_volume(d), (t, s)


def test_criterion_3_singular_line_mechanics():
    model = sing_line_model(12, 0)
    vf = threefold_volume_certified(model, "E")
    pieces_ok = vf.pw.pieces[0].poly == p("22 - 6*t^2 - 4*t^3") and vf.pw.pieces[1].poly == p(
        "12*(2 - t)^3"
    )
    kink_ok = check_c1(vf.pw) == [(1, Q(-24), Q(-36), False)]
    routes_ok = all(
        s_invariant(threefold_volume_certified(sing_line_model(g, k), "E"), 2 * g - 2)
        == sing_line_bound(g, k)
        for g in range(12, 21)
        for k in range(0, 5)
    )
    announce(3, pieces_ok and kink_ok and routes_ok and sing_line_bound(12, 0) == 1)


def test_criterion_4_nodal_lattice():
    nodal = GramLattice([[22, 0], [0, -2]])
    group = discriminant_group(nodal)
    factors_ok = sorted(group.factors) == [2, 22]
    by_order = {f: g for f, g in zip(group.factors, group.generators)}
    g22, g2 = by_order[22], by_order[2]
    q_ok = all(
        discriminant_quadratic(nodal, group.canonical([a * u + b * v for u, v in zip(g22, g2)]))
        == (Q(a * a, 22) - Q(b * b, 2)) % 2
        for a in range(22)
        for b in range(2)
    )
    iso_ok = isotropic_elements(nodal) == [(0, 0)]
    forced_ok = is_primitivity_forced(nodal) is True
    self_only = len(even_overlattices(nodal)) == 1
    control = GramLattice([[2, 0], [0, -2]])
    control_ok = (Q(1, 2), Q(1, 2)) in isotropic_elements(control) and sorted(
        determinant(o.gram) for o in even_overlattices(control)
    ) == [-4, -1]
    announce(4, factors_ok and q_ok and iso_ok and forced_ok and self_only and control_ok)


def test_criterion_5_catalog_checks():
    dets = [determinant(nl_gram(22, *TYPE_PAIRS[k])) for k in ("I", "II", "III", "IV")]
    sigs_ok = all(
        signature(nl_gram(22, *TYPE_PAIRS[k])) == (1, 1, 0) for k in ("I", "II", "III", "IV")
    )
    bn_ok = all(is_bn_excluding(h, m) for (h, m) in BN_EXCLUDING_PAIRS)
    bn_ok = bn_ok and len(BN_EXCLUDING_PAIRS) == 11 and not is_bn_excluding(0, -2)
    rank3 = GramLattice([[22, 11, 6], [11, 4, 1], [6, 1, -2]])
    sat_ok = is_saturated(rank3, [(1, 0, 0), (0, 1, 0)]) is True
    announce(5, dets == [-33, -37, -36, -25] and sigs_ok and bn_ok and sat_ok, f"dets={dets}")


def test_criterion_6_quasipolarized_arithmetic():
    from kstab.intersect import blowup_v4_conic

    v4 = blowup_v4_conic()
    surf = restrict_to_surface(v4, v4.anticanonical, [(2, -1), (1, 0)])
    gram_ok = surf.gram == ((Q(22), Q(14)), (Q(14), Q(8)))
    empty = integer_search_quadratic(
        parse_polynomial("-8*a^2 + 28*a*b - 22*b^2 + 40", ("a", "b")),
        ">",
        {"a": (1, 100), "b": (-100, -1)},
    )
    forced = integer_search_quadratic(
        parse_polynomial("-22 + 28*c - 8*c^2", ("c",)), ">", {"c": (-100, 100)}
    )
    announce(6, gram_ok and empty == [] and forced == [(2,)] and k3_section_count(8) == 6)


def test_criterion_7_toric_example():
    pr = prism()
    reflexive = is_reflexive(pr)
    degree = anticanonical_degree(pr)
    bary = barycenter(polar_dual(pr))
    kps, _ = toric_kps_check(pr)
    controls = (anticanonical_degree(simplex_p3()), anticanonical_degree(octahedron()))
    # dual-volume oracle for the controls: 6 * vol(dual) computed directly
    oracle = (6 * polytope_volume(polar_dual(simplex_p3())), 6 * polytope_volume(polar_dual(octahedron())))
    announce(
        7,
        reflexive and degree == 18 and bary == (0, 0, 0) and kps and controls == (64, 48)
        and oracle == (64, 48),
        f"degree={degree}, controls={controls}",
    )


def test_criterion_8a_zariski_iterative_vs_exhaustive():
    oracle = ZariskiOracle(DP4)
    rng = random.Random(88_1)
    for _ in range(200):
        d = random_pseff_class(DP4, rng)
        res = zariski_decompose(DP4, d)
        oracle_p, oracle_nu = oracle.decompose(d)
        assert res.positive == oracle_p, d
        assert {l: c for l, c in res.negative if c > 0} == oracle_nu, d
    announce(8, True, "8a: 200 random dp4 classes, iterative == exhaustive")


def _random_even_gram(rng, max_rank=4, det_bound=500):
    while True:
        r = rng.randint(1, max_rank)
        g = [[0] * r for _ in range(r)]
        for i in range(r):
            g[i][i] = 2 * rng.randint(-4, 4)
            for j in range(i + 1, r):
                g[i][j] = g[j][i] = rng.randint(-3, 3)
        lat = GramLattice(g)
        d = determinant(lat)
        if d != 0 and abs(d) <= det_bound:
            return lat, d


def test_criterion_8b_discriminant_order_equals_det():
    rng = random.Random(88_2)
    for _ in range(100):
        lat, d = _random_even_gram(rng)
        assert discriminant_group(lat).order == abs(d)
    announce(8, True, "8b: |A| == |det| on 100 random even Grams")


def _random_piecewise(rng):
    var = ("t",)
    cuts = sorted(rng.sample(range(0, 13), rng.randint(2, 4)))
    pieces = []
    prev_poly = None
    for lo, hi in zip(cuts, cuts[1:]):
        coeffs = {(k,): Q(rng.randint(-6, 6), rng.randint(1, 4)) for k in range(rng.randint(1, 4))}
        poly = Polynomial(var, coeffs)
        if prev_poly is not None:
            # shift the constant term to glue continuously at lo
            poly = poly + Polynomial.constant(prev_poly(lo) - poly(lo), var)
        pieces.append((lo, hi, poly))
        prev_poly = poly
    return PiecewisePolynomial(pieces, "t")


def test_criterion_8c_exact_vs_numeric_quadrature():
    from scipy.integrate import quad

    rng = random.Random(88_3)
    for _ in range(100):
        f = _random_piecewise(rng)
        exact = integrate_piecewise(f, f.lo, f.hi)
        numeric = 0.0
        for piece in f.pieces:
            val, _ = quad(lambda x, poly=piece.poly: float(poly(Q(x).limit_denominator(10**9))),
                          float(piece.lo), float(piece.hi), limit=100)
            numeric += val
        assert abs(float(exact) - numeric) < 1e-9, f
    announce(8, True, "8c: exact == quadrature within 1e-9 on 100 piecewise polynomials")


def test_criterion_8d_toric_unimodular_equivariance():
    from test_toric import random_unimodular, transform

    rng = random.Random(88_4)
    base = prism()
    vol0, bary0, deg0 = polytope_volume(base), barycenter(base), anticanonical_degree(base)
    for _ in range(50):
        m = random_unimodular(rng)
        moved = transform(base, m)
        assert polytope_volume(moved) == vol0
        assert barycenter(moved) == tuple(
            sum(Q(m[r][c]) * bary0[c] for c in range(3)) for r in range(3)
        )
        assert anticanonical_degree(moved) == deg0
    announce(8, True, "8d: toric quantities invariant under 50 random unimodular maps")
