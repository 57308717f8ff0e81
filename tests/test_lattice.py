"""Lattice arithmetic tests.

DERIVED expectations were computed independently before wiring them in:
determinants by cofactor expansion, discriminant data by brute-force
enumeration of dual cosets (the oracle at the bottom re-does that here),
overlattice Grams by hand from the stated index-2 basis.  The integer
kernels for the subgroup walk and the box search are also checked against
the original Fraction and brute-force kernels frozen in ``oracles``.
"""

import itertools
import math
from fractions import Fraction as Q

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from kstab import lattice
from kstab.errors import (
    DegenerateLattice,
    DependentBasis,
    DomainError,
    GroupTooLarge,
    InvariantViolation,
    OddLattice,
)
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
    smith_normal_form,
)
from kstab.poly import Polynomial, parse_polynomial
from oracles import (
    mat_mul,
    mat_transpose,
    reference_det,
    reference_even_overlattices,
    reference_integer_search_quadratic,
    reference_isotropic_elements,
    reference_isotropic_subgroups,
    reference_row_runs,
    reference_signature,
)

NODAL = GramLattice([[22, 0], [0, -2]])
HYPERBOLIC = GramLattice([[0, 1], [1, 0]])
RANK3 = GramLattice([[22, 11, 6], [11, 4, 1], [6, 1, -2]])


class TestBasics:
    @pytest.mark.parametrize(
        "gram,expected",
        [
            ([[22, 11], [11, 4]], -33),
            ([[22, 0], [0, -2]], -44),
            ([[22]], 22),
            ([[22, 9], [9, 2]], -37),
            ([[22, 6], [6, 0]], -36),
            ([[22, 5], [5, 0]], -25),
            ([[22, 14], [14, 8]], -20),
        ],
    )
    def test_determinant(self, gram, expected):
        assert determinant(GramLattice(gram)) == expected

    @pytest.mark.parametrize(
        "gram,expected",
        [
            ([[22, 0], [0, -2]], (1, 1, 0)),
            ([[22, 14], [14, 8]], (1, 1, 0)),
            ([[0, 1], [1, 0]], (1, 1, 0)),
            ([[2, 0], [0, 2]], (2, 0, 0)),
            ([[0, 0], [0, -2]], (0, 1, 1)),
            ([[22, 11, 6], [11, 4, 1], [6, 1, -2]], (1, 2, 0)),
        ],
    )
    def test_signature(self, gram, expected):
        assert signature(GramLattice(gram)) == expected

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            GramLattice([[0, 1], [2, 0]])

    def test_evaluate_trisection(self):
        # degree-22 elliptic lattice with trisection index 3: (L - 4F)^2 = -2
        trigonal = GramLattice([[22, 3], [3, 0]])
        assert trigonal.evaluate((1, -4)) == -2

    def test_evaluate_zero_vector(self):
        assert RANK3.evaluate((0, 0, 0)) == 0

    def test_evaluate_type_iv_isotropic_column(self):
        assert GramLattice([[22, 5], [5, 0]]).evaluate((0, 1)) == 0

    def test_reconstruction_divisor_arithmetic(self):
        # elliptic/curve classes on the seven degree-22 lattices [[22,h],[h,m]]
        unigonal = GramLattice([[22, 1], [1, 0]])
        assert unigonal.evaluate((1, -12)) == -2  # section B = L - 12F
        hyperelliptic = GramLattice([[22, 2], [2, 0]])
        assert hyperelliptic.evaluate((1, -6)) == -2  # bisection
        tetragonal = GramLattice([[22, 4], [4, 0]])
        assert tetragonal.evaluate((1, -3)) == -2
        tritangent = GramLattice([[22, 7], [7, 2]])
        assert tritangent.evaluate((1, -3)) == -2  # B = L - 3D
        assert tritangent.evaluate((-1, 4)) == -2  # B' = 4D - L
        assert tritangent.pair((1, -3), (-1, 4)) == 3  # (B . B') = 3
        conic = GramLattice([[22, 8], [8, 2]])
        assert conic.evaluate((1, -1)) == 8
        assert conic.evaluate((1, -2)) == -2
        nodal_quadric = GramLattice([[22, 10], [10, 4]])
        assert nodal_quadric.evaluate((1, -1)) == 6
        assert nodal_quadric.evaluate((1, -2)) == -2
        assert nodal_quadric.pair((1, -1), (1, -2)) == 0
        assert nodal_quadric.evaluate((-1, 3)) == -2  # C = 3D - L


class TestSmith:
    @pytest.mark.parametrize(
        "matrix",
        [
            [[22, 0], [0, -2]],
            [[2, 4, 4], [-6, 6, 12], [10, 4, 16]],
            [[1, 0], [0, 1]],
            [[0, 0], [0, 0]],
            [[6, 4], [4, 8]],
        ],
    )
    def test_snf_transforms(self, matrix):
        u, d, v = smith_normal_form(matrix)
        # U*A*V == D, U and V unimodular, divisibility chain
        n = len(matrix)
        prod = [
            [sum(u[i][k] * matrix[k][l] * v[l][j] for k in range(n) for l in range(n)) for j in range(n)]
            for i in range(n)
        ]
        assert prod == [list(r) for r in map(list, d)] or prod == d
        diag = [d[i][i] for i in range(n)]
        assert all(d[i][j] == 0 for i in range(n) for j in range(n) if i != j)
        for a, b in zip(diag, diag[1:]):
            if a != 0:
                assert b % a == 0
        assert abs(_int_det(u)) == 1
        assert abs(_int_det(v)) == 1

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda m: st.integers(1, 4).flatmap(
                lambda n: st.lists(
                    st.lists(st.integers(-12, 12) | st.just(0), min_size=n, max_size=n), min_size=m, max_size=m
                )
            )
        )
    )
    @example([[0, 0, 0], [0, 0, 0]])
    @example([[4], [6]])
    def test_snf_against_sympy(self, matrix):
        # sympy's Smith form (its diagonal, up to sign) and its integer
        # matrix algebra are the independent route
        import sympy
        from sympy.matrices.normalforms import smith_normal_form as sympy_snf

        u, d, v = smith_normal_form(matrix)
        a = sympy.Matrix(matrix)
        assert sympy.Matrix(u) * a * sympy.Matrix(v) == sympy.Matrix(d)
        assert sympy.Matrix(u).det() in (1, -1) and sympy.Matrix(v).det() in (1, -1)
        diagonal = [d[i][i] for i in range(min(a.shape))]
        assert diagonal == [abs(x) for x in sympy_snf(a, domain=sympy.ZZ).diagonal()]
        assert all(x >= 0 for x in diagonal)
        assert all(y % x == 0 for x, y in zip(diagonal, diagonal[1:]) if x)


def _int_det(m):
    from kstab.rationals import det

    return det([[Q(x) for x in row] for row in m])


class TestDiscriminant:
    def test_nodal_group(self):
        group = discriminant_group(NODAL)
        assert group.factors == (2, 22)
        assert group.order == 44

    def test_generator_orders(self):
        group = discriminant_group(NODAL)
        for gen, order in zip(group.generators, group.factors):
            scaled = [order * x for x in gen]
            assert all(x.denominator == 1 for x in scaled)
            for k in range(1, order):
                partial = [k * x for x in gen]
                assert any((x - int(x)) != 0 for x in partial)

    def test_unimodular_trivial_group(self):
        assert discriminant_group(HYPERBOLIC).factors == ()

    def test_rank_one(self):
        assert discriminant_group(GramLattice([[4]])).factors == (4,)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateLattice):
            discriminant_group(GramLattice([[22, 0], [0, 0]]))

    def test_quadratic_values_match_closed_form(self):
        # q(a, b) = a^2/22 - b^2/2 mod 2 on generators of orders (22, 2)
        group = discriminant_group(NODAL)
        by_order = {f: g for f, g in zip(group.factors, group.generators)}
        g22, g2 = by_order[22], by_order[2]
        for a in range(22):
            for b in range(2):
                x = group.canonical([a * u + b * v for u, v in zip(g22, g2)])
                expected = (Q(a * a, 22) - Q(b * b, 2)) % 2
                assert discriminant_quadratic(NODAL, x) == expected

    def test_quadratic_examples(self):
        assert discriminant_quadratic(NODAL, (Q(1, 22), 0)) == Q(1, 22)
        assert discriminant_quadratic(NODAL, (0, Q(1, 2))) == Q(3, 2)
        assert discriminant_quadratic(NODAL, (0, 0)) == 0

    def test_quadratic_odd_lattice_rejected(self):
        with pytest.raises(OddLattice):
            discriminant_quadratic(GramLattice([[3]]), (Q(1, 3),))

    def test_quadratic_well_defined_mod_lattice(self):
        group = discriminant_group(NODAL)
        x = group.element((5, 1))
        shifted = [a + b for a, b in zip(x, (3, -2))]
        assert discriminant_quadratic(NODAL, x) == discriminant_quadratic(NODAL, shifted)


class TestIsotropic:
    def test_nodal_lattice_only_zero(self):
        assert isotropic_elements(NODAL) == [(0, 0)]

    def test_negative_control_has_isotropic(self):
        control = GramLattice([[2, 0], [0, -2]])
        iso = isotropic_elements(control)
        assert (Q(1, 2), Q(1, 2)) in iso

    def test_unimodular(self):
        assert isotropic_elements(HYPERBOLIC) == [(0, 0)]

    def test_brute_force_oracle(self):
        # independent oracle: enumerate all dual cosets directly
        for gram in ([[22, 0], [0, -2]], [[2, 0], [0, -2]], [[4, 2], [2, 6]]):
            lattice = GramLattice(gram)
            n = abs(determinant(lattice))
            expected = set()
            for num in itertools.product(range(2 * n), repeat=lattice.rank):
                vec = tuple(Q(a, n) for a in num)
                # is vec in the dual lattice?  G*vec must be integral
                gv = [sum(Q(lattice.gram[i][j]) * vec[j] for j in range(lattice.rank)) for i in range(lattice.rank)]
                if any(x.denominator != 1 for x in gv):
                    continue
                canon = tuple(x % 1 for x in vec)
                q = sum(
                    canon[i] * lattice.gram[i][j] * canon[j]
                    for i in range(lattice.rank)
                    for j in range(lattice.rank)
                ) % 2
                if q == 0:
                    expected.add(canon)
            assert set(isotropic_elements(lattice)) == expected

    def test_enumeration_bound_env_var(self, monkeypatch):
        monkeypatch.setenv("KSTAB_ENUM_BOUND", "10")
        with pytest.raises(GroupTooLarge):
            isotropic_elements(NODAL)
        monkeypatch.setenv("KSTAB_ENUM_BOUND", "1000")
        assert isotropic_elements(NODAL) == [(0, 0)]


class TestPrimitivityAndOverlattices:
    def test_nodal_forced(self):
        assert is_primitivity_forced(NODAL) is True

    def test_control_not_forced(self):
        assert is_primitivity_forced(GramLattice([[2, 0], [0, -2]])) is False

    def test_hyperbolic_forced(self):
        assert is_primitivity_forced(HYPERBOLIC) is True

    def test_nodal_has_no_proper_overlattice(self):
        overs = even_overlattices(NODAL)
        assert len(overs) == 1
        assert overs[0].gram == NODAL
        assert overs[0].index == 1

    def test_broken_invariants_raise(self, monkeypatch):
        # raised, not asserted, so the checks survive python -O
        monkeypatch.setattr(lattice, "det", lambda m: Q(1, 2))
        with pytest.raises(InvariantViolation):
            determinant(NODAL)
        monkeypatch.undo()  # determinant() must work again to reach the basis-rank guard
        monkeypatch.setattr(lattice, "_hermite_normal_form", lambda rows: rows[:1])
        with pytest.raises(InvariantViolation):
            even_overlattices(GramLattice([[2, 0], [0, -2]]))

    def test_control_overlattices(self):
        control = GramLattice([[2, 0], [0, -2]])
        overs = even_overlattices(control)
        dets = sorted(determinant(o.gram) for o in overs)
        assert dets == [-4, -1]
        proper = next(o for o in overs if o.index == 2)
        assert determinant(proper.gram) == -1
        assert signature(proper.gram) == (1, 1, 0)
        # the certificate basis spans the same lattice as ((x+y)/2, y),
        # whose Gram is [[0,-1],[-1,-2]]: mutual integer change of basis
        reference = [(Q(1, 2), Q(1, 2)), (Q(0), Q(1))]
        from kstab.rationals import mat_inverse

        b = [list(row) for row in proper.basis]
        binv = mat_inverse(b)
        for vec in reference:
            coords = [sum(binv[j][i] * vec[j] for j in range(2)) for i in range(2)]
            assert all(c.denominator == 1 for c in coords), coords
        rinv = mat_inverse([list(r) for r in reference])
        for vec in proper.basis:
            coords = [sum(rinv[j][i] * vec[j] for j in range(2)) for i in range(2)]
            assert all(c.denominator == 1 for c in coords), coords
        ref_gram = [
            [sum(a * control.gram[i][j] * bb for i, a in enumerate(u) for j, bb in enumerate(v)) for v in reference]
            for u in reference
        ]
        assert ref_gram == [[0, -1], [-1, -2]]

    def test_overlattice_determinant_law(self):
        for gram in ([[2, 0], [0, -2]], [[4, 0], [0, -4]], [[2, 1], [1, -2]]):
            lattice = GramLattice(gram)
            if not lattice.is_even():
                continue
            base = determinant(lattice)
            for over in even_overlattices(lattice):
                h = len(over.subgroup)
                assert determinant(over.gram) * h * h == base

    def test_forced_iff_self_only(self):
        # cross-check the two routes on a small batch of even lattices
        grams = [
            [[22, 0], [0, -2]],
            [[2, 0], [0, -2]],
            [[4]],
            [[0, 1], [1, 0]],
            [[6, 2], [2, 6]],
            [[2, 1], [1, -2]],
        ]
        for gram in grams:
            lattice = GramLattice(gram)
            if determinant(lattice) == 0:
                continue
            forced = is_primitivity_forced(lattice)
            overs = even_overlattices(lattice)
            assert forced == (len(overs) == 1)


class TestSaturation:
    def test_type_one_inside_rank3(self):
        assert is_saturated(RANK3, [(1, 0, 0), (0, 1, 0)]) is True

    def test_index_two_not_saturated(self):
        ambient = GramLattice([[1, 0], [0, 1]])
        assert is_saturated(ambient, [(2, 0)]) is False

    def test_full_basis(self):
        assert is_saturated(RANK3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]) is True

    def test_dependent_rejected(self):
        with pytest.raises(DependentBasis):
            is_saturated(RANK3, [(1, 0, 0), (2, 0, 0)])
        # more rows than the rank: the Smith form has only three diagonal entries, all 1
        with pytest.raises(DependentBasis):
            is_saturated(RANK3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])


class TestIntegerSearch:
    def test_quasipolarization_inequality_empty(self):
        form = parse_polynomial("-8*a^2 + 28*a*b - 22*b^2 + 40", variables=("a", "b"))
        hits = integer_search_quadratic(form, ">", {"a": (1, 100), "b": (-100, -1)})
        assert hits == []

    def test_unigonal_exclusion_forces_c_two(self):
        form = parse_polynomial("-22 + 28*c - 8*c^2", variables=("c",))
        hits = integer_search_quadratic(form, ">", {"c": (-100, 100)})
        assert hits == [(2,)]

    def test_strict_disk(self):
        form = parse_polynomial("a^2 + b^2 - 1", variables=("a", "b"))
        hits = integer_search_quadratic(form, "<", {"a": (-5, 5), "b": (-5, 5)})
        assert hits == [(0, 0)]

    def test_constant_form(self):
        assert integer_search_quadratic(Polynomial((), {(): 3}), ">", {}) == [()]
        assert integer_search_quadratic(Polynomial((), {}), "<", {"x": (0, 9)}) == []

    def test_empty_range(self):
        form = parse_polynomial("x^2 - y", variables=("x", "y"))
        assert integer_search_quadratic(form, "<=", {"x": (0, 10**12), "y": (5, 4)}) == []

    def test_huge_inner_side_is_row_by_row(self):
        # one row of 2 * 10**12 + 1 points: only the run boundaries are searched
        form = parse_polynomial("y^2 - 10", variables=("y",))
        assert integer_search_quadratic(form, "<", {"y": (-10**12, 10**12)}) == [(y,) for y in range(-3, 4)]

    def test_degree_above_two_rejected(self):
        form = parse_polynomial("c^3 - 2", variables=("c",))
        with pytest.raises(DomainError):
            integer_search_quadratic(form, ">", {"c": (0, 3)})

    def test_unknown_comparison_and_missing_variable_are_domain_errors(self):
        form = parse_polynomial("x^2 - y", variables=("x", "y"))
        with pytest.raises(DomainError, match="unknown comparison"):
            integer_search_quadratic(form, "!=", {"x": (0, 1), "y": (0, 1)})
        with pytest.raises(DomainError, match="missing variable 'y'"):
            integer_search_quadratic(form, "<", {"x": (0, 1)})

    def test_each_row_evaluates_the_form_at_most_twice(self, monkeypatch):
        # the work per row does not grow with its width of 2 * 10**12 + 1
        calls = []
        at = lattice._at
        monkeypatch.setattr(lattice, "_at", lambda *args: calls.append(args) or at(*args))
        side = 10**12
        for comparison in COMPARISONS:
            for a, b, c in [(1, 0, -10), (-8, 28, -22), (16, -16, 3), (0, 3, -7), (1, -2, 1), (1, 0, 1)]:
                calls.clear()
                lattice._row_runs(a, b, c, -side, side, comparison)
                assert len(calls) <= 2, (a, b, c, comparison)
        form = parse_polynomial("x^2 + y^2 - 10", variables=("x", "y"))
        calls.clear()
        hits = integer_search_quadratic(form, "<", {"x": (-3, 3), "y": (-side, side)})
        assert hits == reference_integer_search_quadratic(form, "<", {"x": (-3, 3), "y": (-4, 4)})
        assert len(calls) <= 2 * 7

    def test_row_and_solution_bounds(self, monkeypatch):
        form = parse_polynomial("a^2 + b^2 - 1", variables=("a", "b"))
        monkeypatch.setenv("KSTAB_ENUM_BOUND", "10")
        with pytest.raises(GroupTooLarge):
            integer_search_quadratic(form, "<", {"a": (-5, 5), "b": (-5, 5)})  # 11 rows
        with pytest.raises(GroupTooLarge):
            integer_search_quadratic(form, ">", {"a": (0, 2), "b": (-5, 5)})  # 29 solutions
        assert integer_search_quadratic(form, "<", {"a": (-4, 4), "b": (-5, 5)}) == [(0, 0)]


# -- differential tests against the frozen original kernels -------------------


@st.composite
def small_even_lattices(draw):
    """Nondegenerate even Grams of rank <= 4 with |det| <= 256, not only diagonal."""
    n = draw(st.integers(1, 4))
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        gram[i][i] = 2 * draw(st.integers(-3, 3))
        for j in range(i):
            gram[i][j] = gram[j][i] = draw(st.integers(-2, 2))
    even = GramLattice(gram)
    d = determinant(even)
    assume(d != 0 and abs(d) <= 256)
    return even


@settings(max_examples=50, deadline=None)
@given(small_even_lattices())
@example(HYPERBOLIC)  # trivial group: no generators, only the zero subgroup
# (Z/4)^3 with isotropic pairs whose b is an odd integer
@example(GramLattice([[4, 0, 0], [0, -4, 0], [0, 0, 4]]))
# the two benchmark groups: (Z/4)^4 with 70 isotropic subgroups, (Z/2)^6 with 59
@example(GramLattice([[4 * (-1) ** i if i == j else 0 for j in range(4)] for i in range(4)]))
@example(GramLattice([[2 * (-1) ** i if i == j else 0 for j in range(6)] for i in range(6)]))
# Z/2 x (Z/8)^2: <(0, 1, 1)> / <(0, 4, 4)> is cyclic of order 4 over a nontrivial H
@example(GramLattice([[2, 0, 0], [0, 8, 0], [0, 0, -8]]))
def test_subgroup_walk_matches_reference(even):
    assert isotropic_elements(even) == reference_isotropic_elements(even)
    overs = even_overlattices(even)
    assert [frozenset(o.subgroup) for o in overs] == reference_isotropic_subgroups(even)
    assert overs == reference_even_overlattices(even)
    gram = [[Q(x) for x in row] for row in even.gram]
    for o in overs:
        basis = [list(row) for row in o.basis]
        assert [list(row) for row in o.gram.gram] == mat_mul(mat_mul(basis, gram), mat_transpose(basis))
        assert o.index * abs(reference_det(basis)) == 1


@st.composite
def symmetric_grams(draw):
    """Symmetric integer Grams of rank 1 to 7; half are B^T.D.B for a B with fewer rows than columns, so singular."""
    n = draw(st.integers(1, 7))
    if draw(st.booleans()):
        gram = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1):
                gram[i][j] = gram[j][i] = draw(st.integers(-6, 6))
        return GramLattice(gram)
    b = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), max_size=n - 1))
    d = draw(st.lists(st.sampled_from((-2, -1, 1, 2)), min_size=len(b), max_size=len(b)))
    return GramLattice([[sum(dk * row[i] * row[j] for dk, row in zip(d, b)) for j in range(n)] for i in range(n)])


@settings(max_examples=300, deadline=None)
@given(symmetric_grams())
@example(GramLattice([[0] * 7 for _ in range(7)]))
@example(GramLattice([[0, 1, 0], [1, 0, 0], [0, 0, 0]]))
def test_signature_matches_reference(gram):
    assert signature(gram) == reference_signature(gram)


@pytest.mark.parametrize("diagonal", [(4, -4, 4, -4), (2, -2, 2, -2, 2, -2)])
def test_each_overlattice_hnf_takes_at_most_n_plus_log2_h_rows(monkeypatch, diagonal):
    sizes = []
    hnf = lattice._hermite_normal_form
    monkeypatch.setattr(lattice, "_hermite_normal_form", lambda rows: sizes.append(len(rows)) or hnf(rows))
    n = len(diagonal)
    overs = even_overlattices(GramLattice([[x if i == j else 0 for j in range(n)] for i, x in enumerate(diagonal)]))
    assert len(sizes) == len(overs) == {4: 70, 6: 59}[n]
    for rows, over in zip(sizes, overs):
        assert rows <= n + math.log2(len(over.subgroup))


COMPARISONS = (">", ">=", "<", "<=", "==")


@st.composite
def box_searches(draw):
    """Rational forms of degree <= 2 in one or two variables, boxes of side <= 12."""
    variables = draw(st.sampled_from([("x",), ("x", "y"), ("y", "x")]))
    exps = [e for e in itertools.product(range(3), repeat=len(variables)) if sum(e) <= 2]
    coeffs = {e: draw(st.fractions(-6, 6, max_denominator=4)) for e in exps if draw(st.booleans())}
    box = {}
    for v in variables:
        lo = draw(st.integers(-8, 8))
        box[v] = (lo, lo + draw(st.integers(-1, 11)))
    return Polynomial(variables, coeffs), draw(st.sampled_from(COMPARISONS)), box


@settings(max_examples=250, deadline=None)
@given(box_searches())
@example((Polynomial(("x", "y"), {(1, 1): 1}), "==", {"x": (-2, 2), "y": (-3, 3)}))  # the row x = 0 is all zero
def test_box_search_matches_reference(search):
    form, comparison, box = search
    assert integer_search_quadratic(form, comparison, box) == reference_integer_search_quadratic(form, comparison, box)


BIG = 10**12


@st.composite
def quadratic_rows(draw):
    """One row (a, b, c, lo, hi, comparison) with coefficients and ends up to about 10**12.

    Most rows are built from their roots, so that double roots, integer and
    half-integer roots, and square and non-square discriminants all occur,
    with a row end on a root or one step beside it: the cases where isqrt
    rounds.  The box strategy above, with small coefficients and sides,
    reaches none of them at this size.
    """
    kind = draw(st.sampled_from(("free", "factored", "factored", "linear", "constant")))
    anchors = [0]
    if kind == "free":
        a, b, c = (draw(st.integers(-BIG, BIG)) for _ in range(3))
        if a:
            anchors.append(-b // (2 * a))
    elif kind == "factored":
        # k*(u*y - v)*(w*y - x), roots v/u and x/w.  Its discriminant is a
        # square; c moved by 1 moves it by 4a, beside a square of up to 10**23
        # when one root is near 10**11, where a float square root misrounds.
        k = draw(st.sampled_from((-3, -2, -1, 1, 2, 3)))
        u, w = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        v_max, x_max = draw(st.sampled_from(((5 * 10**5, 5 * 10**5), (BIG // 40, 10))))
        v, x = draw(st.integers(-v_max, v_max)), draw(st.integers(-x_max, x_max))
        if v_max == x_max and draw(st.booleans()):
            x = v * w // u  # a double root when u divides v*w
        a, b, c = k * u * w, -k * (u * x + w * v), k * v * x + draw(st.sampled_from((0, 0, 1, -1)))
        anchors += [v // u, x // w]
    elif kind == "linear":
        a, b = 0, draw(st.integers(-10**6, 10**6).filter(bool))
        root = draw(st.integers(-10**6, 10**6))
        c = -b * root + draw(st.sampled_from((0, 0, 1, -1)))
        anchors.append(root)
    else:
        a, b, c = 0, 0, draw(st.sampled_from((-1, 0, 1, BIG)))
    ends = st.one_of(st.integers(-BIG, BIG), st.builds(int.__add__, st.sampled_from(anchors), st.integers(-1, 1)))
    lo, hi = sorted((draw(ends), draw(ends)))
    return a, b, c, lo, hi, draw(st.sampled_from(COMPARISONS))


def _merged(runs):
    out = []
    for start, end in sorted(runs):
        if out and start == out[-1][1] + 1:
            out[-1] = (out[-1][0], end)
        else:
            out.append((start, end))
    return out


@settings(max_examples=600, deadline=None)
@given(quadratic_rows())
@example((16, -16, 3, -BIG, BIG, "<="))  # roots 1/4 and 3/4: no integer between them
@example((16, -16, 3, -BIG, BIG, ">"))
@example((1, -2, 1, -BIG, BIG, "=="))  # the double root 1 is one run, not two
@example((-1, 2, -1, 1, 1, ">="))
@example((1, -1, 0, -5, 5, "=="))  # two adjacent integer roots
@example((2, -3, 1, 1, 1, "<"))  # roots 1/2 and 1, the row end on the upper one
def test_row_runs_match_reference(row):
    a, b, c, lo, hi, comparison = row
    runs = lattice._row_runs(a, b, c, lo, hi, comparison)
    assert all(lo <= start <= end <= hi for start, end in runs)
    assert all(end < start for (_, end), (start, _) in zip(runs, runs[1:]))  # ascending, none repeated
    assert _merged(runs) == _merged(reference_row_runs(a, b, c, lo, hi, comparison))
