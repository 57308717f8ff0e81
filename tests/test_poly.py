"""Exact polynomial / piecewise-function tests.

Expected values for the integration examples were frozen from an
independent antiderivative computation (power rule by hand) before the
engine existed; the quadrature cross-check lives in test_properties.py.
Sum, product, power and integration are also compared with sympy on
random polynomials, and canonical strings round-trip through the parser.
"""

from fractions import Fraction as Q

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from kstab.errors import DomainError, IrrationalWall
from kstab.poly import (
    MAX_PARSED_BITS,
    MAX_PARSED_DEGREE,
    PiecewisePolynomial,
    Polynomial,
    check_c1,
    format_polynomial,
    integrate_piecewise,
    parse_polynomial,
    rational_roots_in_interval,
)


def P(text, variables=None):
    return parse_polynomial(text, variables)


class TestPolynomialArithmetic:
    def test_construction_drops_zeros(self):
        p = Polynomial(("t",), {(2,): Q(0), (1,): Q(3)})
        assert p.coeffs == {(1,): Q(3)}

    def test_add_mul(self):
        t = Polynomial.var("t")
        p = (1 - t) ** 3
        assert p == P("1 - 3*t + 3*t^2 - t^3")

    def test_eval(self):
        p = P("22 - 6*t^2 - 4*t^3")
        assert p(1) == 12
        assert p(Q(1, 2)) == Q(22) - Q(6, 4) - Q(4, 8)

    def test_two_variables(self):
        p = P("2*(3 - u - v)*(2*u - v)", variables=("u", "v"))
        assert p(u=1, v=0) == 8
        assert p.degree() == 2

    def test_mixed_var_merge(self):
        u = Polynomial.var("u")
        v = Polynomial.var("v")
        p = u * v + u
        assert p.vars == ("u", "v")
        assert p(u=2, v=3) == 8

    def test_three_vars_rejected(self):
        with pytest.raises(ValueError):
            Polynomial(("a", "b", "c"))

    def test_canonical_string(self):
        assert format_polynomial(P("22 - 6*t^2 - 4*t^3")) == "22 - 6*t^2 - 4*t^3"
        assert format_polynomial(P("0")) == "0"
        assert format_polynomial(P("-t")) == "-t"

    def test_parse_roundtrip(self):
        for text in ["22 - 6*t^2 - 4*t^3", "1/4 - t", "t^2", "-5 + t"]:
            p = P(text)
            assert P(format_polynomial(p)) == p

    def test_parse_rational_coefficients(self):
        assert P("9/4 - s", variables=("s",))(Q(1, 4)) == 2

    def test_derivative(self):
        assert P("22 - 6*t^2 - 4*t^3").derivative("t") == P("-12*t - 12*t^2")


class TestParseErrors:
    @pytest.mark.parametrize("text", ["2**", "x + )", "x * / 2", "^2", "(", "x + ^", "x²"])
    def test_an_operator_is_not_a_variable(self, text):
        with pytest.raises(ValueError):
            P(text)

    def test_identifiers_and_integers_still_parse(self):
        assert P("x_1 + 2*y2").vars == ("x_1", "y2")
        assert P("(2)") == 2

    @pytest.mark.parametrize(
        "text", ["(c+1)^3200", "c^65", "c^8^9", "c^2*c^63", "(c^33)^2", "c^99999999999999999999", "2^65"]
    )
    def test_degree_cap(self, text):
        with pytest.raises(ValueError, match=str(MAX_PARSED_DEGREE)):
            P(text)

    def test_deep_nesting(self):
        with pytest.raises(ValueError, match="nested"):
            P("(" * 5000 + "c" + ")" * 5000)
        assert P("(" * 50 + "c" + ")" * 50) == P("c")

    def test_coefficient_cap(self):
        with pytest.raises(ValueError, match=str(MAX_PARSED_BITS)):
            P("(((((2^64)^64)^64)^64)^64)")

    def test_up_to_the_caps(self):
        assert P("(c+1)^64").degree() == 64
        assert P("c^8^8") == P("c^64") == P("c^32*c^32")
        assert P("c^2^3^0") == 1
        assert P("2^64") == 2**64
        assert P("(2^32)^64") == 2**2048


# -- differential tests against sympy --------------------------------------

VARIABLE_SETS = (("t",), ("s", "t"), ("u", "v"), ("x_1", "y2"))
coefficients = st.fractions(min_value=-6, max_value=6, max_denominator=5)


@st.composite
def polynomials(draw, variables=None, max_degree=3):
    variables = variables if variables is not None else draw(st.sampled_from(VARIABLE_SETS))
    exps = st.tuples(*[st.integers(0, max_degree)] * len(variables))
    return Polynomial(variables, draw(st.dictionaries(exps, coefficients, max_size=5)))


def to_sympy(p):
    if not isinstance(p, Polynomial):
        return sympy.Rational(p.numerator, p.denominator)
    syms = sympy.symbols(p.vars) if p.vars else ()
    return sympy.Add(*(
        sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(x**e for x, e in zip(syms, exp)))
        for exp, c in p.coeffs.items()
    ))


def same(ours, theirs):
    return sympy.expand(to_sympy(ours) - theirs) == 0


class TestAgainstSympy:
    @settings(max_examples=100, deadline=None)
    @given(polynomials(), polynomials())
    def test_add_and_multiply(self, p, q):
        if len(set(p.vars) | set(q.vars)) > 2:
            with pytest.raises(ValueError):
                p + q
            return
        assert same(p + q, to_sympy(p) + to_sympy(q))
        assert same(p - q, to_sympy(p) - to_sympy(q))
        assert same(p * q, to_sympy(p) * to_sympy(q))

    @settings(max_examples=60, deadline=None)
    @given(polynomials(max_degree=2), st.integers(0, 5))
    def test_power(self, p, n):
        assert same(p**n, to_sympy(p) ** n)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_integrate(self, data):
        f = data.draw(polynomials(("t",)))
        a, b = sorted(data.draw(st.sets(coefficients, min_size=2, max_size=2)))
        value = integrate_piecewise(PiecewisePolynomial([(a, b, f)]), a, b)
        assert isinstance(value, Q) and same(value, sympy.integrate(to_sympy(f), (sympy.Symbol("t"), a, b)))


@settings(max_examples=200, deadline=None)
@given(polynomials(max_degree=5))
def test_format_parse_round_trip(p):
    text = format_polynomial(p)
    assert parse_polynomial(text, p.vars) == p
    assert format_polynomial(parse_polynomial(text, p.vars)) == text


class TestRoots:
    def test_affine_wall(self):
        # wall location 4s - 6 = 0 inside [0, 2]
        p = P("4*s - 6", variables=("s",))
        assert rational_roots_in_interval(p, 0, 2) == [Q(3, 2)]

    def test_root_at_endpoint(self):
        p = P("s", variables=("s",))
        assert rational_roots_in_interval(p, 0, 1) == [Q(0)]

    def test_irrational_wall(self):
        p = P("s^2 - 2", variables=("s",))
        with pytest.raises(IrrationalWall):
            rational_roots_in_interval(p, 0, 2)

    def test_irrational_outside_interval_is_fine(self):
        p = P("s^2 - 2", variables=("s",))
        assert rational_roots_in_interval(p, 2, 3) == []

    def test_quadratic_rational_roots(self):
        p = P("s^2 - 5*s + 6", variables=("s",))
        assert rational_roots_in_interval(p, 0, 10) == [2, 3]
        assert rational_roots_in_interval(p, Q(5, 2), 10) == [3]

    def test_double_root(self):
        p = P("s^2 - 2*s + 1", variables=("s",))
        assert rational_roots_in_interval(p, 0, 2) == [1]

    def test_negative_discriminant(self):
        p = P("s^2 + 1", variables=("s",))
        assert rational_roots_in_interval(p, -5, 5) == []


def two_piece_volume():
    return PiecewisePolynomial(
        [
            (0, 1, P("22 - 6*t^2 - 4*t^3")),
            (1, 2, P("12*(2 - t)^3")),
        ]
    )


class TestPiecewise:
    def test_rejects_discontinuity(self):
        with pytest.raises(ValueError, match="discontinuity"):
            PiecewisePolynomial([(0, 1, P("t")), (1, 2, P("t + 5"))])

    def test_rejects_gap(self):
        with pytest.raises(ValueError, match="abut"):
            PiecewisePolynomial([(0, 1, P("t")), (Q(3, 2), 2, P("t"))])

    def test_drops_degenerate_piece(self):
        f = PiecewisePolynomial([(0, 1, P("t")), (1, 1, P("t")), (1, 2, P("t"))])
        assert len(f.pieces) == 2

    def test_evaluate(self):
        f = two_piece_volume()
        assert f(0) == 22
        assert f(1) == 12
        assert f(2) == 0

    def test_integral_of_cube_family(self):
        # int_0^1 (1-u)^3 du = 1/4
        f = PiecewisePolynomial([(0, 1, P("(1 - u)^3"))])
        assert integrate_piecewise(f, 0, 1) == Q(1, 4)

    def test_zero_integrand(self):
        f = PiecewisePolynomial([(0, 2, P("0") * Polynomial.var("t"))])
        assert integrate_piecewise(f, 0, 2) == 0

    def test_first_chamber_integral(self):
        # int_0^1 (22 - 6t^2 - 4t^3) dt = 22 - 2 - 1 = 19
        f = two_piece_volume()
        assert integrate_piecewise(f, 0, 1) == 19

    def test_two_piece_total(self):
        # adds int_1^2 12(2-t)^3 dt = 3
        f = two_piece_volume()
        assert integrate_piecewise(f, 0, 2) == 22

    def test_additivity_at_arbitrary_cut(self):
        f = two_piece_volume()
        c = Q(7, 5)
        assert integrate_piecewise(f, 0, 2) == integrate_piecewise(f, 0, c) + integrate_piecewise(f, c, 2)

    def test_domain_error(self):
        f = two_piece_volume()
        with pytest.raises(DomainError):
            integrate_piecewise(f, 0, 3)

    def test_check_c1_breakpoint(self):
        f = two_piece_volume()
        assert check_c1(f) == [(1, Q(-24), Q(-36), False)]

    def test_check_c1_single_piece(self):
        f = PiecewisePolynomial([(0, 2, P("t^3"))])
        assert check_c1(f) == []

    def test_check_c1_tangent_gluing(self):
        f = PiecewisePolynomial([(0, 1, P("t^2")), (1, 2, P("2*t - 1"))])
        assert check_c1(f) == [(1, 2, 2, True)]
