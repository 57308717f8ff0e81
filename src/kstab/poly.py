"""Exact polynomials in one or two variables and piecewise functions.

A :class:`Polynomial` is a sparse map from exponent tuples to nonzero
rational coefficients, together with an ordered tuple of variable names
(at most two).  All arithmetic is exact; nothing here touches floats.

A :class:`PiecewisePolynomial` is an ordered list of closed intervals with
rational endpoints carrying univariate polynomials.  Construction rejects
gaps, overlaps and value discontinuities at shared endpoints: the volume
functions this type exists for are continuous, so discontinuous data always
signals an upstream bug.

Canonical strings look like ``22 - 6*t^2 - 4*t^3`` (terms by increasing
degree) and round-trip through :func:`parse_polynomial`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import DomainError, IrrationalWall
from .rationals import Q, format_rational, sqrt_rational, to_q
from .records import Record

Exponent = tuple[int, ...]


class Polynomial:
    """Sparse exact polynomial in at most two named variables."""

    __slots__ = ("vars", "_coeffs")

    def __init__(self, variables: Sequence[str], coeffs: Mapping[Exponent, Fraction] | None = None):
        variables = tuple(variables)
        if len(variables) > 2:
            raise ValueError("polynomials carry at most two variables")
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable names")
        self.vars = variables
        clean: dict[Exponent, Fraction] = {}
        for exp, c in (coeffs or {}).items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != len(variables):
                raise ValueError(f"exponent {exp} does not match variables {variables}")
            if any(e < 0 for e in exp):
                raise ValueError("negative exponent")
            c = to_q(c)
            if c != 0:
                clean[exp] = clean.get(exp, Q(0)) + c
        self._coeffs = {e: c for e, c in clean.items() if c != 0}

    # -- constructors ------------------------------------------------------

    @classmethod
    def _make(cls, variables: tuple[str, ...], coeffs: dict) -> "Polynomial":
        # trusted fast path for internal arithmetic: exponents and
        # coefficients are already canonical except possible zeros
        self = object.__new__(cls)
        self.vars = variables
        self._coeffs = {e: c for e, c in coeffs.items() if c != 0}
        return self

    @staticmethod
    def constant(value, variables: Sequence[str] = ()) -> "Polynomial":
        value = to_q(value)
        zero = (0,) * len(tuple(variables))
        return Polynomial(variables, {zero: value} if value else {})

    @staticmethod
    def var(name: str, variables: Sequence[str] | None = None) -> "Polynomial":
        variables = tuple(variables) if variables is not None else (name,)
        exp = tuple(1 if v == name else 0 for v in variables)
        if sum(exp) != 1:
            raise ValueError(f"{name!r} is not among {variables}")
        return Polynomial(variables, {exp: Q(1)})

    # -- structure ---------------------------------------------------------

    @property
    def coeffs(self) -> dict[Exponent, Fraction]:
        return dict(self._coeffs)

    def is_zero(self) -> bool:
        return not self._coeffs

    def degree(self) -> int:
        """Total degree; the zero polynomial has -1."""
        if not self._coeffs:
            return -1
        return max(sum(e) for e in self._coeffs)

    def coefficient(self, exp: Exponent) -> Fraction:
        return self._coeffs.get(tuple(exp), Q(0))

    def in_vars(self, variables: Sequence[str]) -> "Polynomial":
        """Reinterpret over a superset/reordering of the variables."""
        variables = tuple(variables)
        if variables == self.vars:
            return self
        pos = []
        for v in self.vars:
            if v not in variables:
                raise ValueError(f"variable {v!r} missing from {variables}")
            pos.append(variables.index(v))
        out: dict[Exponent, Fraction] = {}
        for exp, c in self._coeffs.items():
            new = [0] * len(variables)
            for p, e in zip(pos, exp):
                new[p] = e
            out[tuple(new)] = c
        return Polynomial._make(variables, out)

    def _merged_vars(self, other: "Polynomial") -> tuple[str, ...]:
        merged = list(self.vars)
        for v in other.vars:
            if v not in merged:
                merged.append(v)
        if len(merged) > 2:
            raise ValueError("too many variables after merge")
        return tuple(merged)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "Polynomial":
        other = _coerce(other, self.vars)
        variables = self._merged_vars(other)
        a, b = self.in_vars(variables), other.in_vars(variables)
        out = dict(a._coeffs)
        for exp, c in b._coeffs.items():
            out[exp] = out.get(exp, Q(0)) + c
        return Polynomial._make(variables, out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._make(self.vars, {e: -c for e, c in self._coeffs.items()})

    def __sub__(self, other) -> "Polynomial":
        return self + (-_coerce(other, self.vars))

    def __rsub__(self, other) -> "Polynomial":
        return _coerce(other, self.vars) - self

    def __mul__(self, other) -> "Polynomial":
        other = _coerce(other, self.vars)
        variables = self._merged_vars(other)
        a, b = self.in_vars(variables), other.in_vars(variables)
        out: dict[Exponent, Fraction] = {}
        for e1, c1 in a._coeffs.items():
            for e2, c2 in b._coeffs.items():
                exp = tuple(x + y for x, y in zip(e1, e2))
                out[exp] = out.get(exp, Q(0)) + c1 * c2
        return Polynomial._make(variables, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power")
        result = Polynomial.constant(1, self.vars)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Polynomial, int, Fraction)):
            return NotImplemented
        other = _coerce(other, self.vars)
        try:
            variables = self._merged_vars(other)
        except ValueError:
            return False
        return self.in_vars(variables)._coeffs == other.in_vars(variables)._coeffs

    def __hash__(self):
        return hash((self.vars, frozenset(self._coeffs.items())))

    # -- evaluation and calculus -------------------------------------------

    def __call__(self, *args, **kwargs) -> Fraction:
        if args and not kwargs:
            if len(args) != len(self.vars):
                raise ValueError("wrong number of arguments")
            kwargs = dict(zip(self.vars, args))
        values = [to_q(kwargs[v]) for v in self.vars]
        total = Q(0)
        for exp, c in self._coeffs.items():
            term = c
            for x, e in zip(values, exp):
                term *= x**e
            total += term
        return total

    def derivative(self, variable: str) -> "Polynomial":
        i = self.vars.index(variable)
        out: dict[Exponent, Fraction] = {}
        for exp, c in self._coeffs.items():
            if exp[i] == 0:
                continue
            new = list(exp)
            new[i] -= 1
            out[tuple(new)] = c * exp[i]
        return Polynomial._make(self.vars, out)

    def antiderivative(self, variable: str) -> "Polynomial":
        i = self.vars.index(variable)
        out: dict[Exponent, Fraction] = {}
        for exp, c in self._coeffs.items():
            new = list(exp)
            new[i] += 1
            out[tuple(new)] = c / new[i]
        return Polynomial._make(self.vars, out)

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"Polynomial({format_polynomial(self)!r})"


def _coerce(value, variables: Sequence[str]) -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    return Polynomial.constant(to_q(value), variables)


def format_polynomial(p: Polynomial) -> str:
    """Canonical string, terms ordered by increasing (total degree, exponents)."""
    if p.is_zero():
        return "0"
    items = sorted(p.coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0]))
    parts: list[str] = []
    for exp, c in items:
        factors = [
            f"{v}^{e}" if e > 1 else v
            for v, e in zip(p.vars, exp)
            if e > 0
        ]
        mag = abs(c)
        if not factors:
            body = format_rational(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([format_rational(mag)] + factors)
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


# -- parsing ---------------------------------------------------------------


class _Tokens:
    def __init__(self, text: str):
        self.toks: list[str] = []
        i = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
            elif ch in "+-*/^()":
                self.toks.append(ch)
                i += 1
            elif ch.isdigit():
                j = i
                while j < len(text) and text[j].isdigit():
                    j += 1
                self.toks.append(text[i:j])
                i = j
            elif ch.isalpha() or ch == "_":
                j = i
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.toks.append(text[i:j])
                i = j
            else:
                raise ValueError(f"unexpected character {ch!r} in polynomial")
        self.pos = 0

    def peek(self) -> str | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of expression")
        self.pos += 1
        return tok


# The largest total degree, and exponent, that parse_polynomial builds.  The
# engine's families and forms have degree at most 5; the cap stops an input
# such as (c+1)^3200 before it is expanded.  A power is also capped by the
# bits of its coefficients, so that nested powers of constants such as
# ((((2^64)^64)^64)^64)^64 stay small too.
MAX_PARSED_DEGREE = 64
MAX_PARSED_BITS = 4096


def _bits(p: Polynomial) -> int:
    """Bit length of the largest numerator or denominator of p's coefficients."""
    return max((max(abs(c.numerator), c.denominator).bit_length() for c in p._coeffs.values()), default=0)


def parse_polynomial(text: str, variables: Sequence[str] | None = None) -> Polynomial:
    """Parse +, -, *, /, ^, parentheses, integers and variable names.

    Adjacent factors such as ``2t`` are not supported; multiplication is
    explicit except for a leading sign.  Division is only allowed by integer
    literals (exact rational coefficients).  An exponent above
    MAX_PARSED_DEGREE, a product or power whose total degree would pass it,
    and a power whose coefficients would pass MAX_PARSED_BITS raise
    ValueError before anything is expanded, as do nesting too deep for the
    recursive descent and any other malformed input.
    """
    toks = _Tokens(text)
    known = tuple(variables) if variables is not None else None

    def vars_of(name: str) -> tuple[str, ...]:
        if known is not None:
            if name not in known:
                raise ValueError(f"unknown variable {name!r}")
            return known
        return (name,)

    def parse_expr() -> Polynomial:
        node = parse_term()
        while toks.peek() in ("+", "-"):
            op = toks.next()
            rhs = parse_term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def parse_term() -> Polynomial:
        node = parse_factor()
        while toks.peek() in ("*", "/"):
            op = toks.next()
            rhs = parse_factor()
            if op == "*":
                if node.degree() + rhs.degree() > MAX_PARSED_DEGREE:
                    raise ValueError(f"product of degree above {MAX_PARSED_DEGREE}")
                node = node * rhs
            else:
                if rhs.degree() > 0:
                    raise ValueError("division by a non-constant")
                c = rhs.coefficient((0,) * len(rhs.vars))
                if c == 0:
                    raise ZeroDivisionError("division by zero in polynomial")
                node = node * (Q(1) / c)
        return node

    def parse_factor() -> Polynomial:
        node = parse_atom()
        exponent = 1  # (a^b)^c = a^(b*c), checked as a whole before expanding
        while toks.peek() == "^":
            toks.next()
            exp_tok = toks.next()
            if not exp_tok.isdigit():
                raise ValueError("exponent must be a nonnegative integer")
            exponent *= int(exp_tok)
            if exponent > MAX_PARSED_DEGREE or node.degree() * exponent > MAX_PARSED_DEGREE:
                raise ValueError(f"power of degree or exponent above {MAX_PARSED_DEGREE}")
            if _bits(node) * exponent > MAX_PARSED_BITS:
                raise ValueError(f"power with coefficients above {MAX_PARSED_BITS} bits")
        return node if exponent == 1 else node**exponent

    def parse_atom() -> Polynomial:
        tok = toks.next()
        if tok == "(":
            node = parse_expr()
            if toks.next() != ")":
                raise ValueError("unbalanced parentheses")
            return node
        if tok == "-":
            return -parse_factor()
        if tok == "+":
            return parse_factor()
        if tok.isdigit():
            return Polynomial.constant(Q(int(tok)), known or ())
        if tok.isidentifier():
            return Polynomial.var(tok, vars_of(tok))
        raise ValueError(f"expected a number, a variable or '(' but found {tok!r}")

    try:
        result = parse_expr()
    except RecursionError:
        raise ValueError("expression nested too deeply") from None
    if toks.peek() is not None:
        raise ValueError(f"trailing tokens near {toks.peek()!r}")
    if known is not None:
        return result.in_vars(known)
    return result


# -- roots -----------------------------------------------------------------


def rational_roots_in_interval(p: Polynomial, lo, hi) -> list[Fraction]:
    """All rational roots of a univariate polynomial of degree <= 2 in [lo, hi].

    Raises :class:`IrrationalWall` when a real root inside the interval is
    irrational: a chamber wall without a rational representation breaks the
    exactness contract, so it must not be silently dropped or approximated.
    """
    if len(p.vars) != 1:
        raise ValueError("roots need a univariate polynomial")
    if p.is_zero():
        raise ValueError("zero polynomial has no well-defined root set")
    lo, hi = to_q(lo), to_q(hi)
    if lo > hi:
        raise ValueError("empty interval")
    deg = p.degree()
    if deg > 2:
        raise ValueError("degree must be at most 2")
    c0 = p.coefficient((0,))
    c1 = p.coefficient((1,))
    c2 = p.coefficient((2,))
    if deg == 0:
        return []
    if deg == 1:
        root = -c0 / c1
        return [root] if lo <= root <= hi else []
    disc = c1 * c1 - 4 * c2 * c0
    if disc < 0:
        return []
    if disc == 0:
        root = -c1 / (2 * c2)
        return [root] if lo <= root <= hi else []
    sq = sqrt_rational(disc)
    if sq is not None:
        roots = sorted(((-c1 - sq) / (2 * c2), (-c1 + sq) / (2 * c2)))
        return [r for r in roots if lo <= r <= hi]
    # Irrational pair: decide exactly whether either root meets [lo, hi].
    # Normalize to a positive leading coefficient; roots never equal the
    # rational endpoints, so open/closed does not matter.
    q = p if c2 > 0 else -p
    vertex = -c1 / (2 * c2)
    at_lo, at_hi = q(lo), q(hi)
    inside = (at_lo * at_hi < 0) or (at_lo > 0 and at_hi > 0 and lo < vertex < hi)
    if inside:
        raise IrrationalWall(f"irrational root of {p} in [{lo}, {hi}]")
    return []


# -- piecewise functions -----------------------------------------------------


class Piece(Record):
    lo: Fraction
    hi: Fraction
    poly: Polynomial
    label: str | None = None


class PiecewisePolynomial:
    """Continuous piecewise polynomial on a closed rational interval."""

    def __init__(self, pieces: Iterable[tuple], variable: str | None = None):
        built: list[Piece] = []
        for lo, hi, poly, *rest in pieces:
            piece = Piece(to_q(lo), to_q(hi), poly, rest[0] if rest else None)
            if len(piece.poly.vars) > 1:
                raise ValueError("pieces must be univariate")
            if piece.lo > piece.hi:
                raise ValueError(f"inverted interval [{piece.lo}, {piece.hi}]")
            if piece.lo == piece.hi:  # a zero-length chamber carries nothing
                continue
            built.append(piece)
        if not built:
            raise ValueError("piecewise polynomial needs at least one piece")
        built.sort(key=lambda p: p.lo)
        names = {p.poly.vars[0] for p in built if p.poly.vars}
        if len(names) > 1:
            raise ValueError(f"pieces disagree on the variable name: {sorted(names)}")
        var = variable or (names.pop() if names else "t")
        built = [
            Piece(p.lo, p.hi, p.poly if p.poly.vars else p.poly.in_vars((var,)), p.label)
            for p in built
        ]
        for left, right in zip(built, built[1:]):
            if left.hi != right.lo:
                raise ValueError(f"pieces do not abut at {left.hi} vs {right.lo}")
            if left.poly(left.hi) != right.poly(right.lo):
                raise ValueError(
                    f"discontinuity at {left.hi}: "
                    f"{left.poly(left.hi)} != {right.poly(right.lo)}"
                )
        self.variable = var
        self.pieces: tuple[Piece, ...] = tuple(built)

    @property
    def lo(self) -> Fraction:
        return self.pieces[0].lo

    @property
    def hi(self) -> Fraction:
        return self.pieces[-1].hi

    def __call__(self, x) -> Fraction:
        x = to_q(x)
        if not self.lo <= x <= self.hi:
            raise DomainError(f"{x} outside [{self.lo}, {self.hi}]")
        for piece in self.pieces:
            if x <= piece.hi:
                return piece.poly(x)
        return self.pieces[-1].poly(x)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PiecewisePolynomial):
            return NotImplemented
        return [(p.lo, p.hi, p.poly) for p in self.pieces] == [
            (p.lo, p.hi, p.poly) for p in other.pieces
        ]

    def __str__(self) -> str:
        parts = [f"[{format_rational(p.lo)}, {format_rational(p.hi)}]: {p.poly}" for p in self.pieces]
        return "; ".join(parts)


def integrate_piecewise(f: PiecewisePolynomial, a, b) -> Fraction:
    """Exact value of the integral of f over [a, b] inside its domain."""
    a, b = to_q(a), to_q(b)
    if a > b:
        raise DomainError("integration bounds are inverted")
    if a < f.lo or b > f.hi:
        raise DomainError(f"[{a}, {b}] exceeds the domain [{f.lo}, {f.hi}]")
    total = Q(0)
    for piece in f.pieces:
        lo = max(a, piece.lo)
        hi = min(b, piece.hi)
        if lo >= hi:
            continue
        anti = piece.poly.antiderivative(f.variable)
        total += anti(hi) - anti(lo)
    return total


def check_c1(f: PiecewisePolynomial) -> list[tuple[Fraction, Fraction, Fraction, bool]]:
    """Left/right derivative comparison at every interior breakpoint.

    Returns (breakpoint, left derivative, right derivative, equal) tuples.
    """
    out = []
    for left, right in zip(f.pieces, f.pieces[1:]):
        x = left.hi
        dl = left.poly.derivative(f.variable)(x)
        dr = right.poly.derivative(f.variable)(x)
        out.append((x, dl, dr, dl == dr))
    return out
