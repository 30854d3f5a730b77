"""Exact scalars: rationals, univariate rational functions in t, and
integer polynomials in t.

  Rational          -- an alias of fractions.Fraction (arbitrary precision)
  RationalFunction  -- a reduced quotient num/den of Polynomials over the
                       rationals, with den monic, so equality is structural
  ZPoly             -- a polynomial in t with int coefficients, the scalar
                       of the certificate check

Polynomials are immutable tuples of Fractions indexed by degree; the zero
polynomial is the empty tuple.  Rational functions are what the entries of
parameterized bases such as (1/t)*e4 - (1/t^2)*e7 parse to; the
certificate check clears their denominators once and runs over Z[t].

A small expression parser accepts the text syntax used in ledger files:
integer literals, `t`, `+ - * / ^ ( )`, e.g. `1/t^2` or `(t+1)/t`.
"""

from __future__ import annotations

from fractions import Fraction

Rational = Fraction


class DivisionByZero(ZeroDivisionError):
    """Division by the zero polynomial or zero rational function."""


class PoleAtZero(ArithmeticError):
    """Evaluation at t = 0 hit a pole (den(0) = 0 after reduction)."""


def rational_from_obj(obj) -> Fraction:
    """Coerce an int, Fraction or 'p/q' string to an exact rational."""
    if isinstance(obj, Fraction):
        return obj
    if isinstance(obj, int):
        return Fraction(obj)
    if isinstance(obj, str):
        return Fraction(obj.strip())
    raise TypeError(f"cannot interpret {obj!r} as a rational number")


def rational_to_obj(q: Fraction):
    """Render a rational as an int when possible, else a 'p/q' string."""
    if q.denominator == 1:
        return int(q)
    return f"{q.numerator}/{q.denominator}"


class Polynomial:
    """Univariate polynomial in t over the rationals.

    coeffs[i] is the coefficient of t^i; the tuple carries no trailing
    zeros, and the zero polynomial is the empty tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @staticmethod
    def const(c) -> "Polynomial":
        return Polynomial((Fraction(c),))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise DivisionByZero("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if not self.coeffs or not other.coeffs:
            return Polynomial()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    def scale(self, c) -> "Polynomial":
        c = Fraction(c)
        return Polynomial(tuple(a * c for a in self.coeffs))

    def divmod(self, other: "Polynomial"):
        """Long division; returns (quotient, remainder)."""
        if other.is_zero():
            raise DivisionByZero("polynomial division by zero")
        rem = list(self.coeffs)
        d = other.degree
        lc = other.leading()
        quo = [Fraction(0)] * max(len(rem) - d, 0)
        for i in range(len(rem) - 1, d - 1, -1):
            if rem[i] == 0:
                continue
            q = rem[i] / lc
            quo[i - d] = q
            for j, b in enumerate(other.coeffs):
                rem[i - d + j] -= q * b
        return Polynomial(quo), Polynomial(rem)

    def monic(self) -> "Polynomial":
        if self.is_zero():
            return self
        return self.scale(1 / self.leading())

    def eval(self, x) -> Fraction:
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self):
        return f"Polynomial({format_polynomial(self)!r})"


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd by the Euclidean algorithm (gcd(0, 0) = 0)."""
    while not b.is_zero():
        _, r = a.divmod(b)
        a, b = b, r
    return a.monic()


POLY_ZERO = Polynomial()
POLY_ONE = Polynomial.const(1)


class RationalFunction:
    """Reduced quotient of polynomials with monic denominator.

    The normal form (gcd cancelled, den monic) makes == structural: two
    rational functions are equal as functions iff they are equal as objects.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial = POLY_ONE):
        if den.is_zero():
            raise DivisionByZero("rational function with zero denominator")
        if num.is_zero():
            num, den = POLY_ZERO, POLY_ONE
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num, _ = num.divmod(g)
                den, _ = den.divmod(g)
            lc = den.leading()
            if lc != 1:
                num = num.scale(1 / lc)
                den = den.scale(1 / lc)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    @staticmethod
    def const(c) -> "RationalFunction":
        return RationalFunction(Polynomial.const(c))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RationalFunction.const(other)
        return (
            isinstance(other, RationalFunction)
            and self.num == other.num
            and self.den == other.den
        )

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        return self + (-other)

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RationalFunction") -> "RationalFunction":
        if other.is_zero():
            raise DivisionByZero("division by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def eval_at_zero(self) -> Fraction:
        d0 = self.den.eval(0)
        if d0 == 0:
            raise PoleAtZero(f"pole at t=0 in {format_rational_function(self)}")
        n0 = self.num.eval(0)
        return n0 / d0

    def __repr__(self):
        return f"RF({format_rational_function(self)})"


RF_ZERO = RationalFunction(POLY_ZERO)
RF_ONE = RationalFunction(POLY_ONE)
RF_T = RationalFunction(Polynomial((0, 1)))


class ZPoly:
    """Immutable polynomial in t with int coefficients (coeffs[i] of t^i,
    no trailing zeros; zero is the empty tuple and falsy).  Ints mix in on
    the right of + - * // and on the left of + *, all that the integer
    kernels of `linalg` and `algebra` need.  `//` is exact division and
    raises ArithmeticError when the quotient is not in Z[t]."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [int(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("ZPoly is immutable")

    def order(self) -> int:
        """ord_t, the least i with coeffs[i] != 0; ValueError for zero."""
        return min(i for i, c in enumerate(self.coeffs) if c)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, ZPoly) and self.coeffs == other.coeffs

    def __neg__(self):
        return _zpoly(tuple(-c for c in self.coeffs))

    def __add__(self, other):
        if not other:
            return self
        b = (other,) if isinstance(other, int) else other.coeffs
        return _zpoly(_add(self.coeffs, b))

    __radd__ = __add__

    def __sub__(self, other):
        if not other:
            return self
        b = (-other,) if isinstance(other, int) else tuple(-c for c in other.coeffs)
        return _zpoly(_add(self.coeffs, b))

    def __mul__(self, other):
        # fast paths first: elimination on [G | I] meets mostly 0, 1, ints
        a = self.coeffs
        if isinstance(other, int):
            if other == 1:
                return self
            return _zpoly(tuple(c * other for c in a)) if other and a else ZPOLY_ZERO
        b = other.coeffs
        if not a or not b:
            return ZPOLY_ZERO
        if len(b) == 1:
            return self if b[0] == 1 else _zpoly(tuple(x * b[0] for x in a))
        if len(a) == 1:
            return other if a[0] == 1 else _zpoly(tuple(a[0] * y for y in b))
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return _zpoly(tuple(out))

    __rmul__ = __mul__

    def __floordiv__(self, other):
        b = (other,) if isinstance(other, int) else other.coeffs
        if not b or b == (0,):
            raise DivisionByZero("ZPoly division by zero")
        if not self.coeffs or b == (1,):
            return self
        rem = list(self.coeffs)
        d, lc = len(b) - 1, b[-1]
        quo = [0] * max(len(rem) - d, 0)
        for i in range(len(rem) - 1, d - 1, -1):
            if rem[i]:
                q, r = divmod(rem[i], lc)
                if r:
                    raise ArithmeticError("inexact division in Z[t]")
                quo[i - d] = q
                for j in range(d):
                    rem[i - d + j] -= q * b[j]
        if any(rem[:d]):
            raise ArithmeticError("inexact division in Z[t]")
        return _zpoly(tuple(quo))

    def __repr__(self):
        return f"ZPoly({format_polynomial(Polynomial(self.coeffs))!r})"


def _add(a: tuple, b: tuple) -> tuple:
    """Coefficients of a + b, without trailing zeros."""
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _zpoly(coeffs: tuple) -> ZPoly:
    """ZPoly from a tuple of ints that has no trailing zeros."""
    p = object.__new__(ZPoly)
    object.__setattr__(p, "coeffs", coeffs)
    return p


ZPOLY_ZERO = _zpoly(())


# --- text syntax --------------------------------------------------------
#
# expr   := term (('+' | '-') term)*
# term   := factor (('*' | '/') factor)*
# factor := '-' factor | atom ('^' int)?
# atom   := int | 't' | '(' expr ')'


class ExprSyntaxError(ValueError):
    pass


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j])))
            i = j
        elif ch in "+-*/^()t":
            tokens.append((ch, ch))
            i += 1
        else:
            raise ExprSyntaxError(f"unexpected character {ch!r} in {text!r}")
    tokens.append(("end", None))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos][0]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ExprSyntaxError(f"expected {kind!r}, found {tok[0]!r}")
        return tok

    def parse(self) -> RationalFunction:
        value = self.expr()
        self.expect("end")
        return value

    def expr(self) -> RationalFunction:
        value = self.term()
        while self.peek() in "+-":
            op = self.next()[0]
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> RationalFunction:
        value = self.factor()
        while self.peek() in "*/":
            op = self.next()[0]
            rhs = self.factor()
            value = value * rhs if op == "*" else value / rhs
        return value

    def factor(self) -> RationalFunction:
        if self.peek() == "-":
            self.next()
            return -self.factor()
        value = self.atom()
        if self.peek() == "^":
            self.next()
            neg = False
            if self.peek() == "-":
                self.next()
                neg = True
            exp = self.expect("int")[1]
            if neg:
                exp = -exp
            value = _rf_int_power(value, exp)
        return value

    def atom(self) -> RationalFunction:
        kind, val = self.next()
        if kind == "int":
            return RationalFunction.const(val)
        if kind == "t":
            return RF_T
        if kind == "(":
            value = self.expr()
            self.expect(")")
            return value
        raise ExprSyntaxError(f"unexpected token {kind!r}")


def _rf_int_power(base: RationalFunction, exp: int) -> RationalFunction:
    if exp < 0:
        return _rf_int_power(RF_ONE / base, -exp)
    out = RF_ONE
    for _ in range(exp):
        out = out * base
    return out


def parse_rational_function(text: str) -> RationalFunction:
    """Parse expressions like '1/t^2' or '(t+1)/t' into normal form."""
    return _Parser(text).parse()


def format_polynomial(p: Polynomial) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for i in range(p.degree, -1, -1):
        c = p.coeffs[i]
        if c == 0:
            continue
        if i == 0:
            body = str(abs(c))
        else:
            tpow = "t" if i == 1 else f"t^{i}"
            body = tpow if abs(c) == 1 else f"{abs(c)}*{tpow}"
        sign = "-" if c < 0 else "+"
        parts.append((sign, body))
    text = parts[0][1] if parts[0][0] == "+" else "-" + parts[0][1]
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def format_rational_function(f: RationalFunction) -> str:
    if f.den == POLY_ONE:
        return format_polynomial(f.num)
    num = format_polynomial(f.num)
    den = format_polynomial(f.den)
    if " " in num or "*" in num:
        num = f"({num})"
    if " " in den or "*" in den:
        den = f"({den})"
    return f"{num}/{den}"
