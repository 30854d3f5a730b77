"""Exact scalars: rationals and integer polynomials in t.

  Fraction  -- fractions.Fraction, the one rational type
  ZPoly     -- a polynomial in t with int coefficients, the one polynomial
               type: the entries of the certificate check, packed into
               ints at t = 2^B for its linear algebra

A rational function in t is an unreduced pair (num, den) of ZPolys with
den nonzero.  The entries of parameterized bases such as
(1/t)*e4 - (1/t^2)*e7 parse to such pairs with no gcd taken.  A
monomial basis, one entry per row in distinct columns, is checked on
each entry's order ord_t num - ord_t den and lowest coefficients alone
(`degeneration._monomial_check`); for every other basis the packed
certificate check puts them over one common denominator once
(`degeneration.clear_denominators`, using `poly_gcd`) and runs its
linear algebra on the values at t = 2^B (`ZPoly.at_power_of_two`), reading
d back from its balanced digits (`ZPoly.from_balanced_digits`).  The value
of num/den at t = 0 is None (a pole) iff num != 0 and ord_t num < ord_t
den, and otherwise num[v] / den[v] with v = ord_t den, whether or not the
pair is reduced.  The package reads it in two places, both as integers
over one denominator: `packed_limit_at_zero` reads num[v] off num(2^B),
or None at a pole, for the packed certificate check, which holds the
one denominator den[v] of all its limits; the witness check reads a stored
source basis G / s at t = 0 as the rows G[v], v = ord_t s
(`degeneration.verify_nondegeneration`).

One expression parser reads all ledger text: every ledger basis row,
such as `(1/t)*e5 - (1/t^2)*e7`, a sum of `e<k>` with coefficients such
as `1/t^2` or `(t+1)/t`, is read by `_Parser.row` (`parse_basis_row`).
`parse_rational_function` parses one such coefficient alone; no run path
calls it, and it is kept for the benchmark's tracer and the tests.
Whitespace between tokens means nothing, and a run of signs multiplies
out.  A power is expanded by repeated multiplication, so it is refused,
before it is expanded, when its num or den would pass degree
`MAX_DEGREE`; the exponent of a constant is held to `MAX_DEGREE` too,
and a product, quotient or sum to 2 `MAX_DEGREE` (a quotient of two
powers at the cap).  Parentheses and unary minus signs nest at most
`MAX_NESTING` deep.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

# The largest degree in t that a parsed power may reach.  Text comes from
# outside the program (ledger, certificate and witness files), and
# `((t^64)^64)^64` would reach degree 262144 from 14 characters; the
# shipped ledger's largest exponent is 5.
MAX_DEGREE = 64

# Text may nest parentheses and unary minus signs this deep, one parser
# recursion per level (`_Parser.nested`); shipped rows nest 1 deep.
MAX_NESTING = 32


_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


class DivisionByZero(ZeroDivisionError):
    """Division by the zero polynomial or zero rational function."""


def rational_pair_from_obj(obj) -> tuple[int, int]:
    """(num, den), reduced and den > 0, of an int, Fraction or 'p/q' string
    (the one rule for JSON input).  A string is an integer or 'p/q' in
    ASCII digits, with an optional sign, else ValueError: no decimals,
    exponents or underscores, which `Fraction` would also read
    (`'1e20000000'` builds a 66-million-bit int); its one match is read
    straight into ints.  A float, a bool or anything else: TypeError; a
    zero denominator: DivisionByZero naming the text."""
    if type(obj) is int:  # most entries: one type test, no isinstance or int()
        return obj, 1
    if isinstance(obj, str):
        match = _RATIONAL.fullmatch(obj.strip())
        if not match:
            raise ValueError(f"cannot interpret {obj!r} as a rational number")
        num, den = int(match[1]), int(match[2] or 1)
        if not den:
            raise DivisionByZero(f"zero denominator in {obj!r}")
        g = gcd(num, den)
        return num // g, den // g
    if isinstance(obj, int) and not isinstance(obj, bool):  # an int subclass
        return int(obj), 1
    if isinstance(obj, Fraction):  # last: an ABC check, slow on an int
        return obj.numerator, obj.denominator
    raise TypeError(f"cannot interpret {obj!r} as a rational number")


def rational_from_obj(obj) -> Fraction:
    """The exact rational of `rational_pair_from_obj(obj)`."""
    return Fraction(*rational_pair_from_obj(obj))


def rational_to_obj(q: Fraction):
    """Render a rational as an int when possible, else a 'p/q' string."""
    if q.denominator == 1:
        return int(q)
    return f"{q.numerator}/{q.denominator}"


class ZPoly:
    """Immutable polynomial in t with int coefficients (coeffs[i] of t^i,
    no trailing zeros; zero is the empty tuple and falsy).  Ints mix in on
    the right of + - * // and on the left of + *, all that the integer
    kernels of `linalg` and `algebra` need to run over Z[t] unpacked, as
    the tests' reference for the packed certificate check does.  `//` is
    exact division and raises ArithmeticError when the quotient is not in
    Z[t]."""

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
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        raise ValueError("the zero polynomial has no order")

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, ZPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

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
        # fast paths first: parsed entries and the cofactors of
        # `degeneration.clear_denominators` are mostly 0, 1, ints
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

    def at_power_of_two(self, bits: int) -> int:
        """The value at t = 2^bits, an int (Kronecker substitution)."""
        v = 0
        for c in reversed(self.coeffs):
            v = (v << bits) + c
        return v

    @staticmethod
    def from_balanced_digits(v: int, bits: int) -> ZPoly:
        """The ZPoly p with p(2^bits) = v and every coefficient in
        [-2^(bits-1), 2^(bits-1)): the balanced base-2^bits digits of v.
        It inverts `at_power_of_two` on every p whose coefficients lie
        strictly inside +-2^(bits-1), since such a p is determined by its
        value."""
        half, mask = 1 << (bits - 1), (1 << bits) - 1
        out = []
        while v:
            c = ((v + half) & mask) - half
            out.append(c)
            v = (v - c) >> bits
        return _zpoly(tuple(out))

    def __repr__(self):
        return f"ZPoly({self.coeffs!r})"


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
ZPOLY_ONE = _zpoly((1,))


def content(coeffs) -> int:
    """gcd of the coefficients, signed like the leading one (0 for zero):
    dividing by it leaves a primitive polynomial with positive leading
    coefficient."""
    c = gcd(*coeffs)
    return -c if coeffs and coeffs[-1] < 0 else c


def _primitive(coeffs) -> tuple:
    c = content(coeffs)
    return tuple(x // c for x in coeffs) if c else ()


def poly_gcd(a: ZPoly, b: ZPoly) -> ZPoly:
    """The primitive gcd in Z[t], leading coefficient positive (gcd(0, 0) =
    0), by Euclid's algorithm on primitive parts: each remainder step is
    scaled to stay in Z[t], which changes the gcd only by a constant."""
    a, b = _primitive(a.coeffs), _primitive(b.coeffs)
    while b:
        while len(a) >= len(b):
            k, la, lb = len(a) - len(b), a[-1], b[-1]
            rem = [lb * x for x in a[:k]] + [lb * x - la * y
                                             for x, y in zip(a[k:], b)]
            while rem and not rem[-1]:
                rem.pop()
            a = _primitive(rem)
        a, b = b, a
    return _zpoly(a)


def packed_limit_at_zero(x: int, bits: int, den: ZPoly):
    """num[v], v = ord_t den, or None at a pole, read off x = num(2^bits),
    num's coefficients strictly inside +-2^(bits-1): num / den at t = 0 is
    num[v] / den[v].  x has bits ord_t(num) + (< bits - 1) trailing zero
    bits, and num[v] is the balanced residue of x >> (bits v)."""
    if not x:
        return 0
    v, order = den.order(), ((x & -x).bit_length() - 1) // bits
    if order != v:
        return None if order < v else 0
    half = 1 << (bits - 1)
    return ((x >> (bits * v)) + half) % (2 * half) - half


# --- text syntax --------------------------------------------------------
#
# row    := sign* basis (sign+ basis)*          e.g. "(1/t)*e5 - (1/t^2)*e7"
# basis  := (term '*')? e<k>                    1 <= k <= dim
# expr   := term (sign term)*
# term   := factor (('*' | '/') factor)*        stops before an operator and e<k>
# factor := '-' factor | atom ('^' '-'? int)?
# atom   := int | 't' | '(' expr ')'
# sign   := '+' | '-'
#
# Tokens are ints and e<k> (`e` directly followed by k) in ASCII digits,
# `t` and `+ - * / ^ ( )`; whitespace between tokens is skipped.  The signs
# before a basis multiply, so "e1 - - e2" and "e1--e2" are both e1 + e2.


class ExprSyntaxError(ValueError):
    pass


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*/^()t":
            tokens.append((ch, ch))
            i += 1
        else:
            start = end = i + (ch == "e")
            while end < len(text) and text[end] in "0123456789":
                end += 1
            if end == start:
                raise ExprSyntaxError(f"unexpected character {ch!r} in {text!r}")
            tokens.append(("e" if start > i else "int", int(text[start:end])))
            i = end
    tokens.append(("end", None))
    return tokens


def _bounded(what: str, *factors):
    """Refuse, unformed, a value with a product p q past 2 MAX_DEGREE."""
    degree = max(len(p.coeffs) + len(q.coeffs) - 2 for p, q in factors)
    if degree > 2 * MAX_DEGREE:
        raise ExprSyntaxError(f"{what} of degree {degree} exceeds "
                              f"2 * MAX_DEGREE = {2 * MAX_DEGREE}")


def add_pairs(x, y):
    """x + y for (num, den) pairs, kept over den when the denominators agree."""
    (a, b), (c, d) = x, y
    if not a:
        return y
    if not c:
        return x
    if b == d:
        return a + c, b
    _bounded("sum", (a, d), (c, b), (b, d))
    return a * d + c * b, b * d


def _mul(x, y, what="product"):
    _bounded(what, (x[0], y[0]), (x[1], y[1]))
    return x[0] * y[0], x[1] * y[1]


def _div(x, y):
    if not y[0]:
        raise DivisionByZero("division by the zero rational function")
    return _mul(x, y[::-1], "quotient")


_T = (_zpoly((0, 1)), ZPOLY_ONE)
_ONE = (ZPOLY_ONE, ZPOLY_ONE)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

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

    def nested(self, parse):
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ExprSyntaxError(f"nesting deeper than MAX_NESTING = {MAX_NESTING}")
        value = parse()
        self.depth -= 1
        return value

    def parse(self):
        value = self.expr()
        self.expect("end")
        return value

    def expr(self):
        value = self.term()
        while self.peek() in "+-":
            op = self.next()[0]
            num, den = self.term()
            value = add_pairs(value, (num if op == "+" else -num, den))
        return value

    def row(self, dim: int):
        out = [(ZPOLY_ZERO, ZPOLY_ONE)] * dim
        if self.peek() == "end":
            raise ExprSyntaxError(f"empty basis row: {self.text!r}")
        while self.peek() != "end":
            sign = 1
            while self.peek() in "+-":
                sign *= -1 if self.next()[0] == "-" else 1
            if self.peek() == "end":
                raise ExprSyntaxError(
                    f"dangling sign at the end of basis row {self.text!r}")
            num, den = _ONE
            if self.peek() != "e":
                num, den = self.term()
                self.expect("*")
            k = self.expect("e")[1]
            if not 1 <= k <= dim:
                raise ExprSyntaxError(f"basis index e{k} outside dimension {dim}")
            out[k - 1] = add_pairs(out[k - 1], (num if sign > 0 else -num, den))
            if self.peek() not in ("+", "-", "end"):
                raise ExprSyntaxError(f"expected a sign, found {self.peek()!r}")
        return out

    def term(self):
        value = self.factor()
        while self.peek() in "*/" and self.tokens[self.pos + 1][0] != "e":
            op = self.next()[0]
            rhs = self.factor()
            value = _mul(value, rhs) if op == "*" else _div(value, rhs)
        return value

    def factor(self):
        if self.peek() == "-":
            self.next()
            num, den = self.nested(self.factor)
            return -num, den
        value = self.atom()
        if self.peek() == "^":
            self.next()
            neg = False
            if self.peek() == "-":
                self.next()
                neg = True
            exp = self.expect("int")[1]
            degree = max(len(value[0].coeffs), len(value[1].coeffs)) - 1
            if exp * max(degree, 1) > MAX_DEGREE:
                raise ExprSyntaxError(
                    f"power ^{'-' * neg}{exp} in {self.text!r} exceeds "
                    f"MAX_DEGREE = {MAX_DEGREE}")
            if neg and exp:
                value = _div(_ONE, value)
            out = _ONE
            for _ in range(exp):
                out = _mul(out, value)
            value = out
        return value

    def atom(self):
        kind, val = self.next()
        if kind == "int":
            return ZPoly((val,)), ZPOLY_ONE
        if kind == "t":
            return _T
        if kind == "(":
            value = self.nested(self.expr)
            self.expect(")")
            return value
        raise ExprSyntaxError(f"unexpected token {kind!r}")


def parse_rational_function(text: str):
    """Parse expressions like '1/t^2' or '(t+1)/t' into an unreduced pair
    (num, den) of ZPolys, den nonzero."""
    return _Parser(text).parse()


def parse_basis_row(text: str, dim: int):
    """One basis row such as '(1/t)*e5 - (1/t^2)*e7' as its dim
    coordinates in e1, ..., e<dim>, unreduced (num, den) pairs of ZPolys.
    A row ending in a sign is refused: it is a truncated row, not a
    shorter one."""
    if not isinstance(text, str):
        raise ValueError(f"basis row {text!r} is not a string")
    return _Parser(text).row(dim)
