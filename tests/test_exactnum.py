import random
import re
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Poly, Symbol

from degenlab.exactnum import (
    MAX_DEGREE,
    MAX_NESTING,
    DivisionByZero,
    ExprSyntaxError,
    ZPoly,
    content,
    packed_limit_at_zero,
    parse_basis_row,
    parse_rational_function as parse,
    poly_gcd,
    rational_from_obj,
    rational_pair_from_obj,
)

from oracles import qt_basis_row, qt_eval, qt_parse, qt_value, sympy_expr
from oracles import limit_at_zero, rational_from_obj_oracle

# Coefficient texts parse to unreduced pairs (num, den) of ZPolys, the
# input of the Z[t] certificate check; sympy's Q(t) is the reference for
# their values.


def value(text):
    return qt_value(*parse(text))


def test_inverse_pair_multiplies_to_one():
    assert parse("t * (1/t)") == (ZPoly((0, 1)), ZPoly((0, 1)))
    assert value("t*(1/t)") == qt_parse("1")


def test_common_denominator_subtraction():
    assert value("1/t - 1/t^2") == qt_parse("(t-1)/t^2")
    # equal denominators are kept, not multiplied
    assert parse("1/t - 2/t") == (ZPoly((-1,)), ZPoly((0, 1)))


def test_long_division_checked_by_remultiplication():
    assert value("(t^2+t)/t") == qt_parse("t+1")
    assert value("((t^2+t)/t)*t") == qt_parse("t^2+t")


def test_division_by_zero_function():
    for text in ("1/0", "1/(t-t)", "0^-1", "t/(0*t)", "(t-t)^-2", "1/(1/t-1/t)"):
        with pytest.raises(DivisionByZero,
                           match="division by the zero rational function"):
            parse(text)
    assert parse("0^-0") == parse("1")


def test_syntax_errors_are_refused():
    for text in ("t t", "2*", "(t", "t^t", "x", "", "t^2^3"):
        with pytest.raises(ExprSyntaxError):
            parse(text)


def test_a_power_past_max_degree_is_refused_before_it_is_expanded():
    # degree MAX_DEGREE itself parses, in num or den and after a power
    # of a power; one more is refused with the text, whatever its sign
    assert MAX_DEGREE == 64
    assert parse("t^64") == (ZPoly((0,) * 64 + (1,)), ZPoly((1,)))
    assert parse("(t^2+1)^32")[0].coeffs[-1] == 1
    assert parse("((t^4)^4)^4/(t+1)^-64")[0].coeffs[-1] == 1
    assert parse("(1/t^3)^-21") == (ZPoly((0,) * 63 + (1,)), ZPoly((1,)))
    assert parse("2^64") == (ZPoly((2 ** 64,)), ZPoly((1,)))
    for text, power in (("t^65", "^65"), ("(t^2+1)^33", "^33"),
                        ("1/t^-100000", "^-100000"),
                        ("((t^64)^64)^64", "^64"), ("(t/(t+1))^-65", "^-65"),
                        ("9^65", "^65"), ("0^100000", "^100000")):
        with pytest.raises(ExprSyntaxError) as info:
            parse(text)
        assert str(info.value) == (
            f"power {power} in {text!r} exceeds MAX_DEGREE = 64")


def test_a_product_quotient_or_sum_past_twice_max_degree_is_refused():
    # a power stops at MAX_DEGREE, and a value made of several stops at
    # 2 MAX_DEGREE, the degree of a quotient of two powers at the cap:
    # one more is refused before the value is formed
    assert parse("t^32*t^32")[0] == ZPoly((0,) * 64 + (1,))
    assert parse("t^64*t^64")[0] == ZPoly((0,) * 128 + (1,))
    assert parse("t^40/(t^64*t^24+1)")[1].coeffs[-1] == 1
    assert parse("1/(t^64+2) + 1/(t^64+1)")[1].coeffs[-1] == 1
    for text, message in (("t^64*t^64*t", "product of degree 129"),
                          ("(1/t^64)/(t^64*t)", "quotient of degree 129"),
                          ("(t^64*t^64)/(1/t)", "quotient of degree 129"),
                          ("1/(t^64*t) + 1/(t^64+1)", "sum of degree 129")):
        with pytest.raises(ExprSyntaxError) as info:
            parse(text)
        assert str(info.value) == f"{message} exceeds 2 * MAX_DEGREE = 128"


@pytest.mark.parametrize("factors", [160, 320])
def test_a_long_product_of_powers_is_refused_in_under_a_second(factors):
    text = "(" + "*".join(["t^64"] * factors) + ")"
    start = time.perf_counter()
    with pytest.raises(ExprSyntaxError) as info:
        parse(text)
    assert time.perf_counter() - start < 1.0
    assert str(info.value) == "product of degree 192 exceeds 2 * MAX_DEGREE = 128"


def test_nesting_past_max_nesting_is_refused_before_the_stack_runs_out():
    # parentheses and unary minus signs each count one level, together;
    # MAX_NESTING levels parse, and one more is a syntax error however
    # deep the text goes, where the parser's recursion would once exhaust
    # the stack (RecursionError)
    assert MAX_NESTING == 32
    assert parse("(" * 32 + "t" + ")" * 32) == parse("t")
    assert parse("-" * 32 + "t") == parse("t")
    assert parse("(-" * 16 + "t" + ")" * 16) == parse("t")
    for text in ("(" * 33 + "t" + ")" * 33, "-" * 33 + "t",
                 "(-" * 16 + "-t" + ")" * 16, "(" * 300 + "t" + ")" * 300,
                 "(" + "-" * 5000 + "1)", "2*" + "(" * 400 + "t"):
        with pytest.raises(ExprSyntaxError) as info:
            parse(text)
        assert str(info.value) == "nesting deeper than MAX_NESTING = 32"


def test_eval_at_zero_cases():
    assert limit_at_zero(*parse("t^2")) == 0
    assert limit_at_zero(*parse("(t+3)/(t+1)")) == 3
    assert limit_at_zero(*parse("(2*t+6)/(4*t-2)")) == -3
    assert limit_at_zero(*parse("0/t")) == 0
    assert limit_at_zero(*parse("1/t")) is None


def test_pole_detection_happens_after_reduction():
    # t/t is 1, with no pole, though the pair keeps the common factor t
    assert parse("t/t") == (ZPoly((0, 1)), ZPoly((0, 1)))
    assert limit_at_zero(*parse("t/t")) == 1
    assert limit_at_zero(*parse("(t^2+t)/t")) == 1
    assert limit_at_zero(*parse("t^2/t^3")) is None


def test_parser_round_trip_on_formatting():
    # sympy's printing of the value parses back to the value; sympy writes
    # t**(-2), the ledger syntax t^-2
    for text in ("1/t^2", "(t+1)/t", "t^3 - 2", "(t-1)/t^2", "-t",
                 "(2*t+2)/(4*t)", "1/t^2 - 3/2"):
        printed = re.sub(r"\*\*\((-\d+)\)", r"^\1", str(sympy_expr(text)))
        printed = printed.replace("**", "^")
        assert value(printed) == qt_parse(text), printed


def _random_expr(rng, depth):
    """Random text over the coefficient syntax: nesting, unary minus and
    powers with negative exponents."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(["t", "t", str(rng.randint(0, 4))])
    kind = rng.choice("+-*/^n(")
    if kind == "n":
        return "-" + _random_expr(rng, depth - 1)
    if kind == "(":
        return f"({_random_expr(rng, depth - 1)})"
    if kind == "^":
        base = rng.choice(["t", str(rng.randint(0, 3)),
                           f"({_random_expr(rng, depth - 1)})"])
        return f"{base}^{rng.choice(['', '-'])}{rng.randint(1, 3)}"
    return _random_expr(rng, depth - 1) + kind + _random_expr(rng, depth - 1)


def test_parse_matches_sympy_on_random_expressions():
    rng = random.Random(8)
    raised = 0
    for _ in range(400):
        text = _random_expr(rng, 4)
        try:
            want = qt_eval(text)
        except ZeroDivisionError:
            raised += 1
            with pytest.raises(DivisionByZero):
                parse(text)
            continue
        num, den = parse(text)
        assert den, text
        assert qt_value(num, den) == want, text
    assert 5 <= raised <= 200


def _text(num, den):
    poly = "+".join(f"({c})*t^{i}" for i, c in enumerate(num)) or "0"
    return f"({poly})/({'+'.join(f'({c})*t^{i}' for i, c in enumerate(den))})"


small_polys = st.lists(st.integers(-4, 4), min_size=1, max_size=3)
dens = small_polys.filter(any)


@settings(max_examples=60, deadline=None)
@given(small_polys, dens, small_polys, dens)
def test_sub_is_zero_iff_equal(a, b, c, d):
    x, y = _text(a, b), _text(c, d)
    num, _ = parse(f"{x} - {y}")
    assert (not num) == (qt_parse(x) == qt_parse(y))


@settings(max_examples=60, deadline=None)
@given(small_polys, dens, small_polys, dens, st.sampled_from("+-*"))
def test_eval_commutes_with_arithmetic_when_regular(a, b, c, d, op):
    x, y = _text(a, b), _text(c, d)
    lx, ly = limit_at_zero(*parse(x)), limit_at_zero(*parse(y))
    got = limit_at_zero(*parse(f"{x} {op} {y}"))
    if lx is None or ly is None:
        return
    assert got == {"+": lx + ly, "-": lx - ly, "*": lx * ly}[op]


# --- basis rows: the same tokens and parser -------------------------------

# coefficients as token lists, so that whitespace can go between any two
COEFFS = [re.findall(r"\d+|[-+*/^()t]", text) for text in (
    "2", "t", "1/t", "(1/t^2)", "t^3", "(t+1)/t", "3*t^-1", "(1-t)*t", "-2",
    "(2*t-1)/(t^2+1)", "2*-t")]
DIM = 5


@st.composite
def basis_rows(draw):
    """row := sign* basis (sign+ basis)*, basis := (term '*')? e<k>, as a
    token list; runs of signs lead the row and join its bases."""
    signs = st.lists(st.sampled_from("+-"), max_size=3)
    tokens = []
    for first in [True] + [False] * draw(st.integers(0, 3)):
        tokens += draw(signs if first else signs.filter(bool))
        coeff = draw(st.none() | st.sampled_from(COEFFS))
        if coeff is not None:
            tokens += coeff + ["*"]
        tokens.append(f"e{draw(st.integers(1, DIM))}")
    return tokens


@settings(max_examples=200, deadline=None)
@given(basis_rows(), st.data())
def test_parse_basis_row_matches_sympy_on_rows_of_the_grammar(tokens, data):
    # whitespace between tokens means nothing, and signs multiply
    gaps = data.draw(st.lists(st.sampled_from(["", " ", "  ", "\t"]),
                              min_size=len(tokens) + 1,
                              max_size=len(tokens) + 1))
    text = "".join(gap + token for gap, token in zip(gaps, tokens + [""]))
    got = [qt_value(*x) for x in parse_basis_row(text, DIM)]
    assert got == qt_basis_row(text, DIM), text


def test_a_run_of_signs_multiplies_whatever_the_spacing():
    want = parse_basis_row("e1 + e2", 3)
    assert parse_basis_row("e1 - - e2", 3) == parse_basis_row("e1--e2", 3) == want
    assert parse_basis_row("e1 --e2", 3) == parse_basis_row("-+-e1+e2", 3) == want
    assert [qt_value(*x) for x in want] == qt_basis_row("e1--e2", 3)


@pytest.mark.parametrize("text, message", [
    ("e1 e2", "expected a sign, found 'e'"),
    ("2e1", "expected '*', found 'e'"),
    ("e1*t", "expected a sign, found '*'"),
    ("1 2*e1", "expected '*', found 'int'"),
    ("e 1", "unexpected character 'e' in 'e 1'"),
    ("t*-e1", "unexpected token 'e'"),
    ("", "empty basis row: ''"),
])
def test_parse_basis_row_refuses_text_outside_the_grammar(text, message):
    with pytest.raises(ExprSyntaxError) as info:
        parse_basis_row(text, 3)
    assert str(info.value) == message


def test_only_ascii_digits_are_read_as_numbers():
    # str.isdigit holds for Arabic-Indic and superscript digits too
    for text in ("e\u0661", "\u00b2*e1"):
        with pytest.raises(ExprSyntaxError, match="unexpected character"):
            parse_basis_row(text, 3)
    with pytest.raises(ExprSyntaxError, match="unexpected character"):
        parse("\u0663/t")


def test_a_rational_string_is_an_integer_or_p_over_q():
    assert rational_from_obj(" -3/4 ") == rational_from_obj("-3/4")
    assert rational_from_obj("+7") == 7
    for text in ("1e20000000", "1.5", "1_000", "1 / 2", "\u0663", "0x10", ""):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="cannot interpret"):
            rational_from_obj(text)
        assert time.perf_counter() - start < 1.0


def _pair_as_fraction(obj):
    """`rational_pair_from_obj` as a Fraction, after checking that its pair
    is reduced with a positive denominator."""
    num, den = rational_pair_from_obj(obj)
    assert type(num) is type(den) is int and den > 0 and gcd(num, den) == 1
    return Fraction(num, den)


def _outcome(read, obj):
    """What one rational reader makes of obj: its value and type, or its
    exception's type and text."""
    try:
        value = read(obj)
    except Exception as exc:
        return type(exc), str(exc)
    return type(value), value


_SPACE = st.text(alphabet=" \t\n\r\x0b\x0c\u00a0\u2003", max_size=2)


@settings(max_examples=300, deadline=None)
@given(st.tuples(_SPACE, st.from_regex(r"[+-]?[0-9]+(/[0-9]+)?", fullmatch=True),
                 _SPACE).map("".join))
def test_a_rational_string_reads_as_it_did_before_the_one_match_reader(text):
    # one regex with groups and Fraction(int(num), int(den)) give the value
    # (or the DivisionByZero of a zero denominator) of the two-regex reader
    assert _outcome(rational_from_obj, text) == _outcome(rational_from_obj_oracle, text)
    assert _outcome(_pair_as_fraction, text) == _outcome(rational_from_obj_oracle, text)


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=8))
def test_any_text_is_read_or_refused_as_before(text):
    assert _outcome(rational_from_obj, text) == _outcome(rational_from_obj_oracle, text)
    assert _outcome(_pair_as_fraction, text) == _outcome(rational_from_obj_oracle, text)


@pytest.mark.parametrize("obj", [
    "1e5", "1_0", "1.5", "\u0663", "1/", "/2", "+-1", " ", "3/0", "-3/00 ",
    "1" * 5000, "-" + "1" * 5000, "1/" + "2" * 5000, True, 1.5, None,
])
def test_a_refused_rational_raises_as_before(obj):
    # the same exception type and text: ValueError for a malformed string
    # or an int past the interpreter's digit limit, DivisionByZero naming
    # the text, TypeError for a bool, a float or None
    got = _outcome(rational_from_obj, obj)
    assert issubclass(got[0], Exception)
    assert got == _outcome(rational_from_obj_oracle, obj)
    assert got == _outcome(rational_pair_from_obj, obj)
    if obj in ("3/0", "-3/00 "):
        assert got == (DivisionByZero, f"zero denominator in {obj!r}")


class _Count(int):
    """An int subclass other than bool, read as the int it holds."""


@pytest.mark.parametrize("obj", [
    0, -7, 10**40, _Count(5), _Count(-12), Fraction(-6, 4), Fraction(3),
])
def test_an_accepted_number_reads_as_before(obj):
    # ints (and their subclasses but bool) and Fractions: the value and
    # type of the reader before its rules moved into the pair reader
    got = _outcome(rational_from_obj, obj)
    assert got == _outcome(rational_from_obj_oracle, obj)
    assert got == _outcome(_pair_as_fraction, obj)


# --- ZPoly: the one polynomial type ---------------------------------------

T = Symbol("t")
int_polys = st.lists(st.integers(-5, 5), max_size=4)


def _zz(p):
    """A ZPoly as sympy's Poly over ZZ."""
    return Poly(list(reversed(p.coeffs)) or [0], T, domain="ZZ")


@settings(max_examples=80, deadline=None)
@given(int_polys, int_polys, int_polys)
def test_zpoly_ring_laws_match_polynomial(a, b, c):
    x, y, z = ZPoly(a), ZPoly(b), ZPoly(c)
    for got, want in (
        (x + y, _zz(x) + _zz(y)),
        (x - y, _zz(x) - _zz(y)),
        (x * y, _zz(x) * _zz(y)),
        (-x, -_zz(x)),
    ):
        assert _zz(got) == want
    assert (x + y) * z == x * z + y * z
    assert x * (y * z) == (x * y) * z
    assert x + y == y + x and x * y == y * x
    assert bool(x) == any(a)


@settings(max_examples=80, deadline=None)
@given(int_polys, int_polys, int_polys)
def test_poly_gcd_is_the_primitive_gcd(a, b, c):
    # a common factor c makes nontrivial gcds common
    x, y = ZPoly(a) * ZPoly(c), ZPoly(b) * ZPoly(c)
    g = poly_gcd(x, y)
    want = _zz(x).gcd(_zz(y))
    if want.is_zero:
        assert not g
        return
    want = want.primitive()[1]
    if want.LC() < 0:
        want = -want
    assert _zz(g) == want
    assert content(g.coeffs) == 1
    assert poly_gcd(y, x) == g


def test_content_is_signed_like_the_leading_coefficient():
    assert content((4, -6)) == -2
    assert content((0, 3, 9)) == 3
    assert content(()) == 0
    assert ZPoly((4, -6)) // content((4, -6)) == ZPoly((-2, 3))


@settings(max_examples=80, deadline=None)
@given(int_polys, int_polys)
def test_zpoly_exact_division_undoes_multiplication(a, b):
    x, y = ZPoly(a), ZPoly(b)
    if not y:
        with pytest.raises(DivisionByZero):
            x // y
        return
    assert (x * y) // y == x
    assert (x * y) // y * y == x * y


@pytest.mark.parametrize("num, den", [
    ((1,), (2,)),          # 1 / 2
    ((0, 1), (0, 0, 1)),   # t / t^2
    ((1, 0, 1), (1, 1)),   # (t^2 + 1) / (t + 1)
    ((0, 3), (0, 2)),      # 3t / 2t
])
def test_zpoly_inexact_division_raises(num, den):
    with pytest.raises(ArithmeticError):
        ZPoly(num) // ZPoly(den)


def test_zpoly_mixes_with_int_zero_and_one():
    p = ZPoly((2, 0, -3))
    zero = ZPoly()
    assert not zero and ZPoly((0, 0)) == zero
    assert p * 1 is p and 1 * p is p
    assert p * 0 == zero and 0 * p == zero and zero * p == zero
    assert p + 0 is p and 0 + p is p and p - 0 is p
    assert p + zero is p and zero + p == p
    assert p // 1 == p and p // -1 == -p
    assert 3 * p == ZPoly((6, 0, -9)) and p * -1 == -p
    assert p - p == zero and p + (-p) == zero
    assert sum([p, p, 1], 0) == ZPoly((5, 0, -6))
    with pytest.raises(ArithmeticError):
        p // 2
    assert ZPoly((4, 0, -6)) // 2 == p


def test_zpoly_order():
    assert ZPoly((5,)).order() == 0
    assert ZPoly((0, 0, 3, 1)).order() == 2
    assert (ZPoly((0, 1)) * ZPoly((0, 0, 2))).order() == 3
    with pytest.raises(ValueError):
        ZPoly().order()


# Packing at t = 2^bits: the certificate check runs its integer kernels on
# these values and reads d and N back from their balanced digits.


def _round_trip(p, bits):
    return ZPoly.from_balanced_digits(p.at_power_of_two(bits), bits)


@pytest.mark.parametrize("bits", [2, 3, 8, 20, 64])
def test_packing_round_trips_at_the_edge_of_the_digit_range(bits):
    edge = 2 ** (bits - 1) - 1
    for coeffs in ((), (0, 0, 3), (5, -1), (-edge,), (edge, -edge, edge),
                   (-edge, 0, 0, -edge), (0, edge), (edge,) * 5):
        coeffs = tuple(c for c in coeffs if abs(c) <= edge)
        p = ZPoly(coeffs)
        assert _round_trip(p, bits) == p


def test_packing_the_zero_polynomial_and_a_negative_leading_coefficient():
    assert ZPoly().at_power_of_two(8) == 0
    assert ZPoly.from_balanced_digits(0, 8) == ZPoly()
    p = ZPoly((7, 0, -3))
    assert p.at_power_of_two(8) == 7 - 3 * 2 ** 16 < 0
    assert _round_trip(p, 8) == p


def test_packing_needs_coefficients_inside_half_the_base():
    # 2^(bits-1) is the first coefficient that comes back as another
    # polynomial with the same value: the bound must be strict
    bits = 8
    p = ZPoly((2 ** (bits - 1),))
    q = _round_trip(p, bits)
    assert q != p and q.at_power_of_two(bits) == p.at_power_of_two(bits)


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 40), st.data())
def test_packing_round_trips_every_polynomial_inside_the_range(bits, data):
    edge = 2 ** (bits - 1) - 1
    p = ZPoly(data.draw(st.lists(st.integers(-edge, edge), max_size=6)))
    assert _round_trip(p, bits) == p
    assert (p.at_power_of_two(bits) == 0) == (not p)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 40), st.integers(0, 4), st.sampled_from([-1, 0, 1]),
       st.data())
def test_the_packed_limit_read_equals_limit_at_zero(bits, v, side, data):
    # num has its order below, at or above v = ord_t den; digits of either
    # sign up to the edge of the digit range, and sometimes num = 0
    edge = 2 ** (bits - 1) - 1
    digit = st.integers(-edge, edge)
    low = data.draw(digit.filter(bool))
    order = max(v + side, 0)
    num = ZPoly([0] * order + [low] + data.draw(st.lists(digit, max_size=4)))
    if data.draw(st.integers(0, 9)) == 0:
        num = ZPoly()
    den = ZPoly([0] * v + [data.draw(st.integers(-9, 9).filter(bool))]
                + data.draw(st.lists(st.integers(-9, 9), max_size=3)))
    x = num.at_power_of_two(bits)
    want = limit_at_zero(num, den)
    assert want == limit_at_zero(ZPoly.from_balanced_digits(x, bits), den)
    # the packed read is the integer N[v] over the one denominator den[v]
    got = packed_limit_at_zero(x, bits, den)
    assert got is None if want is None else (
        type(got) is int and Fraction(got, den.coeffs[v]) == want)
    assert got == (None if want is None else num.coeffs[v] if num and order == v
                   else 0)
    if num and order < v:
        assert want is None
