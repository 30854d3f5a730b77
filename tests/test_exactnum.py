from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenlab.exactnum import (
    DivisionByZero,
    PoleAtZero,
    Polynomial,
    RationalFunction,
    RF_ONE,
    ZPoly,
    format_rational_function,
    parse_rational_function as parse,
)

# Field arithmetic on rational functions is what the basis-row parser
# builds on; the certificate check itself runs over Z[t] (ZPoly below).


def test_inverse_pair_multiplies_to_one():
    assert parse("t") * parse("1/t") == RF_ONE


def test_common_denominator_subtraction():
    assert parse("1/t") - parse("1/t^2") == parse("(t-1)/t^2")


def test_long_division_checked_by_remultiplication():
    q = parse("t^2+t") / parse("t")
    assert q == parse("t+1")
    assert q * parse("t") == parse("t^2+t")


def test_division_by_zero_function():
    with pytest.raises(DivisionByZero):
        parse("1") / parse("0")


def test_eval_at_zero_cases():
    assert parse("t^2").eval_at_zero() == 0
    assert parse("(t+3)/(t+1)").eval_at_zero() == 3
    with pytest.raises(PoleAtZero):
        parse("1/t").eval_at_zero()


def test_pole_detection_happens_after_reduction():
    # t/t reduces to 1, no pole
    assert parse("t/t").eval_at_zero() == 1
    assert parse("(t^2+t)/t").eval_at_zero() == 1


def test_denominator_is_monic():
    f = parse("1/(2*t+2)") if False else parse("1/(2+2*t)")
    assert f.den.leading() == 1
    assert f.num.eval(0) == Fraction(1, 2) * f.den.eval(0)


def test_parser_round_trip_on_formatting():
    for text in ("1/t^2", "(t+1)/t", "t^3 - 2", "(t-1)/t^2", "-t"):
        f = parse(text)
        assert parse(format_rational_function(f)) == f


rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


@st.composite
def rational_functions(draw):
    num = draw(st.lists(rationals, min_size=0, max_size=3))
    den = draw(st.lists(rationals, min_size=1, max_size=3))
    den_poly = Polynomial(den)
    if den_poly.is_zero():
        den_poly = Polynomial((1,))
    return RationalFunction(Polynomial(num), den_poly)


@settings(max_examples=60, deadline=None)
@given(rational_functions(), rational_functions())
def test_sub_is_zero_iff_equal(a, b):
    assert (a - b).is_zero() == (a == b)


@settings(max_examples=60, deadline=None)
@given(rational_functions(), rational_functions(),
       st.sampled_from(["add", "sub", "mul"]))
def test_eval_commutes_with_arithmetic_when_regular(a, b, op):
    c = {"add": a + b, "sub": a - b, "mul": a * b}[op]
    if any(f.den.eval(0) == 0 for f in (a, b, c)):
        return
    x, y = a.eval_at_zero(), b.eval_at_zero()
    want = {"add": x + y, "sub": x - y, "mul": x * y}[op]
    assert c.eval_at_zero() == want


@settings(max_examples=60, deadline=None)
@given(rational_functions())
def test_normalization_is_idempotent(f):
    again = RationalFunction(f.num, f.den)
    assert again.num == f.num and again.den == f.den


# --- ZPoly: the scalar of the Z[t] certificate check ---------------------

int_polys = st.lists(st.integers(-5, 5), max_size=4)


@settings(max_examples=80, deadline=None)
@given(int_polys, int_polys, int_polys)
def test_zpoly_ring_laws_match_polynomial(a, b, c):
    x, y, z = ZPoly(a), ZPoly(b), ZPoly(c)
    for got, want in (
        (x + y, Polynomial(a) + Polynomial(b)),
        (x - y, Polynomial(a) - Polynomial(b)),
        (x * y, Polynomial(a) * Polynomial(b)),
        (-x, -Polynomial(a)),
    ):
        assert Polynomial(got.coeffs) == want
    assert (x + y) * z == x * z + y * z
    assert x * (y * z) == (x * y) * z
    assert x + y == y + x and x * y == y * x
    assert bool(x) == bool(Polynomial(a).coeffs)


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
