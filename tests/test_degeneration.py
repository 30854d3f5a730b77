import collections
import itertools
import random
from fractions import Fraction
from functools import reduce
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenlab.algebra import change_basis, weight_spaces
from degenlab.catalog import instantiate
from degenlab.algebra import _int_product, int_change_basis
from degenlab.degeneration import (
    _R_FLAGS,
    _R_QUADRATICS,
    _hit_pairs,
    _in_set,
    _r_quadratics_hold,
    AlgebraRef,
    DegenerationCertificate,
    NonDegenerationWitness,
    Records,
    SingularFamily,
    Verdict,
    _monomial_check,
    _packed_check,
    apply_parameterized_basis,
    clear_denominators,
    lower_triangular_invariance_probe,
    packing_bits,
    randomized_orbit_refute,
    random_invertible,
    torus_fixed_flag_search,
    verify_degeneration,
    verify_nondegeneration,
)
from degenlab.exactnum import (ZPOLY_ONE, ZPOLY_ZERO, ZPoly, packed_limit_at_zero,
                               parse_basis_row)
from degenlab.exactnum import parse_rational_function as parse
from degenlab.linalg import int_suffix_spans
from degenlab.verification_db import load_ledger, shipped_ledger_path

from oracles import fraction_inverse, project_to_spec, qt_at_zero, qt_basis_row
from oracles import fraction_tensor, spec_forbids
from oracles import inverse_lower_triangular_probe, inverse_orbit_point
from oracles import inverse_orbit_refute, row_reduce_dim, whole_table_draws
from oracles import qt_certificate_verdict, qt_constants, qt_parse, qt_value
from oracles import flag_change_meets, random_anticommutative, random_member
from oracles import random_lower_triangular, sampled_lower_triangular_probe
from oracles import exact_lower_triangular_probe
from oracles import bareiss_entries, zpoly_apply_parameterized_basis
from oracles import closed_set_member, source_side_oracle
from oracles import torus_fixed_flag_oracle
from oracles import catalog_labels


def test_parse_basis_row_shapes():
    row = parse_basis_row("(1/t)*e5 - (1/t^2)*e7", 7)
    assert qt_value(*row[4]) == qt_parse("1/t")
    assert qt_value(*row[6]) == qt_parse("-1/t^2")
    assert all(not num for i, (num, _) in enumerate(row) if i not in (4, 6))
    row = parse_basis_row("-e2-e5", 6)
    assert qt_value(*row[1]) == qt_value(*row[4]) == qt_parse("-1")
    row = parse_basis_row("2*t^4*e3", 4)
    assert qt_value(*row[2]) == qt_parse("2*t^4")
    row = parse_basis_row("e1 + t*e1 - (1/t)*e2 + e2", 2)
    assert [qt_value(*x) for x in row] == qt_basis_row("e1+t*e1-(1/t)*e2+e2", 2)


@pytest.mark.parametrize("text", ["e1+", "e1-", "e1 + ", "e1+e2-", "-"])
def test_parse_basis_row_rejects_a_dangling_sign(text):
    with pytest.raises(ValueError, match="dangling sign"):
        parse_basis_row(text, 3)


@pytest.mark.parametrize("row, detail", [
    ("(1/0)*e1", "division by the zero"),
    ("e99", "outside dimension 3"),
    ("foo", "unexpected character"),
    ("e1-", "dangling sign"),
    (5, "not a string"),
    (["e2"], "not a string"),
])
def test_verify_unparsable_row_is_a_failure_verdict(row, detail):
    cert = DegenerationCertificate(
        source=AlgebraRef("n3", 3),
        target=AlgebraRef("n3", 3),
        basis_rows=("e1", row, "e3"),
    )
    verdict = verify_degeneration(cert, Records())
    assert verdict.status == "fail"
    assert verdict.reason.startswith(f"basis row 2 {row!r} does not parse: ")
    assert detail in verdict.reason


def test_a_row_text_read_at_two_dimensions_keeps_the_verdict_of_each():
    # the run's store parses a row once per (text, dim): a text that parses
    # at dim 9 still fails at dim 7 with its own error, in either order and
    # at every read, and a text read at both dims gives a row of each length
    records = Records()
    identity = tuple(f"e{k}" for k in range(1, 10))
    big = DegenerationCertificate(AlgebraRef("zero", 9), AlgebraRef("zero", 9),
                                  identity)
    small = DegenerationCertificate(AlgebraRef("zero", 7), AlgebraRef("zero", 7),
                                    identity[:6] + ("e9",))
    error = ("basis row 7 'e9' does not parse: basis index e9 outside "
             "dimension 7")
    for cert, want in ((big, ("pass", "")), (small, ("fail", error)),
                       (big, ("pass", "")), (small, ("fail", error))):
        assert verify_degeneration(cert, records)[:2] == want
    assert len(records.basis_row("e1", 7)) == 7
    assert len(records.basis_row("e1", 9)) == 9
    assert records.basis_row("e1", 9) is records.basis_row("e1", 9)
    assert verify_degeneration(small, Records())[:2] == ("fail", error)


def test_verify_basis_of_the_wrong_length_is_a_failure_verdict():
    cert = DegenerationCertificate(
        source=AlgebraRef("n3", 3),
        target=AlgebraRef("n3", 3),
        basis_rows=("e1", "e2"),
    )
    verdict = verify_degeneration(cert, Records())
    assert verdict.status == "fail"
    assert verdict.reason == "expected 3 basis rows, got 2"


def _parse_rows(rows, n):
    return [parse_basis_row(r, n) for r in rows]


def _qt_rows(rows, n):
    return [qt_basis_row(r, n) for r in rows]


def _over_qt(a, texts):
    """{(i, j): N / den} as vectors in Q(t), 1-based, from the table rows
    N of apply_parameterized_basis(a, parsed texts)."""
    n = a.dim
    den, constants = _unpacked(a, _parse_rows(texts, n))
    out = {}
    for i, j, entries in constants:
        vec = dict(entries)
        out[(i + 1, j + 1)] = tuple(qt_value(vec.get(k, 0), den) for k in range(n))
    return out


def _unpacked(a, rows):
    """apply_parameterized_basis(a, rows) with N read back as ZPolys."""
    den, constants, bits = apply_parameterized_basis(a, rows)
    return den, [(i, j, tuple((k, ZPoly.from_balanced_digits(x, bits))
                              for k, x in entries))
                 for i, j, entries in constants]


def test_apply_identity_keeps_constants():
    a = instantiate("T32_e23", 6)
    texts = [f"e{k}" for k in range(1, 7)]
    constants = _over_qt(a, texts)
    assert set(constants) == set(a.products)
    for key, vec in constants.items():
        evaluated = tuple(qt_at_zero(x) for x in vec)
        assert evaluated == a.products[key]
    assert constants == qt_constants(a, _qt_rows(texts, 6))


def test_apply_single_scaling_pushes_constant_into_t():
    a = instantiate("n3", 3)
    texts = ["t*e1", "e2", "e3"]
    constants = _over_qt(a, texts)
    assert constants[(1, 2)][2] == qt_parse("t")
    assert constants == qt_constants(a, _qt_rows(texts, 3))


def test_apply_rejects_singular_families():
    a = instantiate("n3", 3)
    texts = ["e1+e2", "e1+e2", "e3"]
    assert qt_constants(a, _qt_rows(texts, 3)) is None
    with pytest.raises(SingularFamily):
        apply_parameterized_basis(a, _parse_rows(texts, 3))


def test_clear_denominators_uses_one_common_scale():
    texts = ("1/t", "1/t^2", "(t+1)/(2*t+1)", "3/2", "0", "t^2 - 1/3",
             "-1/(2*t^2 - 4*t)", "t/t")
    s, g = clear_denominators(parse(x) for x in texts)
    for text, gi in zip(texts, g):
        assert all(isinstance(c, int) for c in gi.coeffs)
        assert qt_value(gi, s) == qt_parse(text)
    # s = c t^2 (2t + 1) (t - 2) with c = 6 clearing the 2, the 3 and the
    # content -2 of 2t^2 - 4t; the unreduced t/t costs nothing here
    assert s.order() == 2 and len(s.coeffs) == 5 and abs(s.coeffs[-1]) == 12


def test_clear_denominators_keeps_the_degree_of_the_reduced_lcm():
    # the parser reduces nothing, so the degree of s must come out as the
    # degree of the lcm of the reduced denominators on the shipped rows
    ledger = load_ledger(shipped_ledger_path())
    rows = [cert.basis_rows for cert in ledger.certificates]
    rows += [w.payload["source_basis"] for w in ledger.witnesses
             if w.payload.get("source_basis")]
    for texts in rows:
        n = len(texts)
        s, _ = clear_denominators(f for text in texts
                                  for f in parse_basis_row(text, n))
        dens = [f.denom for text in texts for f in qt_basis_row(text, n)]
        assert len(s.coeffs) - 1 == reduce(lambda a, b: a.lcm(b), dens).degree()


def _verdict(cert):
    v = verify_degeneration(cert, Records())
    return (v.status, v.reason, v.data)


def test_zt_verdicts_match_the_qt_oracle_on_shipped_certificates():
    certs = load_ledger(shipped_ledger_path()).certificates
    assert len(certs) == 133
    for cert in certs:
        assert _verdict(cert) == qt_certificate_verdict(cert), cert.cert_id


def test_zt_verdicts_match_the_qt_oracle_on_corrupted_certificates():
    # each shipped basis with one row extended by a term; every tenth has a
    # row replaced by a copy of another (a singular family)
    certs = load_ledger(shipped_ledger_path()).certificates
    rng = random.Random(20240917)
    seen = set()
    for index, cert in enumerate(certs):
        rows = list(cert.basis_rows)
        n = len(rows)
        r = rng.randrange(n)
        if index % 10 == 0:
            rows[r] = rows[(r + 1) % n]
        else:
            term = rng.choice(["+e{}", "+(1/t)*e{}", "-t*e{}", "+(1/t^2)*e{}"])
            rows[r] += term.format(rng.randint(1, n))
        bad = cert._replace(basis_rows=tuple(rows))
        want = qt_certificate_verdict(bad)
        assert _verdict(bad) == want, (cert.cert_id, rows)
        seen.add(want[1].split(" ")[0] if want[0] == "fail" else "pass")
    assert seen == {"pass", "pole", "limit", "parameterized"}


# The packed check: G in Z[t] is evaluated at t = 2^B, the integer kernels
# run on ints, and d is read back as balanced digits (N too, by `_unpacked`,
# here only).  The same kernels run over ZPoly are the reference
# (`zpoly_apply_parameterized_basis`).


def _shipped_parsed_bases():
    for cert in load_ledger(shipped_ledger_path()).certificates:
        a = cert.source.resolve()
        yield cert.cert_id, a, _parse_rows(cert.basis_rows, a.dim)


def test_packed_check_equals_the_zpoly_check_on_shipped_certificates():
    count = 0
    for cert_id, a, rows in _shipped_parsed_bases():
        assert (_unpacked(a, rows)
                == zpoly_apply_parameterized_basis(a, rows)), cert_id
        count += 1
    assert count == 133


_T = ZPoly((0, 1))
_DENS = [ZPoly((1,)), _T, _T * _T, ZPoly((1, 2)), ZPoly((3,)),
         ZPoly((-1, 0, 1)), ZPoly((0, 0, 0, -5))]


@st.composite
def polynomial_bases(draw):
    """(algebra, parsed rows, singular): a random table (zero among them),
    dim 2-6, entries num / den with deg num <= 4 and coefficients up to
    10^6, the diagonal nonzero; half of the bases are made singular, and
    the rest are singular only by chance."""
    n = draw(st.integers(2, 6))
    a = random_anticommutative(n, random.Random(draw(st.integers(0, 10 ** 6))),
                               spread=draw(st.sampled_from([3, 0, 1000])))
    big = st.integers(-10 ** 6, 10 ** 6)
    num = st.builds(lambda low, top: ZPoly(low + [top]),
                    st.lists(big, max_size=4), big.filter(bool))
    nonzero = st.tuples(num, st.sampled_from(_DENS))
    entry = st.one_of(nonzero, nonzero, st.just((ZPOLY_ZERO, ZPOLY_ONE)))
    rows = [[draw(nonzero if i == j else entry) for j in range(n)]
            for i in range(n)]
    kind = draw(st.sampled_from(["any", "any", "multiple", "zero column"]))
    if kind == "multiple":
        # a row times a polynomial stands in for another row
        c = ZPoly(draw(st.lists(big, min_size=1, max_size=3)))
        i, j = draw(st.permutations(range(n)))[:2]
        rows[j] = [(num * c, den) for num, den in rows[i]]
    elif kind == "zero column":
        k = draw(st.integers(0, n - 1))
        for row in rows:
            row[k] = (ZPOLY_ZERO, ZPOLY_ONE)
    return a, rows, kind != "any"


def _apply_or_singular(apply, a, rows):
    try:
        return apply(a, rows)
    except SingularFamily:
        return "singular"


@settings(max_examples=60, deadline=None)
@given(polynomial_bases())
def test_packed_check_equals_the_zpoly_check_on_drawn_bases(case):
    a, rows, singular = case
    want = _apply_or_singular(zpoly_apply_parameterized_basis, a, rows)
    assert _apply_or_singular(_unpacked, a, rows) == want
    if singular:
        assert want == "singular"


def _norm(p):
    """1-norm of a ZPoly's coefficients; the kernels leave some ints."""
    return sum(map(abs, p.coeffs)) if isinstance(p, ZPoly) else abs(p)


@settings(max_examples=60, deadline=None)
@given(polynomial_bases())
def test_packing_bits_bound_every_tested_and_unpacked_value(case):
    # the bound of the `packing_bits` docstring, value by value, on the
    # ZPoly run: minors of [G | I] <= M, products <= T r_i r_j, N <= K
    a, rows, _ = case
    n = a.dim
    _, flat = clear_denominators(f for row in rows for f in row)
    g = [flat[i * n:(i + 1) * n] for i in range(n)]
    table = a.table
    r = [sum(_norm(x) for x in row) + 1 for row in g]
    top = max((abs(v) for _, _, entries in table for _, v in entries), default=1)
    big_m = prod(r)
    bound = n * top * max(r) ** 2 * big_m
    assert bound < 2 ** (packing_bits(g, table) - 1)
    assert all(_norm(x) <= big_m for x in bareiss_entries(g))
    for i in range(n):
        for j in range(i + 1, n):
            p = _int_product(table, n, g[i], g[j])
            assert all(_norm(x) <= top * r[i] * r[j] for x in p)
    d, constants = int_change_basis(table, n, g)
    if d:
        assert _norm(d) <= big_m
        assert all(_norm(x) <= bound for _, _, entries in constants
                   for _, x in entries)


SMALL_ALGEBRAS = [("n3", 3), ("T3", 4), ("T22", 5), ("T22_e23", 6),
                  ("T32_e23", 6)]
COEFFS = ["", "t*", "(1/t)*", "(1/t^2)*", "-", "-t*", "-(1/t)*", "2*"]


@st.composite
def _random_certificates(draw):
    name, n = draw(st.sampled_from(SMALL_ALGEBRAS))
    rows = []
    for i in range(1, n + 1):
        terms = [f"{draw(st.sampled_from(COEFFS))}e{i}"]
        for k in draw(st.lists(st.integers(1, n), max_size=2)):
            terms.append(f"{draw(st.sampled_from(COEFFS))}e{k}")
        rows.append("+".join(terms).replace("+-", "-"))
    target = draw(st.sampled_from([name] + ["zero"]))
    return DegenerationCertificate(
        source=AlgebraRef(name, n), target=AlgebraRef(target, n),
        basis_rows=tuple(rows))


@settings(max_examples=40, deadline=None)
@given(_random_certificates())
def test_zt_verdict_matches_the_qt_oracle_on_random_bases(cert):
    assert _verdict(cert) == qt_certificate_verdict(cert)


def test_verify_identity_certificate():
    cert = DegenerationCertificate(
        source=AlgebraRef("T22_e45", 7),
        target=AlgebraRef("T22_e45", 7),
        basis_rows=tuple(f"e{k}" for k in range(1, 8)),
    )
    assert verify_degeneration(cert, Records()).status == "pass"


def test_verify_pole_is_a_failure_verdict():
    cert = DegenerationCertificate(
        source=AlgebraRef("n3", 3),
        target=AlgebraRef("n3", 3),
        basis_rows=("(1/t)*e1", "e2", "e3"),
    )
    verdict = verify_degeneration(cert, Records())
    assert verdict.status == "fail"
    assert "pole" in verdict.reason
    assert verdict.data["position"] == (1, 2, 3)


def test_verify_paper_arrow_with_limit_mismatch_detected():
    cert = DegenerationCertificate(
        source=AlgebraRef("T22_e34", 6),
        target=AlgebraRef("T22_e23", 6),  # wrong target on purpose
        basis_rows=("e1", "e2+e3", "t*e3", "t*e4", "e5+e6", "t*e6"),
    )
    verdict = verify_degeneration(cert, Records())
    assert verdict.status == "fail"
    assert "target has" in verdict.reason


# Rational limits against a rational target: the packed check compares
# N[v] M with T den[v], den[v] the one denominator of its limits, and the
# monomial check, which reads every basis here but the last, compares
# num M with T den for each limit num / den; both name a mismatch by its
# two Fractions.  The source and the targets have non-integer constants
# (mult > 1); den[v] < 0 for every basis but the last.
_RATIONAL_SOURCE = {(1, 2): (0, 0, Fraction(2, 3), 0),
                    (1, 3): (0, 0, 0, Fraction(-5, 4)),
                    (2, 3): (0, 0, 0, Fraction(1, 6))}
_SCALED = ("t*e1", "e2", "t*e3", "(-5/7)*t*e4")
_RATIONAL_LIMIT = {(1, 2): (0, 0, Fraction(2, 3), 0),
                   (2, 3): (0, 0, 0, Fraction(-7, 30))}
RATIONAL_CERTIFICATES = [
    (_SCALED, _RATIONAL_LIMIT, ""),
    (_SCALED, {(1, 2): (0, 0, Fraction(2, 3), 0), (2, 3): (0, 0, 0, Fraction(7, 30))},
     "limit constant (2,3)^4 is -7/30, target has 7/30"),
    (_SCALED, {(1, 2): (0, 0, Fraction(2, 3), 0)},
     "limit constant (2,3)^4 is -7/30, target has 0"),
    (_SCALED, {**_RATIONAL_LIMIT, (1, 3): (0, 0, 0, Fraction(1, 2))},
     "limit constant (1,3)^4 is 0, target has 1/2"),
    (("t*e1", "-e2", "t*e3", "(5/7)*t*e4"), _RATIONAL_LIMIT,
     "limit constant (1,2)^3 is -2/3, target has 2/3"),
    (("-e1", "(2/5)*e2", "(-1/2)*e3", "e4 - t*e1"), _RATIONAL_LIMIT,
     "limit constant (1,2)^3 is 8/15, target has 2/3"),
]


@pytest.mark.parametrize("rows, target, reason", RATIONAL_CERTIFICATES)
def test_rational_limits_are_compared_over_one_denominator(rows, target, reason):
    src, tgt = fraction_tensor(4, _RATIONAL_SOURCE), fraction_tensor(4, target)
    assert src.mult > 1 and tgt.mult > 1
    den, _, _ = apply_parameterized_basis(src, _parse_rows(rows, 4))
    assert (den.coeffs[den.order()] < 0) == (rows != RATIONAL_CERTIFICATES[-1][0])
    cert = DegenerationCertificate(source=AlgebraRef("S", 4, src),
                                   target=AlgebraRef("T", 4, tgt), basis_rows=rows)
    got = _verdict(cert)
    assert got == qt_certificate_verdict(cert)
    assert got[:2] == ("fail" if reason else "pass", reason)
    assert tuple(_packed_check(src, tgt, _parse_rows(rows, 4))) == got


# A monomial basis, g_r = f_r e_c(r) with c a permutation, is read off the
# orders and lowest coefficients of its entries (`_monomial_check`); every
# other basis goes through the packed check, which stays the reference.
# The two give byte-identical verdicts on every monomial basis.

PACKED_CERTIFICATES = (
    "T22deg.1.7", "T22deg.1.8", "T22deg.2.6", "T22deg.2.7",
    "T22rest.iso2435.7", "T22rest.iso2435.8",
    "T2k2rest1.more.m3.8", "T2k2rest1.more.m3.9", "T2k2rest1.more.m4.10",
    "T2k2rest1.more.m4.11", "T2k2rest3.a1.m3.7", "T2k2rest3.a1.m3.8",
    "T2k2rest3.a1.m4.9", "T2k2rest3.a1.m4.10", "T2k2rest3.a1.m5.11",
    "T2k2rest3.a2.m3.8", "T2k2rest3.a3.m3.8", "T2k2rest3.a2.m3.9",
    "T2k2rest3.a3.m3.9", "T2k2rest3.a2.m4.10", "T2k2rest3.a3.m4.10",
    "T2k2rest3.a2.m4.11", "T2k2rest3.a3.m4.11", "T222lev.shift24.8",
    "T222lev.e25_24.8", "T222lev.shift24.9", "T222lev.e25_24.9",
    "T222lev.iso34mix.7", "T222lev.iso34mix.8", "T3lev.34to24.5",
    "T3lev.34to24.6", "T3lev.45to24.6", "T3lev.eta15_45.6", "T3lev.45to24.7",
    "T3lev.eta15_45.7", "T3lev.45to2245.7", "T3lev.45to2245.8",
    "T3rest2.iso.7", "T3rest2.iso.8", "T32lev.case1.6", "T32lev.case1.7",
    "T32lev.case2.7", "T32lev.case2.8", "conn.t3_t22.5", "conn.t3_t22.6",
    "conn.t3_t22.7", "conn.t3_t22.8", "conn.t4_t32.6",
    "conn.e24_222_to_e23.7", "conn.e24_222_to_e23.8",
)


def _monomial(rows):
    """Whether parsed rows have one nonzero entry each, in distinct columns."""
    cols = [[k for k, (num, _) in enumerate(row) if num] for row in rows]
    return (all(len(c) == 1 for c in cols)
            and len({c[0] for c in cols}) == len(rows))


def _both_checks(src, tgt, rows):
    """The Verdict tuple of each check on one monomial basis; the monomial
    check gives None for any other basis."""
    return (tuple(_monomial_check(src, tgt, rows) or ()),
            tuple(_packed_check(src, tgt, rows)))


def test_shipped_certificates_take_the_check_of_their_basis_shape(monkeypatch):
    from degenlab import degeneration

    taken = []  # the check that gave each verdict
    for name in ("_monomial_check", "_packed_check"):
        def spy(*args, name=name, check=getattr(degeneration, name)):
            verdict = check(*args)
            if verdict is not None:
                taken.append(name)
            return verdict
        monkeypatch.setattr(degeneration, name, spy)
    records, paths = Records(), {}
    for cert in load_ledger(shipped_ledger_path()).certificates:
        assert verify_degeneration(cert, records).ok, cert.cert_id
        (paths[cert.cert_id],) = taken
        taken.clear()
        rows = _parse_rows(cert.basis_rows, cert.source.dim)
        assert _monomial(rows) == (paths[cert.cert_id] == "_monomial_check")
    packed = [cert_id for cert_id, name in paths.items() if name == "_packed_check"]
    assert packed == list(PACKED_CERTIFICATES)
    assert len(paths) - len(packed) == 83


def _mutations(cert):
    """The certificate, then with its target replaced by its source, t^2
    read as t, 1/t as 2/t, its rows shuffled, and its first row twice."""
    rows = cert.basis_rows
    yield cert
    yield cert._replace(target=cert.source)
    yield cert._replace(basis_rows=tuple(r.replace("t^2", "t") for r in rows))
    yield cert._replace(basis_rows=tuple(r.replace("1/t", "2/t") for r in rows))
    shuffled = random.Random(cert.cert_id).sample(rows, len(rows))
    yield cert._replace(basis_rows=tuple(shuffled))
    yield cert._replace(basis_rows=(rows[0],) + rows[:1] + rows[2:])


def test_monomial_check_equals_the_packed_check_on_shipped_certificates():
    records, seen, count = Records(), set(), 0
    for cert in load_ledger(shipped_ledger_path()).certificates:
        for bad in _mutations(cert):
            rows = _parse_rows(bad.basis_rows, bad.source.dim)
            got, want = _both_checks(records.tensor(bad.source),
                                     records.tensor(bad.target), rows)
            if _monomial(rows):
                assert got == want, (cert.cert_id, bad.basis_rows)
                seen.add(want[1].split(" ")[0] or "pass")
                count += 1
            else:
                assert got == (), (cert.cert_id, bad.basis_rows)
    assert seen == {"pass", "pole", "limit"}
    assert count > 83 * 4


_LEADS = [x for x in range(-3, 4) if x]


def _random_monomial_row(n, col, rng):
    """The text of f e_col: f of order -3..3, lowest coefficients +-1..+-3
    in num and den, and some f not a monomial, such as (t+1)/t^2."""
    order = rng.randint(-3, 3)
    w = max(0, -order) + rng.randint(0, 1)
    num, den = f"{rng.choice(_LEADS)}*t^{order + w}", f"{rng.choice(_LEADS)}*t^{w}"
    if rng.random() < 0.3:
        num += f"+{rng.choice(_LEADS)}*t^{order + w + 1}"
    if rng.random() < 0.3:
        den += f"+{rng.choice(_LEADS)}*t^{w + 2}"
    return f"(({num})/({den}))*e{col + 1}"


def _limit_tensor(a, rows):
    """The tensor of the limits at t = 0 of a's constants in the basis
    `rows`, by the packed check; None at a pole."""
    den, constants, bits = apply_parameterized_basis(a, rows)
    lead, products = den.coeffs[den.order()], {}
    for i, j, entries in constants:
        vec = [0] * a.dim
        for k, x in entries:
            x = packed_limit_at_zero(x, bits, den)
            if x is None:
                return None
            vec[k] = Fraction(x, lead)
        products[(i + 1, j + 1)] = vec
    return fraction_tensor(a.dim, products)


def test_monomial_check_equals_the_packed_check_on_random_monomial_bases():
    # catalog tables, random integer tables and a rational one, each in
    # random monomial bases, against the source, the zero table and the
    # limit itself
    rng, seen = random.Random(5001), set()
    sources = [instantiate(name, n) for name, n in SMALL_ALGEBRAS]
    sources += [instantiate("T22_e45", 7), fraction_tensor(4, _RATIONAL_SOURCE)]
    for trial in range(240):
        a = (sources[trial % len(sources)] if trial % 3 else
             random_anticommutative(rng.randint(2, 7), rng))
        n = a.dim
        cols = rng.sample(range(n), n)
        rows = _parse_rows([_random_monomial_row(n, c, rng) for c in cols], n)
        assert _monomial(rows)
        limit = _limit_tensor(a, rows)
        for tgt in (a, fraction_tensor(n), limit):
            if tgt is not None:
                got, want = _both_checks(a, tgt, rows)
                assert got == want, (trial, cols)
                seen.add(want[1].split(" ")[0] or "pass")
        assert (limit is None) == want[1].startswith("pole")
    assert seen == {"pass", "pole", "limit"}


def test_closed_set_member_examples():
    z = fraction_tensor(5)
    assert closed_set_member(z, ((1, 1, 4), (2, 3, 6)))
    a = instantiate("T22", 5)
    assert closed_set_member(a, ((1, 1, 4),))
    b = instantiate("T22_e23", 6)
    assert not closed_set_member(b, ((1, 1, 5),))


def test_lower_triangular_probe_passes_on_flag_specs():
    spec = ((1, 1, 4), (2, 3, 7))
    assert lower_triangular_invariance_probe(spec, dim=6) == Verdict("pass")


def test_lower_triangular_probe_negative_control():
    # head-span condition: products must lie in <e1>; this is NOT stable
    # under flag-preserving transformations and the probe loop must notice
    def sampler(rng):
        tensor = random_anticommutative(4, rng)
        table = {}
        for (i, j), vec in tensor.products.items():
            kept = (vec[0],) + (Fraction(0),) * 3
            if any(kept):
                table[(i, j)] = kept
        return fraction_tensor(4, table)

    def member(tensor):
        return all(
            not any(vec[1:]) for vec in tensor.products.values()
        )

    verdict = inverse_lower_triangular_probe(4, 60, 4, sampler, member)
    assert verdict.status == "fail"


def test_witness_dim_square_proved():
    w = NonDegenerationWitness(
        kind="DimSquare",
        source=AlgebraRef("T22_e24", 6),
        target=AlgebraRef("T22_e23", 6),
    )
    verdict = verify_nondegeneration(w, Records())
    assert verdict.status == "proved"
    assert "2 < 3" in verdict.reason


def test_witness_ann_dim_proved():
    w = NonDegenerationWitness(
        kind="AnnDim",
        source=AlgebraRef("T22_e23", 6),
        target=AlgebraRef("T22_e24", 6),
    )
    assert verify_nondegeneration(w, Records()).status == "proved"


def test_witness_lie_closure_proved():
    w = NonDegenerationWitness(
        kind="LieClosure",
        source=AlgebraRef("T32_e23", 6),
        target=AlgebraRef("T3_e34", 6),
    )
    assert verify_nondegeneration(w, Records()).status == "proved"


def test_witness_refuted_when_invariant_goes_the_wrong_way():
    w = NonDegenerationWitness(
        kind="DimSquare",
        source=AlgebraRef("T22_e23", 6),
        target=AlgebraRef("T22_e24", 6),
    )
    assert verify_nondegeneration(w, Records()).status == "refuted"


def test_witness_iw_dominance():
    w = NonDegenerationWitness(
        kind="IWDominance",
        source=AlgebraRef("T22", 5),
        target=AlgebraRef("T3", 5),
        payload={"element": [1, 0, 0, 0, 0]},
    )
    assert verify_nondegeneration(w, Records(3)).status == "proved"


def _in_r(a):
    """Membership in the bespoke closed set R of dimension 7."""
    return closed_set_member(a, _R_FLAGS) and _r_quadratics_hold(a.table)


def test_ex222_membership_examples():
    special = instantiate("T222_e7special", 7)
    perm = [0, 1, 2, 4, 5, 3, 6]
    rows = [[Fraction(int(j == perm[i])) for j in range(7)] for i in range(7)]
    assert _in_r(change_basis(special, rows))
    assert _in_r(fraction_tensor(7))
    assert not _in_r(instantiate("T22_e45", 7))


def test_randomized_orbit_refute_finds_planted_member():
    special = instantiate("T222_e7special", 7)
    verdict = randomized_orbit_refute(
        special, _R_FLAGS, trials=400, seed=8, cone=_r_quadratics_hold
    )
    # the orbit of the special structure does meet R; sampling may or may
    # not find it, but a found basis must be a genuine membership witness
    if verdict.status == "refuted":
        rows = [[Fraction(x) for x in row] for row in verdict.data["basis"]]
        assert _in_r(change_basis(special, rows))


def test_randomized_orbit_refute_misses_for_e45():
    verdict = randomized_orbit_refute(
        instantiate("T22_e45", 7), _R_FLAGS, trials=60, seed=8,
        cone=_r_quadratics_hold,
    )
    assert verdict.status == "refutation_not_found"


def test_bespoke_witness_runs_both_sides():
    w = NonDegenerationWitness(
        kind="BespokeR",
        source=AlgebraRef("T222_e7special", 7),
        target=AlgebraRef("T222_e24", 7),
        payload={"source_basis": ["e1", "e2", "e3", "e5", "e6", "e4", "e7"]},
    )
    verdict = verify_nondegeneration(w, Records(6), trials=40)
    assert verdict.status == "refutation_not_found"


@pytest.mark.parametrize("trials", [1, 200])
def test_judging_the_shipped_bespoke_witnesses_builds_one_tensor_per_label(
        monkeypatch, trials):
    # an orbit point is its table rows: the R quadratics read the rows of
    # int_change_basis, so the only tensors built are the labels' own, one
    # each, however many orbit points are tested
    from degenlab import degeneration
    from degenlab.algebra import StructureTensor

    witnesses = [w for w in load_ledger(shipped_ledger_path()).witnesses
                 if w.kind == "BespokeR"]
    labels = {ref.label for w in witnesses for ref in (w.source, w.target)}
    built, points = [], []
    init, change = StructureTensor.__init__, degeneration.int_change_basis

    def counted_init(self, *args):
        built.append(args)
        init(self, *args)

    def counted_change(*args):
        points.append(args)
        return change(*args)

    monkeypatch.setattr(StructureTensor, "__init__", counted_init)
    monkeypatch.setattr(degeneration, "int_change_basis", counted_change)
    records = Records(20240917)
    for w in witnesses:
        verdict = verify_nondegeneration(w, records, trials=trials)
        assert verdict.status == "refutation_not_found", w.witness_id
    assert len(built) == len(labels) == 3
    # each source side's stored basis meets R's flags, so its orbit point
    # is written out and read by the quadratics
    assert len(points) == len(witnesses) == 2


def test_random_anticommutative_is_reproducible():
    a = random_anticommutative(5, random.Random(99))
    b = random_anticommutative(5, random.Random(99))
    assert a == b


def _shipped_closed_set_specs():
    ledger = load_ledger(shipped_ledger_path())
    return sorted({
        (tuple(tuple(t) for t in w.payload["triples"]), w.source.dim)
        for w in ledger.witnesses if w.kind == "ClosedSet"
    })


def _fraction_projected_sample(n, rng, spec):
    """Plain-Fraction draw: a random table with the forbidden entries zeroed."""
    table = {}
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            vec = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
            for (p, q, k) in spec:
                if (i >= p and j >= q) or (j >= p and i >= q):
                    for r in range(n if k == n + 1 else k - 1):
                        vec[r] = Fraction(0)
            if any(vec):
                table[(i, j)] = tuple(vec)
    return table


def test_int_samplers_match_the_fraction_samplers():
    for spec, n in _shipped_closed_set_specs():
        ref, a = random.Random(n), random.Random(n)
        for _ in range(5):
            want = _fraction_projected_sample(n, ref, spec)
            assert project_to_spec(random_anticommutative(n, a), spec).products == want
            assert ref.getstate() == a.getstate()


def test_random_member_without_pairs_draws_whole_tables():
    # pairs = () is the whole-table draw: same tables, same rng state
    for n in range(1, 10):
        for spread in (1, 3, 5):
            a, b = random.Random(n * spread), random.Random(n * spread)
            for _ in range(4):
                want = whole_table_draws(n, b, spread)
                assert random_member(n, (), a, spread) == want
                assert a.getstate() == b.getstate()


class _Ones:
    """A stand-in rng whose every draw is 1; counts the draws."""

    def __init__(self):
        self.draws = 0

    def randint(self, lo, hi):
        self.draws += 1
        return 1


def _specs_to_check():
    """Every shipped flag-condition set with its dimension, and 200 random
    specs at dims 2-8."""
    rng = random.Random(1401)
    specs = _shipped_closed_set_specs()
    specs.append((_R_FLAGS, 7))
    for _ in range(200):
        n = rng.randint(2, 8)
        specs.append((_random_spec(n, rng), n))
    return specs


def test_random_member_draws_exactly_the_free_coefficients():
    # with every draw 1, the member is the all-ones table with the
    # forbidden coefficients zeroed, and one draw is made per free one
    for spec, n in _specs_to_check():
        ones = fraction_tensor(n, {(i, j): (1,) * n for i in range(1, n)
                                   for j in range(i + 1, n + 1)})
        want = project_to_spec(ones, spec).products
        rng = _Ones()
        assert random_member(n, _hit_pairs(spec, n), rng) == want, (spec, n)
        assert rng.draws == sum(sum(vec) for vec in want.values())


def test_random_members_are_members():
    rng = random.Random(1402)
    for spec, n in _specs_to_check():
        pairs = _hit_pairs(spec, n)
        for _ in range(5):
            table = random_member(n, pairs, rng)
            assert closed_set_member(fraction_tensor(n, table), spec), (spec, table)


def test_random_invertible_draws_like_the_fraction_rejection_loop():
    # the draw sequence of drawing Fraction matrices and rejecting the
    # singular ones with an independent inverse; the spans returned are
    # reduced bases of the suffix spans W_k = <g_k, ..., g_n>
    redrawn = 0
    for dim in (2, 3, 7, 9):
        a, b = random.Random(dim), random.Random(dim)
        for _ in range(20):
            while True:
                want = [[Fraction(a.randint(-5, 5)) for _ in range(dim)]
                        for _ in range(dim)]
                if fraction_inverse(want) is not None:
                    break
                redrawn += 1
            g, spans = random_invertible(dim, b)
            assert g == want
            rows = [h for _, h in spans]
            for k in range(dim):
                assert row_reduce_dim(rows[k:]) == dim - k
                assert row_reduce_dim(rows[k:] + g[k:]) == dim - k
                assert rows[k][spans[k][0]]
                assert not any(rows[k][spans[m][0]] for m in range(k + 1, dim))
        assert a.getstate() == b.getstate()
    assert redrawn  # the stream includes singular draws


def _scaled(tensor, c):
    return fraction_tensor(tensor.dim, {
        key: tuple(c * x for x in vec) for key, vec in tensor.products.items()})


SCALES = (Fraction(2), Fraction(-3), Fraction(1, 5), Fraction(-7, 4))


def test_closed_set_membership_is_scale_invariant():
    rng = random.Random(12)
    for spec, n in _shipped_closed_set_specs():
        seen = set()
        for _ in range(10):
            member = project_to_spec(random_anticommutative(n, rng), spec)
            outsider = random_anticommutative(n, rng)
            for tensor in (member, outsider):
                verdict = closed_set_member(tensor, spec)
                seen.add(verdict)
                for c in SCALES:
                    assert closed_set_member(_scaled(tensor, c), spec) == verdict
        assert seen == {True, False}


def test_bespoke_set_membership_is_scale_invariant():
    special = instantiate("T222_e7special", 7)
    perm = [0, 1, 2, 4, 5, 3, 6]
    rows = [[Fraction(int(j == perm[i])) for j in range(7)] for i in range(7)]
    inside = change_basis(special, rows)
    rng = random.Random(3)
    cases = [inside, special, instantiate("T22_e45", 7)]
    cases += [change_basis(inside, random_lower_triangular(7, rng)) for _ in range(5)]
    verdicts = [_in_r(t) for t in cases]
    assert verdicts[0] and not verdicts[1] and not verdicts[2]
    assert all(verdicts[3:])
    for tensor, verdict in zip(cases, verdicts):
        for c in SCALES:
            assert _in_r(_scaled(tensor, c)) == verdict


def test_orbit_refute_basis_renders_as_before():
    special = instantiate("T222_e7special", 7)
    verdict = randomized_orbit_refute(special, (), trials=1, seed=5)
    rng = random.Random(5)
    want = [[str(Fraction(rng.randint(-5, 5))) for _ in range(7)] for _ in range(7)]
    assert verdict.status == "refuted"
    assert verdict.data == {"basis": want}


@pytest.mark.parametrize("trials", [0, -3])
def test_sampling_needs_a_sample(trials):
    with pytest.raises(ValueError):
        randomized_orbit_refute(instantiate("T22_e45", 7), _R_FLAGS,
                                trials=trials, seed=1, cone=_r_quadratics_hold)
    w = NonDegenerationWitness(
        kind="BespokeR",
        source=AlgebraRef("T222_e7special", 7),
        target=AlgebraRef("T222_e24", 7),
        payload={"source_basis": ["e1", "e2", "e3", "e5", "e6", "e4", "e7"]},
    )
    with pytest.raises(ValueError):
        verify_nondegeneration(w, Records(6), trials=trials)


@pytest.mark.parametrize("triple", [(9, 1, 3), (1, 5, 2), (0, 1, 2),
                                    (1, 1, 6), (2, 2, 0)])
def test_a_triple_outside_the_dimension_is_refused(triple):
    # dimension 4: 1 <= i, j <= 4 and 1 <= k <= 5
    spec = ((1, 1, 4), triple)
    with pytest.raises(ValueError, match="outside dimension 4"):
        lower_triangular_invariance_probe(spec, 4)
    with pytest.raises(ValueError, match="outside dimension 4"):
        randomized_orbit_refute(fraction_tensor(4), spec, trials=3, seed=1)


def test_hit_pairs_keep_the_strictest_condition():
    spec = ((1, 1, 3), (2, 3, 5), (3, 1, 4), (1, 2, 1))
    # (2, 3, 5): pairs (2,3), (2,4), (3,4) must vanish; (3, 1, 4) moves
    # (1,3), (1,4) from V_3 to V_4; (1, 2, 1) asks nothing
    assert _hit_pairs(spec, 4) == ((0, 1, 3), (0, 2, 4), (0, 3, 4),
                                   (1, 2, 5), (1, 3, 5), (2, 3, 5))


def test_a_spec_holds_int_tuples_and_keys_the_hit_pair_cache():
    # the payload reader stores a ClosedSet's list of lists as a tuple of
    # int tuples, so it and the same triples written as tuples make one
    # cache entry; an entry that is not an int is refused at the reader
    def closed_set(triples):
        return NonDegenerationWitness("ClosedSet", AlgebraRef("T3", 4),
                                      AlgebraRef("T22", 4), {"triples": triples})

    spec = closed_set([[1, 2, 3]]).spec
    assert spec == ((1, 2, 3),)
    assert type(spec) is tuple and type(spec[0]) is tuple
    assert all(type(x) is int for x in spec[0])
    assert _hit_pairs(((1, 2, 3),), 4) is _hit_pairs(spec, 4)
    for bad in ([[1, "x", 3]], [["1", 2, 3]], [[1, 2.0, 3]], [(1, 2, 3)]):
        with pytest.raises(ValueError, match="payload.triples"):
            closed_set(bad)


def test_a_default_verdict_carries_empty_read_only_data():
    # every Verdict built without data shares one empty mapping, which no
    # verdict can write into
    first, second = Verdict("pass"), Verdict("fail", "why")
    assert first.data == {} and second.data == {}
    with pytest.raises(TypeError):
        first.data["position"] = (1, 2, 3)
    assert second.data == {} and Verdict("pass").data == {}
    own = Verdict("fail", "x", {"position": (1, 2, 3)})
    assert own.data == {"position": (1, 2, 3)} and Verdict("fail").data == {}
    # a witness built without a payload holds the same read-only default
    from degenlab.degeneration import _EMPTY

    assert first.data is _EMPTY
    bare = NonDegenerationWitness("DimSquare", AlgebraRef("T22", 6),
                                  AlgebraRef("eta2", 5), provenance="paper",
                                  witness_id="W.bare")
    assert bare.payload is _EMPTY
    with pytest.raises(TypeError):
        bare.payload["element"] = [1]


def _random_spec(n, rng):
    return tuple(
        (rng.randint(1, n), rng.randint(1, n), rng.randint(1, n + 1))
        for _ in range(rng.randint(1, 3)))


def test_hit_pairs_match_the_coordinate_rule_of_project_to_spec():
    # a listed (p, q, k) is the pair whose coordinates r < k, and no more,
    # are forbidden; triples with i > j hit pairs only through the
    # symmetric half, q >= i and p >= j
    rng = random.Random(1701)
    swapped = 0
    for _ in range(240):
        n = rng.randint(2, 8)
        spec = _random_spec(n, rng)
        swapped += any(i > j for i, j, _ in spec)
        want = []
        for p in range(1, n):
            for q in range(p + 1, n + 1):
                top = max((r for r in range(1, n + 1)
                           if spec_forbids(spec, p, q, r)), default=0)
                if top:
                    want.append((p - 1, q - 1, top + 1))
        assert _hit_pairs(spec, n) == tuple(want), spec
    assert swapped >= 100


def test_exact_probe_agrees_with_the_sampled_oracle_on_shipped_specs():
    for triples, n in _shipped_closed_set_specs():
        pairs = _hit_pairs(triples, n)
        assert sampled_lower_triangular_probe(pairs, n, 100, 20240917).ok
        assert exact_lower_triangular_probe(pairs, n) == Verdict("pass")
        assert lower_triangular_invariance_probe(triples, n) == Verdict("pass")


def test_exact_probe_agrees_with_the_sampled_oracle_on_random_specs():
    # every spec's pair map is upward closed, so both must pass; the specs
    # hold triples with i > j, whose hits come from the symmetric half
    rng = random.Random(1601)
    swapped = 0
    for _ in range(320):
        n = rng.randint(2, 8)
        spec = _random_spec(n, rng)
        swapped += any(i > j for i, j, _ in spec)
        pairs = _hit_pairs(spec, n)
        assert exact_lower_triangular_probe(pairs, n) == Verdict("pass")
        assert sampled_lower_triangular_probe(
            pairs, n, 20, rng.randint(0, 10 ** 6)).ok, spec
    assert swapped >= 100


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 9).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.tuples(st.integers(1, n), st.integers(1, n), st.integers(1, n + 1)),
    min_size=1, max_size=6))))
def test_every_set_of_triples_is_stable_under_the_lower_triangular_group(case):
    # the theorem the program's probe states: B fixes every V_k, so the
    # hit pairs of any triples, i > j and k = n + 1 included, pass the
    # exact criterion
    n, triples = case
    spec = tuple(triples)
    assert exact_lower_triangular_probe(_hit_pairs(spec, n), n) == Verdict("pass")
    assert lower_triangular_invariance_probe(spec, n) == Verdict("pass")


NOT_MONOTONE = [
    # e1e2 in V_3, but e1e3 and e2e3 are free
    (((0, 1, 3),), 3),
    # every product in V_3 except e3e4, which lies above all of them
    (((0, 1, 3), (0, 2, 3), (0, 3, 3), (1, 2, 3), (1, 3, 3), (2, 3, 2)), 4),
    # e2e4 = 0, but e3e4 only in V_4
    (((1, 3, 6), (2, 3, 4)), 5),
    # e1e4 in V_3 alone
    (((0, 3, 3),), 6),
]


@pytest.mark.parametrize("pairs, n", NOT_MONOTONE)
def test_a_pair_map_that_falls_going_up_fails_both_probes(pairs, n):
    # pair maps that no triples give: the exact criterion and the sampler
    # both see them fall
    assert exact_lower_triangular_probe(pairs, n).status == "fail"
    assert sampled_lower_triangular_probe(pairs, n, 100, 1602).status == "fail"


def test_a_failing_verdict_names_both_pairs():
    verdict = exact_lower_triangular_probe(NOT_MONOTONE[1][0], 4)
    assert verdict.reason == (
        "e1e2 must lie in V_3, but a flag-preserving change mixes in e3e4, "
        "which need only lie in V_2")


def test_hitting_only_the_pair_of_each_triple_fails_every_shipped_spec():
    # the mutant reading of a triple (i, j, k) that hits e_i e_j alone and
    # not the pairs above it: no shipped set stays stable
    specs = _shipped_closed_set_specs()
    assert len(specs) == 9
    for triples, n in specs:
        strictest = {}
        for i, j, k in triples:
            if i != j:
                pair = (min(i, j) - 1, max(i, j) - 1)
                strictest[pair] = max(k, strictest.get(pair, 1))
        pairs = tuple((p, q, k) for (p, q), k in sorted(strictest.items()))
        assert exact_lower_triangular_probe(pairs, n).status == "fail", triples
        assert sampled_lower_triangular_probe(pairs, n, 100, 1603).status == "fail"


def _sparse_table(n, rng):
    """Random integer table whose coefficients are 0 with probability 1/2
    or more, so that flag conditions hold often enough to matter."""
    zero = rng.random()
    table = {}
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            vec = tuple(0 if rng.random() < zero or rng.random() < 0.5
                        else rng.randint(-3, 3) for _ in range(n))
            if any(vec):
                table[(i, j)] = vec
    return fraction_tensor(n, table)


def _quadrant(rows, n):
    # a cone on table rows: scaling the table by c scales the product by c^2
    e12 = next((dict(entries) for i, j, entries in rows if (i, j) == (0, 1)), {})
    return e12.get(0, 0) * e12.get(n - 1, 0) >= 0


def test_orbit_sampling_matches_the_inverse_path_on_random_specs():
    # status, reason, trial index and basis equal the inverse-based
    # reference, with and without a cone predicate
    rng = random.Random(2024)
    statuses = set()
    for case in range(240):
        n = rng.randint(2, 4)
        b = _sparse_table(n, rng)
        spec = _random_spec(n, rng)
        cone = (lambda rows, n=n: _quadrant(rows, n)) if case % 3 == 0 else None
        seed = rng.randint(0, 10 ** 6)
        got = randomized_orbit_refute(b, spec, 30, seed, cone)
        want = inverse_orbit_refute(
            b, lambda t: closed_set_member(t, spec) and (
                cone is None or _quadrant(t.table, n)), 30, seed)
        assert got == want, (b.products, spec, cone, seed)
        statuses.add((got.status, cone is None))
    assert len(statuses) == 4


def test_orbit_sampling_matches_the_inverse_path_on_shipped_witnesses():
    ledger = load_ledger(shipped_ledger_path())
    closed = [w for w in ledger.witnesses if w.kind == "ClosedSet"]
    assert closed
    for w in closed:
        spec = w.spec
        for side in (w.source, w.target):
            b = side.resolve()
            got = randomized_orbit_refute(b, spec, 20, 20240917)
            want = inverse_orbit_refute(
                b, lambda t: closed_set_member(t, spec), 20, 20240917)
            assert got == want, w.witness_id


def test_bespoke_sampling_matches_the_inverse_path():
    # T222_e7special meets R (a permutation basis lands in it)
    special = instantiate("T222_e7special", 7)
    for seed in (8, 20240917):
        got = randomized_orbit_refute(special, _R_FLAGS, 100, seed,
                                      cone=_r_quadratics_hold)
        assert got == inverse_orbit_refute(special, _in_r, 100, seed)


def test_orbit_sampling_misses_a_member_of_r_that_permutations_find():
    # a known blind spot of the sampled tier: T222_e7special lies in R, as
    # 6 of the 5040 permutation bases show, yet 2000 dense integer draws
    # land in R's flag conditions 0 times, so the cone is never read and
    # the verdict is refutation_not_found.  A dense draw meets a proper
    # closed set with probability about 0; a member would have to be
    # solved for, not drawn (ROADMAP items 6, 8 and 20).  When sampling
    # learns to land in the set, this test fails and the ledger's
    # FALSIFICATION-ONLY rows are to be read again.
    special = instantiate("T222_e7special", 7)
    pairs = _hit_pairs(_R_FLAGS, 7)
    members = 0
    for perm in itertools.permutations(range(7)):
        g = [[int(j == p) for j in range(7)] for p in perm]
        members += _in_set(special.table, 7, g, int_suffix_spans(g), pairs,
                           _r_quadratics_hold)
    assert members == 6
    rng = random.Random(0)
    draws = [random_invertible(7, rng) for _ in range(2000)]
    assert not any(_in_set(special.table, 7, g, spans, pairs, None)
                   for g, spans in draws)
    verdict = randomized_orbit_refute(special, _R_FLAGS, trials=2000, seed=0,
                                      cone=_r_quadratics_hold)
    assert verdict.status == "refutation_not_found"


def test_orbit_membership_matches_the_inverse_path():
    # on unprojected tables: the prefix test of a flag-preserving basis,
    # and the span test of any invertible basis, against the membership
    # of the whole orbit point
    rng = random.Random(77)
    seen = set()
    for _ in range(300):
        n = rng.randint(3, 8)
        b = _sparse_table(n, rng)
        spec = _random_spec(n, rng)
        table, pairs = b.table, _hit_pairs(spec, n)
        flag = random_lower_triangular(n, rng)
        want = closed_set_member(inverse_orbit_point(table, n, flag), spec)
        assert flag_change_meets(table, n, flag, pairs) == want
        assert _in_set(table, n, flag, int_suffix_spans(flag), pairs, None) == want
        seen.add(want)
        g, spans = random_invertible(n, rng)
        want = closed_set_member(inverse_orbit_point(table, n, g), spec)
        assert _in_set(table, n, g, spans, pairs, None) == want
        seen.add(("general", want))
    assert seen == {True, False, ("general", True), ("general", False)}


@pytest.mark.parametrize("rows, reason", [
    (["e1", "e2", "e3", "e5", "e6", "e4", "e4"], "singular"),
    (["e1", "e2", "e3", "e5", "e6", "e4", "t*e7"], "singular"),
    (["(1/t)*e1", "e2", "e3", "e5", "e6", "e4", "e7"], "pole"),
])
def test_bad_stored_source_basis_is_refuted(rows, reason):
    w = NonDegenerationWitness(
        kind="BespokeR",
        source=AlgebraRef("T222_e7special", 7),
        target=AlgebraRef("T222_e24", 7),
        payload={"source_basis": rows},
    )
    verdict = verify_nondegeneration(w, Records(6), trials=5)
    assert verdict.status == "refuted"
    assert reason in verdict.reason and "stored source basis" in verdict.reason


_SCALED_R_BASIS = ["(1/2)*e1", "(2/3+t)*e2", "e3", "(3/5)*e5",
                   "(t+1)/(2*t+3)*e6", "(-7/4)*e4"]


@pytest.mark.parametrize("last, status, reason", [
    ("e7", "refutation_not_found", "source meets the set"),
    ("(1/3)*e1+e7", "refuted", "does not land in the set"),
    ("(2/3)*e4+t*e7", "refuted", "singular at t = 0"),
    ("(1/(2*t))*e7", "refuted", "has a pole at t = 0"),
])
def test_fractional_stored_source_basis_verdicts(last, status, reason):
    # the source_basis path tests membership on the integer orbit point of
    # the scaled basis; the Fraction basis change through sympy's values at
    # t = 0 decides the same membership
    rows = _SCALED_R_BASIS + [last]
    w = NonDegenerationWitness(
        kind="BespokeR",
        source=AlgebraRef("T222_e7special", 7),
        target=AlgebraRef("T222_e24", 7),
        payload={"source_basis": rows},
    )
    verdict = verify_nondegeneration(w, Records(6), trials=5)
    assert (verdict.status, reason in verdict.reason) == (status, True)
    at_zero = [[qt_at_zero(f) for f in qt_basis_row(r, 7)] for r in rows]
    if reason in ("source meets the set", "does not land in the set"):
        moved = change_basis(instantiate("T222_e7special", 7), at_zero)
        assert _in_r(moved) == (status == "refutation_not_found")
    elif "singular" in reason:
        assert fraction_inverse(at_zero) is None
    else:
        assert any(x is None for row in at_zero for x in row)


def _mutated_stored_bases(w, rng, count):
    """count stored source bases for a closed-set witness: its own (the
    identity when it stores none) with one or two rows changed by a
    rational multiple of a basis vector, a rational function with a value
    at t = 0, a pole at t = 0, or a copy of another row plus a t-term
    (singular at t = 0)."""
    n = w.source.dim
    own = w.payload.get("source_basis") or [f"e{k}" for k in range(1, n + 1)]
    for _ in range(count):
        rows = list(own)
        for _ in range(rng.randint(1, 2)):
            r, k = rng.randrange(n), rng.randint(1, n)
            coeff = rng.choice([f"({rng.randint(-5, 5)}/{rng.randint(1, 4)})",
                                "(t+2)/(3*t+1)", "(2*t-1)/(t^2+5)",
                                "(1/t)", "(3/(2*t))", "(t+1)/t^2"])
            if rng.random() < 0.2:
                rows[r] = f"{rows[(r + 1) % n]}+t*e{k}"
            else:
                rows[r] = f"{rows[r]}+{coeff}*e{k}"
        yield NonDegenerationWitness(w.kind, w.source, w.target,
                                     dict(w.payload, source_basis=rows),
                                     w.provenance, w.witness_id)


def test_the_source_side_is_tested_as_the_inverse_path_tests_it():
    # the stored basis read at t = 0 as G[v] and tested on its rows, as a
    # sample is, gives the verdict of the former path: Fraction values by
    # limit_at_zero, int_scaled, the orbit point through the inverse and
    # closed_set_member on it; shipped witnesses and stored bases with
    # rational entries, poles and singular values at t = 0
    ledger = load_ledger(shipped_ledger_path())
    rng = random.Random(40)
    seen = {}
    for w in ledger.witnesses:
        if w.kind not in ("ClosedSet", "BespokeR"):
            continue
        src = w.source.resolve()
        for case in [w, *_mutated_stored_bases(w, rng, 6)]:
            want = source_side_oracle(case, src)
            verdict = verify_nondegeneration(case, Records(5), trials=1)
            if want is None:
                assert not verdict.reason.startswith("stored source basis"), case
            else:
                assert verdict == Verdict("refuted", want), case
            seen[want] = seen.get(want, 0) + 1
    assert seen[None] and len(seen) == 4, seen


# --- the torus-fixed flag search ------------------------------------------


def test_r_is_stable_under_the_lower_triangular_group():
    # the torus-fixed flag search decides BespokeR targets only because R
    # is closed and B-stable: its flags pass the exact criterion; each of
    # its 7 quadratic relations is homogeneous for the diagonal torus; and
    # under each of the 21 elementary flag-preserving changes
    # e_a -> e_a + s e_b (b > a), every coefficient of s in every image
    # relation lies in the span of the 7 relations on R's flag space, one
    # rank test.  B is the torus times those changes, and a homogeneous
    # quadratic in that span vanishes wherever the relations do.
    from degenlab.linalg import int_echelon

    n = 7
    assert exact_lower_triangular_probe(_hit_pairs(_R_FLAGS, n), n).ok
    for relation in _R_QUADRATICS:
        weights = set()
        for m1, m2, _ in relation:
            w = [0] * n
            for i, j, k in (m1, m2):
                w[i - 1] += 1
                w[j - 1] += 1
                w[k - 1] -= 1
            weights.add(tuple(w))
        assert len(weights) == 1, relation
    # the flag space: a product e_p e_q (p < q, 0-based) of a listed pair
    # lies in V_k, coordinates k - 1 onward
    low = {(p, q): k - 1 for p, q, k in _hit_pairs(_R_FLAGS, n)}
    free = [(p, q, r) for p in range(n) for q in range(p + 1, n)
            for r in range(low.get((p, q), 0), n)]
    assert len(free) == 15

    def const(p, q, r):  # c_pq^r of a generic member, as a linear form
        if p == q:
            return {}
        sign, (p, q) = (1, (p, q)) if p < q else (-1, (q, p))
        return {(p, q, r): sign} if (p, q, r) in free else {}

    def times(f, g):  # two linear forms -> a quadratic form
        out = {}
        for u, x in f.items():
            for v, y in g.items():
                key = tuple(sorted((u, v)))
                out[key] = out.get(key, 0) + x * y
        return out

    def add(f, g, c=1):
        out = dict(f)
        for key, x in g.items():
            out[key] = out.get(key, 0) + c * x
        return {key: x for key, x in out.items() if x}

    def image(rel, a, b):
        """The coefficients of s in the relation rel, read in the basis
        g_a = e_a + s e_b, g_r = e_r: [form of s^0, s^1, s^2, ...]."""
        def moved(p, q, r):  # the constant C'_pq^r as [coefficient of s^d]
            # g_p g_q = e_p e_q + s [p = a] e_b e_q + s [q = a] e_p e_b,
            # and e_a = g_a - s g_b, so coordinate b of g loses s (coord a)
            terms = [{}, {}, {}]
            pairs = [((p, q), 0)]
            pairs += [((b, q), 1)] if p == a else []
            pairs += [((p, b), 1)] if q == a else []
            for (u, v), d in pairs:
                terms[d] = add(terms[d], const(u, v, r))
                if r == b:
                    terms[d + 1] = add(terms[d + 1], const(u, v, a), -1)
            return terms

        out = [{} for _ in range(5)]
        for m1, m2, sign in rel:
            f = moved(*(x - 1 for x in m1))
            g = moved(*(x - 1 for x in m2))
            for d1, x in enumerate(f):
                for d2, y in enumerate(g):
                    out[d1 + d2] = add(out[d1 + d2], times(x, y), sign)
        return out

    assert all((i - 1, j - 1, k - 1) in free for rel in _R_QUADRATICS
               for m1, m2, _ in rel for i, j, k in (m1, m2))
    relations = [image(rel, 0, 1)[0] for rel in _R_QUADRATICS]  # at s = 0
    images = [form for a in range(n) for b in range(a + 1, n)
              for rel in _R_QUADRATICS for form in image(rel, a, b) if form]
    monomials = sorted({key for form in relations + images for key in form})
    rows = [[form.get(key, 0) for key in monomials] for form in relations]
    assert len(int_echelon(rows)) == 7
    assert len(int_echelon(rows + [[form.get(key, 0) for key in monomials]
                                   for form in images])) == 7
    assert len(images) == 154


def _closed_set_witnesses():
    return [w for w in load_ledger(shipped_ledger_path()).witnesses
            if w.kind in ("ClosedSet", "BespokeR")]


def _set_of(w):
    return (w.spec, None) if w.kind == "ClosedSet" else (_R_FLAGS, _r_quadratics_hold)


def _meets_in_set(b, spec, cone, g):
    return _in_set(b.table, b.dim, g, int_suffix_spans(g), _hit_pairs(spec, b.dim), cone)


def test_the_search_decides_the_shipped_closed_set_targets():
    # every source meets its set, by a basis that `_in_set` confirms; 12
    # targets miss theirs, and W.ex222.b.7's target needs the cone on a
    # line family, so its draws stay
    answers = {}
    for w in _closed_set_witnesses():
        spec, cone = _set_of(w)
        src, tgt = w.source.resolve(), w.target.resolve()
        answer, g = torus_fixed_flag_search(src, spec, cone)
        assert answer == "meets" and _meets_in_set(src, spec, cone, g), w.witness_id
        answers[w.witness_id] = torus_fixed_flag_search(tgt, spec, cone)
    assert answers == dict.fromkeys(answers, ("misses", None)) | {
        "W.ex222.b.7": ("undecided", None)}
    assert len(answers) == 13


def test_the_search_matches_the_brute_force_oracle():
    # every catalog label at dims <= 6 with the shipped sets of its dim and
    # random B-stable ones, and R at dim 7, against every coordinate order
    # with the line family solved by sympy; each "meets" basis is a member
    specs = {}
    for w in _closed_set_witnesses():
        specs.setdefault(w.source.dim, set()).add(_set_of(w))
    rng, seen = random.Random(5200), collections.Counter()
    cases = []
    for label, b in catalog_labels(6).items():
        for spec, cone in specs.get(b.dim, ()):
            cases.append((label, b, spec, cone))
        if max(map(len, weight_spaces(b))) == 2 or rng.random() < 0.2:
            for _ in range(3):
                cases.append((label, b, _random_spec(b.dim, rng), None))
    for key in ("T22_e45", "T222_e7special", "T222_e24", "T22_e24", "T3_e45"):
        cases.append((f"{key}@7", instantiate(key, 7), _R_FLAGS, _r_quadratics_hold))
    for label, b, spec, cone in cases:
        answer, g = torus_fixed_flag_search(b, spec, cone)
        assert answer == torus_fixed_flag_oracle(b, spec, cone), (label, spec)
        if g is not None:
            assert _meets_in_set(b, spec, cone, g), (label, spec)
        seen[answer, max(map(len, weight_spaces(b)))] += 1
    assert set(seen) == {("meets", 1), ("misses", 1), ("meets", 2),
                         ("misses", 2), ("undecided", 2)}, seen


def test_the_search_matches_the_oracle_on_random_graded_tables():
    # tables graded by weights in Z^2 with two coordinates of one weight,
    # so that products reach the plane and its line family carries linear
    # and quadratic forms, rational and irrational; sets with k >= i, j
    rng, seen = random.Random(5202), collections.Counter()
    while sum(seen.values()) < 100:
        n = rng.randint(3, 5)
        w = [(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(n)]
        a, c = rng.sample(range(n), 2)
        w[c] = w[a]
        table = {}
        for i in range(n):
            for j in range(i + 1, n):
                s = (w[i][0] + w[j][0], w[i][1] + w[j][1])
                vec = tuple(rng.choice([1, -1, 2, -2, 3]) if w[k] == s and rng.random() < 0.8
                            else 0 for k in range(n))
                if any(vec):
                    table[(i + 1, j + 1)] = vec
        b = fraction_tensor(n, table)
        if sorted(map(len, weight_spaces(b)))[-2:] != [1, 2]:
            continue
        spec = tuple((i, j, rng.randint(max(i, j), n + 1)) for i, j in
                     [(rng.randint(1, n), rng.randint(1, n)) for _ in range(rng.randint(1, 4))])
        answer, g = torus_fixed_flag_search(b, spec)
        assert answer == torus_fixed_flag_oracle(b, spec), (table, spec)
        if g is not None:
            assert _meets_in_set(b, spec, None, g), (table, spec)
        seen[answer, g is None] += 1
    assert seen[("meets", False)] and seen[("misses", True)], seen


@pytest.mark.parametrize("name, n, answer", [("zero", 3, "meets"), ("n3", 3, "misses")])
def test_a_triple_that_names_no_level_is_tested_before_any_placement(name, n, answer):
    # A(V, V) = 0 names only V and 0: no level is placed
    assert torus_fixed_flag_search(instantiate(name, n), ((1, 1, n + 1),))[0] == answer


@pytest.mark.parametrize("wid, dropped", [
    ("W.T3lev.e.6", [(1, 3, 6), (3, 3, 7)]),
    ("W.T3lev.k.7", [(1, 1, 6), (1, 3, 7), (2, 6, 8)]),
    ("W.T4lev.a.5", [(1, 4, 5), (2, 4, 6), (2, 3, 5)]),
])
def test_the_targets_meet_their_sets_with_a_triple_dropped(wid, dropped):
    # the controls of the exact closed-set tier: each of these triples is
    # needed for the target to miss its set
    w = next(w for w in _closed_set_witnesses() if w.witness_id == wid)
    tgt = w.target.resolve()
    for triple in dropped:
        spec = tuple(t for t in w.spec if t != triple)
        answer, g = torus_fixed_flag_search(tgt, spec)
        assert answer == "meets" and _meets_in_set(tgt, spec, None, g), triple
        assert torus_fixed_flag_oracle(tgt, spec) == "meets"


def test_the_search_meets_a_set_through_a_line_off_the_coordinates():
    # e1 e2 = e3 + e4 has the weight space <e3, e4>, and A(V, V) lies in the
    # last line W_4 only for W_4 = <e3 + e4>: no coordinate flag is a
    # member, so a search of coordinate flags alone would answer "misses"
    b = fraction_tensor(4, {(1, 2): (0, 0, 1, 1)})
    spec = ((1, 1, 4),)
    answer, g = torus_fixed_flag_search(b, spec)
    assert answer == "meets" and g[3] == [0, 0, 1, 1]
    assert _meets_in_set(b, spec, None, g)
    assert not any(
        _meets_in_set(b, spec, None, [[int(x == p) for x in range(4)] for p in perm])
        for perm in itertools.permutations(range(4)))
    # a quadratic with rational zeros: (2 e3 + e4) and (e3 + e4) are the
    # lines whose products with e1 and e2 stay in them
    b = fraction_tensor(4, {(1, 2): (0, 0, 2, 1)})
    assert torus_fixed_flag_search(b, spec)[1][3] == [0, 0, 2, 1]


@pytest.mark.parametrize("n, products, spec, cone", [
    # a 3-dim weight space <e3, e4, e5>
    (5, {(1, 2): (0, 0, 1, 1, 1)}, ((1, 1, 5),), None),
    # two 2-dim weight spaces
    (6, {(1, 2): (0, 0, 1, 1, 0, 0), (1, 3): (0, 0, 0, 0, 1, -2)}, ((1, 1, 6),), None),
    # a cone on the line family of <e3, e4>: the flags alone are met
    (4, {(1, 2): (0, 0, 1, 1)}, ((1, 1, 4),), lambda rows: True),
])
def test_the_search_leaves_what_it_cannot_decide_undecided(n, products, spec, cone):
    b = fraction_tensor(n, products)
    assert torus_fixed_flag_search(b, spec, cone) == ("undecided", None)


def test_the_zero_table_meets_every_set_on_its_coordinate_flags():
    # the zero table's weight spaces are its coordinates, and it lies in
    # every flag-condition set and in R
    for n, spec, cone in [(4, ((1, 1, 5),), None), (7, _R_FLAGS, _r_quadratics_hold)]:
        b = instantiate("zero", n)
        assert weight_spaces(b) == tuple((x,) for x in range(n))
        answer, g = torus_fixed_flag_search(b, spec, cone)
        assert answer == "meets" and _meets_in_set(b, spec, cone, g)


def _sampled_verdict(w, seed, trials):
    """The target side as the draws decide it, `randomized_orbit_refute`
    called directly, for a witness whose source side lands in its set."""
    spec, cone = _set_of(w)
    verdict = randomized_orbit_refute(w.target.resolve(), spec, trials, seed, cone)
    if verdict.status == "refuted":
        return Verdict("refuted", "target orbit meets the set: " + verdict.reason,
                       verdict.data)
    return Verdict("refutation_not_found",
                   f"source meets the set; {trials} target orbit samples all miss it")


def test_skipping_the_decided_draws_keeps_every_verdict(monkeypatch):
    # every shipped witness, at the recorded seeds and at 1, 20 and 200
    # trials: the verdict with the skip is the verdict of the draws, which
    # for a closed-set witness is randomized_orbit_refute's called directly
    from degenlab import degeneration

    witnesses = load_ledger(shipped_ledger_path()).witnesses
    drawn = []
    draws = degeneration.randomized_orbit_refute

    def counted(b, spec, trials, seed, cone=None):
        drawn.append(b)
        return draws(b, spec, trials, seed, cone)

    monkeypatch.setattr(degeneration, "randomized_orbit_refute", counted)
    for seed in (20240917, 1, 2, 99):
        records = Records(seed)
        for trials in (1, 20, 200):
            drawn.clear()
            for w in witnesses:
                verdict = verify_nondegeneration(w, records, trials=trials)
                if w.kind in ("ClosedSet", "BespokeR"):
                    assert verdict == _sampled_verdict(w, seed, trials), w.witness_id
            assert len(drawn) == 1  # W.ex222.b.7's target, undecided


def test_the_skipped_witnesses_are_the_decided_targets(monkeypatch):
    from degenlab import degeneration

    drawn = []
    monkeypatch.setattr(degeneration, "randomized_orbit_refute",
                        lambda *args: drawn.append(current) or randomized_orbit_refute(*args))
    records, skipped = Records(20240917), []
    for w in _closed_set_witnesses():
        current = w.witness_id
        verify_nondegeneration(w, records, trials=20)
        if current not in drawn:
            skipped.append(current)
    assert drawn == ["W.ex222.b.7"]
    assert skipped == [
        "W.T22deg.a.6", "W.T22deg.a.7", "W.T222lev.b.7", "W.T222lev.b.8",
        "W.ex222.a.7", "W.T3lev.e.6", "W.T3lev.e.7", "W.T3lev.k.6",
        "W.T3lev.k.7", "W.T32lev.f.7", "W.T32lev.f.8", "W.T4lev.a.5"]


def test_a_target_that_meets_its_set_is_refuted_with_no_draw(monkeypatch):
    # T22_e24@6 lies in the set of W.T22deg.a.6's triples, so a witness
    # from it to itself is searched "meets" with a basis that puts the
    # target in the set: that refutes it, and no orbit sample is drawn,
    # where 20 draws all miss
    from degenlab import degeneration

    calls = []
    monkeypatch.setattr(degeneration, "randomized_orbit_refute",
                        lambda *args: calls.append(args) or randomized_orbit_refute(*args))
    ref = AlgebraRef("T22_e24", 6)
    w = NonDegenerationWitness("ClosedSet", ref, ref,
                               {"triples": [[1, 3, 6], [3, 3, 7]]})
    records = Records(20240917)
    answer, basis = records.flag_search(ref, w.spec)
    assert answer == "meets"
    b = ref.resolve()
    assert _in_set(b.table, 6, basis, int_suffix_spans(basis), _hit_pairs(w.spec, 6), None)
    verdict = verify_nondegeneration(w, records, trials=20)
    assert calls == []
    assert verdict == Verdict(
        "refuted", "target orbit meets the set: found on a torus-fixed flag",
        {"basis": [[str(x) for x in row] for row in basis]})
    assert _sampled_verdict(w, 20240917, 20).status == "refutation_not_found"


def test_a_meets_with_no_basis_and_an_undecided_target_are_still_sampled(monkeypatch):
    # an irrational line gives "meets" with no basis to test, and an
    # undecided target has none either: both are drawn as before
    from degenlab import degeneration

    ref = AlgebraRef("T22_e24", 6)
    w = NonDegenerationWitness("ClosedSet", ref, ref,
                               {"triples": [[1, 3, 6], [3, 3, 7]]})
    for answer in ("meets", "undecided"):
        calls = []
        monkeypatch.setattr(degeneration, "randomized_orbit_refute",
                            lambda *args: calls.append(args) or randomized_orbit_refute(*args))
        records = Records(20240917)
        monkeypatch.setattr(records, "flag_search", lambda *args: (answer, None))
        assert verify_nondegeneration(w, records, trials=20) == _sampled_verdict(
            w, 20240917, 20)
        assert len(calls) == 1


def test_a_run_searches_each_label_and_set_once(monkeypatch):
    from degenlab import degeneration
    from degenlab.verification_db import run_ledger

    searched = []
    search = degeneration.torus_fixed_flag_search
    monkeypatch.setattr(degeneration, "torus_fixed_flag_search",
                        lambda b, spec, cone=None: searched.append((b, spec, cone))
                        or search(b, spec, cone))
    ledger = load_ledger(shipped_ledger_path())
    run_ledger(ledger._replace(certificates=[], chains=[]), seed=1, trials=1)
    keys = {(w.target.label, *_set_of(w)) for w in _closed_set_witnesses()}
    assert len(searched) == len(keys) == 11
