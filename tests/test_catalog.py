import collections
import json
import random
from fractions import Fraction
from functools import reduce
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenlab.algebra import (
    MAX_DIM,
    StructureTensor,
    change_basis,
    power_ideal,
)
from degenlab.catalog import (
    CatalogName,
    DimensionOutOfRange,
    LevelAtLeast6,
    LevelValue,
    NeedsExtension,
    MANIFEST_FAMILIES,
    PreconditionViolated,
    UnknownFamily,
    _form_roots,
    _meet,
    _pencil_generic_rank,
    _pfaffian_span,
    _skew_net,
    build_manifest,
    classify_T22,
    expected_iw_max,
    instantiate,
    level_lookup,
    parse_name,
    pfaffian_conic_profile,
)
from degenlab.catalog import tested_dims as catalog_tested_dims
from degenlab.linalg import int_echelon, int_scaled
from degenlab.verification_db import shipped_ledger_path

from oracles import Subspace, binary_form_gcd, fraction_inverse, pencil_rank_oracle
from oracles import random_lower_triangular
from oracles import (
    classify_T22_oracle,
    pencil_generic_rank_oracle,
    pencil_of,
    pfaffian_conic_profile_oracle,
    pfaffian_span_oracle,
    skew_net_oracle,
)


def test_instantiate_examples():
    eta2 = instantiate("eta2", 5)
    assert eta2 == StructureTensor.from_pairs(5, [(1, 2, 5), (3, 4, 5)])
    t32 = instantiate("T32", 6)
    assert t32 == StructureTensor.from_pairs(6, [(1, 2, 5), (1, 3, 4), (1, 4, 6)])
    with pytest.raises(DimensionOutOfRange):
        instantiate("T22_e45", 6)
    with pytest.raises(DimensionOutOfRange):
        instantiate("T33", 8)


def test_tables_have_unit_coefficients():
    import degenlab.catalog as cat

    for key in cat.MANIFEST_FAMILIES:
        name = parse_name(key)
        for n in catalog_tested_dims(name):
            tensor = instantiate(name, n)
            for vec in tensor.products.values():
                for c in vec:
                    assert c in (0, 1, -1, Fraction(1), Fraction(-1))


def test_parse_name_is_memoized_and_an_unknown_key_raises_at_every_call():
    # the name is an immutable NamedTuple, so a key parses once; a key that
    # names no family is not remembered and raises UnknownFamily each time
    name = parse_name("T22_e45")
    assert parse_name("T22_e45") is name and name.key == "T22_e45"
    for key in ("T22_e99", "eta02", "T22_e45 "):
        for _ in range(3):
            with pytest.raises(UnknownFamily):
                parse_name(key)


def test_parse_name_round_trip():
    import degenlab.catalog as cat

    for key in cat.MANIFEST_FAMILIES:
        assert parse_name(key).key == key


def test_build_skew_pair_canonical_pair_is_the_level_five_structure():
    # the skew pair on U = <e1, ..., e5> with target <e6, e7>: the first
    # form is e1e2, the second e1e3 plus the M4 and M5 blocks e2e4, e3e5
    algebra = StructureTensor.from_pairs(7, [(1, 2, 6), (1, 3, 7),
                                             (2, 4, 7), (3, 5, 7)])
    assert classify_T22(algebra).key == "T22_e45"


def test_classify_examples():
    assert classify_T22(instantiate("T22", 6)).key == "T22"
    assert classify_T22(instantiate("T22_e23", 7)).key == "T22_e23"
    assert classify_T22(instantiate("T22_e24", 6)).key == "T22_e24"
    assert classify_T22(instantiate("T22_e34", 6)).key == "T22_e34"
    assert classify_T22(instantiate("T22_e45", 7)).key == "T22_e45"


def test_classify_round_trip_under_random_flag_preserving_changes():
    rng = random.Random(21)
    for key in ("T22", "T22_e23", "T22_e24", "T22_e34", "T22_e45"):
        a = instantiate(key, 7)
        for _ in range(15):
            moved = change_basis(a, random_lower_triangular(7, rng))
            assert classify_T22(moved).key == key


def test_classify_needs_extension_for_irrational_eigenvalue():
    # matrix pair with characteristic form x^2 - 2y^2: no rational root
    n = 6
    a = StructureTensor.from_pairs(n, [
        (1, 2, n - 1), (1, 3, n),
        (3, 4, n - 1),          # upper-right entry of the pair matrix
        (2, 4, n, 2),           # lower-left entry 2
    ])
    assert classify_T22(a) is NeedsExtension


@pytest.mark.parametrize("forms, want", [
    ([(1, 0, 1)], (2, "irrational")),   # x^2 + y^2: no real root
    ([(1, 0, -2)], (2, "irrational")),  # x^2 - 2 y^2
    ([(1, 0, -1)], (2, "split")),       # (x - y)(x + y)
    ([(Fraction(1, 2), 1, Fraction(1, 2))], (2, "double")),  # (x + y)^2 / 2
    ([(0, 1, 0)], (2, "split")),        # x y
    ([(0, 0, 3)], (2, "double")),       # 3 y^2
    ([(1, 0, -1), (1, -2, 1)], (1, None)),  # gcd x - y
    ([(1, 0, -1), (1, 0, 1)], (0, None)),
    ([(2, -6, 4), (Fraction(1, 3), -1, Fraction(2, 3))], (2, "split")),
    ([(3, 0, 3), (Fraction(-1, 2), 0, Fraction(-1, 2))], (2, "irrational")),
    # forms given as lists, as `int_echelon` rows are
    ([[1, 1, 2]], (2, "irrational")),
    ([[1, 1, 2], [2, 2, 4]], (2, "irrational")),
    ([[1, 1, 2], [1, 0, -1]], (0, None)),
    ([[0, 1, 0], [0, 0, 1]], (1, None)),  # gcd y
    ([[1, -2, 1]], (2, "double")),
])
def test_binary_form_gcd_degree_and_root_kind(forms, want):
    # the polynomial gcd of the forms and the common zeros of their span
    assert binary_form_gcd(forms) == want
    assert _divisor(_span(forms)) == want


def _span(forms):
    """The integer echelon rows spanning binary forms, as `_pfaffian_span`
    returns them: lists."""
    return int_echelon(int_scaled(forms)[1])


def _divisor(span):
    """(degree, root kind) of the gcd of the forms that the echelon rows
    `span` span, read off their common zeros on P^1 as `classify_T22`
    reads them (`_meet`, `_form_roots`): independent forms share at most
    one zero, and a lone form has its own two, or no rational one, when
    the line set keeps it as its form, a tuple."""
    zeros = reduce(_meet, span, None)
    if len(span) != 1:
        assert type(zeros) is list
        return (1 if zeros else 0), None
    roots = _form_roots(span[0])
    if roots is None:
        assert zeros == tuple(span[0]) and type(zeros) is tuple
        return 2, "irrational"
    assert zeros == roots
    (x, y), (u, v) = roots
    return 2, "double" if x * v == y * u else "split"


def test_the_line_set_keeps_an_irreducible_form_as_a_tuple():
    # an `int_echelon` row is a list; the line set keeps an irreducible
    # quadratic as a tuple, so it is never read as a list of points
    form = _meet(None, [1, 1, 2])
    assert form == (1, 1, 2) and type(form) is tuple
    assert _meet(form, [2, 2, 4]) is form  # a multiple keeps both zeros
    assert _meet(form, [1, 0, -1]) == [] and _meet(form, [1, 1]) == []
    assert _meet(form, [0, 0, 0]) is form
    assert _meet(_meet(None, [1, 0, -1]), [1, -1]) == [(2, 2)]
    assert _meet(_meet(None, (1, 0, -1)), (1, -1)) == [(2, 2)]


def _times(u, v):
    """The binary quadratic form u v of two linear forms (u0 x + u1 y)."""
    return (u[0] * v[0], u[0] * v[1] + u[1] * v[0], u[1] * v[1])


def _random_linear(rng):
    """A random nonzero linear form, y (a root at infinity) three times in
    ten."""
    if rng.random() < 0.3:
        return (0, 1)
    return rng.choice([(x, y) for x in range(-3, 4) for y in range(-3, 4)
                       if x or y])


def _random_forms(rng):
    """One to four nonzero binary quadratic forms, each a product of two
    linear forms or a random one, each scaled by a random fraction; four
    times in ten all share one linear factor."""
    common = _random_linear(rng) if rng.random() < 0.4 else None
    forms = []
    for _ in range(rng.randint(1, 4)):
        if common:
            form = _times(common, _random_linear(rng))
        elif rng.random() < 0.6:
            form = _times(_random_linear(rng), _random_linear(rng))
        else:
            form = tuple(rng.randint(-3, 3) for _ in range(3))
        scale = Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.choice([1, 2, 3, 7]))
        forms.append(tuple(scale * x for x in form) if any(form) else (0, 0, 1))
    return forms


def test_pencil_divisor_matches_the_polynomial_gcd_on_random_forms():
    # every outcome the classifier branches on is reached, with forms that
    # y divides and with fractional coefficients, and the common zeros of
    # the span agree with the polynomial gcd of the forms
    rng = random.Random(2027)
    seen = collections.Counter()
    for _ in range(3000):
        forms = _random_forms(rng)
        want = binary_form_gcd(forms)
        assert _divisor(_span(forms)) == want, forms
        seen[want] += 1
        seen["y divides every form"] += all(f[0] == 0 for f in forms)
        seen["fractional"] += any(Fraction(x).denominator > 1
                                  for f in forms for x in f)
    assert set(seen) == {(0, None), (1, None), (2, "double"), (2, "split"),
                         (2, "irrational"), "y divides every form", "fractional"}
    assert min(seen.values()) >= 20, seen


def test_classify_level_at_least_six():
    # r = 6: three independent matrices beside the identity
    n = 8
    a = StructureTensor.from_pairs(n, [
        (1, 2, n - 1), (1, 3, n),
        (2, 4, n), (3, 5, n), (3, 6, n - 1),
    ])
    assert classify_T22(a) is LevelAtLeast6


def test_classify_precondition_violated():
    with pytest.raises(PreconditionViolated, match="not 2-Engel"):
        classify_T22(instantiate("T4", 5))
    rng = random.Random(107)
    while True:
        g = [[rng.randint(-3, 3) for _ in range(5)] for _ in range(5)]
        if fraction_inverse(g) is not None:
            break
    with pytest.raises(PreconditionViolated, match="not 2-Engel"):
        classify_T22(change_basis(instantiate("T4", 5), g))  # dense
    # A * A^2 = 0 (so 2-Engel) and dim A^2 = 3, but Ann = A^2 has dim 3 != 4
    with pytest.raises(PreconditionViolated, match="Ann has dim 3 != n-3"):
        classify_T22(StructureTensor.from_pairs(7, [(1, 2, 5), (3, 4, 6),
                                                    (1, 3, 7)]))
    with pytest.raises(PreconditionViolated):
        classify_T22(instantiate("T222", 7))     # square too big
    with pytest.raises(PreconditionViolated):
        classify_T22(instantiate("eta2", 5))     # square too small


def test_level_lookup_examples():
    assert level_lookup("T22_e34", 6).level == LevelValue(exact=4)
    assert level_lookup("T22_e45", 7).level == LevelValue(exact=5)
    assert level_lookup("eta3", 7).level == LevelValue(exact=3)
    assert level_lookup("T4", 5).level == LevelValue(exact=4)
    assert level_lookup("T4", 6).level == LevelValue(exact=5)
    assert level_lookup("T3_e45", 6).level == LevelValue(exact=5)
    assert level_lookup("T3_e45", 7).level == LevelValue(at_least=6)
    assert level_lookup("T222_e7special", 7).infinite_level == \
        LevelValue(at_least=7)
    with pytest.raises(DimensionOutOfRange):
        level_lookup("T22_e45", 6)


def test_level_lookup_gives_the_range_reason_of_instantiate():
    # one range check, one reason: below a family's bound and above MAX_DIM
    # the level lookup raises the message instantiate raises
    for key, n, reason in [
            ("eta2", 2, "eta2 requires n >= 5, got n = 2"),
            ("T33", 8, "T33 requires 7 <= n <= 7, got n = 8"),
            ("zero", MAX_DIM + 1, f"zero: n = {MAX_DIM + 1} exceeds MAX_DIM = {MAX_DIM}")]:
        for read in (level_lookup, instantiate):
            with pytest.raises(DimensionOutOfRange) as info:
                read(key, n)
            assert str(info.value) == reason, (read.__name__, key)


def test_infinite_level_is_the_stable_level():
    # for every manifest family the infinite level equals the level at the
    # largest encoded dimensions whenever the family is dimension-generic
    manifest = build_manifest()
    for family in manifest["families"]:
        name = parse_name(family["name"])
        lo, hi = family["min_dim"], family["max_dim"]
        if hi is not None:
            continue  # fixed-dimension families keep their own stable value
        big = max(family["tested_dims"]) + 3
        stable = level_lookup(name, big).level
        for rec in family["levels"]:
            inf = LevelValue.from_json_obj(rec["infinite_level"])
            assert inf == stable


def test_expected_iw_max_examples():
    assert expected_iw_max("T22_e23") == (2, 2)
    assert expected_iw_max("eta3") == (2,)
    assert expected_iw_max("T32_e23") == (3, 2)
    assert expected_iw_max("T2k2_e23_m4") == (2, 2, 2, 2)
    assert expected_iw_max("zero") == "ones"
    # one pair product: a generic element reaches rank sequence (2, 1)
    assert expected_iw_max("eta_eps_double1") == (3,)
    assert expected_iw_max("eta_eps_double2") == (3, 2)


def test_manifest_ships_and_matches_the_generator(tmp_path):
    with open(shipped_ledger_path().replace("ledger.json", "manifest.json"),
              encoding="utf-8") as fh:
        shipped = json.load(fh)
    assert shipped == json.loads(json.dumps(build_manifest()))
    names = [f["name"] for f in shipped["families"]]
    assert len(names) == len(set(names))
    for family in shipped["families"]:
        name = parse_name(family["name"])
        for n in family["tested_dims"]:
            instantiate(name, n)  # stays inside the bound


def test_catalog_name_keys():
    # a name is its family's key less m, and m: the key reads no table
    assert CatalogName("T22").key == "T22"
    assert CatalogName("eta", m=4).key == "eta4"
    assert CatalogName("T2k2_special_m", m=4).key == "T2k2_special_m4"
    assert parse_name("T2k2_special_m4") == CatalogName("T2k2_special_m", 4)


def test_pencil_divisor_is_exact_on_large_discriminants():
    # x^2 + b xy with b = 10^30 + 7 has discriminant b^2, a square; a near
    # miss (b^2 + 4, from the form x^2 + b xy - y^2) is not
    b = 10**30 + 7
    assert _divisor([[1, b, 0]]) == (2, "split")
    assert _divisor([[1, b, -1]]) == (2, "irrational")
    assert _divisor([[1, 0, -(10**200)]]) == (2, "split")
    assert _divisor([[1, 0, -(10**200) + 1]]) == (2, "irrational")
    assert _divisor([[1, 0, 4]]) == (2, "irrational")


def _two_block_tables():
    """Every two-block catalog member at its tested dims, the classifier's
    hand-built examples, and random conjugates of them."""
    rng = random.Random(53)
    tables = [instantiate(key, n) for key in MANIFEST_FAMILIES
              if expected_iw_max(key) == (2, 2)
              for n in catalog_tested_dims(key)]
    tables += [
        StructureTensor.from_pairs(6, [(1, 2, 5), (1, 3, 6), (3, 4, 5),
                                       (2, 4, 6, 2)]),
        StructureTensor.from_pairs(8, [(1, 2, 7), (1, 3, 8), (2, 4, 8),
                                       (3, 5, 8), (3, 6, 7)]),
    ]
    for a in list(tables):
        n = a.dim
        tables.append(change_basis(a, random_lower_triangular(n, rng)))
        tables.append(_dense_conjugate(a, rng))
    return tables


def _dense_conjugate(a, rng):
    n = a.dim
    while True:
        rows = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                 for _ in range(n)] for _ in range(n)]
        if fraction_inverse(rows) is not None:
            return change_basis(a, rows)


def _catalog_pencils():
    """(P, Q) of every table of `_two_block_tables` whose square is
    two-dimensional."""
    pencils = []
    for a in _two_block_tables():
        square = power_ideal(a, 2)
        if len(square) == 2:
            pencils.append(pencil_of(_skew_net(a, square)))
    return pencils


def test_skew_net_reads_only_the_pivots_of_the_square():
    # integer echelon rows of A^2 give the net of its RREF basis, entry for
    # entry, on the catalog pencils' tables and on conjugates of every family
    rng = random.Random(1403)
    tables = _two_block_tables()
    tables += [_dense_conjugate(instantiate(key, catalog_tested_dims(key)[0]), rng)
               for key in MANIFEST_FAMILIES if catalog_tested_dims(key)[0] <= 8]
    squares = set()
    for a in tables:
        rows = a.power(2)
        rref = Subspace.from_vectors(a.dim, rows).basis
        assert _skew_net(a, rows) == _skew_net(a, rref)
        squares.add(len(rows))
    assert len(tables) >= 60 and squares >= {0, 1, 2, 3}


def test_pencil_generic_rank_matches_qt_rank_on_catalog_pencils():
    pencils = _catalog_pencils()
    assert len(pencils) >= 30
    ranks = set()
    for p_mat, q_mat in pencils:
        r = _pencil_generic_rank(p_mat, q_mat)
        assert r == pencil_rank_oracle(p_mat, q_mat)
        ranks.add(r)
    assert ranks == {2, 4}


def _random_skew(d, vecs, rng):
    """Sum of random multiples of u v^T - v u^T over pairs from vecs."""
    mat = [[Fraction(0)] * d for _ in range(d)]
    for _ in range(rng.randint(1, 3)):
        u, v = rng.sample(vecs, 2)
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        for i in range(d):
            for j in range(d):
                mat[i][j] += c * (u[i] * v[j] - v[i] * u[j])
    return mat


def test_pencil_generic_rank_matches_qt_rank_on_random_skew_pencils():
    rng = random.Random(59)
    ranks = set()
    for trial in range(40):
        d = 2 + trial % 6
        # few vectors give low generic ranks, d vectors can give full rank
        k = d if trial % 2 else rng.randint(2, d)
        vecs = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(k)]
        p_mat = _random_skew(d, vecs, rng)
        q_mat = _random_skew(d, vecs, rng)
        # the classifier hands over the integer pencil: P and Q scaled by
        # one denominator lcm, which keeps every rank
        rows = int_scaled(p_mat + q_mat)[1]
        r = _pencil_generic_rank(rows[:d], rows[d:])
        assert r == pencil_rank_oracle(p_mat, q_mat)
        ranks.add(r)
    assert ranks >= {2, 4, 6}


# --- the integer net and sparse Pfaffians against their Fraction oracles --


def _classified(classify, a):
    try:
        return classify(a)
    except PreconditionViolated as exc:
        return str(exc)


def _assert_net_matches_the_oracles(a):
    """The integer net is L times the Fraction net, entry for entry; the
    span rows, the pencil's rank, the label and the pfaffian_conic profile
    are the oracles', row for row."""
    want_label = classify_T22_oracle(a)
    assert _classified(classify_T22, a) == want_label
    assert pfaffian_conic_profile(a) == pfaffian_conic_profile_oracle(a)
    square = a.power(2)
    if not square:
        return want_label
    net, old = _skew_net(a, square), skew_net_oracle(a, square)
    assert net == [[tuple(a.mult * x for x in w) for w in row] for row in old]
    assert _pfaffian_span(net) == pfaffian_span_oracle(old)
    if len(square) == 2:
        assert (_pencil_generic_rank(*pencil_of(net))
                == pencil_generic_rank_oracle(*pencil_of(old)))
    return want_label


def test_integer_net_matches_the_fraction_oracles_on_dense_conjugates():
    # on a dense conjugate nearly every net entry is nonzero and the table
    # carries denominators, so the net is L times the Fraction one; dims
    # up to 12
    # (T222_e23 has a three-dimensional square, a net of s = 3 forms)
    rng = random.Random(3203)
    profiles = {}
    for key in ("T22_e45", "T22_e34", "T22_e24", "T222_e23"):
        lo = catalog_tested_dims(key)[0]
        for n in (lo, lo + 2, 12):
            a = _dense_conjugate(instantiate(key, n), rng)
            assert a.mult > 1
            label = _assert_net_matches_the_oracles(a)
            if key == "T222_e23":
                assert label.startswith("square has dim 3 but Ann has dim")
            else:
                assert label.key == key
            profiles.setdefault(key, set()).add(pfaffian_conic_profile(a))
    assert profiles == {"T22_e45": {(2, None)}, "T22_e34": {(1, 2)},
                        "T22_e24": {(1, 1)}, "T222_e23": {(1, 1)}}


def test_integer_net_matches_the_fraction_oracles_on_two_block_tables():
    # the catalog's two-block members, the classifier's hand-built tables
    # and their conjugates: every label the classifier gives is reached
    labels = {repr(_assert_net_matches_the_oracles(a)) for a in _two_block_tables()}
    assert {"LevelAtLeast6", "NeedsExtension"} <= labels and len(labels) == 7


_nets = st.integers(0, 9).flatmap(lambda d: st.integers(1, 3).flatmap(
    lambda s: st.lists(
        st.tuples(*[st.sampled_from([0, 0, 0, -2, -1, 1, 3])] * s),
        min_size=d * (d - 1) // 2, max_size=d * (d - 1) // 2).map(
            lambda upper: _skew_from_upper(d, s, upper))))


def _skew_from_upper(d, s, upper):
    """The d x d skew net whose entries above the diagonal are `upper`, in
    `combinations` order."""
    net = [[(0,) * s] * d for _ in range(d)]
    for (i, j), w in zip(combinations(range(d), 2), upper):
        net[i][j], net[j][i] = w, tuple(-x for x in w)
    return net


@settings(max_examples=300, deadline=None)
@given(_nets, st.integers(1, 6))
def test_sparse_pfaffians_give_the_dense_span_rows_on_random_nets(net, den):
    # the same rows, not only the same dimension, and for a net of
    # Fractions the span of its integer multiple L net
    assert _pfaffian_span(net) == pfaffian_span_oracle(net)
    fractions = [[tuple(Fraction(x, den) for x in w) for w in row] for row in net]
    assert _pfaffian_span(net) == pfaffian_span_oracle(fractions)
    if net and len(net[0][0]) == 2:
        assert (_pencil_generic_rank(*pencil_of(net))
                == pencil_generic_rank_oracle(*pencil_of(net)))


# --- the classifier's preconditions ----------------------------------------


# e1e2 = e4, e2e3 = e5, e3e1 = e6 and e1e5 = e2e6 = e3e4 = e7: x(yz) is
# alternating, so x(xy) = 0 and the algebra is 2-Engel, with A^3 = <e7>
TWO_ENGEL_CUBED = StructureTensor.from_pairs(7, [
    (1, 2, 4), (2, 3, 5), (1, 3, 6, -1), (1, 5, 7), (2, 6, 7), (3, 4, 7)])


def test_the_classifier_names_why_a_nonzero_cube_is_refused():
    from degenlab.algebra import engel_degree

    rng = random.Random(3211)
    for a in (TWO_ENGEL_CUBED, _dense_conjugate(TWO_ENGEL_CUBED, rng)):
        assert a.power(3) and engel_degree(a, 2) == 2
        with pytest.raises(PreconditionViolated, match=r"^A \* A\^2 != 0"):
            classify_T22(a)
    for a in (instantiate("T4", 5), _dense_conjugate(instantiate("T3", 6), rng)):
        assert a.power(3) and engel_degree(a, 2) is None
        with pytest.raises(PreconditionViolated, match="^not 2-Engel"):
            classify_T22(a)


def test_the_classifier_runs_no_engel_test_when_the_cube_is_zero(monkeypatch):
    # A * A^2 = 0 makes the algebra 2-Engel, so every two-block member
    # is labelled without the Engel degree
    import degenlab.catalog as cat

    def refuse(*args):
        raise AssertionError("engel_degree called")

    monkeypatch.setattr(cat, "engel_degree", refuse)
    rng = random.Random(3217)
    labelled = 0
    for key in MANIFEST_FAMILIES:
        if expected_iw_max(key) != (2, 2):
            continue
        for n in catalog_tested_dims(key):
            a = instantiate(key, n)
            for b in (a, _dense_conjugate(a, rng)):
                assert classify_T22(b).key == key
                labelled += 1
    assert labelled == 20
