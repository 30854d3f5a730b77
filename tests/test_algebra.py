import collections
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenlab.algebra import (
    DimensionMismatch,
    StructureTensor,
    TableFormatError,
    _digit_bits,
    _malcev_holds,
    annihilator,
    change_basis,
    dim_square,
    engel_degree,
    identity_flags,
    int_change_basis,
    is_nilpotent,
    jacobi_holds,
    left_mult_matrix,
    power_ideal,
    product,
    weight_spaces,
)
from degenlab.catalog import MANIFEST_FAMILIES, instantiate
from degenlab.catalog import tested_dims as catalog_tested_dims
from degenlab.verification_db import load_ledger
from degenlab.verification_db import shipped_ledger_path
from degenlab.linalg import Singular, int_scaled, int_scaled_inverse

from oracles import change_basis_oracle, constant, fraction_inverse, matmul, pairs_of
from oracles import products_reads
from oracles import engel_degree_oracle, engel_powers_oracle
from oracles import jacobi_oracle, malcev_oracle, malcev_terms_oracle
from oracles import int_powers_walk, jacobi_terms_oracle, triple_loop_jacobi

from oracles import ann_dim_oracle, generated_subalgebra, square_dim_oracle
from oracles import from_json_obj_oracle, from_pairs_oracle, tensor_eq_oracle
from oracles import fraction_tensor, int_centralizer_conditions
from oracles import dense_annihilator, dense_centralizer_dim, pair_loop_change_basis
from oracles import direct_sum_trivial, random_anticommutative, random_lower_triangular
from oracles import weight_spaces_oracle
from oracles import catalog_labels
from oracles import (
    Subspace,
    annihilator_oracle,
    centralizer_square_dim_oracle,
    fraction_product,
    is_nilpotent_oracle,
    left_mult_oracle,
    subspace_product_oracle,
)


def e_vec(n, *idx):
    return tuple(Fraction(int(k + 1 in idx)) for k in range(n))


def rand_vec(n, rng, lo=-5, hi=5):
    return tuple(Fraction(rng.randint(lo, hi)) for _ in range(n))


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def rand_invertible(n, rng):
    while True:
        m = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
        if fraction_inverse(m) is not None:
            return m


def apply(mat, vec):
    """The matrix (rows) times a column vector."""
    return tuple(sum(x * y for x, y in zip(row, vec)) for row in mat)


def test_product_examples():
    a = instantiate("T22", 5)
    assert product(a, e_vec(5, 1), e_vec(5, 2)) == e_vec(5, 4)
    rng = random.Random(3)
    v = rand_vec(5, rng)
    assert product(a, v, v) == (0,) * 5
    eta2 = instantiate("eta2", 5)
    got = product(eta2, e_vec(5, 1, 3), e_vec(5, 2, 4))
    assert got == tuple(2 * x for x in e_vec(5, 5))


def test_product_dimension_mismatch():
    a = instantiate("n3", 3)
    with pytest.raises(DimensionMismatch):
        product(a, (1, 0), (0, 1, 0))


def test_power_ideals_of_the_four_chain():
    a = instantiate("T4", 5)
    assert power_ideal(a, 1) == identity(5)
    assert Subspace.from_vectors(5, power_ideal(a, 3)) == Subspace.from_vectors(
        5, [e_vec(5, 4), e_vec(5, 5)])
    assert power_ideal(a, 5) == []
    assert [len(power_ideal(a, i)) for i in range(1, 7)] == [5, 3, 2, 1, 0, 0]


def test_is_nilpotent_examples():
    assert is_nilpotent(fraction_tensor(5)) == (True, 2)
    # the length-four chain dies at the fifth power ideal
    assert is_nilpotent(instantiate("T4", 5)) == (True, 5)
    assert is_nilpotent(instantiate("eta2", 5)) == (True, 3)


def test_annihilator_examples():
    assert annihilator(fraction_tensor(5)) == identity(5)
    top = Subspace.from_vectors(6, [e_vec(6, 4), e_vec(6, 5), e_vec(6, 6)])
    for key in ("T22", "T22_e23"):
        assert Subspace.from_vectors(6, annihilator(instantiate(key, 6))) == top


def test_annihilator_matches_the_oracle_on_every_manifest_family():
    # integer echelon rows spanning the Fraction RREF annihilator, at every
    # tested dimension of every family
    count = 0
    for key in MANIFEST_FAMILIES:
        for n in catalog_tested_dims(key):
            a = instantiate(key, n)
            ann = annihilator(a)
            assert all(type(x) is int for row in ann for x in row), (key, n)
            pivots = [next(c for c, x in enumerate(row) if x) for row in ann]
            assert pivots == sorted(set(pivots)), (key, n)
            assert Subspace.from_vectors(n, ann) == annihilator_oracle(a), (key, n)
            count += 1
    assert count >= 70


def test_dims_pin_against_independent_oracle():
    for key, n in (("T22_e24", 6), ("T22_e34", 7), ("T22_e45", 7),
                   ("T222_e7special", 7), ("T32_e23", 6), ("eta3", 7)):
        a = instantiate(key, n)
        assert dim_square(a) == square_dim_oracle(a)
        assert len(annihilator(a)) == ann_dim_oracle(a)


def test_ann_dim_is_the_annihilator_dim_on_every_shipped_label():
    ledger = load_ledger(shipped_ledger_path())
    refs = {ref.label: ref for claim in ledger.certificates + ledger.witnesses
            for ref in (claim.source, claim.target)}
    assert len(refs) > 100
    for ref in refs.values():
        a = ref.resolve()
        assert a.ann_dim == len(annihilator(a)), ref.label


def test_ann_dim_matches_the_oracle_on_random_tables():
    # a random table plus central coordinates, moved off the standard basis
    rng = random.Random(1604)
    seen = set()
    for _ in range(60):
        m, k = rng.randint(1, 5), rng.randint(0, 3)
        a = direct_sum_trivial(random_anticommutative(m, rng, spread=1), k)
        a = change_basis(a, random_lower_triangular(m + k, rng)[::-1])
        ann_dim = a.ann_dim
        assert ann_dim == ann_dim_oracle(a), a.products
        seen.add(ann_dim)
    assert len(seen) >= 4


def _random_nilpotent(n, rng):
    """A random table whose products e_i e_j (i < j) lie in <e_{j+1}, ...>:
    nilpotent, with power chains of every length."""
    table = {}
    for i in range(1, n):
        for j in range(i + 1, n):
            vec = tuple(rng.randint(-2, 2) * (k > j and rng.random() < 0.5)
                        for k in range(1, n + 1))
            if any(vec):
                table[(i, j)] = vec
    return fraction_tensor(n, table)


def test_centralizer_dim_is_n_minus_the_rank_of_the_n_squared_conditions():
    # the n rows e_r w over the echelon rows w of A^i are the transpose of
    # the former n|ws| x n conditions x w = 0 on x, so their ranks agree,
    # on nilpotent tables, on tables that are not, and off the basis
    from degenlab.algebra import _int_identity

    rng = random.Random(1611)
    seen = set()
    for trial in range(90):
        n = rng.randint(1, 7)
        if trial % 3 == 0:
            a = random_anticommutative(n, rng, spread=1 + trial % 2)
        elif trial % 3 == 1:
            a = _random_nilpotent(n, rng)
        else:
            m = rng.randint(1, n)
            a = direct_sum_trivial(random_anticommutative(m, rng, spread=1), n - m)
        if trial % 2:
            a = change_basis(a, rand_invertible(n, rng))
        for i in (1, 2, 3):
            ws = _int_identity(n) if i == 1 else a.power(i)
            want = n - len(int_centralizer_conditions(a.table, n, ws))
            assert fraction_tensor(n, a.products).centralizer_dim(i) == want, (i, a)
            seen.add((a.nilindex is None, i, 0 < want < n))
        assert a.centralizer_dim(1) == ann_dim_oracle(a)
        assert a.centralizer_dim(2) == centralizer_square_dim_oracle(a)
    assert seen == {(nil, i, mid) for nil in (True, False) for i in (1, 2, 3)
                    for mid in (True, False)}


def test_centralizers_and_annihilator_match_the_dense_builders():
    # the conditions read off the table's nonzero products give the ranks
    # of the n dense products e_r w over every w, and the annihilator rows
    # of all n^2 dense conditions, byte for byte: on every manifest family
    # and dim, dense conjugates, zero tables and tables that are not
    # nilpotent
    rng = random.Random(42)
    catalog = [instantiate(key, n) for key in MANIFEST_FAMILIES
               for n in catalog_tested_dims(key)]
    conjugates = []
    while len(conjugates) < 100:
        a = rng.choice(catalog)
        if a.dim <= 8:
            conjugates.append(change_basis(a, rand_invertible(a.dim, rng)))
    zero = [fraction_tensor(n) for n in range(1, 7)]
    wild = [random_anticommutative(rng.randint(2, 7), rng, spread=1 + t % 3)
            for t in range(40)]
    seen = set()
    for kind, cases in (("catalog", catalog), ("conjugate", conjugates),
                        ("zero", zero), ("wild", wild)):
        for a in cases:
            for i in (1, 2, 3):
                assert a.centralizer_dim(i) == dense_centralizer_dim(a, i), (kind, i, a)
            assert annihilator(a) == dense_annihilator(a), (kind, a)
            seen.add((kind, a.nilindex is None))
    assert len(catalog) >= 70 and sum(a.mult > 1 for a in conjugates) >= 90
    assert all(annihilator(a) == identity(a.dim) for a in zero)
    assert seen == {("catalog", False), ("conjugate", False), ("zero", False),
                    ("wild", True)}


def _monomial(n, rng):
    """A permutation matrix with nonzero entries in -3..3."""
    perm = rng.sample(range(n), n)
    return [[rng.choice([-3, -2, -1, 1, 2, 3]) * (c == perm[r]) for c in range(n)]
            for r in range(n)]


def test_int_change_basis_matches_the_pair_loop():
    # the products formed from the basis' column supports equal the pair
    # loop over the whole table, on monomial bases, on monomial bases with
    # one shear and on dense bases, integer entries and packed-sized ones
    rng = random.Random(4242)
    cases = [instantiate(key, n) for key in MANIFEST_FAMILIES
             for n in catalog_tested_dims(key)]
    cases += [_random_fractional_table(n, rng) for n in (2, 3, 5, 8)]
    cases += [random_anticommutative(n, rng) for n in (1, 2, 4, 6)]
    seen = set()
    for a in cases:
        n = a.dim
        for kind in ("monomial", "shear", "dense", "packed"):
            g = _monomial(n, rng)
            if kind == "shear" and n > 1:
                r, c = rng.sample(range(n), 2)
                g[r][c] = rng.choice([-2, -1, 1, 2])
            elif kind == "dense":
                g = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            elif kind == "packed":
                g = [[x << (50 * rng.randint(0, 2)) for x in row] for row in g]
            d, inv = int_scaled_inverse(g)
            if not d:
                assert int_change_basis(a.table, n, g) == (0, None)
                continue
            assert int_change_basis(a.table, n, g) == (
                d, pair_loop_change_basis(a.table, n, g, inv)), (kind, a, g)
            got = int_change_basis(a.table, n, g)[1]
            seen.add((kind, bool(got)))
    assert {(kind, True) for kind in ("monomial", "shear", "dense", "packed")} <= seen
    assert ("monomial", False) in seen


def test_every_invariant_read_on_a_warm_tensor_equals_the_read_on_a_fresh_one():
    # a tensor computes each invariant at most once and keeps it: after
    # earlier reads have filled its caches, and walked its power chain in
    # part or to its end, every read equals the same read on a fresh, equal
    # tensor, on integer tables and on dense fractional conjugates
    from degenlab.catalog import PreconditionViolated, classify_T22
    from degenlab.contraction import _rank_bound, iw_max, rank_sequence

    def classified(a):
        try:
            return classify_T22(a)
        except PreconditionViolated as exc:
            return str(exc)

    def reads(a):
        n = a.dim
        x, y = e_vec(n, 1, n), e_vec(n, 2)
        return (a.nilindex, a.powers, a.mult, a.table,
                [a.power(i) for i in range(1, n + 2)],
                [a.centralizer_dim(i) for i in (1, 2, 3)],
                a.dim_square, a.ann_dim, is_nilpotent(a),
                power_ideal(a, 2), dim_square(a), annihilator(a),
                identity_flags(a), engel_degree(a, n + 1), classified(a),
                _rank_bound(a), rank_sequence(a, x), iw_max(a, seed=n),
                product(a, x, y), left_mult_matrix(a, x))

    rng = random.Random(1609)
    fractional = 0
    for key in MANIFEST_FAMILIES:
        for n in catalog_tested_dims(key):
            a = instantiate(key, n)
            for warm in (a, change_basis(a, random_lower_triangular(n, rng)[::-1])):
                fresh = fraction_tensor(n, warm.products)
                if n % 2:
                    warm.centralizer_dim(2)  # the walk to A^2 only
                else:
                    iw_max(warm, seed=0)  # the walk to its end
                assert reads(warm) == reads(fresh), (key, n)
                assert reads(warm) == reads(fresh), (key, n)
                fractional += warm.mult > 1
    assert fractional >= 30


def test_equality_and_hash_ignore_the_caches():
    # check_references compares the tensors of a label and AlgebraRef
    # hashes them: filled caches change neither
    from degenlab.contraction import iw_max
    from degenlab.degeneration import AlgebraRef, DegenerationCertificate
    from degenlab.verification_db import check_references

    for key, n in (("T22_e24", 6), ("T3", 5), ("eta2", 5)):
        warm, fresh = instantiate(key, n), instantiate(key, n)
        iw_max(warm)
        warm.centralizer_dim(2)
        assert warm == fresh and hash(warm) == hash(fresh)
        assert {warm, fresh} == {fresh}
        refs = AlgebraRef("X", n, warm), AlgebraRef("X", n, fresh)
        assert refs[0] == refs[1] and hash(refs[0]) == hash(refs[1])
        check_references([DegenerationCertificate(*refs, basis_rows=())])


def test_identity_flags_examples():
    for m, n in ((2, 5), (3, 7)):
        flags = identity_flags(instantiate(f"eta{m}", n))
        assert flags.jacobi and flags.malcev
    flags = identity_flags(instantiate("T3_e34", 5))
    assert not flags.jacobi and flags.malcev
    flags = identity_flags(instantiate("T222_e7special", 7))
    assert not flags.jacobi and flags.malcev


def test_jacobi_on_random_vectors_agrees_with_basis_decision():
    rng = random.Random(11)
    for key, n in (("T32_e23", 6), ("T3_e34", 5), ("eta2", 5)):
        a = instantiate(key, n)
        expected = identity_flags(a).jacobi
        violating = False
        for _ in range(40):
            x, y, z = (rand_vec(n, rng) for _ in range(3))
            jac = tuple(
                product(a, product(a, x, y), z)[k]
                + product(a, product(a, y, z), x)[k]
                + product(a, product(a, z, x), y)[k]
                for k in range(n)
            )
            if any(jac):
                violating = True
                break
        assert expected == (not violating)


def test_engel_degree_examples():
    assert engel_degree(fraction_tensor(4), 4) == 1
    assert engel_degree(instantiate("eta2", 5), 5) == 2
    assert engel_degree(instantiate("T4", 5), 5) == 4
    assert engel_degree(instantiate("T4_e23", 5), 5) == 4
    assert engel_degree(instantiate("T3", 5), 5) == 3


def test_engel_degree_matches_random_spot_checks():
    rng = random.Random(23)
    for key, n in (("T22_e45", 7), ("T4", 5), ("eta3", 7)):
        a = instantiate(key, n)
        m = engel_degree(a, n)
        assert m is not None
        for _ in range(30):
            v = rand_vec(n, rng)
            mat = left_mult_matrix(a, v)
            power = mat
            for _ in range(m - 1):
                power = matmul(power, mat)
            assert not any(map(any, power))


# the zero algebra; e1e2 = e2 (L_e1 is not nilpotent); the cross product
_NOT_NILPOTENT = (
    fraction_tensor(2, {(1, 2): (0, 1)}),
    fraction_tensor(3, {(1, 2): (0, 0, 1), (1, 3): (0, -1, 0),
                        (2, 3): (1, 0, 0)}),
)


def test_engel_degree_matches_oracle_on_dense_conjugates_at_max_m_2():
    # the gate of classify_T22: 2-Engel or not, at dims 7 and 8
    rng = random.Random(89)
    seen = set()
    for key, n in (("T22_e45", 7), ("T22_e34", 8), ("T22_e23", 7),
                   ("T4", 7), ("T3_e45", 7), ("eta3", 8), ("T222", 8)):
        b = _dense_fractional_conjugate(instantiate(key, n), rng)
        got = engel_degree(b, 2)
        assert got == engel_degree_oracle(b, 2), (key, n)
        seen.add(got)
    assert seen == {2, None}


def test_engel_degree_matches_oracle_on_dense_conjugates_up_to_n_plus_1():
    rng = random.Random(97)
    seen = set()
    for key, n in (("T4", 5), ("T4_e23", 5), ("T3", 5), ("eta2", 5),
                   ("T3_e34", 6), ("T22_e34", 6), ("T4", 6)):
        b = _dense_fractional_conjugate(instantiate(key, n), rng)
        got = engel_degree(b, n + 1)
        assert got == engel_degree_oracle(b, n + 1), (key, n)
        seen.add(got)
    assert seen >= {2, 3, 4}


def test_engel_degree_of_tables_that_are_not_nilpotent_is_none():
    rng = random.Random(101)
    for a in _NOT_NILPOTENT:
        for b in (a, _dense_fractional_conjugate(a, rng)):
            assert engel_degree(b, b.dim + 1) is None
            assert engel_degree_oracle(b, b.dim + 1) is None


def test_engel_degree_at_exactly_max_m():
    # the least m is found at max_m = m and missed at max_m = m - 1
    rng = random.Random(103)
    for key, n, m in (("T4", 5, 4), ("T3", 6, 3), ("eta2", 5, 2)):
        a = instantiate(key, n)
        for b in (a, _dense_fractional_conjugate(a, rng)):
            assert engel_degree(b, m) == engel_degree_oracle(b, m) == m
            assert engel_degree(b, m - 1) is None
            assert engel_degree_oracle(b, m - 1) is None


def test_engel_degree_of_the_zero_algebra_is_1():
    for n in range(1, 5):
        z = fraction_tensor(n)
        assert engel_degree(z, 1) == engel_degree_oracle(z, 1) == 1
        assert engel_degree(z, n + 1) == 1
        assert engel_degree(z, 0) is None


def _bits_used(check, *args):
    """The digit size B that check(*args) packs its values with: the one
    result of `_digit_bits` while it runs."""
    from degenlab import algebra

    used, digit_bits = [], algebra._digit_bits

    def spy(*spy_args):
        used.append(digit_bits(*spy_args))
        return used[-1]

    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(algebra, "_digit_bits", spy)
        check(*args)
    (bits,) = used
    return bits


def test_engel_packing_bits_bound_every_coefficient():
    # every entry of every S_alpha, on the L-scaled table, and the proved
    # bound s^m lie strictly inside the digit range of engel_degree(a, m)
    rng = random.Random(109)
    tables = [_dense_fractional_conjugate(instantiate(key, n), rng)
              for key, n in (("T4", 5), ("T22_e34", 6), ("eta2", 5))]
    tables += [random_anticommutative(n, rng) for n in (2, 3, 4)]
    tables += list(_NOT_NILPOTENT) + [fraction_tensor(3)]
    for a in tables:
        mult, table = a.mult, a.table
        max_m = 4 if a.dim > 4 else a.dim + 1
        for m, cur in enumerate(engel_powers_oracle(a, max_m), start=1):
            top = max((abs(c) * mult ** m for row in cur for entry in row
                       for c in entry.values()), default=0)
            half = 2 ** (_bits_used(engel_degree, a, m) - 1)
            assert top < half and _row_sum_oracle(a) ** m < half


def _kernel_answers(a, max_m):
    return jacobi_holds(a), _malcev_holds(a), engel_degree(a, max_m)


def _oracle_answers(a, max_m):
    return jacobi_oracle(a), malcev_oracle(a), engel_degree_oracle(a, max_m)


def test_identity_kernels_match_fraction_oracles_on_manifest_families():
    seen = set()
    for key in MANIFEST_FAMILIES:
        for n in catalog_tested_dims(key):
            if n <= 8:
                a = instantiate(key, n)
                got = _kernel_answers(a, n + 1)
                assert got == _oracle_answers(a, n + 1), (key, n)
                seen.add(got)
    # the families cover Lie and non-Lie members and several Engel degrees
    assert {j for j, _, _ in seen} == {True, False}
    assert {m for _, _, m in seen} >= {1, 2, 3, 4}


def test_identity_kernels_match_fraction_oracles_on_fractional_conjugates():
    rng = random.Random(43)
    for key, n in (("T3_e34", 5), ("eta2", 5), ("T4_e23", 5),
                   ("T22_e34", 6)):
        a = instantiate(key, n)
        while True:
            rows = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                     for _ in range(n)] for _ in range(n)]
            if fraction_inverse(rows) is not None:
                break
        b = change_basis(a, rows)
        assert b.mult > 1  # dense and fractional
        assert _kernel_answers(b, n + 1) == _oracle_answers(b, n + 1), key
        assert _kernel_answers(b, n + 1) == _kernel_answers(a, n + 1), key


def test_identity_kernels_match_fraction_oracles_on_random_tables():
    # seeded random tables, some with fractional constants: non-Lie,
    # non-Malcev and non-Engel
    rng = random.Random(47)
    for trial in range(12):
        n = 3 + trial % 2
        a = random_anticommutative(n, rng)
        if trial % 3 == 0:
            # f_i = e_i / (1 + i mod 3) makes the constants fractional
            a = change_basis(a, [[Fraction(int(i == k), 1 + i % 3)
                                  for k in range(n)] for i in range(n)])
        assert _oracle_answers(a, 3) == (False, False, None)
        assert _kernel_answers(a, 3) == (False, False, None)
    # non-Lie but Malcev and Engel: the decorated table of level five
    a = instantiate("T222_e7special", 7)
    assert _kernel_answers(a, 3) == _oracle_answers(a, 3) == (False, True, 2)


def _random_jacobi_cases(rng, count):
    """count seeded tables with Fraction constants, Lie and not: whole
    random tables (Lie only at dims 1 and 2), sparse ones with one term or
    none per product, and dense conjugates of the Lie manifest families."""
    lie = [instantiate(key, n) for key in MANIFEST_FAMILIES
           for n in catalog_tested_dims(key) if n <= 6]
    lie = [a for a in lie if jacobi_oracle(a)]
    for trial in range(count):
        n = 1 + trial % 5
        if trial % 3 == 0:
            yield random_anticommutative(n, rng, spread=1 + trial % 2)
        elif trial % 3 == 1:
            yield StructureTensor.from_pairs(n, [
                (i, j, rng.randint(1, n),
                 Fraction(rng.choice((1, -1, 0, 0, 2)), rng.randint(1, 3)))
                for i in range(1, n + 1) for j in range(i + 1, n + 1)])
        else:
            yield _dense_fractional_conjugate(rng.choice(lie), rng)


def test_packed_jacobi_matches_the_triple_loop():
    # the check at each basis x on packed y and z against the former loop
    # over basis triples: on every manifest table and on 3000 random ones
    # with Fraction constants, Lie and not
    manifest = [instantiate(key, n) for key in MANIFEST_FAMILIES
                for n in catalog_tested_dims(key)]
    rng = random.Random(4402)
    verdicts = collections.Counter()
    for a in manifest + list(_random_jacobi_cases(rng, 3000)):
        got = jacobi_holds(a)
        assert got == triple_loop_jacobi(a), a
        verdicts[got, a.mult > 1] += 1
    assert min(verdicts.values()) > 300 and len(verdicts) == 4


def test_powers_are_those_of_the_former_walk():
    # the tensor's powers, read off linalg.int_image_chain, row for row
    # against the walk of _int_powers: on every manifest family and dim,
    # 100 dense conjugates and tables that are not nilpotent
    rng = random.Random(4404)
    manifest = [instantiate(key, n) for key in MANIFEST_FAMILIES
                for n in catalog_tested_dims(key)]
    small = [a for a in manifest if a.dim <= 8]
    cases = manifest + [_dense_fractional_conjugate(rng.choice(small), rng)
                        for _ in range(100)]
    cases += list(_NOT_NILPOTENT) + [random_anticommutative(rng.randint(1, 6), rng)
                                     for _ in range(40)]
    stalled = 0
    for a in cases:
        fresh = StructureTensor(a.dim, a.mult, a.table)
        assert fresh.powers == list(int_powers_walk(a.table, a.dim)), a
        stalled += fresh.nilindex is None
    assert stalled > 20


def _row_sum_oracle(a):
    """s on the L-scaled table: the largest over r of the sum over ordered
    basis pairs (i, k) of |(e_i e_k)_r|, from `constant`."""
    mult, n = a.mult, a.dim
    return max(sum(abs(constant(a, i, k, r)) * mult
                   for i in range(1, n + 1) for k in range(1, n + 1))
               for r in range(1, n + 1))


def test_malcev_packing_bits_bound_every_defect_digit():
    # a digit is the defect at (x, e_a, e_b) on the L-scaled table, a sum
    # of four terms: four times the largest term, found one triple at a
    # time, and the proved bound 4 s^3 both lie strictly inside the digit
    # range
    rng = random.Random(113)
    tables = [instantiate(key, n) for key in MANIFEST_FAMILIES
              for n in catalog_tested_dims(key) if n <= 8]
    tables += [_dense_fractional_conjugate(instantiate(key, n), rng)
               for key, n in (("eta2", 5), ("T4_e23", 5), ("T22_e34", 6))]
    for a in tables:
        mult, table = a.mult, a.table
        half = 2 ** (_bits_used(_malcev_holds, a) - 1)
        assert 4 * _row_sum_oracle(a) ** 3 < half
        top = max((abs(v) for terms in malcev_terms_oracle(a)
                   for term in terms for v in term if v), default=0)
        assert 4 * top * mult ** 3 < half, a


def _digit_bound_tables(rng):
    """Manifest tables and dense conjugates, whose row sums s take many
    values, so a digit size one bit short of the proof shows on some."""
    tables = [instantiate(key, n) for key in MANIFEST_FAMILIES
              for n in catalog_tested_dims(key) if n <= 8]
    tables += [_dense_fractional_conjugate(instantiate(key, n), rng)
               for key, n in (("eta2", 5), ("T4_e23", 5), ("T22_e34", 6))]
    tables += [StructureTensor.from_pairs(3, [(1, 2, 3, c), (1, 3, 2, 1)])
               for c in range(1, 12)]
    return tables


def test_jacobi_digit_bits_bound_every_defect_digit():
    # a digit is the Jacobi defect at (e_x, e_a, e_b) on the L-scaled table,
    # three terms of two products each: three times the largest term and
    # the proved bound 3 s^2 both lie strictly inside the digit range that
    # jacobi_holds packs with
    rng = random.Random(4403)
    sums = set()
    for a in _digit_bound_tables(rng):
        half = 2 ** (_bits_used(jacobi_holds, a) - 1)
        s = _row_sum_oracle(a)
        sums.add(s)
        assert 3 * s ** 2 < half, a
        # the one rule: bitlength(terms s^degree) + 1, s the oracle's row sum
        for terms, degree in ((1, 1), (1, 4), (3, 2), (4, 3)):
            assert _digit_bits(a.table, a.dim, terms, degree) == (
                terms * int(s) ** degree).bit_length() + 1
        top = max((abs(v) for terms in jacobi_terms_oracle(a)
                   for term in terms for v in term if v), default=0)
        assert 3 * top * a.mult ** 2 < half, a
    assert len(sums) > 10


# (family, dim, (i, j, k)): adding e_k to e_i e_j breaks the Malcev
# identity.  Packing y and z with one stride would sum the defects of all
# (y, z) with one index sum into a digit, and on these tables they cancel.
MALCEV_BREAKERS = [
    ("eta2", 5, (1, 5, 2)),
    ("T22_e34", 6, (3, 5, 4)),
    ("T32_e23", 6, (4, 5, 6)),
    ("T222_e7special", 7, (1, 4, 4)),
    ("eta3", 7, (5, 7, 6)),
    ("T22_e45", 8, (1, 8, 2)),
]


@pytest.mark.parametrize("key, n, added", MALCEV_BREAKERS)
def test_one_added_product_breaks_the_malcev_identity(key, n, added):
    a = instantiate(key, n)
    assert _malcev_holds(a) and malcev_oracle(a)
    i, j, k = added
    products = dict(a.products)
    vec = list(products.get((i, j), (0,) * n))
    vec[k - 1] += 1
    products[(i, j)] = tuple(vec)
    b = fraction_tensor(n, products)
    assert not malcev_oracle(b)
    assert not _malcev_holds(b)
    assert not _malcev_holds(_dense_fractional_conjugate(b, random.Random(n)))


def test_change_basis_identity_and_zero():
    a = instantiate("T22_e34", 6)
    assert change_basis(a, identity(6)) == a
    z = fraction_tensor(4)
    rng = random.Random(2)
    assert change_basis(z, rand_invertible(4, rng)) == z


def test_change_basis_identifies_two_heisenberg_summands():
    # replacing e1 by e1 + e4 turns the e34-decorated table into two
    # independent pairs
    n = 6
    a = instantiate("T22_e34", n)
    rows = identity(n)
    rows[0][3] = 1
    moved = change_basis(a, rows)
    assert moved == StructureTensor.from_pairs(n, [(1, 2, 5), (3, 4, 6)])


def test_change_basis_invariants():
    rng = random.Random(17)
    for key, n in (("T22_e45", 7), ("T32_e23", 6), ("T222_e7special", 7)):
        a = instantiate(key, n)
        g = rand_invertible(n, rng)
        b = change_basis(a, g)
        assert dim_square(a) == dim_square(b)
        assert len(annihilator(a)) == len(annihilator(b))
        assert is_nilpotent(a) == is_nilpotent(b)
        assert engel_degree(a, n) == engel_degree(b, n)
        assert identity_flags(a) == identity_flags(b)


def _random_fractional_table(n, rng):
    table = {}
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            if rng.random() < 0.5:
                table[(i, j)] = tuple(
                    Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(n))
    return fraction_tensor(n, table)


def test_change_basis_fractional_tables_match_oracle():
    rng = random.Random(23)
    for trial in range(30):
        n = 2 + trial % 6
        a = _random_fractional_table(n, rng)
        while True:
            rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(n)]
                    for _ in range(n)]
            if fraction_inverse(rows) is not None:
                break
        want = change_basis_oracle(n, pairs_of(a), rows)
        assert change_basis(a, rows).products == want


def test_change_basis_singular_basis_raises():
    # int_change_basis owns the inverse: a singular basis gives (0, None),
    # and change_basis turns that into Singular
    a = instantiate("T22", 5)
    rows = identity(5)
    rows[4] = rows[3]
    with pytest.raises(Singular):
        change_basis(a, rows)
    assert int_change_basis(a.table, 5, int_scaled(rows)[1]) == (0, None)
    assert int_change_basis(a.table, 5, [[0] * 5] * 5) == (0, None)


def test_int_change_basis_is_the_scaled_orbit_point():
    # integer coordinates = s * (constants in the basis g), s = d * L
    rng = random.Random(41)
    cases = [instantiate("T222_e7special", 7), instantiate("T32_e23", 6)]
    cases += [_random_fractional_table(n, rng) for n in (3, 5, 8)]
    for a in cases:
        n = a.dim
        mult, table = a.mult, a.table
        for _ in range(5):
            g = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            d, point = int_change_basis(table, n, g)
            if not d:
                continue
            assert d == int_scaled_inverse(g)[0]
            want = change_basis_oracle(n, pairs_of(a), g)
            s = d * mult
            # the tensor's own rows: 0-based keys, nonzero entries, in order
            assert point == [
                (i - 1, j - 1, tuple((k, s * x) for k, x in enumerate(vec) if x))
                for (i, j), vec in want.items()]
            assert all(type(x) is int for _, _, entries in point for _, x in entries)


def test_change_basis_builds_the_table_of_its_fraction_constants():
    # the integer constants over the scale L m d, divided once by their gcd
    # with the scale (signed so that mult > 0), are the tensor that the
    # Fraction constants build: the same mult, table and repr, for a scale
    # of either sign (a row negated flips the sign of the determinant)
    rng = random.Random(40)
    cases = [instantiate("T222_e7special", 7), instantiate("T32_e23", 6),
             instantiate("T4", 5), fraction_tensor(3)]
    cases += [_random_fractional_table(n, rng) for n in (2, 3, 4, 6)]
    signs = set()
    for a in cases:
        n = a.dim
        for _ in range(4):
            while True:
                rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 5))
                         for _ in range(n)] for _ in range(n)]
                if fraction_inverse(rows) is not None:
                    break
            for basis in (rows, [[-x for x in rows[0]]] + rows[1:]):
                signs.add(int_scaled_inverse(int_scaled(basis)[1])[0] > 0)
                got = _built(change_basis, a, basis)
                want = fraction_tensor(n, change_basis_oracle(n, pairs_of(a), basis))
                assert (got.mult, got.table, repr(got)) == (
                    want.mult, want.table, repr(want)), (a, basis)
    assert signs == {True, False}


def test_repr_keeps_one_sign_per_coefficient():
    a = fraction_tensor(3, {(1, 2): (-24, 6, 18), (1, 3): (8, -2, 0),
                            (2, 3): (Fraction(-3, 2), -1, 1)})
    assert repr(a) == ("StructureTensor(dim=3: e1e2=-24*e1+6*e2+18*e3, "
                       "e1e3=8*e1-2*e2, e2e3=-3/2*e1-e2+e3)")
    assert repr(fraction_tensor(2)) == "StructureTensor(dim=2: zero multiplication)"


def test_direct_sum_trivial():
    a = instantiate("n3", 3)
    assert direct_sum_trivial(a, 0) == a
    padded = direct_sum_trivial(a, 2)
    assert padded.dim == 5
    assert len(annihilator(padded)) == len(annihilator(a)) + 2
    # same table at n=5 after moving the product target to the top slot
    rows = identity(5)
    rows[2], rows[4] = rows[4], rows[2]
    assert change_basis(padded, rows) == instantiate("n3", 5)


def test_left_mult_matrix_examples():
    a = instantiate("T3", 4)
    mat = left_mult_matrix(a, e_vec(4, 1))
    assert apply(mat, e_vec(4, 2)) == e_vec(4, 3)
    assert apply(mat, e_vec(4, 3)) == e_vec(4, 4)
    assert left_mult_matrix(a, (0,) * 4) == [[0] * 4 for _ in range(4)]
    rng = random.Random(31)
    v = rand_vec(4, rng)
    assert apply(left_mult_matrix(a, v), v) == (0,) * 4


def test_left_mult_matrix_matches_the_constant_oracle():
    rng = random.Random(37)
    tables = [instantiate(key, n) for key in MANIFEST_FAMILIES
              for n in catalog_tested_dims(key)]
    tables += [_dense_fractional_conjugate(instantiate(key, n), rng)
               for key in MANIFEST_FAMILIES
               for n in catalog_tested_dims(key)[:1] if n <= 8]
    tables += [_random_fractional_table(2 + k % 6, rng) for k in range(20)]
    for a in tables:
        n = a.dim
        for vec in (e_vec(n, 1), e_vec(n, n), (0,) * n, rand_vec(n, rng),
                    _fractional_vec(n, rng)):
            assert left_mult_matrix(a, vec) == left_mult_oracle(a, vec), a
    assert sum(a.mult > 1 for a in tables) >= 40


def test_one_generated_subalgebras_are_lines():
    rng = random.Random(41)
    for key, n in (("T22_e45", 7), ("eta3", 7), ("T4", 5)):
        a = instantiate(key, n)
        for _ in range(10):
            v = rand_vec(n, rng)
            sub = generated_subalgebra(a, v)
            assert sub.dim <= 1


def test_json_round_trip():
    a = instantiate("T222_e7special", 7)
    again = StructureTensor.from_json_obj(a.to_json_obj())
    assert again == a
    fancy = fraction_tensor(3, {(1, 2): (0, 0, Fraction(1, 2))})
    again = StructureTensor.from_json_obj(fancy.to_json_obj())
    assert again == fancy


def test_a_fraction_entry_is_stored_as_given():
    # the tests' Fraction reader reads each entry as Fraction(x): the
    # Fractions it is handed keep their value, and anything else converts
    given_vec = (Fraction(1, 3), Fraction(0), Fraction(-7, 2))
    a = fraction_tensor(3, {(1, 2): given_vec})
    assert a.products == {(1, 2): given_vec}
    mixed = (1, "2/4", 0.5, Fraction(3), -2)
    b = fraction_tensor(5, {(2, 4): mixed})
    assert b.products == {(2, 4): tuple(Fraction(x) for x in mixed)}
    assert all(type(x) is Fraction for x in b.products[(2, 4)])
    with pytest.raises(ValueError, match=r"product key \(2,1\)"):
        fraction_tensor(3, {(2, 1): given_vec})
    with pytest.raises(ValueError, match=r"product key \(1,4\)"):
        fraction_tensor(3, {(1, 4): given_vec})
    with pytest.raises(DimensionMismatch, match="wrong length"):
        fraction_tensor(3, {(1, 2): given_vec[:2]})
    zero = fraction_tensor(3, {(1, 2): (Fraction(0),) * 3, (1, 3): (0, "0/5", 0.0)})
    assert zero.products == {}


_ENTRIES = st.one_of(
    st.integers(-10**30, 10**30),
    st.tuples(st.sampled_from(["", "+", "-"]), st.integers(0, 10**12),
              st.integers(1, 10**6), st.sampled_from(["", " ", "\t"]))
    .map(lambda t: f"{t[3]}{t[0]}{t[1]}/{t[2]}{t[3]}"),
    st.integers(-50, 50).map(str),
    st.just(0),
)
_BAD_ENTRIES = st.sampled_from(
    ["1.5", "1e3", "3/0", " ", "1_0", "\u0663", True, 2.5, None, [1], {}])


@st.composite
def _tables(draw, bad=False):
    """A table object as `to_json_obj` writes it, some of its entries zero;
    with bad=True, one defect of a kind the reader refuses."""
    dim = draw(st.integers(1, 5))
    keys = [(i, j) for i in range(1, dim + 1) for j in range(i + 1, dim + 1)]
    chosen = draw(st.lists(st.sampled_from(keys), unique=True)) if keys else []
    products = [{"i": i, "j": j, "value": draw(st.lists(
        st.one_of(_ENTRIES, st.just(0)), min_size=dim, max_size=dim))}
        for i, j in chosen]
    obj = {"dim": dim, "products": products}
    if not bad:
        return obj
    defect = draw(st.sampled_from(
        ["entry", "key", "length", "twice", "missing", "products", "dim"]))
    if defect == "dim":
        obj["dim"] = draw(st.sampled_from([0, -1, "3", 3.0, True, 65, None]))
        return obj
    if defect == "products":
        obj["products"] = draw(st.sampled_from([{}, "x", 5, None]))
        return obj
    if not products:
        products.append({"i": 1, "j": dim + 1, "value": [0] * dim})
        return obj
    rec = draw(st.sampled_from(products))
    if defect == "entry":
        rec["value"][draw(st.integers(0, dim - 1))] = draw(_BAD_ENTRIES)
    elif defect == "key":
        rec["i"], rec["j"] = draw(st.sampled_from(
            [(rec["j"], rec["i"]), (0, rec["j"]), (rec["i"], dim + 1),
             (str(rec["i"]), rec["j"]), (rec["i"], True)]))
    elif defect == "length":
        rec["value"] = rec["value"] + [1] if draw(st.booleans()) else rec["value"][1:]
    elif defect == "twice":
        products.append(dict(rec))
    else:
        del rec[draw(st.sampled_from(["i", "j", "value"]))]
    return obj


@settings(max_examples=200, deadline=None)
@given(_tables())
def test_from_json_obj_reads_a_table_as_the_two_pass_reader(obj):
    a = StructureTensor.from_json_obj(obj)
    assert (a.dim, a.products) == from_json_obj_oracle(obj)
    assert all(type(x) is Fraction for vec in a.products.values() for x in vec)


@settings(max_examples=300, deadline=None)
@given(_tables(bad=True))
def test_from_json_obj_refuses_a_table_as_the_two_pass_reader(obj):
    with pytest.raises(TableFormatError) as want:
        from_json_obj_oracle(obj)
    with pytest.raises(TableFormatError) as got:
        StructureTensor.from_json_obj(obj)
    assert str(got.value) == str(want.value)


def _holds(a, slot):
    """Whether the tensor's slot is set, read without filling it."""
    try:
        getattr(StructureTensor, slot).__get__(a)
    except AttributeError:
        return False
    return True


def _int_form(a):
    """Whether the tensor holds its integer table and nothing else: an int
    mult and (i, j, ((k, coeff), ...)) rows of nonzero ints, in order."""
    return (type(a.mult) is int and a.mult > 0
            and all(type(i) is type(j) is int and 0 <= i < j < a.dim
                    and [k for k, _ in entries] == sorted({k for k, _ in entries})
                    and all(type(x) is int and x for _, x in entries)
                    for i, j, entries in a.table))


def _built(make, *args):
    """make(*args), a constructor, checked to read no `products` and to
    hold only its integer table."""
    with products_reads() as reads:
        a = make(*args)
    assert reads == [] and _int_form(a)
    return a


def _same_tensor(got, want):
    """got, built as its integer table, against want, built from its
    Fraction products: every public reading and its order agree."""
    assert (got.dim, got.mult, got.table) == (want.dim, want.mult, want.table)
    assert list(got.products.items()) == list(want.products.items())
    assert all(type(x) is Fraction for vec in got.products.values() for x in vec)
    assert got == want and want == got and hash(got) == hash(want)
    assert got.to_json_obj() == want.to_json_obj()
    assert repr(got) == repr(want)
    n = got.dim
    assert all(constant(got, i, j, k) == constant(want, i, j, k)
               for i in range(1, n + 1) for j in range(1, n + 1)
               for k in range(1, n + 1))


@settings(max_examples=200, deadline=None)
@given(_tables())
def test_a_json_table_is_built_as_the_fraction_path_builds_it(obj):
    # ints, signed, unreduced and padded "p/q" strings, zero vectors and
    # the empty table: read straight to the integer table, the same tensor
    _same_tensor(_built(StructureTensor.from_json_obj, obj),
                 _built(fraction_tensor, *from_json_obj_oracle(obj)))


_COEFFS = st.one_of(
    st.integers(-10**20, 10**20),
    st.fractions(max_denominator=10**6),
    st.tuples(st.integers(-99, 99), st.integers(1, 99)).map(lambda t: f"{t[0]}/{t[1]}"),
)


@st.composite
def _pair_lists(draw):
    """from_pairs entries, some with no coefficient, some repeated with
    the opposite coefficient so that a constant, or a whole pair, cancels."""
    dim = draw(st.integers(1, 5))
    if dim == 1:
        return dim, []
    slot = st.tuples(st.integers(1, dim - 1), st.integers(2, dim),
                     st.integers(1, dim)).filter(lambda t: t[0] < t[1])
    pairs = []
    for i, j, k in draw(st.lists(slot, max_size=8)):
        if draw(st.booleans()):
            pairs.append((i, j, k))
            continue
        coeff = draw(_COEFFS)
        pairs.append((i, j, k, coeff))
        if draw(st.booleans()):
            pairs.append((i, j, k, -Fraction(coeff)))
    return dim, draw(st.permutations(pairs))


@settings(max_examples=200, deadline=None)
@given(_pair_lists())
def test_pairs_are_built_as_the_fraction_path_builds_them(case):
    dim, pairs = case
    _same_tensor(_built(StructureTensor.from_pairs, dim, pairs),
                 from_pairs_oracle(dim, pairs))


@pytest.mark.parametrize("dim, pairs, message", [
    (3, [(1, 2, 0)], r"product index 0 is not 1 <= k <= 3"),
    (3, [(1, 2, -1, 5)], r"product index -1 is not 1 <= k <= 3"),
    (3, [(1, 2, 3), (1, 3, 4)], r"product index 4 is not 1 <= k <= 3"),
    (2, [(1, 2, 3, "1/2")], r"product index 3 is not 1 <= k <= 2"),
    (3, [(2, 1, 3)], r"product key \(2,1\)"),
    (3, [(1, 4, 3)], r"product key \(1,4\)"),
    (0, [(1, 2, 1)], "dimension must be positive"),
    (-1, [], "dimension must be positive"),
])
def test_from_pairs_refuses_an_entry_outside_the_dimension(dim, pairs, message):
    # k = 0 or k < 0 would index e_n or e_{n+k}, and k > dim or dim < 1
    # would raise IndexError: each is a ValueError naming the entry
    with pytest.raises(ValueError, match=message):
        StructureTensor.from_pairs(dim, pairs)
    # k = 1 and k = dim are inside
    assert StructureTensor.from_pairs(3, [(1, 2, 1), (1, 3, 3)]) == fraction_tensor(
        3, {(1, 2): (1, 0, 0), (1, 3): (0, 0, 1)})


@settings(max_examples=200, deadline=None)
@given(_tables(), _tables(), st.randoms(use_true_random=False))
def test_tables_compare_as_their_fraction_products(obj, other, rnd):
    # == and hash read the integer table; they agree with == on products,
    # for the same records in another order and for two unrelated tables,
    # read from JSON or handed to __init__ as Fractions, in any pairing
    shuffled = dict(obj, products=rnd.sample(obj["products"], len(obj["products"])))
    a = StructureTensor.from_json_obj(obj)
    a_init = fraction_tensor(*from_json_obj_oracle(obj))
    for obj_b in (shuffled, other):
        b = StructureTensor.from_json_obj(obj_b)
        b_init = fraction_tensor(*from_json_obj_oracle(obj_b))
        want = tensor_eq_oracle(a_init, b_init)
        for x, y in ((a, b), (a_init, b_init), (a, b_init), (a_init, b)):
            assert (x == y) == want and (y == x) == want
            assert not want or hash(x) == hash(y)


def test_every_constructor_builds_the_integer_table():
    # one form: each constructor sets mult and table, holds only ints and
    # reads no Fraction products; `products` is a read-only view, made
    # anew at each read; an orbit point is the table rows of
    # int_change_basis, in the constructor's own form, and no tensor
    half = Fraction(1, 2)
    a = _built(StructureTensor, 4, 2, [(0, 1, ((2, 1),)), (0, 2, ((3, 2),))])
    g = [[1, 0, 0, 0], [2, 1, 0, 0], [0, -1, 1, 0], [0, 0, 3, 1]]
    built = {
        "__init__": a,
        "from_pairs": _built(StructureTensor.from_pairs, 4, [(1, 2, 3, half), (1, 3, 4)]),
        "from_json_obj": _built(StructureTensor.from_json_obj, {"dim": 4, "products": [
            {"i": 1, "j": 2, "value": [0, 0, "1/2", 0]},
            {"i": 1, "j": 3, "value": [0, 0, 0, 1]}]}),
        "change_basis": _built(change_basis, a, g),
    }
    assert "products" not in StructureTensor.__slots__
    for name, b in built.items():
        assert _holds(b, "mult") and _holds(b, "table"), name
        assert b.products == b.products and b.products is not b.products, name
        with pytest.raises(AttributeError):
            b.products = {}
    assert a == fraction_tensor(4, {(1, 2): (0, 0, half, 0), (1, 3): (0, 0, 0, 1),
                                    (2, 3): (0, 0, 0, 0)})
    assert a == built["from_pairs"] == built["from_json_obj"]
    d, moved = int_change_basis(a.table, 4, g)
    assert d == int_scaled_inverse(g)[0] == 1
    dense = {}
    for i, j, entries in moved:
        vec = [0] * 4
        for k, x in entries:
            vec[k] = x
        dense[(i + 1, j + 1)] = tuple(vec)
    point = fraction_tensor(4, dense)
    assert point.mult == 1 and point.table == moved
    assert built["change_basis"] == fraction_tensor(
        4, change_basis_oracle(4, pairs_of(a), g))


@pytest.mark.parametrize("args", [
    (3, {(1, 2): (0, 0, 1)}),
    (3,),
    (),
])
def test_the_removed_constructor_forms_raise_type_error(args):
    # (dim, mult, table) is the one constructor: a dict of Fraction
    # vectors, or a dimension alone, is refused at once, never read as
    # a wrong tensor
    with pytest.raises(TypeError):
        StructureTensor(*args)


def test_is_nilpotent_detects_stabilization():
    bad = fraction_tensor(3, {(1, 2): (0, 1, 0)})  # powers stabilize at <e2>
    assert is_nilpotent(bad) == (False, None)
    # e1e2 = e3, e2e3 = e3 stalls at A^2 = <e3>; the cross product e1e2 = e3,
    # e2e3 = e1, e3e1 = e2 at its first step, A^2 = A
    rng = random.Random(83)
    for a in (bad,
              fraction_tensor(3, {(1, 2): (0, 0, 1), (2, 3): (0, 0, 1)}),
              fraction_tensor(3, {(1, 2): (0, 0, 1), (1, 3): (0, -1, 0),
                                  (2, 3): (1, 0, 0)})):
        assert _assert_layer_matches_oracles(a, rng) == (False, None)


# --- the integer algebra layer against its former Fraction bodies ---------


def _fractional_vec(n, rng):
    return tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n))


def _assert_layer_matches_oracles(a, rng):
    """Every closed invariant, public and on a fresh, equal tensor, equals
    its Fraction oracle, subspace for subspace; returns is_nilpotent(a)."""
    n = a.dim
    full = Subspace.full(n)
    powers = [full]  # A^1, ..., A^(n+2) over Fraction
    for _ in range(n + 1):
        powers.append(subspace_product_oracle(a, full, powers[-1]))
    inv = fraction_tensor(n, a.products)
    for i, want in enumerate(powers, start=1):
        assert Subspace.from_vectors(n, power_ideal(a, i)) == want, i
        # one walk gives the whole chain; past its end a power repeats the last
        assert Subspace.from_vectors(n, inv.power(i)) == want, i
    assert dim_square(a) == inv.dim_square == powers[1].dim
    nil = is_nilpotent(a)
    assert nil == is_nilpotent_oracle(a) == is_nilpotent(inv)
    assert inv.nilindex == nil[1]
    ann = annihilator_oracle(a)
    assert Subspace.from_vectors(n, annihilator(a)) == ann
    assert (fraction_tensor(n, a.products).ann_dim == inv.ann_dim
            == inv.centralizer_dim(1) == ann.dim)
    assert inv.centralizer_dim(2) == centralizer_square_dim_oracle(a)
    x, y = _fractional_vec(n, rng), _fractional_vec(n, rng)
    assert product(a, x, y) == fraction_product(a, x, y)
    return nil


def _dense_fractional_conjugate(a, rng):
    n = a.dim
    while True:
        rows = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                 for _ in range(n)] for _ in range(n)]
        if fraction_inverse(rows) is not None:
            return change_basis(a, rows)


def test_integer_layer_matches_fraction_oracles_on_manifest_families():
    rng = random.Random(71)
    indices = set()
    for key in MANIFEST_FAMILIES:
        for n in catalog_tested_dims(key):
            a = instantiate(key, n)
            indices.add(_assert_layer_matches_oracles(a, rng))
            moved = change_basis(a, random_lower_triangular(n, rng))
            assert _assert_layer_matches_oracles(moved, rng) == is_nilpotent(a)
    # nilpotency indices 2 (zero algebra) through 6 (T4 at n = 6 is 5)
    assert {m for _, m in indices} >= {2, 3, 4, 5}


def test_integer_layer_matches_fraction_oracles_on_dense_conjugates():
    rng = random.Random(73)
    fractional = 0
    for key in MANIFEST_FAMILIES:
        n = catalog_tested_dims(key)[0]
        if n > 8:
            continue
        a = instantiate(key, n)
        b = _dense_fractional_conjugate(a, rng)
        fractional += b.mult > 1
        assert _assert_layer_matches_oracles(b, rng) == is_nilpotent(a), key
    assert fractional >= 20


def test_integer_layer_matches_fraction_oracles_on_random_tables():
    rng = random.Random(79)
    seen = set()
    for trial in range(24):
        n = 2 + trial % 4
        a = random_anticommutative(n, rng, spread=1 + trial % 3)
        if trial % 2:
            a = _dense_fractional_conjugate(a, rng)
        seen.add(_assert_layer_matches_oracles(a, rng)[0])
    assert seen == {True, False}



def test_weight_spaces_match_the_nullspace_oracle_on_every_catalog_label():
    # coordinates share a weight space iff every weight of the diagonal
    # torus (sympy's null space of the incidence rows) agrees on them
    sizes = collections.Counter()
    for label, a in catalog_labels(11).items():
        blocks = weight_spaces(a)
        assert blocks == weight_spaces_oracle(a), label
        assert sorted(x for block in blocks for x in block) == list(range(a.dim))
        sizes[max(map(len, blocks))] += 1
    # T22_e34, T3_e34 and T222_e24 have one 2-dim weight space at each dim
    assert sizes[2] == 18 and set(sizes) == {1, 2}, sizes


@pytest.mark.parametrize("n, products, blocks", [
    (4, {}, ((0,), (1,), (2,), (3,))),  # the zero table: every weight
    (4, {(1, 2): (0, 0, 1, 1)}, ((0,), (1,), (2, 3))),
    (5, {(1, 2): (0, 0, 1, 1, 1)}, ((0,), (1,), (2, 3, 4))),
    (6, {(1, 2): (0, 0, 1, 1, 0, 0), (1, 3): (0, 0, 0, 0, 1, -2)},
     ((0,), (1,), (2, 3), (4, 5))),
    (4, {(1, 3): (0, 0, 0, 1), (2, 3): (0, 0, 0, 1)}, ((0, 1), (2,), (3,))),
])
def test_weight_spaces_of_small_tables(n, products, blocks):
    a = fraction_tensor(n, products)
    assert weight_spaces(a) == blocks == weight_spaces_oracle(a)
