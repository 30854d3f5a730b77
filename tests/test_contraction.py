import random
from fractions import Fraction

import pytest

from degenlab.algebra import (
    DimensionMismatch,
    StructureTensor,
    change_basis,
    left_mult_matrix,
)
from degenlab.catalog import MANIFEST_FAMILIES, instantiate
from degenlab.catalog import tested_dims as catalog_tested_dims
from degenlab.contraction import (
    NotASubalgebra,
    NotEngelAt,
    RankSequence,
    dominates,
    iw_contract,
    iw_max,
    partition_from_rank_sequence,
    rank_sequence,
)
from degenlab.linalg import Matrix, Partition, Singular, power_rank_sequence


def e_vec(n, *idx):
    return tuple(Fraction(int(k + 1 in idx)) for k in range(n))


def test_rank_sequence_examples():
    a = instantiate("T32", 6)
    assert rank_sequence(a, e_vec(6, 1)) == RankSequence((3, 1))
    assert rank_sequence(a, (0,) * 6) == RankSequence(())
    b = instantiate("T2222", 9)
    assert rank_sequence(b, e_vec(9, 1)) == RankSequence((4,))


def test_dominates_examples():
    assert not dominates(RankSequence((3, 1)), RankSequence((2, 2)))
    assert dominates(RankSequence((3, 1)), RankSequence(()))
    assert not dominates(RankSequence((4,)), RankSequence((3, 1)))
    assert not dominates(RankSequence((3, 1)), RankSequence((4,)))


def test_iw_contract_fixes_already_contracted_table():
    a = instantiate("T22", 5)
    assert iw_contract(a, 1) == a


def test_iw_contract_keeps_mixed_products_and_kills_doubly_scaled_ones():
    # one scaled argument and a scaled output cancel: the product survives
    # (this is why the Heisenberg algebras contract onto a single pair)
    eta1 = StructureTensor.from_pairs(3, [(1, 2, 3)])
    assert iw_contract(eta1, 1) == eta1
    # a product with both arguments in the complement picks up a net factor
    # of t and dies in the limit
    eta2 = instantiate("eta2", 5)
    assert iw_contract(eta2, 1) == StructureTensor.from_pairs(5, [(1, 2, 5)])


def test_iw_contract_zero_algebra():
    z = StructureTensor.zero_algebra(4)
    assert iw_contract(z, 2) == z


def test_iw_contract_requires_a_subalgebra():
    # <e1, e2> is not closed in the Heisenberg table
    with pytest.raises(NotASubalgebra):
        iw_contract(StructureTensor.from_pairs(3, [(1, 2, 3)]), 2)


def test_iw_contract_output_shape():
    a = instantiate("T3_e23", 5)
    chi = iw_contract(a, 1)
    assert chi == instantiate("T3", 5)
    # complement has zero square inside the contraction
    for (i, j) in chi.products:
        assert i == 1


def test_iw_max_examples():
    a = instantiate("T22_e45", 7)
    part, witness = iw_max(a, seed=5)
    assert part == Partition((2, 2))
    assert rank_sequence(a, witness) == RankSequence((2,))

    z = StructureTensor.zero_algebra(5)
    assert iw_max(z, seed=5)[0] == Partition((1, 1, 1, 1))

    t4e = instantiate("T4_e23", 5)
    assert iw_max(t4e, seed=5)[0] == Partition((4,))


def test_iw_max_perturbation_closure():
    # r_m(c + alpha b) >= max(r_m(b), r_m(c)) for some small alpha
    rng = random.Random(9)
    for key, n in (("T32_e23", 6), ("T222_e24", 7)):
        a = instantiate(key, n)
        for _ in range(10):
            b = tuple(Fraction(rng.randint(-9, 9)) for _ in range(n))
            c = tuple(Fraction(rng.randint(-9, 9)) for _ in range(n))
            sb, sc = rank_sequence(a, b), rank_sequence(a, c)
            found = False
            for alpha in range(1, 21):
                mixed = tuple(x + alpha * y for x, y in zip(c, b))
                sm = rank_sequence(a, mixed)
                if dominates(sm, sb) and dominates(sm, sc):
                    found = True
                    break
            assert found


def test_iw_max_witness_dominates_pool_members():
    rng = random.Random(33)
    a = instantiate("T322", 8)
    part, witness = iw_max(a, seed=12)
    assert part == Partition((3, 2, 2))
    top = rank_sequence(a, witness)
    for _ in range(30):
        v = tuple(Fraction(rng.randint(-9, 9)) for _ in range(8))
        assert dominates(top, rank_sequence(a, v))


def test_iw_contract_complement_is_an_abelian_ideal():
    # every IW contraction is a trivial singular extension: the scaled
    # complement has zero square, and the subalgebra block is unchanged
    for key, n, m in (("T22_e24", 6, 1), ("T222_e7special", 7, 1),
                      ("T4_e23", 5, 1)):
        a = instantiate(key, n)
        chi = iw_contract(a, m)
        for (i, j), _ in chi.products.items():
            assert i <= m  # no product with both factors in the complement
        for (i, j), vec in a.products.items():
            if j <= m:
                assert chi.products.get((i, j)) == vec


def test_rank_sequence_not_engel():
    bad = StructureTensor(3, {(1, 2): (0, 1, 0)})  # e1e2 = e2, idempotent-ish
    with pytest.raises(NotEngelAt):
        rank_sequence(bad, (Fraction(1), Fraction(0), Fraction(0)))


def fraction_rank_sequence(a, vec):
    """Reference: Fraction matrix of L_vec and the generic power ranks."""
    return power_rank_sequence(left_mult_matrix(a, vec), a.dim + 1)


def reference_vectors(n, rng):
    vecs = [e_vec(n, i) for i in range(1, n + 1)]
    vecs += [e_vec(n, i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    vecs += [tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(4)]
    vecs += [tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n))
             for _ in range(4)]
    return vecs


def test_integer_rank_sequence_matches_fraction_reference():
    rng = random.Random(17)
    checked = 0
    for key in MANIFEST_FAMILIES:
        for n in catalog_tested_dims(key):
            if n > 8:
                continue
            a = instantiate(key, n)
            for vec in reference_vectors(n, rng):
                assert tuple(rank_sequence(a, vec)) == fraction_rank_sequence(a, vec)
                checked += 1
    assert checked > 1000


def test_integer_rank_sequence_on_a_dense_fraction_conjugate():
    rng = random.Random(5)
    while True:
        basis = Matrix([[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                         for _ in range(6)] for _ in range(6)])
        try:
            a = change_basis(instantiate("T32_e23", 6), basis)
        except Singular:
            continue
        break
    assert any(x.denominator > 1 for vec in a.products.values() for x in vec)
    for vec in reference_vectors(6, rng):
        assert tuple(rank_sequence(a, vec)) == fraction_rank_sequence(a, vec)
    part, witness = iw_max(a, seed=3)
    assert part == Partition((3, 2))
    assert all(isinstance(x, Fraction) for x in witness)


def test_integer_rank_sequence_error_cases():
    a = instantiate("T3", 5)
    for short in ((1, 0, 0, 0), (Fraction(1, 2),) * 6):
        with pytest.raises(DimensionMismatch):
            rank_sequence(a, short)
        with pytest.raises(DimensionMismatch):
            fraction_rank_sequence(a, short)
    bad = StructureTensor(3, {(1, 2): (0, Fraction(2, 3), 0)})
    vec = (Fraction(1, 2), Fraction(0), Fraction(0))
    assert len(fraction_rank_sequence(bad, vec)) > bad.dim
    with pytest.raises(NotEngelAt):
        rank_sequence(bad, vec)


def _partitions(n, largest=None):
    """Every partition of n with parts <= largest, as weakly decreasing tuples."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def test_partition_label_is_the_parts_above_one_of_every_partition():
    # the label of a rank sequence is read off linalg.partition_from_ranks
    count = 0
    for dim in range(1, 12):
        for parts in _partitions(dim):
            seq = RankSequence(Partition(parts).rank_at(m) for m in range(1, dim + 1))
            big = tuple(p for p in parts if p >= 2)
            want = Partition(big) if big else Partition((1,) * (dim - 1))
            assert partition_from_rank_sequence(seq, dim) == want, parts
            count += 1
    assert count == 194  # p(1) + ... + p(11)
