import collections
import itertools
import random
from fractions import Fraction

import pytest

from degenlab.algebra import (
    DimensionMismatch,
    StructureTensor,
    _int_left_products,
    change_basis,
    left_mult_matrix,
)
from degenlab.catalog import MANIFEST_FAMILIES, instantiate
from degenlab.catalog import tested_dims as catalog_tested_dims
from degenlab import contraction
from degenlab.contraction import (
    NotEngelAt,
    _engel_cut,
    _rank_bound,
    _tight_bound,
    dominates,
    iw_max,
    iw_scan,
    partition_from_rank_sequence,
    rank_sequence,
)
from degenlab.linalg import Singular, power_rank_sequence
from degenlab.verification_db import load_ledger, shipped_ledger_path
from oracles import (
    _candidate_pool_oracle,
    annihilator_oracle,
    catalog_labels,
    fraction_tensor,
    generic_rank_sequence_oracle,
    int_power_rank_walk,
    is_nilpotent_oracle,
    iw_max_oracle,
    iw_sequence,
    partition_from_ranks,
    power_rank_sequence_oracle,
    power_ideal_oracle,
    random_anticommutative,
)


def e_vec(n, *idx):
    return tuple(Fraction(int(k + 1 in idx)) for k in range(n))


def test_rank_sequence_examples():
    a = instantiate("T32", 6)
    assert rank_sequence(a, e_vec(6, 1)) == (3, 1)
    assert rank_sequence(a, (0,) * 6) == ()
    b = instantiate("T2222", 9)
    assert rank_sequence(b, e_vec(9, 1)) == (4,)


def test_dominates_examples():
    assert not dominates((3, 1), (2, 2))
    assert dominates((3, 1), ())
    assert not dominates((4,), (3, 1))
    assert not dominates((3, 1), (4,))


def test_iw_max_examples():
    a = instantiate("T22_e45", 7)
    part, witness = iw_max(a, seed=5)
    assert part == (2, 2)
    assert rank_sequence(a, witness) == (2,)

    z = fraction_tensor(5)
    assert iw_max(z, seed=5)[0] == (1, 1, 1, 1)

    t4e = instantiate("T4_e23", 5)
    assert iw_max(t4e, seed=5)[0] == (4,)


@pytest.mark.parametrize("trials", [0, -1])
def test_iw_max_refuses_fewer_than_one_trial(trials):
    # a repair needs a perturbation; eta_eps_double2 at dim 7 needs one
    with pytest.raises(ValueError, match="trials must be >= 1"):
        iw_max(instantiate("eta_eps_double2", 7), seed=5, trials=trials)
    with pytest.raises(ValueError, match="trials must be >= 1"):
        iw_max(instantiate("n3", 3), trials=trials)


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
    assert part == (3, 2, 2)
    top = rank_sequence(a, witness)
    for _ in range(30):
        v = tuple(Fraction(rng.randint(-9, 9)) for _ in range(8))
        assert dominates(top, rank_sequence(a, v))


def test_rank_sequence_not_engel():
    bad = fraction_tensor(3, {(1, 2): (0, 1, 0)})  # e1e2 = e2, idempotent-ish
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
        basis = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                  for _ in range(6)] for _ in range(6)]
        try:
            a = change_basis(instantiate("T32_e23", 6), basis)
        except Singular:
            continue
        break
    assert any(x.denominator > 1 for vec in a.products.values() for x in vec)
    for vec in reference_vectors(6, rng):
        assert tuple(rank_sequence(a, vec)) == fraction_rank_sequence(a, vec)
    part, witness = iw_max(a, seed=3)
    assert part == (3, 2)
    assert type(witness) is tuple and all(type(x) is int for x in witness)


def test_integer_rank_sequence_error_cases():
    a = instantiate("T3", 5)
    for short in ((1, 0, 0, 0), (Fraction(1, 2),) * 6):
        with pytest.raises(DimensionMismatch):
            rank_sequence(a, short)
        with pytest.raises(DimensionMismatch):
            fraction_rank_sequence(a, short)
    bad = fraction_tensor(3, {(1, 2): (0, Fraction(2, 3), 0)})
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
    # the block counts r_{m-1} - 2 r_m + r_{m+1} give the parts >= 2, as
    # the former reading through the conjugate partition did
    count = 0
    for dim in range(1, 13):
        for parts in _partitions(dim):
            # rank(N^m) = sum_i max(lambda_i - m, 0)
            seq = tuple(filter(None, (sum(max(p - m, 0) for p in parts)
                                      for m in range(1, dim + 1))))
            big = tuple(p for p in parts if p >= 2)
            want = big if big else (1,) * (dim - 1)
            got = partition_from_rank_sequence(seq, dim)
            assert got == want, parts
            assert type(got) is tuple
            assert partition_from_ranks(seq, dim) == parts, parts
            if big:
                assert got == tuple(p for p in partition_from_ranks(seq, dim)
                                    if p >= 2), parts
            count += 1
    assert count == 271  # p(1) + ... + p(12)


@pytest.mark.parametrize("seq, dim", [
    ((1, 1), 3),  # rank N = rank N^2 = 1: a stall above 0
    ((3, 1), 4),  # 3 blocks of size >= 2 but 1 of size >= 3 at dim 4
    ((2, 2, 1), 5),
    ((4,), 4),  # rank N = dim
    ((5, 1), 4),  # a rank above dim
    ((3, 2), 4),
    ((2, 0, 1), 6),  # a rank after a zero
], ids=str)
def test_a_rank_sequence_no_nilpotent_operator_has_gets_no_label(seq, dim):
    # a negative block count, m = 1 included, is refused
    with pytest.raises(ValueError, match="not the rank sequence of a nilpotent"):
        partition_from_rank_sequence(seq, dim)


def test_the_conjugate_reading_labelled_a_stalled_sequence():
    # the reference drops the zero difference r_1 - r_2 of (1, 1) at dim 3
    # and reads (2, 1); the block counts refuse it
    assert partition_from_ranks((1, 1), 3) == (2, 1)
    with pytest.raises(ValueError):
        partition_from_rank_sequence((1, 1), 3)


# --- iw_max's exact stop and lazy pool against the full-scan oracle ---


def _outcome(search, a, seed):
    """(partition, witness) of a search, or the type and text it raised:
    int tuples from iw_max, Fractions from the oracle's pool."""
    try:
        part, witness = search(a, seed=seed)
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return type(exc), str(exc)
    assert type(part) is tuple and type(witness) is tuple
    scalar = Fraction if search is iw_max_oracle else int
    assert all(type(x) is scalar for x in witness)
    return part, witness


def _random_nilpotent(n, rng, density):
    """Sparse random table with e_i e_j in <e_{j+1}, ..., e_n>: nilpotent."""
    table = {}
    for i in range(1, n):
        for j in range(i + 1, n):
            if rng.random() < density:
                vec = tuple(rng.randint(-2, 2) if k >= j and rng.random() < density
                            else 0 for k in range(n))
                if any(vec):
                    table[(i, j)] = vec
    return fraction_tensor(n, table)


def _dense_conjugate(a, rng):
    while True:
        basis = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                  for _ in range(a.dim)] for _ in range(a.dim)]
        try:
            return change_basis(a, basis)
        except Singular:
            continue


def _manifest_algebras():
    for key in MANIFEST_FAMILIES:
        for n in catalog_tested_dims(key):
            yield instantiate(key, n)


# repairs with the random block not yet drawn, and inside the random block
REPAIR_BEFORE_BLOCK = fraction_tensor(7, {
    (1, 3): (0, 0, 0, 1, 1, 0, 0), (2, 4): (0, 0, 0, 0, -1, 0, -1),
    (4, 6): (0, 0, 0, 0, 0, 0, 1)})
REPAIR_IN_BLOCK = fraction_tensor(7, {
    (1, 2): (0, 0, 0, 0, 1, 0, 0), (2, 3): (0, 0, 0, -1, 0, 1, 0),
    (3, 4): (0, 0, 0, 0, 0, -1, 0), (5, 6): (0, 0, 0, 0, 0, 0, 1)})
# e1e2 = e3, e2e3 = e3: e1 meets the bound (1,) of a nilpotent table of
# this shape, but L_{e2} is not nilpotent
NOT_NILPOTENT = fraction_tensor(3, {(1, 2): (0, 0, 1), (2, 3): (0, 0, 1)})
# e1e2 = e3, e2e3 = e1, e3e1 = e2: A^2 = A, so the power chain stalls at
# its first step
CROSS_PRODUCT = fraction_tensor(3, {
    (1, 2): (0, 0, 1), (1, 3): (0, -1, 0), (2, 3): (1, 0, 0)})
# e1e2 = e3, e1e3 = e4, e2e3 = e5: the strict fall cuts b_2 from 2 to 1
STRICT_FALL = fraction_tensor(5, {
    (1, 2): (0, 0, 1, 0, 0), (1, 3): (0, 0, 0, 1, 0), (2, 3): (0, 0, 0, 0, 1)})


def test_iw_max_matches_the_full_scan_oracle():
    rng = random.Random(1021)
    cases = list(_manifest_algebras())
    cases += [_dense_conjugate(instantiate(key, catalog_tested_dims(key)[0]), rng)
              for key in MANIFEST_FAMILIES if catalog_tested_dims(key)[0] <= 8]
    for trial in range(300):
        a = _random_nilpotent(rng.randint(3, 9), rng, rng.choice((0.2, 0.35, 0.5)))
        cases.append(_dense_conjugate(a, rng) if trial % 10 == 0 else a)
    cases += [random_anticommutative(rng.randint(2, 6), rng, spread=1 + t % 3)
              for t in range(100)]
    cases += [REPAIR_BEFORE_BLOCK, REPAIR_IN_BLOCK, NOT_NILPOTENT, STRICT_FALL]
    raised = stopped = 0
    for a in cases:
        seed = rng.randint(0, 99)
        want = _outcome(iw_max_oracle, a, seed)
        assert _outcome(iw_max, a, seed) == want, (a.products, seed)
        raised += isinstance(want[0], type)
        stopped += _rank_bound(a) is not None
    assert (len(cases), raised, stopped) == (503, 99, 404)


def _shipped_tables():
    """{label: table} over every claim of the shipped ledger."""
    ledger = load_ledger(shipped_ledger_path())
    return {ref.label: ref.resolve()
            for claim in ledger.certificates + ledger.witnesses
            for ref in (claim.source, claim.target)}


def _full_powers_rank_sequence(table, n, x):
    """`contraction._int_rank_sequence` read off the ranks of full powers
    of P = -L_x^T (`power_rank_sequence_oracle`)."""
    ranks = power_rank_sequence_oracle(_int_left_products(table, n, x), n + 1)
    if len(ranks) > n:
        raise NotEngelAt(x)
    return ranks


def test_iw_max_on_shipped_labels_is_that_of_full_matrix_powers(monkeypatch):
    # the image chain of _int_rank_sequence against the ranks of full
    # powers of L_x: same partition and witness on every label
    tables = _shipped_tables()
    assert len(tables) > 100
    got = {label: iw_max(a, seed=20240917) for label, a in tables.items()}
    monkeypatch.setattr(contraction, "_int_rank_sequence",
                        _full_powers_rank_sequence)
    for label, a in tables.items():
        assert got[label] == iw_max(a, seed=20240917), label


def test_rank_sequences_are_those_of_the_former_walk_and_of_full_powers():
    # the image chain under u -> u x against the parent walk on the rows of
    # P and against full powers of P, at basis vectors, pair sums and
    # random vectors, on nilpotent tables and on tables that are not
    rng = random.Random(4401)
    cases = list(_manifest_algebras()) + [NOT_NILPOTENT, CROSS_PRODUCT]
    cases += [random_anticommutative(rng.randint(2, 5), rng) for _ in range(20)]
    raised = 0
    for a in cases:
        n, table = a.dim, a.table
        # the scan's own integer candidates: basis vectors, pair sums and
        # the first random ones
        pool = contraction._CandidatePool(n, rng.randrange(100))
        for x in itertools.islice(pool, n * (n + 1) // 2 + 4):
            walk = int_power_rank_walk(_int_left_products(table, n, x), n + 1)
            try:
                got = contraction._int_rank_sequence(table, n, x)
            except NotEngelAt as exc:
                assert len(walk) > n and exc.element == x
                with pytest.raises(NotEngelAt):
                    _full_powers_rank_sequence(table, n, x)
                raised += 1
                continue
            assert len(walk) <= n
            assert got == tuple(walk) == _full_powers_rank_sequence(
                table, n, x), (a, x)
    assert raised > 20


def test_iw_max_on_a_warm_tensor_is_iw_max_on_a_fresh_one():
    # the scan's rank bound reads the power chain the tensor has walked so
    # far: a walk left in part, or taken to its end, changes no answer
    for seed, (label, a) in enumerate(sorted(_shipped_tables().items())):
        if seed % 2:
            a.power(2)
        else:
            iw_max(a, seed=seed + 1)
        fresh = fraction_tensor(a.dim, a.products)
        assert iw_max(a, seed=seed) == iw_max(fresh, seed=seed), label


def test_iw_scan_bests_rise_to_the_iw_max_label():
    # the scan's last best is iw_max's witness, and its sequence is that of
    # iw_max's label
    for seed, (label, a) in enumerate(sorted(_shipped_tables().items())):
        best_vec, best_seq = iw_scan(a, seed)
        partition, witness = iw_max(a, seed=seed)
        assert (iw_sequence(partition), witness) == (best_seq, best_vec), label


def test_the_candidate_pool_is_the_oracle_pool_in_integers():
    # same rng calls in the same order: the basis vectors, the pair sums,
    # the random block and then the alpha draws
    for n in range(1, 12):
        for seed in (0, 1, 7, 1021, 20240917):
            want, rng = _candidate_pool_oracle(fraction_tensor(n), seed)
            pool = contraction._CandidatePool(n, seed)
            got = list(pool)
            assert got == want, (n, seed)
            assert all(type(x) is int for vec in got for x in vec)
            alphas = [pool.alpha() for _ in range(8)]
            assert alphas == [rng.randint(1, 99) for _ in range(8)], (n, seed)
            assert all(type(x) is int for x in alphas)


def test_iw_max_repairs_with_the_rng_state_of_a_full_pool(monkeypatch):
    drawn_at_repair = []
    alpha = contraction._CandidatePool.alpha

    def spy(pool):
        drawn_at_repair.append(pool._block is not None)
        return alpha(pool)

    monkeypatch.setattr(contraction._CandidatePool, "alpha", spy)
    for a, drawn in ((REPAIR_BEFORE_BLOCK, False), (REPAIR_IN_BLOCK, True)):
        drawn_at_repair.clear()
        part, witness = iw_max(a, seed=4)
        assert drawn_at_repair == [drawn]
        assert (part, witness) == iw_max_oracle(a, seed=4)
        assert witness not in list(contraction._CandidatePool(7, 4))  # c + alpha b


def test_iw_max_scans_to_the_end_when_the_table_is_not_nilpotent():
    assert _rank_bound(NOT_NILPOTENT) is None
    assert rank_sequence(NOT_NILPOTENT, e_vec(3, 1)) == (1,)
    with pytest.raises(NotEngelAt) as got:
        iw_max(NOT_NILPOTENT)
    with pytest.raises(NotEngelAt) as want:
        iw_max_oracle(NOT_NILPOTENT)
    assert str(got.value) == str(want.value)
    assert got.value.element == (0, 1, 0)


# e1e3 = e2, e3e4 = -e3: not nilpotent, and e1 + e3 is a new best before
# e4 shows that L_e4 is not nilpotent
NEW_BEST_BEFORE_RAISE = fraction_tensor(5, {(1, 3): (0, 1, 0, 0, 0),
                                            (3, 4): (0, 0, -1, 0, 0)})


def test_a_new_best_on_a_table_that_is_not_nilpotent_lowers_no_bound(monkeypatch):
    # with no rank bound the scan lowers none: a new best before the
    # element that is not Engel gave a TypeError from _tight_bound
    a = NEW_BEST_BEFORE_RAISE
    assert _rank_bound(a) is None
    seqs, rank_seq = [], contraction._int_rank_sequence

    def recorded(*args):
        seqs.append(rank_seq(*args))
        return seqs[-1]

    monkeypatch.setattr(contraction, "_int_rank_sequence", recorded)
    with pytest.raises(NotEngelAt) as got:
        iw_scan(a)
    # the sequences read before the raise: the first best, (1,) at e1, and
    # a new best that strictly dominates it
    assert seqs[0] == (1,)
    assert any(dominates(q, seqs[0]) and q != seqs[0] for q in seqs[1:])
    assert got.value.element == (0, 0, 0, 1, 0)
    with pytest.raises(NotEngelAt) as want:
        iw_max_oracle(a)
    assert str(got.value) == str(want.value)


def test_every_random_table_that_is_not_nilpotent_raises_not_engel_at():
    # one +-1 term or none per product, dims 3-5: every table that is not
    # nilpotent gives NotEngelAt (or a label), as the full scan does
    rng = random.Random(11)
    outcomes = collections.Counter()
    for trial in range(3000):
        n = 3 + trial % 3
        a = StructureTensor.from_pairs(n, [
            (i, j, rng.randint(1, n), rng.choice((1, -1, 0, 0)))
            for i in range(1, n + 1) for j in range(i + 1, n + 1)])
        if a.nilindex is not None:
            continue
        try:
            got = iw_max(a)
        except NotEngelAt as exc:
            got = str(exc)
        outcomes[type(got)] += 1
        if trial < 300:
            try:
                want = iw_max_oracle(a)
            except NotEngelAt as exc:
                want = str(exc)
            assert got == want, a
    assert outcomes[str] > 2500


def _counting_rank_sequences(monkeypatch):
    """The vectors `_int_rank_sequence` is called on, from now on."""
    calls = []
    rank_seq = contraction._int_rank_sequence

    def counted(table, n, vec):
        calls.append(vec)
        return rank_seq(table, n, vec)

    monkeypatch.setattr(contraction, "_int_rank_sequence", counted)
    return calls


def test_iw_max_stops_once_the_best_sequence_meets_the_bound(monkeypatch):
    calls = _counting_rank_sequences(monkeypatch)
    assert _rank_bound(STRICT_FALL) == (2, 1)
    assert iw_max(STRICT_FALL) == ((3,), e_vec(5, 1))
    assert calls == [e_vec(5, 1)]
    calls.clear()
    assert iw_max(fraction_tensor(4))[0] == (1, 1, 1)
    assert len(calls) == 1


def _bound_from_oracles(a):
    """The rank bound from Fraction power ideals and annihilator."""
    if not is_nilpotent_oracle(a)[0]:
        return None
    bound, prev, m = [], a.dim - annihilator_oracle(a).dim, 1
    while True:
        prev = min(power_ideal_oracle(a, m + 1).dim, prev - 1)
        if prev <= 0:
            return tuple(bound)
        bound.append(prev)
        m += 1


def test_rank_bound_matches_the_fraction_oracles():
    rng = random.Random(1022)
    cases = list(_manifest_algebras()) + [STRICT_FALL, NOT_NILPOTENT,
                                          CROSS_PRODUCT, fraction_tensor(1)]
    cases += [_random_nilpotent(rng.randint(2, 8), rng, 0.4) for _ in range(40)]
    cases += [random_anticommutative(rng.randint(2, 5), rng) for _ in range(10)]
    cases.append(_dense_conjugate(STRICT_FALL, rng))
    for a in cases:
        assert _rank_bound(a) == _bound_from_oracles(a), a.products
    assert _bound_from_oracles(STRICT_FALL) == (2, 1)


def test_rank_bound_dominates_every_rank_sequence():
    rng = random.Random(1023)
    met = 0
    for a in _manifest_algebras():
        n = a.dim
        bound = _rank_bound(a)
        seqs = [rank_sequence(a, vec) for vec in reference_vectors(n, rng)]
        assert all(dominates(bound, seq) for seq in seqs), a.products
        met += bound in seqs
    assert met >= 40


# --- the scan's exact stopping bound: _rank_bound lowered by three rules ---


def _tight(a, x0, cut):
    """The scan's stopping bound read at x0, every rule applied."""
    return _tight_bound(a, x0, _rank_bound(a), cut)


def _bound_points(n, rng):
    """x0 = 0, each basis vector and a random integer vector."""
    return ([(0,) * n] + [tuple(int(i == k) for k in range(n)) for i in range(n)]
            + [tuple(rng.randint(-9, 9) for _ in range(n))])


def test_tight_bound_dominates_every_rank_sequence():
    rng = random.Random(1026)
    cases = list(_manifest_algebras())
    cases += [_dense_conjugate(a, rng) for a in cases]
    cases += [_random_nilpotent(rng.randint(3, 9), rng, rng.choice((0.2, 0.35, 0.5)))
              for _ in range(60)]
    met = 0
    for a in cases:
        cut = _engel_cut(a, _rank_bound(a))
        seqs = [rank_sequence(a, vec) for vec in reference_vectors(a.dim, rng)]
        for x0 in _bound_points(a.dim, rng):
            bound = _tight(a, x0, cut)
            assert type(bound) is tuple and 0 not in bound
            assert all(dominates(bound, seq) for seq in seqs), (a.products, x0)
            met += bound in seqs
    assert (len(cases), met) == (202, 1814)


def test_a_tight_bound_lowered_to_zero_is_cut_there():
    # a rank sequence stops before its first 0: the loose bound (1, 1) on
    # n3@3 lowers its second rank to 0 (rule (i): 2 r_2 <= r_1 + 0), and
    # the bound the scan compares with its best is (1,)
    assert _tight_bound(instantiate("n3", 3), (1, 0, 0), (1, 1)) == (1,)
    assert _tight_bound(instantiate("n3", 4), (1, 0, 0, 0), (1, 1, 1)) == (1,)


def test_tight_bound_dominates_the_generic_rank_sequence():
    # sympy ranks over Q(x_1, ..., x_n), so only at dim <= 5
    rng = random.Random(1027)
    cases = [a for a in _manifest_algebras() if a.dim <= 5] + [STRICT_FALL]
    cases += [_dense_conjugate(a, rng) for a in cases if a.dim <= 4]
    cases += [_random_nilpotent(rng.randint(3, 5), rng, 0.5) for _ in range(40)]
    met = 0
    for a in cases:
        generic = generic_rank_sequence_oracle(a)
        cut = _engel_cut(a, _rank_bound(a))
        for x0 in _bound_points(a.dim, rng):
            bound = _tight(a, x0, cut)
            assert dominates(bound, generic), (a.products, x0)
            met += bound == generic
        best_vec, best_seq = iw_scan(a)
        assert best_seq == generic == _tight(a, best_vec, cut), a.products
    assert (len(cases), met) == (58, 347)


def _inline_tables():
    """{label: table} for the inline tables of the shipped ledger."""
    ledger = load_ledger(shipped_ledger_path())
    return {ref.label: ref.tensor for claim in ledger.certificates + ledger.witnesses
            for ref in (claim.source, claim.target) if ref.tensor is not None}


# the labels whose best misses _rank_bound, named by the manifest or the
# ledger, that the lowered bound closes: 23 catalog labels and 3 inline
CLOSED_LABELS = (
    ["T222_e7special@7"]
    + [f"T2k2_special_m3@{n}" for n in range(7, 13)]
    + [f"T2k2_special_m4@{n}" for n in range(9, 13)]
    + [f"T2k2_special_m5@{n}" for n in (11, 12)]
    + [f"eta_eps_double2@{n}" for n in range(7, 13)]
    + [f"eta_eps_double3@{n}" for n in range(9, 13)]
    + ["T2k2rest1_case2_m3@9", "T2k2rest1_case2_m3@10", "T2k2rest1_case2_m4@11"])


def _closed_tables():
    tables = dict(catalog_labels(), **_inline_tables())
    return {label: tables[label] for label in CLOSED_LABELS}


def test_the_closed_labels_stop_before_the_random_block_with_the_full_scan_answer(
        monkeypatch):
    # a scan that stops only at _rank_bound evaluates all n + C(n, 2) + 64
    # candidates of each of these labels
    rng = random.Random(1028)
    closed = _closed_tables()
    assert len(closed) == 26
    calls = _counting_rank_sequences(monkeypatch)
    for label, a in closed.items():
        assert iw_sequence(iw_max(a)[0]) != _rank_bound(a), label
        n = a.dim
        cases = [a] + [_dense_conjugate(a, rng) for _ in range(3 if n <= 8 else 0)]
        for b in cases:
            for seed in (0, 1, 20240917):
                calls.clear()
                got = _outcome(iw_max, b, seed)
                assert len(calls) <= n + n * (n - 1) // 2, (label, seed, len(calls))
                assert got == _outcome(iw_max_oracle, b, seed), (label, b.products, seed)


def test_the_bound_is_lowered_again_at_each_new_best(monkeypatch):
    # rotated so that e_1 is the former e_8, which is central: the bound
    # read at e_1 is met by no candidate; read again at e_2 it is met
    a = instantiate("T2k2_special_m3", 8)
    rotated = change_basis(a, [[int(c == (r + 7) % 8) for c in range(8)]
                               for r in range(8)])
    calls = _counting_rank_sequences(monkeypatch)
    got = iw_max(rotated)
    assert len(calls) == 2
    assert got == iw_max_oracle(rotated)


def test_the_lowered_bound_misses_only_T32_chain_a(monkeypatch):
    # over every catalog name at dims <= 12 and the ledger's inline tables,
    # the scans that still read their whole pool: the only labels whose
    # sampled maximum, (3, 1), the lowered bound, (4, 2), does not certify
    inline = _inline_tables()
    tables = dict(catalog_labels(), **inline)
    assert (len(tables), len(inline)) == (286, 36)
    calls = _counting_rank_sequences(monkeypatch)
    loose, whole_pool = {}, {}
    for label, a in tables.items():
        calls.clear()
        best_vec, best_seq = iw_scan(a)
        bound = _rank_bound(a)
        if bound is None:
            continue
        n = a.dim
        if best_seq != bound:
            loose[label] = best_seq
        if len(calls) >= n + n * (n - 1) // 2 + 64:
            whole_pool[label] = (best_seq, _tight(a, best_vec, _engel_cut(a, bound)))
    assert set(CLOSED_LABELS) < set(loose)
    assert set(loose) - set(CLOSED_LABELS) == {
        "T32_chain_a@6", "T32_chain_a@7", "eta_eps_double4@11", "eta_eps_double4@12"}
    assert whole_pool == {"T32_chain_a@6": ((3, 1), (4, 2)),
                          "T32_chain_a@7": ((3, 1), (4, 2))}


def test_every_iw_dominance_source_meets_its_exact_bound():
    # a PROVED IWDominance verdict reads the source's scanned maximum; no
    # shipped source is loose in the sense of the test above (its best at
    # each run seed is _rank_bound), so each proof rests on an exact maximum
    witnesses = [w for w in load_ledger(shipped_ledger_path()).witnesses
                 if w.kind == "IWDominance"]
    sources = {w.source.label: w.source.resolve() for w in witnesses}
    assert sorted(sources) == ["T22@5", "T22@6", "eta3@7"]
    for label, a in sources.items():
        for seed in (0, 1, 2, 99, 20240917):
            assert iw_scan(a, seed)[1] == _rank_bound(a), (label, seed)


def _partitions(n, largest=None):
    if n == 0:
        yield ()
        return
    for p in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - p, p):
            yield (p,) + rest


def test_iw_sequence_inverts_the_partition_label():
    # every nilpotent Jordan type up to n = 8: the label of its rank
    # sequence, ranked as full matrix powers, gives that sequence back
    for n in range(1, 9):
        for parts in _partitions(n):
            jordan = [[0] * n for _ in range(n)]
            start = 0
            for p in parts:
                for r in range(start, start + p - 1):
                    jordan[r][r + 1] = 1
                start += p
            ranks = power_rank_sequence_oracle(jordan, n)
            label = partition_from_rank_sequence(ranks, n)
            assert iw_sequence(label) == ranks, parts
    assert iw_sequence((1, 1, 1)) == iw_sequence(()) == ()


def test_iw_sequence_is_the_rank_sequence_of_the_iw_max_witness():
    ledger = load_ledger(shipped_ledger_path())
    tables = [ref.resolve() for claim in ledger.certificates + ledger.witnesses
              for ref in (claim.source, claim.target)]
    tables += list(_manifest_algebras())
    tables += [fraction_tensor(n) for n in range(1, 5)]
    for a in tables:
        partition, witness = iw_max(a, seed=20240917)
        assert iw_sequence(partition) == rank_sequence(a, witness), a.products

