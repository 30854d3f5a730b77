import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenlab.degeneration import (
    SingularFamily,
    apply_parameterized_basis,
    clear_denominators,
)
from degenlab.exactnum import ZPoly
from degenlab.exactnum import parse_rational_function as parse
from degenlab.linalg import (
    Singular,
    int_echelon,
    int_image_chain,
    int_reduce,
    int_scaled,
    int_scaled_inverse,
    int_suffix_spans,
    invert,
    kernel_basis,
    power_rank_sequence,
    random_int_rows,
    rank,
)
from degenlab.algebra import _int_left_products, annihilator, left_mult_matrix
from degenlab.catalog import instantiate
from degenlab.contraction import partition_from_rank_sequence

from oracles import field_rank, fraction_inverse, matmul, qt_inverse, row_reduce_dim
from oracles import Subspace, kernel_oracle, power_rank_sequence_oracle
from oracles import int_power_rank_walk, partition_from_ranks
from oracles import bareiss_inverse_oracle, qt_parse, qt_value
from oracles import fraction_tensor, random_anticommutative


def e_vec(n, *idx):
    return tuple(Fraction(int(k + 1 in idx)) for k in range(n))


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def zero(n):
    return [[0] * n for _ in range(n)]


def block_sizes(rows):
    """Partition of a nilpotent n x n matrix, from the ranks of its powers."""
    n = len(rows)
    ranks = power_rank_sequence(rows, n + 1)
    assert len(ranks) < n + 1, "not nilpotent"
    return partition_from_ranks(ranks, n)


def test_rank_identity_and_zero():
    assert rank(identity(3)) == 3
    assert rank(zero(4)) == 0


def test_rank_of_left_multiplication_in_the_two_block_algebra():
    # e1 maps e2 and e3 to the two top coordinates: rank two
    a = instantiate("T22", 5)
    assert rank(left_mult_matrix(a, e_vec(5, 1))) == 2


def test_kernel_examples():
    assert kernel_basis(zero(2)) == identity(2)
    assert kernel_basis(identity(3)) == []
    # left multiplication by e1 in T3 at n=4 kills exactly e1 and e4
    a = instantiate("T3", 4)
    ker = kernel_basis(left_mult_matrix(a, e_vec(4, 1)))
    assert Subspace.from_vectors(4, ker) == Subspace.from_vectors(
        4, [e_vec(4, 1), e_vec(4, 4)])


def test_kernel_basis_and_annihilator_of_integer_rows_are_exact():
    # the pivot 3 divides nothing: the null space comes out as integer rows
    ker = kernel_basis([[3, 1, 0, 0], [0, 0, 0, 1]])
    assert ker == [[-1, 3, 0, 0], [0, 0, 1, 0]]
    assert all(type(x) is int for row in ker for x in row)
    # e1 e3 = 3 e4 and e2 e3 = e4: Ann = <3 e2 - e1, e4> from the integer
    # condition 3 x1 + x2 = 0 (and x3 = 0)
    a = fraction_tensor(4, {(1, 3): (0, 0, 0, 3), (2, 3): (0, 0, 0, 1)})
    ann = annihilator(a)
    assert ann == [[-1, 3, 0, 0], [0, 0, 0, 1]]
    assert all(type(x) is int for row in ann for x in row)


def test_rank_plus_kernel_dimension():
    rng = random.Random(5)
    for _ in range(25):
        rows = [[Fraction(rng.randint(-3, 3)) for _ in range(4)]
                for _ in range(rng.randint(1, 5))]
        assert rank(rows) + len(kernel_basis(rows)) == 4


def _random_rational_rows(rng, m, n):
    """m x n rational rows: sparse, fractional, and for a third of the
    draws of rank at most 1 plus a random combination row."""
    rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) * (rng.random() < 0.6)
             for _ in range(n)] for _ in range(m)]
    if rng.random() < 1 / 3:
        base = rows[0]
        rows = [[rng.randint(-2, 2) * x for x in base] for _ in range(m)]
    if m > 1 and rng.random() < 0.5:
        rows[-1] = [2 * x - Fraction(1, 3) * y for x, y in zip(rows[0], rows[1])]
    return rows


def test_kernel_basis_spans_the_fraction_rref_null_space():
    # 2400 seeded random rational matrices of every shape up to 9 x 9,
    # among them zero, 1 x n and m x 1 matrices and rank-deficient ones:
    # the integer kernel is n - rank echelon rows spanning the RREF kernel
    rng = random.Random(2309)
    shapes = set()
    deficient = 0
    for trial in range(2400):
        m, n = 1 + trial % 9, 1 + (trial // 9) % 9
        rows = (_random_rational_rows(rng, m, n) if trial % 40
                else [[Fraction(0)] * n for _ in range(m)])
        ker = kernel_basis(rows)
        r = row_reduce_dim(rows)
        assert len(ker) == n - r
        assert all(type(x) is int for row in ker for x in row)
        pivots = [next(c for c, x in enumerate(row) if x) for row in ker]
        assert pivots == sorted(set(pivots))
        assert Subspace.from_vectors(n, ker) == kernel_oracle(rows)
        shapes.add((m == 1, n == 1, r == 0))
        deficient += 0 < r < min(m, n)
    assert shapes >= {(True, False, False), (False, True, False),
                      (False, False, True), (True, True, True)}
    assert deficient > 400


def test_int_suffix_spans_decide_membership_in_every_suffix_span():
    # square integer rows, a third of them singular; vectors inside and
    # outside W_k = <g_k, ..., g_n> against the naive rank
    rng = random.Random(11)
    seen = set()
    for trial in range(150):
        n = 1 + trial % 6
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if trial % 3 == 0:
            i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
            rows[i] = [rng.randint(-2, 2) * x for x in rows[j]]
        spans = int_suffix_spans(rows)
        assert (spans is None) == (row_reduce_dim(rows) < n)
        if spans is None:
            continue
        for k in range(n + 1):
            inside = [0] * n
            for row in rows[k:]:
                c = rng.randint(-2, 2)
                inside = [a + c * b for a, b in zip(inside, row)]
            for v in (inside, [rng.randint(-3, 3) for _ in range(n)]):
                want = row_reduce_dim(rows[k:] + [v]) == n - k
                assert (not any(int_reduce(v, spans, k))) == want
                seen.add(want)
        # the reduced rows are fresh lists: changing them leaves g as it was
        before = [list(row) for row in rows]
        for _, h in spans:
            h[:] = [x + 1 for x in h]
        assert rows == before
    assert seen == {True, False}


def _assert_echelon_of(ncols, rows):
    """int_echelon(rows) against the Fraction RREF: rank-many integer rows
    with strictly increasing pivots, the RREF's, spanning the same space;
    rows it returns are its own, so changing them leaves the input as it
    was."""
    before = [list(row) for row in rows]
    ech = int_echelon(rows)
    assert len(ech) == row_reduce_dim(rows)
    assert all(type(x) is int for row in ech for x in row)
    pivots = [next(c for c, x in enumerate(row) if x) for row in ech]
    assert pivots == sorted(set(pivots))
    want = Subspace.from_vectors(ncols, rows)
    assert Subspace.from_vectors(ncols, ech) == want
    assert pivots == [next(c for c, x in enumerate(row) if x)
                      for row in want.basis]
    for row in ech:
        row[:] = [x + 1 for x in row]
    assert [list(row) for row in rows] == before


def _echelon_inputs():
    """(ncols, rows): tall, wide, rank-deficient and zero integer matrices,
    then the rows the package passes in at dims up to 11: the power chain's
    n^2 x n products e_j w, the centralizer conditions as zip's tuple
    columns, kernel_basis's [M^T | I], and full-rank rows with zero rows
    among them and a row repeated after full rank."""
    rng = random.Random(7)
    for trial in range(60):
        ncols = 1 + trial % 6
        rows = [[rng.randint(-4, 4) * (rng.random() < 0.7) for _ in range(ncols)]
                for _ in range(rng.randint(0, 12))]
        if trial % 5 == 0 and rows:
            rows.append([2 * x - y for x, y in zip(rows[0], rows[-1])])
        yield ncols, rows
    rng = random.Random(30)
    algebras = [instantiate(name, n) for name, n in (
        ("eta5", 11), ("T22222", 11), ("T2k2_e23_m5", 11), ("T322", 9),
        ("T4_e23", 5))]
    algebras += [random_anticommutative(n, rng, 2) for n in (3, 5, 8)]
    for a in algebras:
        n = a.dim
        for i in (1, 2, 3):
            products = [_int_left_products(a.table, n, w) for w in a.power(i)]
            yield n, [p for block in products for p in block]
            yield n, [col for block in products for col in zip(*block)]
    for trial in range(40):
        m, n = 1 + trial % 11, 1 + (trial * 7) % 11
        scaled = int_scaled(_random_rational_rows(rng, m, n))[1]
        yield m + n, [[row[j] for row in scaled] + [int(i == j) for i in range(n)]
                      for j in range(n)]
        # unitriangular, so of full rank, then shuffled
        full = [[int(i == j) + (j > i) * rng.randint(-3, 3) for j in range(n)]
                for i in range(n)]
        rng.shuffle(full)
        rows = full + [full[rng.randrange(n)], [0] * n]
        rows.insert(rng.randrange(n + 1), (0,) * n)
        yield n, rows


def test_int_echelon_spans_the_same_space():
    for ncols, rows in _echelon_inputs():
        _assert_echelon_of(ncols, rows)
    assert int_echelon([]) == []
    assert int_echelon([[0, 0], [0, 0]]) == []


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n)
                         | st.just([0] * n), max_size=12))))
def test_int_echelon_matches_the_fraction_rref(case):
    ncols, rows = case
    _assert_echelon_of(ncols, rows)


def _qt(rows):
    """Rows of texts as sympy's Q(t) rows."""
    return [[qt_parse(x) for x in row] for row in rows]


def _parsed(rows):
    """Rows of texts as degenlab's rows of (num, den) pairs."""
    return [[parse(x) for x in row] for row in rows]


def _zt(rows):
    """Rows of t-polynomial texts as ZPoly rows (all denominators 1)."""
    s, g = clear_denominators(f for row in _parsed(rows) for f in row)
    assert s == ZPoly((1,))
    n = len(rows[0])
    return [g[i:i + n] for i in range(0, len(g), n)]


def _over(r, d):
    """The Q(t) matrix R / d for ZPoly entries."""
    return [[qt_value(x, d) for x in row] for row in r]


def _zt_matmul(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), ZPoly())
             for j in range(len(b[0]))] for i in range(len(a))]


def test_invert_round_trip_rational_function_entries():
    # the Q(t) oracle, and d G^-1 over Z[t] from the integer kernel
    rows = [["1", "0"], ["1", "t"]]
    inv = qt_inverse(_qt(rows))
    assert inv[1][0] == qt_parse("-1/t")
    assert inv[1][1] == qt_parse("1/t")
    d, r = int_scaled_inverse(_zt(rows))
    assert _over(r, d) == inv
    assert _zt_matmul(_zt(rows), r) == [[d, ZPoly()], [ZPoly(), d]]


def test_invert_diagonal_t_powers():
    rows = [["1", "0", "0"], ["0", "t", "0"], ["0", "0", "t^2"]]
    inv = qt_inverse(_qt(rows))
    assert inv[1][1] == qt_parse("1/t")
    assert inv[2][2] == qt_parse("1/t^2")
    d, r = int_scaled_inverse(_zt(rows))
    assert d.order() == 3
    assert _over(r, d) == inv


def test_invert_singular_raises():
    with pytest.raises(Singular):
        invert([[1, 2], [2, 4]])


def _random_square(n, rng, singular):
    rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
    if singular:
        # the last row a combination of the others (zero when n = 1)
        coeffs = [rng.randint(-2, 2) for _ in range(n - 1)]
        rows[-1] = [sum(c * row[k] for c, row in zip(coeffs, rows))
                    for k in range(n)]
    return rows


def test_int_scaled_inverse_matches_fraction_oracle():
    rng = random.Random(31)
    singular_seen = 0
    for trial in range(120):
        n = 1 + trial % 11
        rows = _random_square(n, rng, singular=trial % 4 == 0)
        want = fraction_inverse(rows)
        d, scaled = int_scaled_inverse(rows)
        if want is None:
            singular_seen += 1
            assert (d, scaled) == (0, None)
            continue
        assert d != 0
        assert all(type(x) is int for row in scaled for x in row)
        assert [[Fraction(x, d) for x in row] for row in scaled] == want
    assert singular_seen >= 30


def _sparse_square(n, rng, kind):
    """A seeded n x n integer matrix of one kind: a scaled permutation with
    a few entries added, lower or upper triangular, dense, or singular
    (a zero column, or a row that is a combination of two others)."""
    if kind == "permutation":
        perm = rng.sample(range(n), n)
        rows = [[rng.choice([-3, -1, 1, 2, 5]) if j == perm[i] else 0
                 for j in range(n)] for i in range(n)]
        for _ in range(rng.randint(0, n)):
            rows[rng.randrange(n)][rng.randrange(n)] = rng.randint(-4, 4)
        return rows
    if kind in ("lower", "upper"):
        return [[rng.randint(-5, 5) if (j <= i) == (kind == "lower") else 0
                 for j in range(n)] for i in range(n)]
    if kind == "dense":
        return [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
    rows = [[rng.choice([0, 0, 0, 1, -2, 3]) for _ in range(n)] for _ in range(n)]
    if rng.random() < 0.5:
        k = rng.randrange(n)
        for row in rows:
            row[k] = 0
    elif n > 2:
        i, j, k = rng.sample(range(n), 3)
        a, b = rng.randint(-2, 2), rng.randint(-2, 2)
        rows[k] = [a * x + b * y for x, y in zip(rows[i], rows[j])]
    return rows


def test_int_scaled_inverse_equals_the_dense_bareiss_loop():
    # the lazily scaled loop against the dense loop it replaced: equal
    # (d, R), singular answers included, on seeded integer matrices
    rng = random.Random(2025)
    kinds = ["permutation", "lower", "upper", "dense", "singular"]
    singular = 0
    for trial in range(6000):
        n = 1 + trial % 9
        rows = _sparse_square(n, rng, kinds[trial % len(kinds)])
        want = bareiss_inverse_oracle(rows)
        assert int_scaled_inverse(rows) == want, rows
        singular += want == (0, None)
    assert singular >= 1000


def test_int_scaled_inverse_equals_the_dense_bareiss_loop_over_zpoly():
    rng = random.Random(2026)
    singular = 0
    for trial in range(600):
        n = 1 + trial % 5
        rows = [[ZPoly([rng.randint(-3, 3) for _ in range(rng.randint(1, 3))])
                 if rng.random() < 0.5 else ZPoly() for _ in range(n)]
                for _ in range(n)]
        want = bareiss_inverse_oracle(rows)
        assert int_scaled_inverse(rows) == want, rows
        singular += want == (0, None)
    assert 50 <= singular <= 550


def test_invert_rational_matches_fraction_oracle():
    rng = random.Random(5)
    singular_seen = 0
    for trial in range(80):
        n = 1 + trial % 9
        rows = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
                for _ in range(n)]
        if trial % 3 == 0:
            # the last row a rational combination of the others
            coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                      for _ in range(n - 1)]
            rows[-1] = [sum(c * row[k] for c, row in zip(coeffs, rows))
                        for k in range(n)]
        want = fraction_inverse(rows)
        if want is None:
            singular_seen += 1
            with pytest.raises(Singular):
                invert(rows)
        else:
            assert invert(rows) == want
    assert singular_seen >= 27


def test_invert_singular_rational_function_matrix_raises():
    rows = [["t", "t^2"], ["1", "t"]]
    assert qt_inverse(_qt(rows)) is None
    assert int_scaled_inverse(_zt(rows)) == (0, None)
    with pytest.raises(SingularFamily):
        apply_parameterized_basis(fraction_tensor(2), _parsed(rows))


def test_rank_over_rational_functions():
    # the third row is the first plus t/(t+1) times the second
    singular = [("t", "t^2", "1"), ("t+1", "0", "1/t"),
                ("2*t", "t^2", "1+1/(t+1)")]
    assert field_rank(_qt(singular)) == 2
    _, g = clear_denominators(f for row in _parsed(singular) for f in row)
    assert int_scaled_inverse([g[0:3], g[3:6], g[6:9]]) == (0, None)
    # det = (t - 1)(t + 1) is nonzero as a rational function, though it
    # vanishes at t = 1
    full = _qt([("t", "1"), ("1", "t")])
    assert field_rank(full) == 2
    d, _ = int_scaled_inverse(_zt([("t", "1"), ("1", "t")]))
    assert d in (ZPoly((-1, 0, 1)), ZPoly((1, 0, -1)))
    assert field_rank(_qt([("0", "0", "0"), ("0", "0", "0")])) == 0


@pytest.mark.parametrize("rows", [
    [["t"]],
    [["1", "0", "0"], ["0", "t", "0"], ["0", "0", "t^3"]],
    [["t", "0", "0"], ["1", "t^2", "0"], ["t", "-t", "2*t"]],
    [["t^2", "t", "1"], ["0", "t", "t^2"], ["0", "0", "1"]],
])
def test_int_scaled_inverse_over_zpoly_t_power_matrices(rows):
    g = _zt(rows)
    d, r = int_scaled_inverse(g)
    n = len(g)
    scalar = [[d if i == j else ZPoly() for j in range(n)] for i in range(n)]
    assert _zt_matmul(r, g) == scalar
    assert _zt_matmul(g, r) == scalar


def test_int_scaled_clears_denominators_with_one_scale():
    rows = [[Fraction(1, 2), Fraction(-2, 3)], [Fraction(0), Fraction(5, 4)]]
    assert int_scaled(rows) == (12, [[6, -8], [0, 15]])
    # int entries (the probe's integer tables) pass through at scale 1
    assert int_scaled([(3, 0, -1)]) == (1, [[3, 0, -1]])
    assert int_scaled([[Fraction(3), 2]]) == (1, [[3, 2]])
    assert int_scaled([]) == (1, [])


def test_power_rank_sequence_refuses_rational_function_matrices():
    # rows are scaled by their entries' denominators: Q(t) entries, which
    # are (num, den) pairs, have none and are refused
    with pytest.raises(AttributeError):
        power_rank_sequence([[parse("0"), parse("t")],
                             [parse("0"), parse("0")]], 3)
    block = [[0, 0, 0], [Fraction(1, 2), 0, 0], [0, Fraction(2, 3), 0]]
    assert power_rank_sequence(block, 4) == (2, 1)
    # the identity never reaches rank zero: all max_power ranks are kept
    assert power_rank_sequence(identity(2), 3) == (2, 2, 2)


def _unimodular(n, rng):
    """A dense integer matrix of determinant +-1: a product of row
    additions, one row swap and a sign."""
    g = identity(n)
    if n > 1:
        for _ in range(3 * n):
            i, j = rng.sample(range(n), 2)
            c = rng.randint(-2, 2)
            g[i] = [x + c * y for x, y in zip(g[i], g[j])]
        g[0], g[1] = g[1], g[0]
    g[-1] = [-x for x in g[-1]]
    return g


def test_image_chain_matches_full_powers_on_nilpotent_matrices():
    # g N g^-1 with N strictly upper triangular: dense, nilpotent, and its
    # ranks fall through every pattern of blocks
    rng = random.Random(1701)
    for trial in range(60):
        n = 1 + trial % 11
        nil = [[rng.choice((0, 0, 1, -2, 3)) if c > r else 0
                for c in range(n)] for r in range(n)]
        g = _unimodular(n, rng)
        g_inv = [[int(x) for x in row] for row in fraction_inverse(g)]
        dense = matmul(matmul(g, nil), g_inv)
        want = power_rank_sequence_oracle(dense, n + 1)
        assert len(want) <= n
        assert power_rank_sequence(dense, n + 1) == want, dense
        assert power_rank_sequence(nil, n + 1) == want
        assert int_power_rank_walk(dense, n + 1) == want


def test_image_chain_keeps_max_power_ranks_when_not_nilpotent():
    rng = random.Random(1702)
    for trial in range(60):
        n = 1 + trial % 8
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        # a nilpotent block beside a random one: the ranks fall, then
        # repeat up to max_power
        k = rng.randint(0, n - 1)
        for r in range(n):
            for c in range(n):
                if (r < k) != (c < k) or (r < k and c <= r):
                    rows[r][c] = 0
        for max_power in (-1, 0, 1, n, n + 2):
            want = power_rank_sequence_oracle(rows, max_power)
            assert power_rank_sequence(rows, max_power) == want, rows
            assert int_power_rank_walk(rows, max_power) == want, rows
    # a full-rank matrix stalls at once: its rank n repeats to max_power
    assert power_rank_sequence(identity(4), 6) == (4,) * 6
    assert power_rank_sequence(identity(2), 1) == (2,)
    for max_power in (-1, 0):
        assert power_rank_sequence(identity(3), max_power) == ()
        assert power_rank_sequence(shift3(), max_power) == ()
    assert power_rank_sequence(zero(5), 6) == ()
    assert power_rank_sequence_oracle(zero(5), 6) == ()
    assert power_rank_sequence([], 3) == ()


def shift3():
    """A nilpotent 3 x 3 Jordan block, ranks (2, 1)."""
    return [[0, 1, 0], [0, 0, 1], [0, 0, 0]]


def test_image_chain_ends_after_zero_or_before_a_stall():
    # E_1 = int_echelon(first), then the images of the rows of each E_m,
    # yielded while the rank falls from n
    def times(base):
        return lambda u: [[sum(x * y for x, y in zip(u, col))
                           for col in zip(*base)]]

    shift = shift3()
    assert list(int_image_chain(3, shift, times(shift))) == [
        [[0, 1, 0], [0, 0, 1]], [[0, 0, 1]], []]
    assert power_rank_sequence(shift, 5) == (2, 1)
    # zero ends after its one empty E_1; full rank stalls before E_1
    assert list(int_image_chain(3, zero(3), times(zero(3)))) == [[]]
    assert list(int_image_chain(3, identity(3), times(identity(3)))) == []
    # a nilpotent block beside an invertible one stalls at rank 1
    mixed = [[0, 1, 0], [0, 0, 0], [0, 0, 2]]
    assert [len(rows) for rows in int_image_chain(3, mixed, times(mixed))] == [2, 1]
    assert power_rank_sequence(mixed, 4) == (2, 1, 1, 1)
    # the empty space: rank 0 from the start, nothing to yield
    assert list(int_image_chain(0, [], times([]))) == []


def test_nilpotent_partition_examples():
    assert block_sizes(zero(3)) == (1, 1, 1)
    block = [[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
    assert block_sizes(block) == (4,)


def test_nilpotent_partition_of_induced_operator():
    # L_{e1} on A/<e1> for the (3,2)-type algebra at n=6: chains
    # e3 -> e4 -> e6 and e2 -> e5
    a = instantiate("T32", 6)
    full = left_mult_matrix(a, e_vec(6, 1))
    induced = [row[1:] for row in full[1:]]
    assert block_sizes(induced) == (3, 2)


def test_conjugation_invariance_spot():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(2, 6)
        nil = [[Fraction(rng.randint(-2, 2)) if j > i else Fraction(0)
                for j in range(n)] for i in range(n)]
        while True:
            p = [[Fraction(rng.randint(-3, 3)) for _ in range(n)]
                 for _ in range(n)]
            pinv = fraction_inverse(p)
            if pinv is not None:
                break
        conj = matmul(matmul(p, nil), pinv)
        assert block_sizes(conj) == block_sizes(nil)


partitions = st.lists(st.integers(1, 5), min_size=1, max_size=5).map(
    lambda parts: tuple(sorted(parts, reverse=True))
)


@settings(max_examples=50, deadline=None)
@given(partitions)
def test_partition_rank_duality_round_trip(p):
    # rank(N^m) = sum_i max(lambda_i - m, 0), truncated at zero: the
    # reference gives every part back, the block counts the parts >= 2
    ranks = [sum(max(q - m, 0) for q in p) for m in range(1, p[0])]
    assert partition_from_ranks(ranks, sum(p)) == p
    big = tuple(q for q in p if q >= 2)
    assert partition_from_rank_sequence(ranks, sum(p)) == (
        big if ranks else (1,) * (sum(p) - 1))


def test_random_int_rows_draws_as_randint_draws():
    # the values and the rng state of one rng.randint(lo, hi) per entry, row
    # by row, at the spans of orbit sampling (11) and of the iw_max pool
    # (19); iw_max's repairs draw their alphas after the pool's block, so
    # the next randint must match too
    for seed in range(200):
        for lo, hi in ((-5, 5), (-9, 9)):
            got, want = random.Random(seed), random.Random(seed)
            assert random_int_rows(got, 6, 7, lo, hi) == [
                [want.randint(lo, hi) for _ in range(7)] for _ in range(6)]
            assert got.randint(1, 99) == want.randint(1, 99)
            assert got.getstate() == want.getstate()
