"""Exact linear algebra over the rationals and over integer rings.

A matrix is a list of rows; matrices here are tiny (at most ~11x11) and
often sparse.  Everything is computed exactly.  `_span_rows` is the one
fraction-free elimination of a span: it reduces each row against the
rows kept so far (`int_reduce`) and keeps what is left.  `int_echelon`
is its rows sorted by pivot, `_int_rank` their count (a rank over Q
after clearing denominators), and `int_suffix_spans` its rows of a basis
read from the last row upward, so that `int_reduce` decides membership
in each suffix span (orbit sampling and a witness's source side).
`int_image_chain` is the one walk down a chain of spans E_{m+1} =
image(E_m), each the `int_echelon` of the images of the rows before,
stopped at 0 or at the first rank that repeats: the powers A^m of a
tensor (`algebra`), the rank sequences of L_x (`contraction`) and
`power_rank_sequence`.
`int_scaled_inverse` (Bareiss) is the one inverse, and two functions call
it: `invert`, and `algebra.int_change_basis`, which owns the inverse of
every basis change.  It runs on ints: the bases of `change_basis`, the
orbit points that the R quadratics read, and certificate bases in Z[t]
packed into ints at t = 2^B, a bound that holds because each of its
entries is a minor (`degeneration.packing_bits`).  It needs only + - *
and exact // of its entries, so it runs over any integral domain with
exact //, such as `exactnum.ZPoly`, unchanged, and scales rows lazily.

Rational input is scaled to integers by one of three scalers, each for
its own input.  `int_scaled` scales rows of Fractions or ints by the lcm
of their denominators: a basis of `change_basis`, the elements of
`product`, `left_mult_matrix` and `rank_sequence`, and the matrices of
`rank`, `kernel_basis`, `invert` and `power_rank_sequence`.
`algebra._scaled_table` scales a table's reduced (num, den) pairs, in
every `StructureTensor` constructor.  `degeneration.clear_denominators`
scales bases in Q(t), a certificate's rows and a stored source basis,
by one common polynomial.  The classifier's net and pencil are read off
the integer table and need none.  A null space (`kernel_basis`) is read
off the `int_echelon` of [M^T | I], so spans and null spaces come out as
integer echelon rows, and Fraction appears only in the result of
`invert`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import islice
from math import gcd, lcm
from operator import mul


class Singular(ArithmeticError):
    """Inversion was asked of a singular matrix."""


# --- integer fraction-free core -----------------------------------------


def int_scaled(rows):
    """(mult, int_rows): rows times the lcm `mult` of their denominators.

    Entries may be Fraction or int.  One common scale keeps every rank,
    every power's rank ((c M)^k = c^k M^k) and every homogeneous identity.
    """
    rows = list(rows)
    mult = lcm(*(x.denominator for row in rows for x in row))
    return mult, [[x.numerator * (mult // x.denominator) for x in row]
                  for row in rows]


def random_int_rows(rng, count: int, n: int, lo: int, hi: int):
    """count rows of n draws of rng.randint(lo, hi), value for value and
    leaving the same rng state: lo plus the first rng.getrandbits(k) below
    span = hi - lo + 1, k = span.bit_length(), as CPython draws it."""
    span = hi - lo + 1
    draws = (lo + r for r in iter(partial(rng.getrandbits, span.bit_length()), -1)
             if r < span)
    return [list(islice(draws, n)) for _ in range(count)]


def _span_rows(rows):
    """The package's one elimination of a span: (pivot, row) pairs, the
    last kept first, spanning the same Q-space as the integer rows given.

    Each nonzero row is reduced against the rows kept so far (`int_reduce`);
    a remainder is divided by the gcd of its entries and kept, pivoting at
    its first nonzero column.  So a kept row vanishes at every earlier
    pivot, no two share a pivot, and a row reducing to 0 lies in the span
    of the rows before it.  Stops at full rank; kept rows are fresh lists.
    """
    kept = []
    for row in filter(any, rows):
        h = int_reduce(row, kept)
        lead = next(filter(None, h), 0)  # the first nonzero entry, or 0
        if lead:
            c = gcd(*h)
            kept.insert(0, (h.index(lead), [x // c for x in h]))
            if len(kept) == len(h):
                break
    return kept


def int_echelon(rows):
    """Echelon rows spanning the same Q-space as the integer rows given: the
    `_span_rows` by pivot, rank-many with strictly increasing pivots."""
    return [row for _, row in sorted(_span_rows(rows))]


def int_suffix_spans(rows):
    """Reduced rows h_1, ..., h_n with span(h_k, ..., h_n) = W_k =
    span(g_k, ..., g_n) for the integer rows g, as (pivot, row) pairs: the
    `_span_rows` of g_n, ..., g_1 (g_k reduces to 0 iff it lies in
    W_{k+1}).  None when the rows are dependent (det g = 0)."""
    spans = _span_rows(reversed(rows))
    return spans if len(spans) == len(rows) else None


def int_reduce(v, spans, k: int = 0):
    """v reduced against the kept rows h_n, ..., h_{k+1} of `_span_rows`
    (0-based index k onward) in that order: 0 iff v lies in their span.

    Each step clears the pivot of h_m and keeps the pivots already cleared,
    since h_m vanishes at the pivots of the rows after it.
    """
    for m in range(len(spans) - 1, k - 1, -1):
        pivot, h = spans[m]
        x = v[pivot]
        if x:
            pv = h[pivot]
            v = [a * pv - x * b for a, b in zip(v, h)]
    return v


def _int_rank(rows) -> int:
    """Rank of an integer matrix: the number of its `_span_rows`."""
    return len(_span_rows(rows))


def int_scaled_inverse(rows):
    """(d, R) with R = d G^-1 for a square integer matrix G (list of rows).

    Fraction-free Gauss-Jordan elimination (Bareiss, 1968) on [G | I]:
    step c replaces each row r but the pivot row by (p_{c+1} r - r_c
    row_c) / p_c, p_c the pivots (p_0 = 1).  Every entry after a step is a
    minor, so the division is exact and [G | I] ends as [d I | d G^-1],
    d = p_n = +-det G; (0, None) when G is singular.  With r_c = 0 a step
    only scales r by p_{c+1} / p_c, and these factors telescope: a row goes
    from step s to step t at once, as x p_t // p_s (a minor: exact, though
    p_s need not divide p_t), when a step reads it or at the end.  Scaling
    keeps zeros, so stale rows give the same pivots.
    """
    n = len(rows)
    aug = [list(row) + [int(i == j) for j in range(n)]
           for i, row in enumerate(rows)]
    pivots, at = [1], [0] * n  # p_0, ..., p_c; the step each row is at

    def current(i, t):
        if at[i] < t:
            now, then = pivots[t], pivots[at[i]]
            aug[i] = [x * now // then for x in aug[i]]
            at[i] = t
        return aug[i]

    for c in range(n):
        piv = next((i for i in range(c, n) if aug[i][c]), None)
        if piv is None:
            return 0, None
        aug[c], aug[piv], at[c], at[piv] = aug[piv], aug[c], at[piv], at[c]
        row_c = current(c, c)
        pv, prev = row_c[c], pivots[c]
        for i in range(n):
            if i != c and aug[i][c]:
                f = current(i, c)[c]
                aug[i] = [(pv * a - f * b) // prev for a, b in zip(aug[i], row_c)]
                at[i] = c + 1
        at[c] = c + 1  # a pivot row is left as it is by its own step
        pivots.append(pv)
    return pivots[n], [current(i, n)[n:] for i in range(n)]


def rank(rows) -> int:
    """Exact rank of rational rows, by integer elimination after clearing
    denominators."""
    return _int_rank(int_scaled(rows)[1])


def kernel_basis(rows):
    """Integer echelon rows spanning {x : M x = 0} for nonempty rational
    rows M with n columns: n - rank M of them.

    Row j of [M^T | I] is (e_j M^T, e_j), so its `int_echelon` spans
    every (u M^T, u).  The echelon rows with a zero M^T part are its last
    ones, n - rank M of them; their I parts are independent and each has
    u M^T = 0.
    """
    scaled = int_scaled(rows)[1]
    m, n = len(scaled), len(scaled[0])
    aug = [[row[j] for row in scaled] + [int(i == j) for i in range(n)]
           for j in range(n)]
    return [row[m:] for row in int_echelon(aug) if not any(row[:m])]


def invert(rows):
    """Exact inverse over Q of square rational rows; raises Singular.

    With G = c M the integer rows of `int_scaled` and (d, R) =
    `int_scaled_inverse(G)`, R = d G^-1, so M^-1 = c R / d.
    """
    if any(len(row) != len(rows) for row in rows):
        raise Singular("only square matrices are invertible")
    mult, scaled = int_scaled(rows)
    d, inv = int_scaled_inverse(scaled)
    if not d:
        raise Singular("matrix has zero determinant")
    return [[Fraction(mult * x, d) for x in row] for row in inv]


def int_image_chain(n: int, first, image):
    """The image chain of a map on Q^n read from its integer rows: E_1 =
    `int_echelon(first)`, then E_{m+1} = the `int_echelon` of image(u)
    over the rows u of E_m (image(u) is a list of integer rows), each
    yielded while its rank falls from the one before (E_0, of rank n).

    It ends after an empty E_m, or before the first E_m whose rank
    equals the one before it.  In a chain with E_{m+1} inside E_m, such
    as the powers of an algebra or the row spaces of P^m, that E_m and
    every later one span the space of the last one yielded (E_0 = Q^n
    when nothing is yielded).
    """
    rank, rows = n, int_echelon(first)
    while len(rows) < rank:
        yield rows
        rank, rows = len(rows), int_echelon([v for u in rows for v in image(u)])


def power_rank_sequence(rows, max_power: int):
    """Ranks of a square rational matrix M, M^2, ..., stopping at zero or
    max_power entries.

    rowspace(X P) = rowspace(X) P, so the `int_image_chain` of the
    scaled rows P under u -> u P spans the row space of each P^m, and
    rank(P^m) is its length: each step multiplies echelon rows, divided
    by their gcd, by P, never forming a full power, whose entries grow.
    Since P^m = P P^(m-1), rowspace(P^m) lies in rowspace(P^(m-1)), so a
    rank the chain stalls at (n when M is invertible) is every later
    rank, and repeats to max_power.
    """
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("rank sequence of a non-square matrix")
    base = int_scaled(rows)[1]
    cols = list(zip(*base))
    chain = int_image_chain(len(base), base,
                            lambda u: [[sum(map(mul, u, col)) for col in cols]])
    ranks = [len(base), *map(len, chain)]
    ranks += ranks[-1:] * max_power
    return tuple(filter(None, ranks[1:max_power + 1]))
