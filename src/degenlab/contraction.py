"""Inonu-Wigner contractions and the dominant one-dimensional contraction.

The rank sequence r_m(x) = rank((L_x)^m) of an element controls which
one-dimensional contractions dominate which: IW_x dominates IW_y exactly
when r_m(x) >= r_m(y) for every m.  That criterion is imported as a fact;
this module computes rank sequences exactly and searches for a dominant
witness over a deterministic, seeded candidate pool (basis vectors, pair
sums, and 64 random integer vectors).  Generic ranks are attained away
from a proper closed subset, so rational sampling finds the dominant
sequence; incomparable sampled maxima are repaired by the c + alpha*b
perturbation trick, and failure to repair is reported loudly because the
theory says it cannot happen for Engel input.

Rank sequences are computed over the integers.  The structure constants
are scaled by the lcm of their denominators and the element by the lcm of
its own, which turns L_x into c * L_x with an integer matrix and some
c != 0; since (c L)^m = c^m L^m, every power keeps its rank.  iw_max
scales the table once and reuses it for every candidate.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .algebra import DimensionMismatch, StructureTensor, int_table
from .linalg import Partition, int_power_rank_sequence, int_scaled, partition_from_ranks


class NotEngelAt(ValueError):
    """An element whose left-multiplication operator is not nilpotent."""

    def __init__(self, element, message=None):
        self.element = tuple(element)
        super().__init__(message or f"L_a is not nilpotent at a = {self.element}")


class NotASubalgebra(ValueError):
    """IW contraction asked with respect to a span that is not closed."""


class IncomparableMaxima(RuntimeError):
    """Sampled maximal rank sequences could not be made comparable."""


class RankSequence(tuple):
    """Weakly decreasing positive ranks (r_1, r_2, ...) truncated at zero."""

    def __new__(cls, ranks=()):
        ranks = tuple(int(r) for r in ranks)
        if 0 in ranks:
            ranks = ranks[: ranks.index(0)]
        if any(ranks[i] < ranks[i + 1] for i in range(len(ranks) - 1)):
            raise ValueError(f"ranks must be weakly decreasing: {ranks}")
        return super().__new__(cls, ranks)

    def rank_at(self, m: int) -> int:
        """r_m with missing entries read as zero (m is 1-based)."""
        return self[m - 1] if 1 <= m <= len(self) else 0

    def __repr__(self):
        return f"RankSequence{tuple(self)}"


def _int_rank_sequence(table, n: int, vec) -> RankSequence:
    """Rank sequence of L_vec from an integer table (see algebra.int_table)."""
    if len(vec) != n:
        raise DimensionMismatch("vector must have the algebra dimension")
    x = int_scaled([vec])[1][0]
    # column j of L_x is x e_j: e_i e_j = v adds x_i v to column j and,
    # by anticommutativity, -x_j v to column i
    mat = [[0] * n for _ in range(n)]
    for i, j, entries in table:
        xi, xj = x[i], x[j]
        if xi:
            for k, v in entries:
                mat[k][j] += xi * v
        if xj:
            for k, v in entries:
                mat[k][i] -= xj * v
    ranks = int_power_rank_sequence(mat, n + 1)
    if len(ranks) > n:
        raise NotEngelAt(vec)
    return RankSequence(ranks)


def rank_sequence(a: StructureTensor, vec) -> RankSequence:
    """Exact rank sequence of L_vec; NotEngelAt when it never vanishes."""
    return _int_rank_sequence(int_table(a)[1], a.dim, vec)


def dominates(p: RankSequence, q: RankSequence) -> bool:
    """True iff p_m >= q_m for every m (missing entries are zero)."""
    if len(q) > len(p):
        return False
    return all(p[i] >= q[i] for i in range(len(q)))


def iw_contract(a: StructureTensor, m: int) -> StructureTensor:
    """IW contraction with respect to the subalgebra <e_1, ..., e_m>.

    The result keeps the subalgebra block and the high components of the
    mixed products; everything else is scaled away by the t-limit.
    """
    n = a.dim
    if not (1 <= m < n):
        raise ValueError("need 1 <= m < n")
    for (i, j), vec in a.products.items():
        if j <= m and any(vec[m:]):
            raise NotASubalgebra(
                f"e{i}e{j} leaves the span of the first {m} coordinates"
            )
    table = {}
    for (i, j), vec in a.products.items():
        if j <= m:
            kept = vec
        elif i <= m < j:
            kept = (Fraction(0),) * m + vec[m:]
        else:
            continue
        if any(kept):
            table[(i, j)] = kept
    return StructureTensor(n, table)


def _candidate_pool(a: StructureTensor, seed: int, random_count: int = 64):
    n = a.dim
    rng = random.Random(seed)
    pool = []
    for i in range(n):
        pool.append(tuple(Fraction(int(i == k)) for k in range(n)))
    for i in range(n):
        for j in range(i + 1, n):
            pool.append(tuple(Fraction(int(k in (i, j))) for k in range(n)))
    for _ in range(random_count):
        pool.append(tuple(Fraction(rng.randint(-9, 9)) for _ in range(n)))
    return pool, rng


def iw_max(a: StructureTensor, seed: int = 0, trials: int = 20):
    """Dominant one-dimensional IW contraction as (Partition, witness).

    The partition is read off the dominant rank sequence through
    r_m = sum_i max(lambda_i - m, 0); parts of size one are invisible to
    that duality, so the label carries only parts >= 2 except for the zero
    sequence, which is reported as the all-ones partition of the quotient.
    """
    pool, rng = _candidate_pool(a, seed)
    table, n = int_table(a)[1], a.dim
    best_vec = pool[0]
    best_seq = _int_rank_sequence(table, n, best_vec)
    for vec in pool[1:]:
        seq = _int_rank_sequence(table, n, vec)
        if dominates(best_seq, seq):
            continue
        if dominates(seq, best_seq):
            best_vec, best_seq = vec, seq
            continue
        repaired = False
        for _ in range(trials):
            alpha = Fraction(rng.randint(1, 99))
            cand = tuple(b + alpha * v for b, v in zip(best_vec, vec))
            cand_seq = _int_rank_sequence(table, n, cand)
            if dominates(cand_seq, best_seq) and dominates(cand_seq, seq):
                best_vec, best_seq = cand, cand_seq
                repaired = True
                break
        if not repaired:
            raise IncomparableMaxima(
                f"maxima {best_seq} and {seq} stayed incomparable after "
                f"{trials} perturbations; input is not Engel or pool too small"
            )
    return partition_from_rank_sequence(best_seq, a.dim), best_vec


def partition_from_rank_sequence(seq: RankSequence, dim: int) -> Partition:
    """Partition label of a contraction with rank sequence seq.

    Duality determines the parts >= 2 only: they are those of
    `linalg.partition_from_ranks`.  The zero sequence labels the abelian
    contraction and is rendered as 1^(dim-1) (the zero operator on the
    quotient by the witness line).
    """
    if not seq:
        return Partition((1,) * (dim - 1))
    return Partition(p for p in partition_from_ranks(seq, dim) if p >= 2)
