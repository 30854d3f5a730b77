"""Rank sequences and the dominant one-dimensional Inonu-Wigner contraction.

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

The scan stops early at an exact bound.  (L_x)^m maps A into A^{m+1},
L_x kills x and Ann(A), and the ranks of a nilpotent operator fall
strictly, so b_1 = min(dim A^2, n - 1 - dim Ann A) and
b_m = min(dim A^{m+1}, b_{m-1} - 1), cut at the first 0, bound every rank
sequence pointwise.  Once the best sequence equals the bound, every later
candidate is dominated and could change nothing.  The bound is used only
when A is nilpotent: otherwise a later candidate may still raise
NotEngelAt, so the scan runs to the end.

When the first candidate misses that bound, the scan lowers it by three
exact rules, again at each new running best x0.  They bound the generic
sequence r, the one reached away from a proper closed subset, and every
rank sequence lies below r (rank is lower semicontinuous): (iii) the
Engel cut (`_engel_cut`), whose cost grows with the bound's length, runs
once, at the first lowering, and cuts the bound to the Engel degree;
(i) Jordan convexity and (ii) the kernel on the powers of A, read at x0
(`_tight_bound`), cost a few ranks and run at every lowering.  A best
that meets the lowered bound is r itself and dominates every later
candidate, so the scan stops with the running bests, witness, partition,
rng draws and errors of a scan of the whole pool.  A table that is not
nilpotent has no bound, so nothing is lowered.

The pool is built only as far as it is read; its random block is drawn
in one go, when the scan reaches it or a repair needs its first alpha,
so every alpha comes from the rng state a fully built pool would leave.
The scan, `iw_scan`, yields the running best after each candidate;
`iw_max` reads it to its end, and `degeneration.Records` only as far as
a dominance verdict needs.

Rank sequences are computed over the integers.  The structure constants
are scaled by the lcm of their denominators, which turns L_x into c * L_x
with an integer matrix and some c != 0; since (c L)^m = c^m L^m, every
power keeps its rank.  The candidate pool is integer from the start
(basis vectors, pair sums, random integer vectors and repairs
b + alpha*v with an integer alpha), so iw_max scales nothing per
candidate: it reads the tensor's own integer table, built once per
tensor, and returns its integer witness as it is.  The public
`rank_sequence` scales its rational element once, by the lcm of its
denominators.  No Fraction is made here.

A rank sequence, an IW label and a witness are plain int tuples.  The
IW label is read off the dominant rank sequence by one rule: since
rank(N^m) = sum_i max(lambda_i - m, 0), N has r_{m-1} - 2 r_m + r_{m+1}
Jordan blocks of size m, with r_0 = dim (`partition_from_rank_sequence`),
and a negative count refuses a sequence that no nilpotent operator has.
"""

from __future__ import annotations

import random

from .algebra import (DimensionMismatch, StructureTensor, _int_left_products,
                      _int_product, engel_degree)
from .linalg import _int_rank, int_image_chain, int_scaled, random_int_rows


class NotEngelAt(ValueError):
    """An element whose left-multiplication operator is not nilpotent."""

    def __init__(self, element, message=None):
        self.element = tuple(element)
        shown = ", ".join(map(str, self.element))
        super().__init__(message or f"L_a is not nilpotent at a = ({shown})")

    def named(self, label: str) -> "NotEngelAt":
        """The same error, its message led by the label of its algebra."""
        return NotEngelAt(self.element, f"{label}: {self}")


class IncomparableMaxima(RuntimeError):
    """Sampled maximal rank sequences could not be made comparable."""


def _int_rank_sequence(table, n: int, x) -> tuple:
    """Rank sequence of L_x for an integer vector x of length n on an
    integer table (a tensor's `table`): the positive ranks, a tuple."""
    # the rows e_j x = -(x e_j) form P = -L_x^T, and P^m has the rank of
    # (L_x)^m; u P = sum_j u_j (e_j x) = u x, so the image chain of
    # u -> u P is that of u -> u x, and it stalls above 0 iff L_x is not
    # nilpotent; a falling chain ends at its one 0
    ranks = [n, *map(len, int_image_chain(
        n, _int_left_products(table, n, x),
        lambda u: [_int_product(table, n, u, x)]))]
    if ranks[-1]:
        raise NotEngelAt(x)
    return tuple(ranks[1:-1])


def rank_sequence(a: StructureTensor, vec) -> tuple:
    """Exact rank sequence of L_vec; NotEngelAt when it never vanishes."""
    if len(vec) != a.dim:
        raise DimensionMismatch("vector must have the algebra dimension")
    x = int_scaled([vec])[1][0]
    try:
        return _int_rank_sequence(a.table, a.dim, x)
    except NotEngelAt:
        raise NotEngelAt(vec) from None


def dominates(p: tuple, q: tuple) -> bool:
    """True iff p_m >= q_m for every m (missing entries are zero)."""
    if len(q) > len(p):
        return False
    return all(p[i] >= q[i] for i in range(len(q)))


def _rank_bound(a: StructureTensor):
    """The bound (b_1, b_2, ...) on every rank sequence, or None when the
    table is not nilpotent; see the module docstring."""
    if a.nilindex is None:
        return None  # the power chain stalls above 0
    bound = []
    # n - 1 - dim Ann A is one less than the number of annihilator conditions
    prev = a.dim - a.ann_dim
    for rows in a.powers[1:-1]:  # A^2, A^3, ..., the last nonzero power
        prev = min(len(rows), prev - 1)
        if prev <= 0:
            break
        bound.append(prev)
    return tuple(bound)


def _engel_cut(a: StructureTensor, bound) -> int:
    """Rule (iii) of the scan's lowering, the Engel cut, taken once, at the
    first lowering of `_rank_bound`: e - 1 for the exact Engel degree e of
    a nilpotent table (L_x^e = 0 for every x, so r_m = 0 for m >= e), or
    len(bound) when e exceeds it."""
    e = engel_degree(a, len(bound))
    return len(bound) if e is None else e - 1


def _tight_bound(a: StructureTensor, x0, bound, cut=None):
    """A bound u on the generic rank sequence r of a nilpotent table, and
    so on every rank sequence: `bound`, itself a bound on r (such as
    `_rank_bound`), cut to length `cut` (`_engel_cut`) and lowered by the
    rules below, read at the integer vector x0, until nothing changes.
    At a generic x, r is the rank sequence of the one operator L_x, and
    each rule bounds r_m by bounds on its neighbours, with r_0 = n and
    r_m = 0 past the end of u.

    (i) Jordan convexity: 2 r_m <= r_{m-1} + r_{m+1}.  r_{m-1} - r_m is
    the number of Jordan blocks of L_x of size >= m, which never rises
    with m.

    (ii) The kernel on the powers: r_m <= r_{m+1} + dim A^{m+1}
    - rank(L_x0 on A^{m+1}).  At any x, L_x maps im L_x^m onto
    im L_x^{m+1} with kernel im L_x^m meet ker L_x, so
    r_m - r_{m+1} = dim(im L_x^m meet ker L_x)
    <= dim(A^{m+1} meet ker L_x) = dim A^{m+1} - rank(L_x on A^{m+1}),
    as L_x^m maps A into A^{m+1}.  Each of these ranks is at its maximum
    away from a proper closed subset, so some x has every rank maximal at
    once: there r_m and r_{m+1} are the generic ranks, and the rank of
    L_x on A^{m+1} is at least its value at x0.
    """
    n, table = a.dim, a.table
    u = list(bound[:cut])
    # slack[i] = dim A^{i+2} - rank(L_x0 on A^{i+2}), for r_{i+1}
    slack = [len(rows) - _int_rank([_int_product(table, n, x0, w) for w in rows])
             for rows in map(a.power, range(2, len(u) + 2))]
    changed = True
    while changed:
        changed = False
        for i, r in enumerate(u):
            prev = u[i - 1] if i else n
            nxt = u[i + 1] if i + 1 < len(u) else 0
            low = min((prev + nxt) // 2, nxt + slack[i])  # rules (i), (ii)
            if low < r:
                u[i], changed = low, True
    # (i) holds at every m, so u falls from r_0 = n; a 0 cuts it
    return tuple(u[:u.index(0)] if 0 in u else u)


class _CandidatePool:
    """iw_max's integer candidates in scan order, built only as far as they
    are read.

    Basis vectors and pair sums come first, then 64 random integer
    vectors, entries in -9..9, all drawn from rng in one block the first
    time the scan reaches them or `alpha` is called.
    """

    def __init__(self, n: int, seed: int):
        self.n, self.rng, self._block = n, random.Random(seed), None

    def _random_block(self):
        if self._block is None:
            self._block = [tuple(row) for row in random_int_rows(
                self.rng, 64, self.n, -9, 9)]
        return self._block

    def __iter__(self):
        n = self.n
        for i in range(n):
            yield tuple(int(i == k) for k in range(n))
        for i in range(n):
            for j in range(i + 1, n):
                yield tuple(int(k in (i, j)) for k in range(n))
        yield from self._random_block()

    def alpha(self) -> int:
        """A perturbation scale, drawn after the random block."""
        self._random_block()
        return self.rng.randint(1, 99)


def iw_scan(a: StructureTensor, seed: int = 0, trials: int = 20):
    """`iw_max`'s scan of a table: yields the running best
    (vector, rank sequence) after each candidate, each sequence dominating
    the ones before it, so a caller that stops early holds a lower bound.
    On a nilpotent table it stops once the best meets `_rank_bound`, as
    cut by `_engel_cut` at its first lowering and lowered by
    `_tight_bound` at each new best; a table that is not nilpotent has
    no bound to lower, and its scan runs to its end or to NotEngelAt.
    Raises ValueError when trials < 1: a repair needs a perturbation.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    table, n = a.table, a.dim
    bound = _rank_bound(a)
    pool = _CandidatePool(n, seed)
    candidates = iter(pool)
    best_vec = next(candidates)
    best_seq = _int_rank_sequence(table, n, best_vec)
    yield best_vec, best_seq
    stale, cut = True, None  # the bound has not read best_vec
    while best_seq != bound:
        if stale and bound is not None:
            stale = False
            if cut is None:
                cut = _engel_cut(a, bound)
            bound = _tight_bound(a, best_vec, bound, cut)
            continue
        vec = next(candidates, None)
        if vec is None:
            return
        seq = _int_rank_sequence(table, n, vec)
        if dominates(best_seq, seq):
            pass
        elif dominates(seq, best_seq):
            best_vec, best_seq, stale = vec, seq, True
        else:
            for _ in range(trials):
                alpha = pool.alpha()
                cand = tuple(b + alpha * v for b, v in zip(best_vec, vec))
                cand_seq = _int_rank_sequence(table, n, cand)
                if dominates(cand_seq, best_seq) and dominates(cand_seq, seq):
                    best_vec, best_seq, stale = cand, cand_seq, True
                    break
            else:
                raise IncomparableMaxima(
                    f"maxima {best_seq} and {seq} stayed incomparable after "
                    f"{trials} perturbations; input is not Engel or pool too small"
                )
        yield best_vec, best_seq


def iw_max(a: StructureTensor, seed: int = 0, trials: int = 20):
    """Dominant one-dimensional IW contraction as (partition, witness): the
    last running best of `iw_scan`, whose rank bound reads the tensor's own
    power chain, so a tensor read before walks no chain twice.
    The partition is read off the dominant rank sequence through
    r_m = sum_i max(lambda_i - m, 0); parts of size one are invisible to
    that duality, so the label carries only parts >= 2 except for the zero
    sequence, which is reported as the all-ones partition of the quotient.
    Both are int tuples; the witness is the scan's integer vector.
    Raises ValueError when trials < 1: a repair needs a perturbation.
    """
    for best_vec, best_seq in iw_scan(a, seed, trials):
        pass
    return partition_from_rank_sequence(best_seq, a.dim), best_vec


def partition_from_rank_sequence(seq, dim: int) -> tuple:
    """The partition label, an int tuple, of a contraction with rank sequence
    seq, the ranks r_1, r_2, ... of N, N^2, ... truncated at zero, on a
    `dim`-dim space.

    rank(N^m) = sum_i max(lambda_i - m, 0), so N has
    r_{m-1} - 2 r_m + r_{m+1} Jordan blocks of size m, with r_0 = dim and
    r_m = 0 past seq.  A negative count, m = 1 included, means that no
    nilpotent operator has these ranks: ValueError.  The label is the
    blocks of size >= 2, largest first; the zero sequence labels the
    abelian contraction and is rendered as 1^(dim-1) (the zero operator on
    the quotient by the witness line).
    """
    r = (dim, *seq, 0, 0)
    counts = [r[m - 1] - 2 * r[m] + r[m + 1] for m in range(1, len(r) - 1)]
    if min(counts) < 0:
        raise ValueError(f"not the rank sequence of a nilpotent operator: {seq}")
    if not seq:
        return (1,) * (dim - 1)
    return tuple(m for m in range(len(counts), 1, -1)
                 for _ in range(counts[m - 1]))
