"""Certificate-checked degenerations and non-degeneration witnesses.

A degeneration claim mu -> chi is certified by a parameterized basis: an
n x n matrix g(t) of rational functions in t whose rows form a basis for
all but finitely many t.  The checker recomputes the structure constants
of the source in that basis exactly, demands regularity at t = 0, and
compares the limit with the target constants entry by entry.  A pole or a
mismatch is a verdict, not an exception.

Each entry of g parses to an unreduced pair (num, den) of integer
polynomials (`exactnum.ZPoly`).  The check has two exact readings, picked
by the basis' shape, and one verdict (`_limit_verdict`): a pole at the
least (i, j, k) whose constant has one, else each nonzero limit num / den
compared with the target's T / M as num M == T den, and a mismatch named
at the least key that differs, the one place a Fraction is made.

A monomial basis, one nonzero entry f_r in each row and in distinct
columns (g_r = f_r e_c(r), c a permutation: a one-parameter subgroup of a
torus after a permutation of the basis, as most shipped certificates are),
maps products term by term (`_monomial_check`).  Each new constant is
one term, C_pq^r = +-(f_p f_q / f_r) T_c(p)c(q)^c(r) / L, with no sum and
so no cancellation, and in Q(t) orders add and lowest coefficients
multiply: its order at t = 0 is o = ord f_p + ord f_q - ord f_r, a pole
if o < 0, limit 0 if o > 0, and at o = 0 the limit is lead_p lead_q /
lead_r T / L.  That reads each nonzero table entry once, in small ints.

Every other basis, zero rows and repeated columns included, is checked
in Z[t] (`_packed_check`), the one general check: it gives every
SingularFamily verdict.  One scale s in Z[t], common to all entries
(per-row scales would change the constants), gives G = s g in
Z[t]^(n x n).
`int_change_basis` on the table scaled by L takes d and R = d G^-1 from
`int_scaled_inverse`, with exact divisions only (Bareiss, 1968), and
gives d and the constants N in the basis d L G, so those of g are
N / (L s d).  Both kernels run on plain ints: G is evaluated at t = 2^B
(Kronecker substitution), and only d is read back as balanced base-2^B
digits.
`packing_bits` bounds the coefficients of every value the kernels test
for zero or hand back, so their ints are the images of the same
computation over Z[t].  A constant has a pole at 0 iff
ord_t N < v = ord_t(L s d), and otherwise its limit is N[v] / (L s d)[v],
both read off packed N (`exactnum.packed_limit_at_zero`, which returns
N[v]).  N is written in the tensor's own format, table rows
(i, j, ((k, coeff), ...)) with the zero entries dropped.  Every limit has
the one denominator D = (L s d)[v].

Non-degenerations are two-tiered.  Invariant witnesses are proofs on
closed invariants, each declared once, with its order under degeneration,
in `INVARIANTS`.  Closed-set witnesses prove the source side by a stored
basis and only *falsify* the target side by seeded random orbit sampling;
reports must keep the two tiers apart.  The source side is tested as a
sample is, on the rows of one integer basis g: the identity, or the
stored basis at t = 0, read with the certificate check's own scale: with
(s, G) from `clear_denominators` and v = ord_t s, a nonzero G_e with
ord_t G_e < v is a pole, and row entry e of g is G_e[v], the value at
t = 0 times the nonzero constant s[v].  The basis is singular at t = 0
iff `int_suffix_spans(g)` is None.

A flag-condition set is its triples (i, j, k), a tuple of int tuples:
a ClosedSet witness's, read with its payload, or R's flags (`_R_FLAGS`).
Orbit samples are tested over Z on the rows of the basis g, with no
inverse: the orbit point meets the flag conditions iff each product
A(g_p, g_q) that a triple hits lies in W_k = span(g_k, ..., g_n), and is
0 for k = n + 1.  The hit pairs, each with its strictest k, are listed
once per set and dimension (`_hit_pairs`, cached; it is the one reading
of a set's triples, which also refuses a triple outside the dimension).
One fraction-free elimination of g from its last row upward both rejects
singular draws and gives reduced rows of every W_k
(`linalg.int_suffix_spans`), and the products are reduced against them
until the first pair that fails.
`_in_set` is the one membership test, of the source side and of every
sample: the hit products, then, for R, its quadratics on the orbit point,
which is its integer table rows and no tensor: the table scaled by its
denominator lcm L and written through R = d g^-1 by `int_change_basis`,
the point of the basis s g, s = d L, with no division.  It is written
out only for a basis that meets R's flags.  Scaling a table or a basis
by c != 0 is a flag-preserving change, so each flag-condition set and R
is a cone: the s g point is a member iff the g point is.  Sampling needs
trials >= 1.

Where it can, the target side is decided exactly first
(`torus_fixed_flag_search`).  A set S that is closed and stable under the
lower-triangular group B (by definition for flag conditions, a test for
R's quadratics) makes the flags whose adapted basis puts the target b
in S a closed subvariety of the flag variety, and Aut(b) preserves it.
The diagonal torus of b's basis (`algebra.weight_spaces`) lies in Aut(b)
and is connected and solvable, so by Borel's fixed-point theorem
(Humphreys, Linear Algebraic Groups, 21.2) that subvariety, if nonempty,
holds a flag the torus fixes: O(b) meets S iff a torus-fixed flag does.
With 1-dim weight spaces and at most one of dim 2, those flags are the
coordinate flags and, on the plane, one P^1 of lines, and the search
decides them exactly.  The lines left are the common zeros of integer
binary forms in their coordinates, read by `catalog._meet`, the reading
the T22 classifier gives its pencil's Pfaffian forms.  It answers
"undecided" for a weight space of dim >= 3, two of dim 2, or a cone on a
line family.  When it answers "misses", every draw would miss, so none
is drawn: the verdict and reason are the sampled ones, byte for byte,
and "N target orbit samples all miss it" stays true of the N draws the
search proves would miss.  When it answers "meets" with an integer
basis, which `_in_set` confirms, that basis puts an orbit member in the
set: the witness is refuted with it, and no draw is made.  Every other
target ("meets" on an irrational line, or "undecided") is sampled as
before, and skipping one witness's draws moves no other's, since each
call seeds its own generator.

Every check here reads integer tables.  Fraction remains only in output
(a tensor's `products`, a mismatch message) and in IWDominance elements,
rationals read with the payload; the `iw_max` witness is an int tuple.

A flag-condition set is stable under the lower-triangular group B by
definition: B fixes every V_k, so it keeps each condition
A(V_i, V_j) in V_k.  `lower_triangular_invariance_probe` states this, with
no arithmetic and no random numbers, after refusing a triple outside the
dimension.

Basis rows are text, read by `exactnum.parse_basis_row`: a certificate's
when it is verified, through the run's store, which parses each distinct
(text, dim) once (`Records.basis_row`), and a witness's stored source
basis once, with the rest of its payload, when the witness is built.
Only the nonzero entries of parsed rows are read after that: they alone
decide the shape, and in the packed check they alone are put over one
denominator (`_cleared_terms`), bound the packing and are packed.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations
from math import lcm, prod
from operator import ge, le
from types import MappingProxyType
from typing import Callable, NamedTuple

from . import catalog
from .algebra import (StructureTensor, _int_product, engel_degree,
                      int_change_basis, jacobi_holds, weight_spaces)
from .contraction import (NotEngelAt, _rank_bound, dominates, iw_scan,
                          partition_from_rank_sequence, rank_sequence)
from .exactnum import (
    ZPOLY_ONE,
    ZPoly,
    content,
    packed_limit_at_zero,
    parse_basis_row,
    poly_gcd,
    rational_from_obj,
)
from .linalg import int_reduce, int_suffix_spans, random_int_rows


class SingularFamily(ValueError):
    """Parameterized basis whose determinant is identically zero."""


class UnknownKind(ValueError):
    """Non-degeneration witness of an unrecognized kind."""


def clear_denominators(fs):
    """(s, G) with s num / den = G in Z[t] for every pair (num, den) in fs,
    one s in Z[t] for all.

    s = c D: c is the lcm of the denominators' contents and D the lcm of
    their primitive parts, taken in Z[t] (by Gauss's lemma a primitive
    polynomial that divides another over Q divides it over Z).
    """
    fs = list(fs)
    parts = {}
    c, lcm_den = 1, ZPOLY_ONE
    for _, den in fs:
        if den not in parts:
            k = content(den.coeffs)
            prim = den // k
            parts[den] = k, prim
            c = lcm(c, k)
            try:
                lcm_den // prim
            except ArithmeticError:
                lcm_den = lcm_den * prim // poly_gcd(lcm_den, prim)
    cofactor = {den: (c // k) * (lcm_den // prim)
                for den, (k, prim) in parts.items()}
    return c * lcm_den, [num * cofactor[den] if num else num for num, den in fs]


def _cleared_terms(rows):
    """(s, [(r, k, G_rk), ...]): `clear_denominators` of the nonzero
    entries (num, den) of parsed basis rows alone, each with its row r and
    column k; the entries left out are 0 in every scale."""
    at = [(r, k) for r, row in enumerate(rows)
          for k, (num, _) in enumerate(row) if num]
    s, nums = clear_denominators(rows[r][k] for r, k in at)
    return s, [(r, k, x) for (r, k), x in zip(at, nums)]


def apply_parameterized_basis(a: StructureTensor, rows):
    """(den, N, B): the structure constants of `a`, read on its integer
    table, in the parameterized basis `rows` (parsed rows of (num, den)
    pairs) are N / den, with den in Z[t] and N the table rows of
    `int_change_basis`, each coordinate the value at t = X = 2^B of a
    polynomial with coefficients strictly inside +-X/2 (`packing_bits`).
    Raises SingularFamily when the rows fail to be a basis for generic t.
    """
    n = a.dim
    if len(rows) != n:
        raise ValueError("basis dimension does not match the algebra")
    s, terms = _cleared_terms(rows)
    g = [[] for _ in range(n)]  # the nonzero entries of each row of G
    for r, _, x in terms:
        g[r].append(x)
    mult, table = a.mult, a.table
    bits = packing_bits(g, table)
    packed = [[0] * n for _ in range(n)]
    for r, k, x in terms:
        packed[r][k] = x.at_power_of_two(bits)
    d, constants = int_change_basis(table, n, packed)
    if not d:
        raise SingularFamily("parameterized basis has identically zero determinant")
    return s * ZPoly.from_balanced_digits(d, bits) * mult, constants, bits


def packing_bits(g, table) -> int:
    """B such that the certificate check over Z[t] may run on the values
    at t = X = 2^B of G and of the integer table `table`, for g the rows
    of G or only their nonzero entries, which alone add to a norm.

    Evaluation at X is a ring map Z[t] -> Z, so the fraction-free inverse
    and `int_change_basis` commute with it as long as every value they
    test for zero, and every value read back, is determined by its image:
    then the same pivots are chosen, and Bareiss's divisions, exact in
    Z[t], stay exact in Z.  A polynomial whose coefficients all lie
    strictly inside +-X/2 maps to 0 only if it is 0 (its top term
    outweighs the rest), and its balanced base-X digits give it back.
    Intermediate products need no bound.  With ||.|| the 1-norm of the
    coefficients, which is submultiplicative, r_i = sum_j ||G_ij|| + 1 the
    1-norm of row i of [G | I] and r_max the largest r_i:

      - every entry of [G | I] after a pivot, the pivot candidates, d and
        R included, is up to sign a minor of [G | I]; expanding it as a
        signed sum over permutations bounds its norm by M = prod_i r_i
        (each r_i >= 1);
      - a product coordinate p_r of g_i g_j has norm <= T r_i r_j, T the
        largest |coefficient| of `table` (1 for the zero table);
      - a coordinate sum_r p_r R_rk of N has norm <= n T r_max^2 M.

    All three are at most K = n T r_max^2 M, and B = bitlength(K) + 1
    gives K < X / 2.
    """
    norms = [sum(sum(map(abs, x.coeffs)) for x in row if x) + 1 for row in g]
    top = max((abs(v) for _, _, entries in table for _, v in entries), default=1)
    return (len(g) * top * max(norms) ** 2 * prod(norms)).bit_length() + 1


# read-only: the one empty default that every Verdict and witness shares
_EMPTY = MappingProxyType({})


class Verdict(NamedTuple):
    status: str  # pass | fail | proved | refutation_not_found | refuted
    reason: str = ""
    data: dict = _EMPTY

    @property
    def ok(self) -> bool:
        return self.status in ("pass", "proved")


class AlgebraRef(NamedTuple):
    """Reference to an algebra: catalog name + dim, or an inline table."""

    name: str
    dim: int
    tensor: StructureTensor | None = None  # the inline table, read at load

    def resolve(self) -> StructureTensor:
        if self.tensor is not None:
            return self.tensor
        return catalog.instantiate(self.name, self.dim)

    @property
    def label(self) -> str:
        return f"{self.name}@{self.dim}"


class Records:
    """One run's store at one seed: each distinct certificate row (text,
    dim), parsed once (`basis_row`), and, keyed by label (one table each),
    the tensor of a label, resolved once, when first read, so that each of
    its invariants is computed once per run, one `contraction.iw_scan`
    of it, read to its first best or to its end (`iw_sequence`), and one
    torus-fixed flag search of it for each set (`flag_search`).
    An audit (`iw_monotone`) decided on a first best may so leave a repair
    unreached, and never raise the IncomparableMaxima that `contraction`
    says cannot happen for Engel input.  A table that is not Engel raises
    NotEngelAt led by its label."""

    def __init__(self, seed: int = 0):
        self.seed, self._tensors, self._scans, self._rows = seed, {}, {}, {}
        self._searches = {}

    def basis_row(self, text, dim: int):
        """`parse_basis_row(text, dim)`, parsed once per run for each
        distinct (text, dim): certificates share most of their rows.  The
        parsed row is shared, and nothing writes it.  A row that does not
        parse raises at each read, as does a text that is not a string."""
        if not isinstance(text, str):
            return parse_basis_row(text, dim)
        key = (text, dim)
        if key not in self._rows:
            self._rows[key] = parse_basis_row(text, dim)
        return self._rows[key]

    def tensor(self, ref: AlgebraRef) -> StructureTensor:
        if ref.label not in self._tensors:
            self._tensors[ref.label] = ref.resolve()
        return self._tensors[ref.label]

    def iw_sequence(self, ref: AlgebraRef, whole: bool = True):
        """The rank sequence of the label's `iw_max` label, its scan read to
        its end; with whole=False, the best read so far (at least the
        scan's first), a lower bound that reads on no further."""
        if ref.label not in self._scans:
            self._scans[ref.label] = [iw_scan(self.tensor(ref), self.seed), None]
        state = self._scans[ref.label]  # [the scan, its best so far]
        try:
            while state[1] is None or whole:
                state[1] = next(state[0])[1]
        except StopIteration:
            pass
        except Exception as exc:
            del self._scans[ref.label]  # a later read scans and raises again
            if isinstance(exc, NotEngelAt):
                raise exc.named(ref.label) from None
            raise
        return state[1]

    def iw_monotone(self, src: AlgebraRef, tgt: AlgebraRef) -> bool:
        """dominates(iw_sequence(src), iw_sequence(tgt)).  A source that is
        not nilpotent is scanned to its end, so NotEngelAt is raised as
        before; True when the source's first best dominates the target's
        exact `_rank_bound`; else both are read whole.  Each best dominates
        the ones before it, so some best dominates the target's sequence
        iff the last one does."""
        if _rank_bound(self.tensor(src)) is None:
            self.iw_sequence(src)
        bound = _rank_bound(self.tensor(tgt))
        if bound is not None and dominates(self.iw_sequence(src, whole=False), bound):
            return True
        return dominates(self.iw_sequence(src), self.iw_sequence(tgt))

    def flag_search(self, ref: AlgebraRef, spec, cone=None):
        """`torus_fixed_flag_search` on the table of ref, once per run for
        each (label, set, cone)."""
        key = (ref.label, spec, cone)
        if key not in self._searches:
            self._searches[key] = torus_fixed_flag_search(self.tensor(ref), spec, cone)
        return self._searches[key]

    def rank_sequence(self, ref: AlgebraRef, element):
        """The rank sequence of L_element on the table of ref."""
        try:
            return rank_sequence(self.tensor(ref), element)
        except NotEngelAt as exc:
            raise exc.named(ref.label) from None


class DegenerationCertificate(NamedTuple):
    source: AlgebraRef
    target: AlgebraRef
    basis_rows: tuple
    provenance: str = ""
    proper: bool | None = None  # True: claimed non-trivial (source != target)
    separator: str | None = None  # invariant certifying non-isomorphism
    cert_id: str = ""


def verify_degeneration(cert: DegenerationCertificate, records: Records) -> Verdict:
    """Exact pass/fail for one parameterized-basis certificate, on the
    tables of the run's `records`.

    A basis of the wrong length, or a row that does not parse, is a fail
    verdict (naming the row).  A monomial basis is read off its entries'
    orders and lowest coefficients (`_monomial_check`), every other basis
    by the packed check over Z[t] (`_packed_check`); both give the same
    verdict, stated once by `_limit_verdict`.
    """
    src, tgt = records.tensor(cert.source), records.tensor(cert.target)
    if src.dim != tgt.dim:
        return Verdict("fail", "source and target dimensions differ")
    n = src.dim
    if len(cert.basis_rows) != n:
        return Verdict("fail", f"expected {n} basis rows, got "
                               f"{len(cert.basis_rows)}")
    rows = []
    for k, text in enumerate(cert.basis_rows, start=1):
        try:
            rows.append(records.basis_row(text, n))
        except (ValueError, ZeroDivisionError) as exc:
            return Verdict("fail",
                           f"basis row {k} {text!r} does not parse: {exc}")
    return _monomial_check(src, tgt, rows) or _packed_check(src, tgt, rows)


def _limit_verdict(tgt: StructureTensor, limits, pole=None) -> Verdict:
    """The verdict on the limits at t = 0 of a certificate's constants:
    a fail at `pole`, the least (i, j, k) (0-based) whose constant has a
    pole, when there is one; else pass iff `limits`, {(i, j, k): (num, den)}
    for each nonzero limit num / den, are the target's constants T / M,
    each tested as num M == T den; else a fail at the least key that
    differs, naming both values."""
    if pole is not None:
        i, j, k = (x + 1 for x in pole)
        return Verdict("fail", f"pole at t=0 in constant ({i},{j})^{k}",
                       {"position": (i, j, k)})
    mult = tgt.mult
    target = {(i, j, k): v for i, j, entries in tgt.table for k, v in entries}
    differ = target.keys() - limits.keys()  # limit 0, target not
    differ.update(key for key, (num, den) in limits.items()
                  if num * mult != target.get(key, 0) * den)
    if not differ:
        return Verdict("pass")
    first = min(differ)
    got = Fraction(*limits.get(first, (0, 1)))
    want = Fraction(target.get(first, 0), mult)
    i, j, k = (x + 1 for x in first)
    return Verdict("fail", f"limit constant ({i},{j})^{k} is {got}, "
                           f"target has {want}", {"position": (i, j, k)})


def _packed_check(src: StructureTensor, tgt: StructureTensor, rows) -> Verdict:
    """The certificate check over Z[t] (the module docstring): every limit
    is N[v] / D, over the one denominator D = den[v]."""
    try:
        den, constants, bits = apply_parameterized_basis(src, rows)
    except SingularFamily as exc:
        return Verdict("fail", str(exc))
    lead, limits = den.coeffs[den.order()], {}
    for i, j, entries in constants:
        for k, x in entries:
            x = packed_limit_at_zero(x, bits, den)
            if x is None:  # the constants come in key order
                return _limit_verdict(tgt, limits, (i, j, k))
            if x:
                limits[(i, j, k)] = x, lead
    return _limit_verdict(tgt, limits)


def _monomial_check(src: StructureTensor, tgt: StructureTensor, rows):
    """The certificate check of a monomial basis g_r = f_r e_c(r), c a
    permutation: C_pq^r = +-(f_p f_q / f_r) T_c(p)c(q)^c(r) / L, one term
    (negated for c(p) > c(q)), so its order at t = 0 is
    ord f_p + ord f_q - ord f_r, and at order 0 its limit is the product
    of the lowest coefficients (the module docstring).  None for rows that
    are not monomial: a row with other than one nonzero entry, or two rows
    in one column."""
    n, mult = src.dim, src.mult
    row_of, order, lead = [None] * n, [0] * n, [None] * n
    for r, row in enumerate(rows):
        cols = [k for k, (num, _) in enumerate(row) if num.coeffs]
        if len(cols) != 1 or row_of[cols[0]] is not None:
            return None
        (k,) = cols
        num, den = row[k]
        u, w = num.order(), den.order()
        row_of[k], order[r], lead[r] = r, u - w, (num.coeffs[u], den.coeffs[w])
    limits, poles = {}, []
    for a, b, entries in src.table:
        p, q, sign = row_of[a], row_of[b], 1
        if p > q:
            p, q, sign = q, p, -1
        (ap, bp), (aq, bq), o = lead[p], lead[q], order[p] + order[q]
        for k, v in entries:
            r = row_of[k]
            if o < order[r]:
                poles.append((p, q, r))
            elif o == order[r]:
                ar, br = lead[r]
                limits[(p, q, r)] = sign * v * ap * aq * br, mult * bp * bq * ar
    return _limit_verdict(tgt, limits, min(poles, default=None))


# --- closed sets ----------------------------------------------------------


@lru_cache  # read once per sample; the tuple returned is safe to share
def _hit_pairs(spec, n: int):
    """((p, q, k), ...): each pair p < q (0-based) that a triple (i, j, k)
    of the set `spec` hits, with the strictest k of those triples, in pair
    order.  A triple hits every pair at or above (i, j) (V_{n+1} = 0), so
    the strictest k never falls going up.

    The set's members are the tables whose product e_p e_q lies in V_k for
    each listed (p, q, k); k = n + 1 asks for a zero product.  Raises
    ValueError for a triple outside 1 <= i, j <= n, 1 <= k <= n + 1.
    """
    strictest = {}
    for (i, j, k) in spec:
        if not (1 <= i <= n and 1 <= j <= n and 1 <= k <= n + 1):
            raise ValueError(
                f"triple {(i, j, k)} outside dimension {n}: need "
                f"1 <= i, j <= {n} and 1 <= k <= {n + 1}")
        for p in range(n - 1):
            for q in range(p + 1, n):
                hit = (p >= i - 1 and q >= j - 1) or (q >= i - 1 and p >= j - 1)
                if hit and k > strictest.get((p, q), 1):
                    strictest[(p, q)] = k
    return tuple((p, q, k) for (p, q), k in sorted(strictest.items()))


def _in_set(table, n: int, g, spans, pairs, cone) -> bool:
    """Membership of the orbit point of an invertible basis g: every
    `_hit_pairs` product A(g_p, g_q) of the tensor's table lies in
    W_k = span(g_k, ..., g_n), whose reduced rows `spans`
    (`int_suffix_spans`) decide it (W_{n+1} = 0; it stops at the first
    failure), and then, when `cone` is given, `cone` holds of its integer
    table rows, those of the basis s g, s = d L (`int_change_basis`)."""
    return not any(
        any(int_reduce(_int_product(table, n, g[p], g[q]), spans, k - 1))
        for p, q, k in pairs) and (
        cone is None or cone(int_change_basis(table, n, g)[1]))


def lower_triangular_invariance_probe(spec, dim: int) -> Verdict:
    """pass: the flag-condition set `spec` is stable under the
    lower-triangular group B in dimension `dim`, by definition, since B
    fixes every V_k and so keeps each condition A(V_i, V_j) in V_k.
    Raises ValueError when a triple lies outside dimension `dim`."""
    _hit_pairs(spec, dim)
    return Verdict("pass")


# --- the bespoke closed set R of the seven-dimensional analysis -----------

_R_FLAGS = (
    (1, 7, 8),  # lambda(V, V_7) = 0
    (2, 6, 8),  # lambda(V_2, V_6) = 0
    (3, 5, 8),  # lambda(V_3, V_5) = 0
    (1, 4, 7),  # lambda(V, V_4) in V_7
    (2, 3, 6),  # lambda(V_2, V_3) in V_6
    (1, 3, 5),  # lambda(V, V_3) in V_5
    (1, 1, 4),  # lambda(V, V) in V_4
)

# quadratic relations as (monomial, monomial, sign) with monomials (i,j,k):
# sum over entries of sign * l_{i,j}^k * l_{p,q}^r must vanish
_R_QUADRATICS = (
    (((1, 2, 4), (3, 4, 7), 1), ((2, 3, 6), (1, 6, 7), -1)),
    (((1, 2, 4), (3, 4, 7), 1), ((1, 3, 5), (2, 5, 7), 1)),
    (((1, 2, 5), (3, 4, 7), 1), ((1, 3, 5), (2, 4, 7), -1)),
    (((1, 2, 5), (2, 5, 7), 1), ((1, 2, 4), (2, 4, 7), 1)),
    (((2, 3, 6), (1, 5, 7), 1), ((1, 3, 6), (2, 5, 7), -1)),
    (((1, 3, 6), (1, 6, 7), 1), ((1, 3, 5), (1, 5, 7), 1)),
    (((2, 3, 6), (1, 4, 7), 1), ((1, 3, 6), (2, 4, 7), -1), ((1, 2, 6), (3, 4, 7), 1)),
)


def _r_quadratics_hold(table) -> bool:
    """The quadratic relations of R, for the integer table rows of a
    seven-dimensional algebra.  They are homogeneous, so a table scaled by
    any nonzero integer decides them; every monomial (i, j, k) has i < j,
    a key of the table."""
    c = {(i + 1, j + 1, k + 1): v for i, j, entries in table for k, v in entries}
    return not any(sum(sign * c.get(m1, 0) * c.get(m2, 0) for m1, m2, sign in relation)
                   for relation in _R_QUADRATICS)


def random_invertible(dim: int, rng: random.Random):
    """(g, spans): random integer rows g, entries in -5..5, and their
    `int_suffix_spans`; singular draws are redrawn."""
    while True:
        rows = random_int_rows(rng, dim, dim, -5, 5)
        spans = int_suffix_spans(rows)
        if spans is not None:
            return rows, spans


def randomized_orbit_refute(
    b: StructureTensor, spec, trials: int, seed: int, cone=None,
) -> Verdict:
    """Sample the orbit of b for members of a closed set: the flag
    conditions `spec`, triples (i, j, k), and the predicate `cone` when
    given.

    refutation_not_found is evidence, never proof, that the orbit misses
    the set; a hit refutes the emptiness claim and returns the basis.
    Each sample g is tested by `_in_set`: on its rows first, and only a
    sample that meets `spec` is written out in full, as the integer table
    rows of s g that `cone` sees, so it must be invariant under nonzero
    scaling.
    Raises ValueError when trials < 1 (zero samples are no evidence) or
    when a triple lies outside the dimension of b.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    n = b.dim
    pairs = _hit_pairs(spec, n)
    rng = random.Random(seed)
    table = b.table
    for trial in range(trials):
        g, spans = random_invertible(n, rng)
        if _in_set(table, n, g, spans, pairs, cone):
            return Verdict(
                "refuted",
                f"orbit member found in the set at trial {trial}",
                {"basis": [[str(x) for x in row] for row in g]},
            )
    return Verdict(
        "refutation_not_found",
        f"no orbit sample of {trials} landed in the set (falsification only)",
    )


# --- torus-fixed flags ----------------------------------------------------


def torus_fixed_flag_search(b: StructureTensor, spec, cone=None):
    """(answer, basis): whether b's orbit meets the closed set of the flag
    conditions `spec` (and `cone`, as in `_in_set`), decided on the flags
    fixed by the diagonal torus of b's basis (`weight_spaces`).

    "meets" comes with the integer rows of a basis that puts b in the set,
    or None when the only such lines are irrational; "misses", with None,
    is a proof (Borel, in the module docstring), since a set of triples is
    B-stable by definition and so are R's quadratics (a test).  The answer
    is "undecided" for a weight space of dim >= 3, two of dim 2, or a cone
    on a line family.  Raises ValueError for a triple outside dimension n.

    A triple (i, j, k) asks A(W_i, W_j) in W_k, so the search places the
    torus-stable W at the levels the triples name (every level, for a
    cone), deepest first, each a coordinate bitmask holding the one below,
    and tests a triple once its last level is placed.  A coordinate joins
    W_l only if it maps the placed part of each W_j into W_k for the
    triples that put it in W_i.  On a 2-dim weight space <e_a, e_c>, bit a
    stands for the line u = x e_a + y e_c and bit c, never set without a,
    for the rest of the plane; a W that holds only the line adds binary
    forms in (x, y), whose common zeros are the lines left (`catalog._meet`).
    """
    n, table = b.dim, b.table
    _hit_pairs(spec, n)  # refuses a triple outside dimension n
    blocks = [block for block in weight_spaces(b) if len(block) > 1]
    if len(blocks) > 1 or blocks and len(blocks[0]) > 2:
        return "undecided", None
    a, c = blocks[0] if blocks else (None, None)
    pa, pc = (1 << a, 1 << c) if blocks else (0, 0)
    plane, bits = pa | pc, [1 << x for x in range(n)]
    # each product e_i e_j: its pair's bits, its support off the plane and
    # its coordinates on the plane
    rows = [(1 << i, 1 << j, sum(1 << k for k, _ in e if not plane >> k & 1),
             dict(e).get(a, 0), dict(e).get(c, 0)) for i, j, e in table]
    # u e_d = x e_a e_d + y e_c e_d, for each d it does not kill: the
    # forms (x-, y-coefficient) of its coordinates off the plane, and
    # those its plane part adds for each way W_k meets the plane
    mixed = {}
    for i, j, e in table:
        for p, d, sign in ((i, j, 1), (j, i, -1)):
            if p in (a, c):
                for k, v in e:
                    mixed.setdefault(d, {}).setdefault(k, [0, 0])[p == c] += sign * v
    line = []
    for d, xy in mixed.items():
        (xa, ya), (xc, yc) = xy.get(a, (0, 0)), xy.get(c, (0, 0))
        on = {0: [(xa, ya), (xc, yc)], pa: [(-xc, xa - yc, ya)], plane: []}
        line.append((1 << d, [(1 << k, tuple(f)) for k, f in xy.items() if not plane >> k & 1],
                     {tk: [f for f in fs if any(f)] for tk, fs in on.items()}))

    @lru_cache(maxsize=None)  # read once per placement
    def forms(mi, mj, mk):
        """The binary forms whose common zeros are the lines on which
        A(W_i, W_j) lies in W_k; None when no line does."""
        cbi, cbj = (m if m & pc else m & ~pa for m in (mi, mj))
        tk, found = mk & plane, set()
        for bp, bq, out, va, vc in rows:
            if cbi & bp and cbj & bq or cbi & bq and cbj & bp:
                if out & ~mk:
                    return None
                if va or vc:
                    if not tk:
                        return None
                    if tk == pa:
                        found.add((-vc, va))
        for m, cb in ((mi, cbj), (mj, cbi)):
            if pa and m & plane == pa:
                for bit, off, on in line:
                    if cb & bit:
                        found.update(form for bit_k, form in off if not mk & bit_k)
                        found.update(on[tk])
        return found

    def holds(state, triple):
        """The line set `state` cut down to the lines on which the triple
        holds, [] for none."""
        i, j, k = triple
        found = forms(w[i], w[j], w[k])
        return [] if found is None else reduce(catalog._meet, found, state) if found else state

    @lru_cache(maxsize=None)
    def fits(mj, mk):
        """The coordinates (a bitmask) whose products with the coordinates
        of W_j lie in W_k off the plane, and on it too when W_k misses the
        plane; the plane's own coordinates pass."""
        cbj, bad = mj if mj & pc else mj & ~pa, 0
        for bp, bq, out, va, vc in rows:
            if out & ~mk or (va or vc) and not mk & plane:
                bad |= (bp if bq & cbj else 0) | (bq if bp & cbj else 0)
        return ~bad | plane

    levels = sorted({x for t in spec for x in t if 1 < x <= n}
                    | set(range(2, n + 1) if cone else ()), reverse=True)
    due, needs = {}, {}
    for t in spec:
        due.setdefault(min((x for x in t if 1 < x <= n), default=n + 1), []).append(t)
    for level in levels:  # a coordinate joining W_l is in W_i for i <= l
        needs[level] = {(j, k) for i0, j0, k in spec
                        for i, j in ((i0, j0), (j0, i0)) if i <= level < k}
    w = [0, (1 << n) - 1] + [0] * n

    def leaf(state, order):
        """The answer at a placement that meets every triple, its
        coordinates `order` (bits) those of g_n, g_(n-1), ..., g_1."""
        if blocks and cone:
            return "undecided", None
        point = (1, 0) if state is None else state[0] if isinstance(state, list) else None
        if point is None:
            return "meets", None
        row = {bit.bit_length() - 1: n - 1 - r for r, bit in enumerate(order)}
        if cone and not cone([
                (min(p, q), max(p, q), tuple((row[k], v if p < q else -v) for k, v in e))
                for i, j, e in table for p, q in [(row[i], row[j])]]):
            return None
        g = [[0] * n for _ in range(n)]
        for x, r in row.items():
            if x == a:
                g[r][a], g[r][c] = point
            else:
                g[r][a if x == c and point[1] else x] = 1
        return "meets", g

    def place(depth, state, order):
        below = w[levels[depth - 1]] if depth else 0
        if depth == len(levels):
            return leaf(state, order + tuple(bit for bit in bits if not below & bit))
        level, allowed = levels[depth], ~below
        for j, k in needs[level]:
            allowed &= fits(w[j] if j == 1 or j > level else below, w[k])
        free = [bit for bit in bits if allowed & bit]
        for extra in combinations(free, n + 1 - level - below.bit_count()):
            m = below | sum(extra)
            if m & pc and not m & pa:
                continue
            w[level], st = m, state
            for triple in due.get(level, ()):
                st = holds(st, triple)
                if st == []:
                    break
            else:
                found = place(depth + 1, st, order + extra)
                if found:
                    return found
        return None

    state = reduce(holds, due.get(n + 1, ()), None)  # the triples naming no level
    return state != [] and place(0, state, ()) or ("misses", None)


# --- non-degeneration witnesses -------------------------------------------


class Invariant(NamedTuple):
    """A closed invariant: values of `read(records, ref)` that differ prove
    A != B.  A -> B only if `order(value of A, value of B)` holds
    (Grunewald-O'Halloran 1988; Burde-Steinhoff 1999): a failed order
    proves a `kind` witness and fails the audit with `audit`."""

    read: Callable
    order: Callable | None = None
    kind: str | None = None
    proved: str = ""
    refuted: str = ""
    audit: str = ""


def _classifier_label(records, ref: AlgebraRef):
    try:
        res = catalog.classify_T22(records.tensor(ref))
    except catalog.PreconditionViolated:
        return "outside-T22-scope"
    return getattr(res, "key", repr(res))


INVARIANTS = {
    "dim_square": Invariant(
        lambda records, ref: records.tensor(ref).dim_square, ge, "DimSquare",
        "dim source^2 = {} < {} = dim target^2",
        "dim source^2 = {} >= {} = dim target^2", "dim square grows: {} -> {}"),
    "ann_dim": Invariant(
        lambda records, ref: records.tensor(ref).ann_dim, le, "AnnDim",
        "dim Ann(source) = {} > {} = dim Ann(target)",
        "dim Ann(source) = {} <= {} = dim Ann(target)",
        "annihilator shrinks: {} -> {}"),
    "nilindex": Invariant(lambda records, ref: records.tensor(ref).nilindex, ge),
    "engel_degree": Invariant(
        lambda records, ref: engel_degree(records.tensor(ref), ref.dim + 1), ge),
    "jacobi": Invariant(  # on bools, le is implication: source Lie => target Lie
        lambda records, ref: jacobi_holds(records.tensor(ref)), le, "LieClosure",
        "source is Lie, target is not", "jacobi(source)={}, jacobi(target)={}"),
    "centralizer_square": Invariant(
        lambda records, ref: records.tensor(ref).centralizer_dim(2), le),
    "pfaffian_conic": Invariant(
        lambda records, ref: catalog.pfaffian_conic_profile(records.tensor(ref))),
    "classifier": Invariant(_classifier_label),
    # IWDominance, judged apart, reads the source's scanned maximum: a proof
    # where the scan met its exact bound, as each shipped source's does
    "iw_partition": Invariant(
        lambda records, ref: partition_from_rank_sequence(
            records.iw_sequence(ref), ref.dim), kind="IWDominance"),
}

# the invariant tier, whose verdicts are proofs, then the closed-set tier
INVARIANT_KINDS = tuple(row.kind for row in INVARIANTS.values() if row.kind)
WITNESS_KINDS = INVARIANT_KINDS + ("ClosedSet", "BespokeR")


class _WitnessFields(NamedTuple):
    kind: str
    source: AlgebraRef
    target: AlgebraRef
    payload: dict
    provenance: str
    witness_id: str
    spec: tuple | None
    source_rows: tuple | None
    element: tuple | None


class NonDegenerationWitness(_WitnessFields):
    """A claim that source does not degenerate to target, by one of
    `WITNESS_KINDS`.  The payload fields its kind reads are read once,
    here, where n is the source dimension: ClosedSet `triples`, a list of
    integer triples (i, j, k) with 1 <= i, j <= n and 1 <= k <= n + 1, as
    `spec`, a tuple of int tuples; a ClosedSet/BespokeR `source_basis`,
    when given, a list of n basis rows, as parsed rows `source_rows`;
    IWDominance `element`, a list of n rationals, as Fractions.  A
    malformed payload raises ValueError naming its field.  `_replace`
    would skip that reading."""

    __slots__ = ()

    def __new__(cls, kind, source, target, payload=_EMPTY, provenance="",
                witness_id=""):
        if kind not in WITNESS_KINDS:
            raise UnknownKind(f"unknown witness kind {kind!r}")
        n, spec, source_rows, element = source.dim, None, None, None
        if not (isinstance(payload, dict) or payload is _EMPTY):
            raise ValueError("payload is not an object")
        if kind == "ClosedSet":
            triples = payload.get("triples")
            if not isinstance(triples, list) or not all(
                isinstance(t, list) and len(t) == 3
                and all(type(x) is int for x in t)
                and 1 <= t[0] <= n and 1 <= t[1] <= n and 1 <= t[2] <= n + 1
                for t in triples
            ):
                raise ValueError(
                    f"payload.triples must be a list of integer triples "
                    f"(i, j, k) with 1 <= i, j <= {n}, 1 <= k <= {n + 1}")
            spec = tuple(map(tuple, triples))
        rows = payload.get("source_basis")
        if kind in ("ClosedSet", "BespokeR") and rows is not None:
            if not (isinstance(rows, list) and len(rows) == n
                    and all(isinstance(r, str) for r in rows)):
                raise ValueError(
                    f"payload.source_basis must be a list of {n} basis rows")
            try:
                source_rows = tuple(parse_basis_row(r, n) for r in rows)
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"payload.source_basis: {exc}") from None
        if kind == "IWDominance":
            element = payload.get("element")
            try:
                if not (isinstance(element, list) and len(element) == n):
                    raise TypeError
                element = tuple(map(rational_from_obj, element))
            except (TypeError, ValueError, ZeroDivisionError):
                raise ValueError(
                    f"payload.element must be a list of {n} rationals") from None
        return super().__new__(cls, kind, source, target, payload, provenance,
                               witness_id, spec, source_rows, element)


def verify_nondegeneration(
    w: NonDegenerationWitness, records: Records, trials: int = 200
) -> Verdict:
    """Tiered verdict for one non-degeneration witness, read from the run's
    `records` and sampled at their seed.

    DimSquare / AnnDim / LieClosure are proofs by the order of their row of
    `INVARIANTS`; IWDominance is one as far as the source's scanned IW
    maximum is exact, which every shipped source's is (a test pins it) but
    the verdict does not check.  ClosedSet / BespokeR prove the source side
    with a stored basis and only falsify the target side by orbit sampling.
    The run's `records` first search the target's torus-fixed flags, once
    per (target label, set): where the search answers "misses", every draw
    would miss, and the sampled verdict and reason are returned with no
    draw (Borel, in the module docstring); where it answers "meets" with a
    basis that `_in_set` confirms, the witness is refuted with that basis
    and no draw; every other target, "meets" on an irrational line or
    "undecided", is sampled.  A witness between different dimensions, or
    a BespokeR witness outside dimension 7, is a fail verdict.
    """
    src, tgt = records.tensor(w.source), records.tensor(w.target)
    if src.dim != tgt.dim:
        return Verdict("fail", "source and target dimensions differ")
    if w.kind == "BespokeR" and src.dim != 7:
        return Verdict("fail", "the set R lives in dimension 7")
    if w.kind == "IWDominance":
        src_seq = records.iw_sequence(w.source)
        tgt_seq = records.rank_sequence(w.target, w.element)
        if not dominates(src_seq, tgt_seq):
            return Verdict(
                "proved",
                f"IW-max sequence {src_seq} does not dominate "
                f"target sequence {tgt_seq}",
            )
        return Verdict("refuted", "source IW-max dominates the target element")
    row = next((row for row in INVARIANTS.values() if row.kind == w.kind), None)
    if row:
        a, b = row.read(records, w.source), row.read(records, w.target)
        if row.order(a, b):
            return Verdict("refuted", row.refuted.format(a, b))
        return Verdict("proved", row.proved.format(a, b))
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    spec, cone = ((w.spec, None) if w.kind == "ClosedSet"
                  else (_R_FLAGS, _r_quadratics_hold))
    # the source side is tested as a sample is, on the rows of g: the
    # stored basis at t = 0 scaled by s[v] (a cone is scale invariant),
    # or the identity
    n, table = src.dim, src.table
    g = [[int(r == c) for c in range(n)] for r in range(n)]
    if w.source_rows:
        s, terms = _cleared_terms(w.source_rows)
        v = s.order()
        if any(x.order() < v for _, _, x in terms):
            return Verdict("refuted", "stored source basis has a pole at t = 0")
        g = [[0] * n for _ in range(n)]
        for r, k, x in terms:
            g[r][k] = x.coeffs[v]
    spans = int_suffix_spans(g)
    if spans is None:
        return Verdict("refuted", "stored source basis is singular at t = 0")
    if not _in_set(table, n, g, spans, _hit_pairs(spec, n), cone):
        return Verdict("refuted", "stored source basis does not land in the set")
    answer, basis = records.flag_search(w.target, spec, cone)
    spans = basis and int_suffix_spans(basis)
    if spans and _in_set(tgt.table, n, basis, spans, _hit_pairs(spec, n), cone):
        return Verdict("refuted", "target orbit meets the set: found on a torus-fixed flag",
                       {"basis": [[str(x) for x in row] for row in basis]})
    if answer != "misses":
        verdict = randomized_orbit_refute(tgt, spec, trials, records.seed, cone)
        if verdict.status == "refuted":
            return Verdict(
                "refuted",
                "target orbit meets the set: " + verdict.reason,
                verdict.data,
            )
    return Verdict(
        "refutation_not_found",
        f"source meets the set; {trials} target orbit samples all miss it",
    )
