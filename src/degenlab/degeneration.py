"""Certificate-checked degenerations and non-degeneration witnesses.

A degeneration claim mu -> chi is certified by a parameterized basis: an
n x n matrix g(t) of rational functions in t whose rows form a basis for
all but finitely many t.  The checker recomputes the structure constants
of the source in that basis exactly, demands regularity at t = 0, and
compares the limit with the target constants entry by entry.  A pole or a
mismatch is a verdict, not an exception.

The check runs over Z[t].  Each entry of g parses to an unreduced pair
(num, den) of integer polynomials (`exactnum.ZPoly`).  One scale s in
Z[t], common to all entries (per-row scales would change the constants),
gives G = s g in Z[t]^(n x n).
`int_scaled_inverse` gives d and R = d G^-1 with exact divisions only
(Bareiss, 1968), and `int_change_basis` on the table scaled by L gives the
constants N in the basis d L G, so those of g are N / (L s d).  A constant
has a pole at 0 iff ord_t N < v = ord_t(L s d), and otherwise its limit is
N[v] / (L s d)[v] (`exactnum.limit_at_zero`): gcds are taken only to find
s, and that quotient is the only Fraction formed.

Non-degenerations are two-tiered.  Invariant witnesses (dimension of the
square, dimension of the annihilator, rank-sequence dominance, the Jacobi
identity surviving limits) are genuine proofs.  Closed-set witnesses prove
the source side by a stored basis and only *falsify* the target side by
seeded random orbit sampling; reports must keep the two tiers apart.

Orbit samples are computed over Z: for an integer basis g, one
fraction-free elimination gives d != 0 and R = d g^-1, and the table
scaled by its denominator lcm L, written through R, is the exact orbit
point of the basis s g, s = d L, with no division (`_orbit_point`).
Scaling a table by c is the flag-preserving change c I, so each
ClosedSetSpec set and R is a cone: the s g point is a member iff the g
point is.  The same point tests the lower-triangular probes and a stored
source basis (its values at t = 0, scaled to integers).  Sampling needs
trials >= 1.

Basis rows are written in a small text syntax, e.g.

    "e1", "e2+e3", "t*e4", "(1/t)*e5 - (1/t^2)*e7", "-e2-e5"
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from math import lcm

from .algebra import (
    DimensionMismatch,
    StructureTensor,
    annihilator,
    dim_square,
    int_change_basis,
    int_table,
    jacobi_holds,
)
from .contraction import dominates, iw_max, rank_sequence
from .exactnum import (
    ZPOLY_ONE,
    ZPOLY_ZERO,
    add_pairs,
    content,
    limit_at_zero,
    parse_rational_function,
    poly_gcd,
    rational_from_obj,
)
from .linalg import int_scaled, int_scaled_inverse


class SingularFamily(ValueError):
    """Parameterized basis whose determinant is identically zero."""


class UnknownKind(ValueError):
    """Non-degeneration witness of an unrecognized kind."""


TERM_RE = re.compile(r"^(?:(?P<coeff>.+)\*)?e(?P<idx>\d+)$")


def parse_basis_row(text: str, dim: int):
    """One basis row as a vector of (num, den) pairs of ZPolys.

    Accepts sums of terms `[coeff*]e<k>` with rational-function
    coefficients; a bare leading sign belongs to the first term.  A row
    ending in a sign is refused: it is a truncated row, not a shorter one.
    """
    if not isinstance(text, str):
        raise ValueError(f"basis row {text!r} is not a string")
    if text.rstrip().endswith(("+", "-")):
        raise ValueError(f"dangling sign at the end of basis row {text!r}")
    out = [(ZPOLY_ZERO, ZPOLY_ONE)] * dim
    terms = _split_terms(text)
    if not terms:
        raise ValueError(f"empty basis row: {text!r}")
    for sign, term in terms:
        m = TERM_RE.match(term.replace(" ", ""))
        if not m:
            raise ValueError(f"cannot parse basis term {term!r} in {text!r}")
        idx = int(m.group("idx"))
        if not (1 <= idx <= dim):
            raise ValueError(f"basis index e{idx} outside dimension {dim}")
        coeff_text = m.group("coeff")
        num, den = ((ZPOLY_ONE, ZPOLY_ONE) if coeff_text is None
                    else parse_rational_function(coeff_text))
        out[idx - 1] = add_pairs(out[idx - 1], (num if sign > 0 else -num, den))
    return out


def _split_terms(text: str):
    """Split on top-level + and -, keeping signs; respects parentheses."""
    terms = []
    depth = 0
    cur = []
    pending_sign = 1
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if depth == 0 and ch in "+-" and cur and cur[-1] not in "*/^(+-":
            terms.append((pending_sign, "".join(cur).strip()))
            cur = []
            pending_sign = 1 if ch == "+" else -1
            continue
        if depth == 0 and ch in "+-" and not cur:
            pending_sign *= 1 if ch == "+" else -1
            continue
        cur.append(ch)
    if cur:
        terms.append((pending_sign, "".join(cur).strip()))
    return [(s, t) for s, t in terms if t]


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
    return c * lcm_den, [num * cofactor[den] for num, den in fs]


def apply_parameterized_basis(a: StructureTensor, rows):
    """(den, N): the structure constants of `a` in the parameterized basis
    `rows` (parsed rows of (num, den) pairs) are N / den, with den in Z[t]
    and N = {(i, j): coordinates in Z[t]} for i < j.  Raises SingularFamily
    when the rows fail to be a basis for generic t."""
    n = a.dim
    if len(rows) != n:
        raise ValueError("basis dimension does not match the algebra")
    s, flat = clear_denominators(f for row in rows for f in row)
    g = [flat[i * n:(i + 1) * n] for i in range(n)]
    d, inv = int_scaled_inverse(g)
    if not d:
        raise SingularFamily("parameterized basis has identically zero determinant")
    mult, table = int_table(a)
    return s * d * mult, int_change_basis(table, n, g, inv)


@dataclass(frozen=True)
class Verdict:
    status: str  # pass | fail | proved | refutation_not_found | refuted
    reason: str = ""
    data: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status in ("pass", "proved")


@dataclass(frozen=True)
class AlgebraRef:
    """Reference to an algebra: catalog name + dim, or an inline table."""

    name: str
    dim: int
    tensor: StructureTensor | None = None  # the inline table, read at load

    def resolve(self) -> StructureTensor:
        if self.tensor is not None:
            return self.tensor
        from .catalog import instantiate

        return instantiate(self.name, self.dim)

    @property
    def label(self) -> str:
        return f"{self.name}@{self.dim}"


@dataclass(frozen=True)
class DegenerationCertificate:
    source: AlgebraRef
    target: AlgebraRef
    basis_rows: tuple
    provenance: str = ""
    proper: bool | None = None  # True: claimed non-trivial (source != target)
    separator: str | None = None  # invariant certifying non-isomorphism
    cert_id: str = ""


def verify_degeneration(cert: DegenerationCertificate) -> Verdict:
    """Exact pass/fail for one parameterized-basis certificate.

    A basis of the wrong length, or a row that does not parse, is a fail
    verdict (naming the row).
    """
    src = cert.source.resolve()
    tgt = cert.target.resolve()
    if src.dim != tgt.dim:
        return Verdict("fail", "source and target dimensions differ")
    n = src.dim
    if len(cert.basis_rows) != n:
        return Verdict("fail", f"expected {n} basis rows, got "
                               f"{len(cert.basis_rows)}")
    rows = []
    for k, text in enumerate(cert.basis_rows, start=1):
        try:
            rows.append(parse_basis_row(text, n))
        except (ValueError, ZeroDivisionError) as exc:
            return Verdict("fail",
                           f"basis row {k} {text!r} does not parse: {exc}")
    try:
        den, constants = apply_parameterized_basis(src, rows)
    except SingularFamily as exc:
        return Verdict("fail", str(exc))
    limits = {key: [limit_at_zero(x, den) for x in vec]
              for key, vec in constants.items()}
    for (i, j), vec in limits.items():
        k = next((k for k, x in enumerate(vec, start=1) if x is None), None)
        if k:
            return Verdict("fail", f"pole at t=0 in constant ({i},{j})^{k}",
                           {"position": (i, j, k)})
    zeros = (0,) * n
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            want = tgt.products.get((i, j), zeros)
            got = limits.get((i, j), zeros)
            k = next((k for k in range(1, n + 1) if want[k - 1] != got[k - 1]), None)
            if k:
                return Verdict("fail", f"limit constant ({i},{j})^{k} is "
                                       f"{got[k - 1]}, target has {want[k - 1]}",
                               {"position": (i, j, k)})
    return Verdict("pass")


# --- closed sets ----------------------------------------------------------


@dataclass(frozen=True)
class ClosedSetSpec:
    """Conditions lambda(V_i, V_j) in V_k over the standard flag.

    Each triple (i, j, k) has 1 <= i, j <= n and 1 <= k <= n + 1, where
    V_{n+1} = 0; such sets are stable under flag-preserving (lower
    triangular) transformations.
    """

    triples: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "triples", tuple(tuple(int(x) for x in t) for t in self.triples)
        )


def closed_set_member(a: StructureTensor, spec: ClosedSetSpec) -> bool:
    n = a.dim
    for (i, j, k) in spec.triples:
        cut = min(k - 1, n)  # k = n+1 forbids every component
        for (p, q), vec in a.products.items():
            hit = (p >= i and q >= j) or (q >= i and p >= j)
            if hit and any(vec[:cut]):
                return False
    return True


def _int_anticommutative(dim: int, rng: random.Random, spread: int = 3):
    """Random integer table {(i, j): vector}; zero vectors are left out."""
    table = {}
    for i in range(1, dim):
        for j in range(i + 1, dim + 1):
            vec = tuple(rng.randint(-spread, spread) for _ in range(dim))
            if any(vec):
                table[(i, j)] = vec
    return table


def _project_table(products, n: int, spec: ClosedSetSpec):
    """The table with the coefficients the flag conditions forbid zeroed."""
    table = {}
    for (p, q), vec in products.items():
        vec = list(vec)
        for (i, j, k) in spec.triples:
            if (p >= i and q >= j) or (q >= i and p >= j):
                cut = n if k == n + 1 else k - 1
                vec[:cut] = [0] * cut
        if any(vec):
            table[(p, q)] = tuple(vec)
    return table


def _int_lower_triangular(dim: int, rng: random.Random):
    """Random integer flag-preserving basis: row i lives in <e_i, ..., e_n>."""
    rows = []
    for i in range(dim):
        row = [0] * dim
        row[i] = rng.choice([x for x in range(-3, 4) if x])
        for k in range(i + 1, dim):
            row[k] = rng.randint(-3, 3)
        rows.append(row)
    return rows


def lower_triangular_invariance_probe(
    spec, dim: int, samples: int = 100, seed: int = 0,
    sampler=None, member=None,
) -> Verdict:
    """Probe closure of a set under flag-preserving basis changes.

    For ClosedSetSpec input the sampler projects random integer structures
    onto the defining linear conditions; a custom (sampler, member) pair
    can probe any candidate set, which the tests use as a negative
    control.  The moved structure is the integer orbit point of s g, so
    `member` must be a cone (invariant under nonzero scaling).
    """
    rng = random.Random(seed)
    if isinstance(spec, ClosedSetSpec):
        sampler = sampler or (lambda r: StructureTensor.from_trusted(
            dim, _project_table(_int_anticommutative(dim, r), dim, spec)))
        member = member or (lambda t: closed_set_member(t, spec))
    for trial in range(samples):
        tensor = sampler(rng)
        if not member(tensor):
            return Verdict(
                "fail", f"sampler produced a non-member at trial {trial}"
            )
        g = _int_lower_triangular(dim, rng)
        _, inv = int_scaled_inverse(g)  # nonzero diagonal: never singular
        if not member(_orbit_point(int_table(tensor)[1], dim, g, inv)):
            return Verdict(
                "fail",
                f"membership lost under a flag-preserving change at trial {trial}",
                {"tensor": tensor.to_json_obj(), "basis": [[str(x) for x in row] for row in g]},
            )
    return Verdict("pass")


# --- the bespoke closed set R of the seven-dimensional analysis -----------

_R_FLAGS = ClosedSetSpec((
    (1, 7, 8),  # lambda(V, V_7) = 0
    (2, 6, 8),  # lambda(V_2, V_6) = 0
    (3, 5, 8),  # lambda(V_3, V_5) = 0
    (1, 4, 7),  # lambda(V, V_4) in V_7
    (2, 3, 6),  # lambda(V_2, V_3) in V_6
    (1, 3, 5),  # lambda(V, V_3) in V_5
    (1, 1, 4),  # lambda(V, V) in V_4
))

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


def ex222_membership(a: StructureTensor) -> bool:
    """Exact membership in the bespoke lower-triangular-stable set R.

    Only defined in dimension 7: flag containments plus seven homogeneous
    quadratic relations between structure constants, so R is a cone.
    """
    if a.dim != 7:
        raise ValueError("the set R lives in dimension 7")
    if not closed_set_member(a, _R_FLAGS):
        return False
    for relation in _R_QUADRATICS:
        acc = 0
        for (m1, m2, sign) in relation:
            acc += sign * a.constant(*m1) * a.constant(*m2)
        if acc != 0:
            return False
    return True


def _orbit_point(table, n: int, g, inv) -> StructureTensor:
    """The orbit point of the basis s g, s = d L, for an `int_table` table
    and (d != 0, inv) = int_scaled_inverse(g): exact for cone membership."""
    return StructureTensor.from_trusted(n, int_change_basis(table, n, g, inv))


def random_invertible(dim: int, rng: random.Random, spread: int = 5):
    """(g, R): random integer rows g, R = d g^-1; singular draws are redrawn."""
    while True:
        rows = [
            [rng.randint(-spread, spread) for _ in range(dim)]
            for _ in range(dim)
        ]
        d, inv = int_scaled_inverse(rows)
        if d:
            return rows, inv


def randomized_orbit_refute(
    b: StructureTensor, member, trials: int, seed: int
) -> Verdict:
    """Sample the orbit of b for members of a closed set.

    refutation_not_found is evidence, never proof, that the orbit misses
    the set; a hit refutes the emptiness claim and returns the basis.
    `member` sees the integer orbit point of s g and must be a cone.
    Raises ValueError when trials < 1: zero samples are no evidence.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = random.Random(seed)
    _, table = int_table(b)
    for trial in range(trials):
        g, inv = random_invertible(b.dim, rng)
        if member(_orbit_point(table, b.dim, g, inv)):
            return Verdict(
                "refuted",
                f"orbit member found in the set at trial {trial}",
                {"basis": [[str(x) for x in row] for row in g]},
            )
    return Verdict(
        "refutation_not_found",
        f"no orbit sample of {trials} landed in the set (falsification only)",
    )


# --- non-degeneration witnesses -------------------------------------------

WITNESS_KINDS = (
    "DimSquare",
    "AnnDim",
    "IWDominance",
    "LieClosure",
    "ClosedSet",
    "BespokeR",
)


@dataclass(frozen=True)
class NonDegenerationWitness:
    kind: str
    source: AlgebraRef
    target: AlgebraRef
    payload: dict = field(default_factory=dict)
    provenance: str = ""
    witness_id: str = ""

    def __post_init__(self):
        if self.kind not in WITNESS_KINDS:
            raise UnknownKind(f"unknown witness kind {self.kind!r}")


def verify_nondegeneration(
    w: NonDegenerationWitness, trials: int = 200, seed: int = 0
) -> Verdict:
    """Tiered verdict for one non-degeneration witness.

    DimSquare / AnnDim / IWDominance / LieClosure are proofs built on
    closed invariants; ClosedSet / BespokeR prove the source side with a
    stored basis and only falsify the target side by orbit sampling.  A
    witness between different dimensions, or a BespokeR witness outside
    dimension 7, is a fail verdict.
    """
    src = w.source.resolve()
    tgt = w.target.resolve()
    if src.dim != tgt.dim:
        return Verdict("fail", "source and target dimensions differ")
    if w.kind == "BespokeR" and src.dim != 7:
        return Verdict("fail", "the set R lives in dimension 7")
    if w.kind == "DimSquare":
        ds, dt = dim_square(src), dim_square(tgt)
        if ds < dt:
            return Verdict("proved", f"dim source^2 = {ds} < {dt} = dim target^2")
        return Verdict("refuted", f"dim source^2 = {ds} >= {dt} = dim target^2")
    if w.kind == "AnnDim":
        ds, dt = annihilator(src).dim, annihilator(tgt).dim
        if ds > dt:
            return Verdict("proved", f"dim Ann(source) = {ds} > {dt} = dim Ann(target)")
        return Verdict("refuted", f"dim Ann(source) = {ds} <= {dt} = dim Ann(target)")
    if w.kind == "LieClosure":
        js = jacobi_holds(src)
        jt = jacobi_holds(tgt)
        if js and not jt:
            return Verdict("proved", "source is Lie, target is not")
        return Verdict("refuted", f"jacobi(source)={js}, jacobi(target)={jt}")
    if w.kind == "IWDominance":
        element = tuple(map(rational_from_obj, w.payload["element"]))
        _, witness_vec = iw_max(src, seed=seed)
        src_seq = rank_sequence(src, witness_vec)
        tgt_seq = rank_sequence(tgt, element)
        if not dominates(src_seq, tgt_seq):
            return Verdict(
                "proved",
                f"IW-max sequence {tuple(src_seq)} does not dominate "
                f"target sequence {tuple(tgt_seq)}",
            )
        return Verdict("refuted", "source IW-max dominates the target element")
    if w.kind in ("ClosedSet", "BespokeR"):
        if trials < 1:
            raise ValueError(f"trials must be >= 1, got {trials}")
        if w.kind == "ClosedSet":
            spec = ClosedSetSpec(tuple(tuple(t) for t in w.payload["triples"]))
            member = lambda t: closed_set_member(t, spec)  # noqa: E731
        else:
            member = ex222_membership
        witness_rows = w.payload.get("source_basis")
        if witness_rows:
            if len(witness_rows) != src.dim:
                raise DimensionMismatch(f"source basis must have {src.dim} rows")
            const_rows = [[limit_at_zero(*x) for x in parse_basis_row(r, src.dim)]
                          for r in witness_rows]
            if any(x is None for row in const_rows for x in row):
                return Verdict("refuted", "stored source basis has a pole at t = 0")
            g = int_scaled(const_rows)[1]
            d, inv = int_scaled_inverse(g)
            if not d:
                return Verdict("refuted", "stored source basis is singular at t = 0")
            moved = _orbit_point(int_table(src)[1], src.dim, g, inv)
        else:
            moved = src
        if not member(moved):
            return Verdict("refuted", "stored source basis does not land in the set")
        verdict = randomized_orbit_refute(tgt, member, trials, seed)
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
    raise UnknownKind(w.kind)
