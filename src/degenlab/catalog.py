"""The named algebra families, their levels, and the T22 classifier.

Every multiplication table is transcribed in the coordinates of its source
table (products land in high-index basis vectors); certificates in the
ledger depend on these exact coordinates, so nothing here renormalizes.

Family keys are plain strings ("T22_e45", "eta3", "T2k2_e23_m4", ...) used
uniformly by the CLI, the ledger files and the manifest.  Parameterized
families carry their parameter inside the key.

`classify_T22` follows the matrix-pair analysis behind the level <= 5
classification of algebras whose dominant one-dimensional contraction has
two Jordan blocks of size two: it rebuilds the algebra as a skew pair on
the quotient modulo the square, and reads the canonical name off the pair
pencil (generic rank plus the divisor of rank-two members).  When the
decisive quadratic has no rational root the classifier reports that a
field extension would be needed instead of guessing.  The pencil is the
s = 2 case of the net of skew forms on A / A^2 (`_skew_net`); its 4 x 4
Pfaffian quadrics (`_pfaffian_quadrics`) also feed the `pfaffian_conic`
separator of the ledger run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .algebra import MAX_DIM, Invariants, StructureTensor, engel_degree
from .exactnum import ZPoly, poly_gcd
from .linalg import Partition, _int_rank, int_scaled, rank


class DimensionOutOfRange(ValueError):
    """Family instantiated outside its dimension bound."""


class NotSkew(ValueError):
    """Skew-pair constructor fed a non-skew-symmetric matrix."""


class NotSurjective(ValueError):
    """Skew pair whose image does not span the two-dimensional target."""


class PreconditionViolated(ValueError):
    """classify_T22 applied to an algebra whose IW-max is not (2,2)."""


class UnknownFamily(KeyError):
    pass


@dataclass(frozen=True)
class CatalogName:
    family: str
    m: int | None = None
    partition: tuple | None = None

    @property
    def key(self) -> str:
        if self.family == "T":
            return "T" + "".join(str(p) for p in self.partition)
        if self.family == "eta":
            return f"eta{self.m}"
        if self.family == "eta_eps_double":
            return f"eta_eps_double{self.m}"
        if self.family.startswith("T2k2_"):
            return f"{self.family}_m{self.m}"
        return self.family

    def __str__(self):
        return self.key


@dataclass(frozen=True)
class LevelValue:
    """An exact level 0..5 or a lower bound 'at least 6/7'."""

    exact: int | None = None
    at_least: int | None = None

    def __str__(self):
        return str(self.exact) if self.exact is not None else f">={self.at_least}"

    def to_json_obj(self):
        return self.exact if self.exact is not None else f">={self.at_least}"

    @staticmethod
    def from_json_obj(obj) -> "LevelValue":
        if isinstance(obj, int):
            return LevelValue(exact=obj)
        return LevelValue(at_least=int(str(obj).lstrip(">=")))


@dataclass(frozen=True)
class LevelInfo:
    level: LevelValue
    infinite_level: LevelValue


# sentinels returned by classify_T22 beside a CatalogName
class _Sentinel:
    def __init__(self, label):
        self.label = label

    def __repr__(self):
        return self.label


LevelAtLeast6 = _Sentinel("LevelAtLeast6")
NeedsExtension = _Sentinel("NeedsExtension")


def _digits(text: str) -> bool:
    return text.isascii() and text.isdigit()


def parse_name(key: str) -> CatalogName:
    """The catalog name a key spells; a family parameter m is ASCII digits
    with no leading zero and m >= 1, else UnknownFamily."""
    key = key.strip()
    if key in ("zero", "n3", "eta_eps15", "T22_e23", "T22_e24", "T22_e34",
               "T22_e45", "T222_e23", "T222_e24", "T222_e7special",
               "T3_e23", "T3_e24", "T3_e34", "T3_e45", "T32_e23", "T4_e23"):
        return CatalogName(key)
    for fam in ("eta_eps_double", "eta", "T2k2_e23_shift", "T2k2_e23",
                "T2k2_special", "T2k2_e2m2"):
        prefix = fam + "_m" if fam.startswith("T2k2") else fam
        if key.startswith(prefix):
            m = key[len(prefix):]
            if not _digits(m) or m[0] == "0":
                raise UnknownFamily(key)
            return CatalogName(fam, m=int(m))
    if key.startswith("T") and _digits(key[1:]):
        return CatalogName("T", partition=tuple(int(ch) for ch in key[1:]))
    raise UnknownFamily(key)


# --- multiplication tables ------------------------------------------------


def _bound(name: CatalogName) -> tuple[int, int | None]:
    """(min_dim, max_dim or None for unbounded)."""
    fam, m, lam = name.family, name.m, name.partition
    if fam == "zero":
        return 1, None
    if fam == "n3":
        return 3, None
    if fam == "eta":
        return 2 * m + 1, None
    if fam == "eta_eps15":
        return 6, None
    if fam == "eta_eps_double":
        return 2 * m + 3, None
    if fam == "T":
        bounds = {
            (3,): (4, None), (2, 2): (5, None), (2, 2, 2): (7, None),
            (4,): (5, None), (3, 2): (6, None), (2, 2, 2, 2): (9, None),
            (3, 3): (7, 7), (3, 2, 2): (8, None), (2, 2, 2, 2, 2): (11, None),
        }
        if lam not in bounds:
            raise UnknownFamily(f"no table for partition T^{lam}")
        return bounds[lam]
    if fam in ("T22_e23", "T22_e24", "T22_e34"):
        return 6, None
    if fam == "T22_e45":
        return 7, None
    if fam in ("T222_e23", "T222_e24"):
        return 7, None
    if fam == "T222_e7special":
        return 7, 7
    if fam.startswith("T2k2_") and m < 3:
        # the all-twos families start at m = 3: below it a table is not
        # nilpotent (T2k2_e23_m1 at n = 3) or not the family its level
        # claims
        raise UnknownFamily(name.key)
    if fam in ("T2k2_e23", "T2k2_special"):
        return 2 * m + 1, None
    if fam == "T2k2_e23_shift":
        return 2 * m + 2, None
    if fam == "T2k2_e2m2":
        return 2 * m + 2, None
    if fam in ("T3_e23", "T3_e24", "T3_e34"):
        return 5, None
    if fam == "T3_e45":
        return 6, None
    if fam == "T32_e23":
        return 6, None
    if fam == "T4_e23":
        return 5, 5
    raise UnknownFamily(name.family)


def _pairs(name: CatalogName, n: int):
    """Nonzero products (i, j, k[, coeff]) of the family at dimension n."""
    fam, m, lam = name.family, name.m, name.partition
    if fam == "zero":
        return []
    if fam == "n3":
        return [(1, 2, n)]
    if fam == "eta":
        return [(2 * i - 1, 2 * i, 2 * m + 1) for i in range(1, m + 1)]
    if fam == "eta_eps15":
        return [(1, 2, 5), (3, 4, 5), (1, 5, n)]
    if fam == "eta_eps_double":
        pairs = [(2 * i - 1, 2 * i, 2 * m + 1) for i in range(1, m + 1)]
        pairs += [(1, 2 * m + 1, n - 1), (2, 2 * m + 1, n)]
        return pairs
    if fam == "T":
        if lam == (3,):
            return [(1, 2, 3), (1, 3, n)]
        if lam == (4,):
            return [(1, 2, 3), (1, 3, 4), (1, 4, n)]
        if lam == (3, 2):
            return [(1, 2, n - 1), (1, 3, 4), (1, 4, n)]
        if lam == (3, 3):
            return [(1, 2, 3), (1, 3, 4), (1, 5, 6), (1, 6, 7)]
        if lam == (3, 2, 2):
            return [(1, 2, n - 2), (1, 3, n - 1), (1, 4, 5), (1, 5, n)]
        k = len(lam)  # all-twos partitions
        return [(1, i + 1, i + n - k) for i in range(1, k + 1)]
    if fam == "T22_e23":
        return [(1, 2, n - 1), (1, 3, n), (2, 3, n - 2)]
    if fam == "T22_e24":
        return [(1, 2, n - 1), (1, 3, n), (2, 4, n)]
    if fam == "T22_e34":
        return [(1, 2, n - 1), (1, 3, n), (3, 4, n)]
    if fam == "T22_e45":
        return [(1, 2, n - 1), (1, 3, n), (4, 5, n)]
    if fam in ("T222_e23", "T222_e24"):
        base = [(1, i + 1, i + n - 3) for i in range(1, 4)]
        base.append((2, 3, n) if fam == "T222_e23" else (2, 4, n))
        return base
    if fam == "T222_e7special":
        return [(1, 2, 5), (1, 3, 6), (1, 4, 7), (2, 3, 4), (2, 6, 7, -1), (3, 5, 7)]
    if fam == "T2k2_e23":
        return [(1, i + 1, i + n - m) for i in range(1, m + 1)] + [(2, 3, n)]
    if fam == "T2k2_e23_shift":
        return [(1, i + 1, i + n - m) for i in range(1, m + 1)] + [(2, 3, n - m)]
    if fam == "T2k2_special":
        base = [(1, i + 1, i + n - m) for i in range(1, m + 1)]
        base += [(2, 3, m + 1), (2, 2 + n - m, n, -1), (3, 1 + n - m, n)]
        return base
    if fam == "T2k2_e2m2":
        return [(1, i + 1, i + n - m) for i in range(1, m + 1)] + [(2, m + 2, n)]
    if fam == "T3_e23":
        return [(1, 2, 3), (1, 3, n), (2, 3, n - 1)]
    if fam == "T3_e24":
        return [(1, 2, 3), (1, 3, n), (2, 4, n)]
    if fam == "T3_e34":
        return [(1, 2, 3), (1, 3, n), (3, 4, n)]
    if fam == "T3_e45":
        return [(1, 2, 3), (1, 3, n), (4, 5, n)]
    if fam == "T32_e23":
        return [(1, 2, n - 1), (1, 3, 4), (1, 4, n), (2, 3, n)]
    if fam == "T4_e23":
        return [(1, 2, 3), (1, 3, 4), (1, 4, 5), (2, 3, 5)]
    raise UnknownFamily(fam)


def instantiate(name, n: int) -> StructureTensor:
    """Exact multiplication table of a catalog family at dimension n;
    DimensionOutOfRange outside the family's bounds or above MAX_DIM."""
    if isinstance(name, str):
        name = parse_name(name)
    lo, hi = _bound(name)
    if n < lo or (hi is not None and n > hi):
        bound = f"n >= {lo}" if hi is None else f"{lo} <= n <= {hi}"
        raise DimensionOutOfRange(f"{name.key} requires {bound}, got n = {n}")
    if n > MAX_DIM:
        raise DimensionOutOfRange(
            f"{name.key}: n = {n} exceeds MAX_DIM = {MAX_DIM}")
    return StructureTensor.from_pairs(n, _pairs(name, n))


def expected_iw_max(name) -> Partition | str:
    """Partition the family name promises for its dominant contraction.

    The zero algebra's label is dimension dependent (all ones); it is
    returned as the string "ones" and resolved per dimension by callers.
    """
    if isinstance(name, str):
        name = parse_name(name)
    fam = name.family
    if fam == "zero":
        return "ones"
    if fam in ("n3", "eta"):
        return Partition((2,))
    if fam == "eta_eps15":
        return Partition((3,))
    if fam == "eta_eps_double":
        # a generic element composes a pair product with both decorations,
        # reaching rank sequence (3, 1); the single-decoration family
        # eta_eps15 stays at (2, 1)
        return Partition((3, 2))
    if fam == "T":
        return Partition(name.partition)
    if fam.startswith("T22_"):
        return Partition((2, 2))
    if fam.startswith("T222_"):
        return Partition((2, 2, 2))
    if fam.startswith("T2k2_"):
        return Partition((2,) * name.m)
    if fam.startswith("T3_"):
        return Partition((3,))
    if fam == "T32_e23":
        return Partition((3, 2))
    if fam == "T4_e23":
        return Partition((4,))
    raise UnknownFamily(fam)


def level_lookup(name, n: int) -> LevelInfo:
    """Level and infinite level of the family member at dimension n."""
    if isinstance(name, str):
        name = parse_name(name)
    lo, hi = _bound(name)
    if n < lo or (hi is not None and n > hi):
        raise DimensionOutOfRange(f"{name.key} not defined at n = {n}")
    fam, m, lam = name.family, name.m, name.partition

    def info(level, infinite=None):
        inf = infinite if infinite is not None else level
        return LevelInfo(LevelValue.from_json_obj(level),
                         LevelValue.from_json_obj(inf))

    if fam == "zero":
        return info(0)
    if fam == "n3":
        return info(1)
    if fam == "eta":
        return info(m)
    if fam == "eta_eps15":
        return info(">=6" if n == 6 else ">=7", ">=7")
    if fam == "eta_eps_double":
        if m == 1:
            return info(4)
        return info(">=7")
    if fam == "T":
        if lam == (3,):
            return info(2 if n == 4 else 3, 3)
        if lam == (4,):
            return info(4 if n == 5 else 5, 5)
        if lam == (3, 3):
            return info(5, ">=6")
        return info({(2, 2): 2, (2, 2, 2): 3, (3, 2): 4, (2, 2, 2, 2): 4,
                     (3, 2, 2): 5, (2, 2, 2, 2, 2): 5}[lam])
    if fam in ("T22_e23", "T22_e24"):
        return info(3)
    if fam == "T22_e34":
        return info(4)
    if fam == "T22_e45":
        return info(5)
    if fam == "T222_e23":
        return info(4)
    if fam == "T222_e24":
        return info(5)
    if fam == "T222_e7special":
        return info(5, ">=7")
    if fam == "T2k2_e23":
        return info({3: 4}.get(m, ">=7" if m == 4 else ">=6"))
    if fam == "T2k2_e23_shift":
        return info(">=7" if m == 4 else ">=6")
    if fam == "T2k2_special":
        if m == 3:
            return info(5, ">=7") if n == 7 else info(">=7")
        return info(">=7" if m == 4 else ">=6")
    if fam == "T2k2_e2m2":
        return info(">=7" if m == 4 else ">=6")
    if fam in ("T3_e23", "T3_e24"):
        return info(4)
    if fam == "T3_e34":
        return info(5)
    if fam == "T3_e45":
        return info(5, ">=6") if n == 6 else info(">=6")
    if fam == "T32_e23":
        return info(5)
    if fam == "T4_e23":
        return info(5, ">=6")
    raise UnknownFamily(fam)


MANIFEST_FAMILIES = (
    ["zero", "n3"]
    + [f"eta{m}" for m in (2, 3, 4, 5)]
    + ["eta_eps15", "eta_eps_double2", "eta_eps_double3"]
    + ["T3", "T22", "T222", "T4", "T32", "T2222", "T33", "T322", "T22222"]
    + ["T22_e23", "T22_e24", "T22_e34", "T22_e45"]
    + ["T222_e23", "T222_e24", "T222_e7special"]
    + ["T2k2_e23_m4", "T2k2_e23_m5"]
    + ["T2k2_e23_shift_m3", "T2k2_e23_shift_m4"]
    + ["T2k2_special_m4", "T2k2_special_m5"]
    + ["T2k2_e2m2_m3", "T2k2_e2m2_m4"]
    + ["T3_e23", "T3_e24", "T3_e34", "T3_e45", "T32_e23", "T4_e23"]
)

DIM_CAP = 11


def tested_dims(name) -> list[int]:
    """Minimal legal dimension and its successor, capped at DIM_CAP."""
    if isinstance(name, str):
        name = parse_name(name)
    lo, hi = _bound(name)
    if name.family == "zero":
        lo = 4  # arbitrary small desk dimension for the trivial family
    dims = [d for d in (lo, lo + 1) if (hi is None or d <= hi) and d <= DIM_CAP]
    return dims


def build_manifest() -> dict:
    """Catalog manifest: bounds, tested dims, levels, expected contraction."""
    entries = []
    for key in MANIFEST_FAMILIES:
        name = parse_name(key)
        lo, hi = _bound(name)
        iw = expected_iw_max(name)
        levels = []
        for n in tested_dims(name):
            li = level_lookup(name, n)
            levels.append(
                {
                    "dim": n,
                    "level": li.level.to_json_obj(),
                    "infinite_level": li.infinite_level.to_json_obj(),
                }
            )
        entries.append(
            {
                "name": key,
                "min_dim": lo,
                "max_dim": hi,
                "tested_dims": tested_dims(name),
                "iw_max": "ones" if isinstance(iw, str) else list(iw),
                "levels": levels,
            }
        )
    return {"families": entries}


# --- skew pairs and the T22 classifier ------------------------------------


def build_skew_pair_algebra(p_entries, q_entries) -> StructureTensor:
    """U x U -> k^2 skew pair as an algebra on U + k^2.

    p_entries/q_entries are (n-2)x(n-2) rational matrices; entry (i, j)
    gives the e_{n-1} / e_n component of e_i e_j.
    """
    p = [[Fraction(x) for x in row] for row in p_entries]
    q = [[Fraction(x) for x in row] for row in q_entries]
    d = len(p)
    if any(len(row) != d for row in p) or len(q) != d or any(len(r) != d for r in q):
        raise ValueError("skew pair matrices must be square and equal-sized")
    for mat, tag in ((p, "first"), (q, "second")):
        for i in range(d):
            if mat[i][i] != 0:
                raise NotSkew(f"{tag} matrix has nonzero diagonal")
            for j in range(i + 1, d):
                if mat[i][j] != -mat[j][i]:
                    raise NotSkew(f"{tag} matrix is not skew-symmetric")
    pairs = [(p[i][j], q[i][j]) for i in range(d) for j in range(i + 1, d)]
    if rank(pairs) != 2:
        raise NotSurjective("pair image does not span the 2-dimensional target")
    n = d + 2
    table = {}
    for i in range(d):
        for j in range(i + 1, d):
            if p[i][j] or q[i][j]:
                vec = [Fraction(0)] * n
                vec[n - 2] = p[i][j]
                vec[n - 1] = q[i][j]
                table[(i + 1, j + 1)] = tuple(vec)
    return StructureTensor(n, table)


def _skew_net(a: StructureTensor, square):
    """The net of skew forms the product induces on A / A^2.

    A d x d matrix of s-vectors, s = dim A^2: entry (i, j) holds the
    coordinates of u_i u_j on the RREF basis of A^2, which are its entries
    at the pivot columns; u_1..u_d are the standard basis vectors off those
    columns, a lift of a basis of A / A^2.  `square` may be any echelon
    basis of A^2, such as the integer rows of `Invariants.power(2)`: only its
    pivot columns are read, and every echelon basis has those of the RREF.
    """
    pivots = [next(i for i, x in enumerate(row) if x) for row in square]
    lift = [i + 1 for i in range(a.dim) if i not in pivots]
    return [[tuple(a.constant(i, j, p + 1) for p in pivots) for j in lift]
            for i in lift]


def _pencil_generic_rank(p_mat, q_mat) -> int:
    """Rank of P + tQ over Q(t), as the largest rank of P + tQ at t = 0..d.

    Exact: if the generic rank is r <= d, some r x r minor is a nonzero
    polynomial in t of degree <= r, which cannot vanish at all d + 1
    points, and no evaluation exceeds the generic rank.  Each evaluation
    is an integer rank after scaling P and Q by their denominator lcm.
    """
    d = len(p_mat)
    _, rows = int_scaled(p_mat + q_mat)
    p_int, q_int = rows[:d], rows[d:]
    best = 0
    for t in range(d + 1):
        best = max(best, _int_rank([[p + t * q for p, q in zip(pr, qr)]
                                    for pr, qr in zip(p_int, q_int)]))
        if best == d:
            break
    return best


def _pfaffian_quadrics(net):
    """(monomials, rows): the 4 x 4 principal Pfaffians of a skew net.

    On w = sum_r y_r net_r the Pfaffian of rows i < j < k < l is
    w_ij w_kl - w_ik w_jl + w_il w_jk, a quadric in y; its row holds the
    coefficients of the monomials y_r y_q, r <= q.  Zero rows are left
    out.  For a pencil (s = 2) a row is the binary form (a, b, c) of
    a x^2 + b xy + c y^2.
    """
    d = len(net)
    s = len(net[0][0]) if net else 0
    monomials = [(r, q) for r in range(s) for q in range(r, s)]

    def sym(u, v):
        return [u[r] * v[q] + u[q] * v[r] if r != q else u[r] * v[r]
                for r, q in monomials]

    rows = []
    for i, j, k, l in combinations(range(d), 4):
        row = [x - y + z for x, y, z in zip(sym(net[i][j], net[k][l]),
                                            sym(net[i][k], net[j][l]),
                                            sym(net[i][l], net[j][k]))]
        if any(row):
            rows.append(row)
    return monomials, rows


def _binary_form_gcd(forms):
    """gcd of homogeneous binary forms, returned as (degree, disc_kind).

    disc_kind for a degree-2 gcd is "double", "split" (two rational roots)
    or "irrational"; degree <= 1 gcds need no kind.
    """
    # split off the y^k content: f = y^dinf * g(x) with g = f(x, 1), each
    # form scaled to Z (a constant factor changes no degree or root kind)
    min_dinf = None
    polys = []
    for form in forms:
        a, b, c = int_scaled([form])[1][0]
        g = ZPoly((c, b, a))  # g(x) = a x^2 + b x + c from f(x, 1)
        if not g:
            continue  # identically zero form (filtered earlier anyway)
        dinf = 3 - len(g.coeffs)
        min_dinf = dinf if min_dinf is None else min(min_dinf, dinf)
        polys.append(g)
    g = polys[0]
    for p in polys[1:]:
        g = poly_gcd(g, p)
        if len(g.coeffs) == 1 and min_dinf == 0:
            break
    total = len(g.coeffs) - 1 + (min_dinf or 0)
    if total < 2:
        return total, None
    # reconstruct the quadratic's root structure
    if min_dinf == 2:
        return 2, "double"  # y^2
    if min_dinf == 1:
        return 2, "split"  # y * (x - r) with r rational, distinct from infinity
    c, b, a = g.coeffs  # total = 2 with min_dinf = 0: g is a quadratic in Z[x]
    disc = b * b - 4 * a * c
    if disc == 0:
        return 2, "double"
    return 2, "split" if (disc > 0 and _is_square(disc)) else "irrational"


def _is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def classify_T22(a: StructureTensor):
    """Canonical name of an algebra with dominant contraction (2,2).

    Returns a CatalogName among T22/T22_e23/T22_e24/T22_e34/T22_e45, or the
    sentinels LevelAtLeast6 / NeedsExtension.  The (2,2) precondition is
    validated exactly: the algebra must be 2-Engel with a two- or
    three-dimensional square annihilated by the whole algebra.
    """
    n = a.dim
    if engel_degree(a, 2) is None:
        raise PreconditionViolated("not 2-Engel, so IW-max is not (2,2)")
    inv = Invariants(a)
    square = inv.power(2)
    s = len(square)
    if inv.power(3):
        raise PreconditionViolated("A * A^2 != 0, so IW-max is not (2,2)")
    if s == 3:
        if inv.ann_dim != n - 3:
            raise PreconditionViolated(
                f"square has dim 3 but Ann has dim {inv.ann_dim} != n-3"
            )
        return CatalogName("T22_e23")
    if s != 2:
        raise PreconditionViolated(f"dim A^2 = {s} is incompatible with (2,2)")
    net = _skew_net(a, square)
    r_gen = _pencil_generic_rank([[w[0] for w in row] for row in net],
                                 [[w[1] for w in row] for row in net])
    if r_gen <= 2:
        return CatalogName("T", partition=(2, 2))
    if r_gen >= 6:
        return LevelAtLeast6
    _, forms = _pfaffian_quadrics(net)
    if not forms:
        # cannot happen with r_gen = 4, kept as a guard
        return LevelAtLeast6
    degree, kind = _binary_form_gcd(forms)
    if degree == 0:
        return LevelAtLeast6
    if degree == 1:
        return CatalogName("T22_e45")
    if kind == "double":
        return CatalogName("T22_e24")
    if kind == "split":
        return CatalogName("T22_e34")
    return NeedsExtension
