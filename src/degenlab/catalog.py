"""The named algebra families, their levels, and the T22 classifier.

Every multiplication table is transcribed in the coordinates of its source
table (products land in high-index basis vectors); certificates in the
ledger depend on these exact coordinates, so nothing here renormalizes.

Family keys are plain strings ("T22_e45", "eta3", "T2k2_e23_m4", ...) used
uniformly by the CLI, the ledger files and the manifest.  Parameterized
families carry their parameter inside the key.  Each family is declared
once, in `_FAMILIES`, under its key less m ("T22", "eta", "T2k2_e23_m"):
its dimension bound, its products, the IW-max partition it promises and
its levels, each a function of the parameter m.  A decorated T-family
reads its base's products and IW-max, so each partition is written once.
A `CatalogName` is that spelling and m; parsing, tables, levels and the
manifest all read the one declaration, and one range check
(`_out_of_range`) serves `instantiate`, `level_lookup` and the ledger
loader, which so give one reason for a dimension out of range.

`classify_T22` follows the matrix-pair analysis behind the level <= 5
classification of algebras whose dominant one-dimensional contraction has
two Jordan blocks of size two: it rebuilds the algebra as a skew pair on
the quotient modulo the square, and reads the canonical name off the pair
pencil: its generic rank, then its rank-two members, the common zeros on
P^1 of its Pfaffian forms.  When the decisive quadratic has no rational
root the classifier reports that a field extension would be needed
instead of guessing.  The pencil is the s = 2 case of the net of skew
forms on A / A^2 (`_skew_net`), read off the tensor's integer table,
which is scaled by the lcm L of its denominators: that scales the net by
L and every Pfaffian quadric by L^2, so no rank and no span moves, and
the classifier reads no Fraction.  The integer echelon rows spanning its
4 x 4 Pfaffian quadrics (`_pfaffian_span`, a sum over pairs of disjoint
nonzero net entries) give both the pencil's rank-two members and the
`pfaffian_conic` separator.  For a pencil they are binary forms, whose
common zeros `_meet` and `_form_roots` read: the package's one reading of
integer binary forms of degree <= 2, which the torus-fixed flag search
of `degeneration` reads too.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import combinations
from math import isqrt
from typing import Callable, NamedTuple

from .algebra import MAX_DIM, StructureTensor, engel_degree
from .linalg import _int_rank, int_echelon


class DimensionOutOfRange(ValueError):
    """Family instantiated outside its dimension bound."""


class PreconditionViolated(ValueError):
    """classify_T22 applied to an algebra whose IW-max is not (2,2)."""


class UnknownFamily(KeyError):
    pass


class CatalogName(NamedTuple):
    spelling: str  # the family's `_FAMILIES` key, less the parameter m
    m: int | None = None

    @property
    def key(self) -> str:
        return self.spelling + ("" if self.m is None else str(self.m))

    def __str__(self):
        return self.key


class LevelValue(NamedTuple):
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


class LevelInfo(NamedTuple):
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


# --- the family declarations -----------------------------------------------


class _Family(NamedTuple):
    """One family: each fact is a function of its parameter m (None for a
    family without one) and, for products and levels, of the dimension n."""

    bound: Callable  # m -> (min_dim, max_dim or None for unbounded)
    pairs: Callable  # (n, m) -> nonzero products (i, j, k[, coeff])
    iw_max: Callable  # m -> the promised IW-max partition, or "ones"
    levels: Callable  # (n, m) -> (level, infinite level), or (both,)
    min_m: int | None = None  # the least parameter; None: no parameter
    first_tested: int | None = None  # least tested dim, if not min_dim


def _const(value):
    """A fact that depends on neither m nor n."""
    return lambda *args: value


def _eta(m):
    """e_{2i-1} e_{2i} = e_{2m+1}, i = 1..m: the products of eta_m."""
    return [(2 * i - 1, 2 * i, 2 * m + 1) for i in range(1, m + 1)]


def _twos(m, n):
    """e_1 e_{i+1} = e_{i+n-m}, i = 1..m: the products of T^(2^m) at n."""
    return [(1, i + 1, i + n - m) for i in range(1, m + 1)]


def _decorated(base, lo, extra, levels):
    """The T-family base with one more product, extra(n), from dimension lo
    on: it promises base's IW-max."""
    return _Family(_const((lo, None)),
                   lambda n, m: _FAMILIES[base].pairs(n, m) + [extra(n)],
                   lambda m: _FAMILIES[base].iw_max(m), levels)


def _past_three(n, m):
    """The level of an all-twos family for m >= 4."""
    return (">=7" if m == 4 else ">=6",)


# the family's key, less the parameter m -> declaration
_FAMILIES = {
    # the trivial family is tested at a small desk dimension
    "zero": _Family(_const((1, None)), _const([]), _const("ones"), _const((0,)),
                    first_tested=4),
    "n3": _Family(_const((3, None)), lambda n, m: [(1, 2, n)], _const((2,)),
                  _const((1,))),
    "eta": _Family(lambda m: (2 * m + 1, None), lambda n, m: _eta(m), _const((2,)),
                   lambda n, m: (m,), min_m=1),
    "eta_eps15": _Family(
        _const((6, None)), lambda n, m: [(1, 2, 5), (3, 4, 5), (1, 5, n)],
        _const((3,)), lambda n, m: (">=6" if n == 6 else ">=7", ">=7")),
    # for m >= 2 a generic element composes a pair product with both
    # decorations, reaching rank sequence (3, 1); with one pair product it
    # stays at (2, 1), as eta_eps15 does
    "eta_eps_double": _Family(
        lambda m: (2 * m + 3, None),
        lambda n, m: _eta(m) + [(1, 2 * m + 1, n - 1), (2, 2 * m + 1, n)],
        lambda m: (3,) if m == 1 else (3, 2),
        lambda n, m: (4,) if m == 1 else (">=7",), min_m=1),
    "T3": _Family(_const((4, None)), lambda n, m: [(1, 2, 3), (1, 3, n)],
                  _const((3,)), lambda n, m: (2 if n == 4 else 3, 3)),
    "T22": _Family(_const((5, None)), lambda n, m: _twos(2, n), _const((2, 2)),
                   _const((2,))),
    "T222": _Family(_const((7, None)), lambda n, m: _twos(3, n), _const((2, 2, 2)),
                    _const((3,))),
    "T4": _Family(_const((5, None)), lambda n, m: [(1, 2, 3), (1, 3, 4), (1, 4, n)],
                  _const((4,)), lambda n, m: (4 if n == 5 else 5, 5)),
    "T32": _Family(_const((6, None)),
                   lambda n, m: [(1, 2, n - 1), (1, 3, 4), (1, 4, n)],
                   _const((3, 2)), _const((4,))),
    "T2222": _Family(_const((9, None)), lambda n, m: _twos(4, n),
                     _const((2, 2, 2, 2)), _const((4,))),
    "T33": _Family(_const((7, 7)),
                   _const([(1, 2, 3), (1, 3, 4), (1, 5, 6), (1, 6, 7)]),
                   _const((3, 3)), _const((5, ">=6"))),
    "T322": _Family(
        _const((8, None)),
        lambda n, m: [(1, 2, n - 2), (1, 3, n - 1), (1, 4, 5), (1, 5, n)],
        _const((3, 2, 2)), _const((5,))),
    "T22222": _Family(_const((11, None)), lambda n, m: _twos(5, n),
                      _const((2, 2, 2, 2, 2)), _const((5,))),
    "T22_e23": _decorated("T22", 6, lambda n: (2, 3, n - 2), _const((3,))),
    "T22_e24": _decorated("T22", 6, lambda n: (2, 4, n), _const((3,))),
    "T22_e34": _decorated("T22", 6, lambda n: (3, 4, n), _const((4,))),
    "T22_e45": _decorated("T22", 7, lambda n: (4, 5, n), _const((5,))),
    "T222_e23": _decorated("T222", 7, lambda n: (2, 3, n), _const((4,))),
    "T222_e24": _decorated("T222", 7, lambda n: (2, 4, n), _const((5,))),
    "T222_e7special": _Family(
        _const((7, 7)),
        _const([(1, 2, 5), (1, 3, 6), (1, 4, 7), (2, 3, 4), (2, 6, 7, -1), (3, 5, 7)]),
        _const((2, 2, 2)), _const((5, ">=7"))),
    # the all-twos families start at m = 3: below it a table is not
    # nilpotent (T2k2_e23_m1 at n = 3) or not the family its level claims
    "T2k2_e23_m": _Family(
        lambda m: (2 * m + 1, None),
        lambda n, m: _twos(m, n) + [(2, 3, n)], lambda m: (2,) * m,
        lambda n, m: (4,) if m == 3 else _past_three(n, m), min_m=3),
    "T2k2_e23_shift_m": _Family(
        lambda m: (2 * m + 2, None),
        lambda n, m: _twos(m, n) + [(2, 3, n - m)], lambda m: (2,) * m,
        _past_three, min_m=3),
    "T2k2_special_m": _Family(
        lambda m: (2 * m + 1, None),
        lambda n, m: _twos(m, n) + [(2, 3, m + 1), (2, 2 + n - m, n, -1),
                                    (3, 1 + n - m, n)],
        lambda m: (2,) * m,
        lambda n, m: (((5, ">=7") if n == 7 else (">=7",)) if m == 3
                      else _past_three(n, m)), min_m=3),
    "T2k2_e2m2_m": _Family(
        lambda m: (2 * m + 2, None),
        lambda n, m: _twos(m, n) + [(2, m + 2, n)], lambda m: (2,) * m,
        _past_three, min_m=3),
    "T3_e23": _decorated("T3", 5, lambda n: (2, 3, n - 1), _const((4,))),
    "T3_e24": _decorated("T3", 5, lambda n: (2, 4, n), _const((4,))),
    "T3_e34": _decorated("T3", 5, lambda n: (3, 4, n), _const((5,))),
    "T3_e45": _decorated("T3", 6, lambda n: (4, 5, n),
                         lambda n, m: (5, ">=6") if n == 6 else (">=6",)),
    "T32_e23": _decorated("T32", 6, lambda n: (2, 3, n), _const((5,))),
    "T4_e23": _Family(
        _const((5, 5)), _const([(1, 2, 3), (1, 3, 4), (1, 4, 5), (2, 3, 5)]),
        _const((4,)), _const((5, ">=6"))),
}


def _admits(fam: _Family, m) -> bool:
    """The parameter rule: m is absent exactly when the family has none,
    and otherwise an int of at least the family's least m."""
    if fam.min_m is None:
        return m is None
    return isinstance(m, int) and m >= fam.min_m


def _family(name: CatalogName) -> _Family:
    """The declaration of name's family; UnknownFamily if there is none or
    the family does not admit name's parameter."""
    fam = _FAMILIES.get(name.spelling)
    if fam is None or not _admits(fam, name.m):
        raise UnknownFamily(name.spelling)
    return fam


@lru_cache(maxsize=None)  # the name is immutable; a raise is not kept
def parse_name(key: str) -> CatalogName:
    """The catalog name a key spells exactly: a declared spelling followed,
    for a parameterized family, by m in ASCII digits with no leading zero;
    else UnknownFamily.  A padded or respelled key names no family, so one
    table has one label.  Memoized: a ledger names each label many times
    (its references, checks and levels), and an unknown key raises
    UnknownFamily at every call."""
    stem = key.rstrip("0123456789")
    for spelling, m in ((key, ""), (stem, key[len(stem):])):
        if spelling in _FAMILIES:
            name = CatalogName(spelling, int(m) if m else None)
            if _admits(_FAMILIES[spelling], name.m) and name.key == key:
                return name
    raise UnknownFamily(key)


def _as_name(name) -> CatalogName:
    return parse_name(name) if isinstance(name, str) else name


# --- multiplication tables ------------------------------------------------


def _bound(name: CatalogName) -> tuple[int, int | None]:
    """(min_dim, max_dim or None for unbounded)."""
    return _family(name).bound(name.m)


def _pairs(name: CatalogName, n: int):
    """Nonzero products (i, j, k[, coeff]) of the family at dimension n."""
    return _family(name).pairs(n, name.m)


def _out_of_range(name: CatalogName, n: int) -> str | None:
    """Why the family has no member at dimension n (n outside its bound, or
    above MAX_DIM), or None; UnknownFamily for an undeclared family.  The
    one range check of `instantiate`, `level_lookup` and the ledger."""
    lo, hi = _bound(name)
    if n < lo or (hi is not None and n > hi):
        bound = f"n >= {lo}" if hi is None else f"{lo} <= n <= {hi}"
        return f"{name.key} requires {bound}, got n = {n}"
    if n > MAX_DIM:
        return f"{name.key}: n = {n} exceeds MAX_DIM = {MAX_DIM}"
    return None


def instantiate(name, n: int) -> StructureTensor:
    """Exact multiplication table of a catalog family at dimension n;
    DimensionOutOfRange outside the family's bounds or above MAX_DIM."""
    name = _as_name(name)
    undefined = _out_of_range(name, n)
    if undefined:
        raise DimensionOutOfRange(undefined)
    return StructureTensor.from_pairs(n, _pairs(name, n))


def expected_iw_max(name) -> tuple | str:
    """The partition, an int tuple, that the family name promises for its
    dominant contraction.

    The zero algebra's label is dimension dependent (all ones); it is
    returned as the string "ones" and resolved per dimension by callers.
    """
    name = _as_name(name)
    return _family(name).iw_max(name.m)


def level_lookup(name, n: int) -> LevelInfo:
    """Level and infinite level of the family member at dimension n;
    DimensionOutOfRange, as `instantiate`, outside its bound."""
    name = _as_name(name)
    undefined = _out_of_range(name, n)
    if undefined:
        raise DimensionOutOfRange(undefined)
    levels = _family(name).levels(n, name.m)
    return LevelInfo(LevelValue.from_json_obj(levels[0]),
                     LevelValue.from_json_obj(levels[-1]))


def level_forbids(source: LevelValue, target: LevelValue) -> bool:
    """Whether levels rule out a proper degeneration source -> target: one
    strictly lowers the level, so a source of exact level L cannot reach a
    target whose exact level or lower bound is L or more."""
    floor = target.exact if target.exact is not None else target.at_least
    return source.exact is not None and floor >= source.exact


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
    """The family's least tested dimension (its minimal legal one, unless
    it declares another) and its successor, capped at DIM_CAP."""
    name = _as_name(name)
    lo, hi = _bound(name)
    lo = _family(name).first_tested or lo
    return [d for d in (lo, lo + 1) if (hi is None or d <= hi) and d <= DIM_CAP]


def build_manifest() -> dict:
    """Catalog manifest: bounds, tested dims, levels, expected contraction."""
    entries = []
    for key in MANIFEST_FAMILIES:
        name = parse_name(key)
        (lo, hi), iw, dims = _bound(name), expected_iw_max(name), tested_dims(name)
        levels = [(n, level_lookup(name, n)) for n in dims]
        entries.append({
            "name": key, "min_dim": lo, "max_dim": hi, "tested_dims": dims,
            "iw_max": "ones" if isinstance(iw, str) else list(iw),
            "levels": [{"dim": n, "level": li.level.to_json_obj(),
                        "infinite_level": li.infinite_level.to_json_obj()}
                       for n, li in levels],
        })
    return {"families": entries}


# --- the skew net and the T22 classifier ----------------------------------


def _skew_net(a: StructureTensor, square):
    """The net of skew forms the product induces on A / A^2, scaled by L.

    A d x d matrix of s-vectors, s = dim A^2: entry (i, j) holds L times
    the coordinates of u_i u_j on the RREF basis of A^2, which are the
    entries of the integer table `a.table` at the pivot columns; u_1..u_d
    are the standard basis vectors off those columns, a lift of a basis
    of A / A^2.  `square` may be any echelon basis of A^2, such as the
    tensor's integer rows `a.power(2)`: only its pivot columns are read,
    and every echelon basis has those of the RREF.
    """
    pivots = [next(i for i, x in enumerate(row) if x) for row in square]
    # column of u_r -> r
    lift = {c: r for r, c in enumerate(i for i in range(a.dim) if i not in pivots)}
    zero = (0,) * len(pivots)
    net = [[zero] * len(lift) for _ in lift]
    for i, j, entries in a.table:
        if i in lift and j in lift:
            coeffs = dict(entries)
            w = tuple(coeffs.get(p, 0) for p in pivots)
            net[lift[i]][lift[j]], net[lift[j]][lift[i]] = w, tuple(-x for x in w)
    return net


def _pencil_generic_rank(p_mat, q_mat) -> int:
    """Rank of P + tQ over Q(t), as the largest rank of P + tQ at t = 0..d,
    for integer matrices P and Q.

    Exact: if the generic rank is r <= d, some r x r minor is a nonzero
    polynomial in t of degree <= r, which cannot vanish at all d + 1
    points, and no evaluation exceeds the generic rank.
    """
    d = len(p_mat)
    best = 0
    for t in range(d + 1):
        best = max(best, _int_rank([[p + t * q for p, q in zip(pr, qr)]
                                    for pr, qr in zip(p_mat, q_mat)]))
        if best == d:
            break
    return best


def _pfaffian_span(net):
    """(monomials, rows): the `int_echelon` rows spanning the 4 x 4
    principal Pfaffians of an integer skew net, the one reading of its
    quadrics.

    On w = sum_r y_r net_r the Pfaffian of rows a < b < c < d is
    w_ab w_cd - w_ac w_bd + w_ad w_bc, a quadric in y; a row holds the
    coefficients of the monomials y_r y_q, r <= q, so len(rows) is the
    dimension of the span.  For a pencil (s = 2) a row is the binary form
    (a, b, c) of a x^2 + b xy + c y^2.  Only pairs of disjoint nonzero
    entries w_ij, w_kl (i < j, k < l, (i, j) before (k, l)) add a term:
    then a = i, and the term's sign is - iff i's partner j is c, that is
    k < j < l.  The rows come in `combinations` order of their 4-sets;
    a 4-set with no term has a zero row, which spans nothing.
    """
    d = len(net)
    s = len(net[0][0]) if net else 0
    monomials = [(r, q) for r in range(s) for q in range(r, s)]
    entries = [(i, j, net[i][j]) for i, j in combinations(range(d), 2)
               if any(net[i][j])]
    rows = {}
    for (i, j, u), (k, l, v) in combinations(entries, 2):
        if i != k and j != k and j != l:  # disjoint: i <= k < l, i < j
            row = rows.setdefault(tuple(sorted((i, j, k, l))), [0] * len(monomials))
            sign = -1 if k < j < l else 1
            for m, (r, q) in enumerate(monomials):
                row[m] += sign * (u[r] * v[q] + u[q] * v[r] if r != q else u[r] * v[r])
    return monomials, int_echelon([rows[quad] for quad in sorted(rows)])


def _form_roots(form):
    """The zeros in P^1 of a nonzero binary form, its coefficients of
    x^d, x^(d-1) y, ..., y^d (d = 1, 2), as integer points (x, y); None for
    a quadratic with no rational zero (irreducible over Q).  A double zero
    is listed twice, as two multiples of one point."""
    if len(form) == 2:
        return [(form[1], -form[0])]
    r, s, t = form
    if not r:  # y (s x + t y)
        return [(1, 0), (t, -s)]
    disc = s * s - 4 * r * t
    root = isqrt(max(disc, 0))
    return [(root - s, 2 * r), (-root - s, 2 * r)] if root * root == disc else None


def _meet(line, form):
    """The points of the line set `line` at which the binary form `form`
    (a tuple or a list, such as an `int_echelon` row) vanishes, the one
    reading of integer binary forms of degree <= 2.  A line set is None
    (all of P^1), a list of integer points, or an irreducible quadratic
    kept as its form, always a tuple: it shares no zero with a form that
    has rational zeros, and both zeros with a multiple of it."""
    if not any(form):
        return line
    if isinstance(line, list):
        d = len(form) - 1
        return [(x, y) for x, y in line
                if not sum(f * x ** (d - i) * y ** i for i, f in enumerate(form))]
    roots = _form_roots(form)
    if line is None:
        return tuple(form) if roots is None else roots
    if roots is None and not any(p * s - q * r for (p, q), (r, s)
                                 in combinations(zip(line, form), 2)):
        return line
    return []


def pfaffian_conic_profile(a: StructureTensor):
    """(span dim, quadric rank) of the degree-2 Pfaffian ideal piece.

    Defined for algebras with A * A^2 = 0: the products induce a net of
    skew forms on A/A^2 indexed by a basis of A^2; the rank-two locus of
    the net is cut out by the 4x4 principal Pfaffians, homogeneous
    quadrics whose span (and, when it is a single quadric, its rank) is a
    GL-invariant.
    """
    square = a.power(2)
    s = len(square)
    if s == 0 or a.power(3):
        return None
    monomials, span = _pfaffian_span(_skew_net(a, square))
    if len(span) != 1:
        return (len(span), None)
    # a quadric's rank does not depend on scale; twice its symmetric
    # matrix: c y_r y_q, r < q, puts c at (r, q) and (q, r); c y_r^2 puts
    # 2c at (r, r)
    sym = [[0] * s for _ in range(s)]
    for (r, q), c in zip(monomials, span[0]):
        sym[r][q] = sym[q][r] = 2 * c if r == q else c
    return (1, _int_rank(sym))


def classify_T22(a: StructureTensor):
    """Canonical name of an algebra with dominant contraction (2,2).

    Returns a CatalogName among T22/T22_e23/T22_e24/T22_e34/T22_e45, or the
    sentinels LevelAtLeast6 / NeedsExtension.  The (2,2) precondition is
    validated exactly: the algebra must be 2-Engel with a two- or
    three-dimensional square annihilated by the whole algebra, read off
    the powers and annihilator the tensor holds.  A * A^2 = 0 puts every
    x(xy) in A * A^2 = 0, so it makes the algebra 2-Engel; the Engel
    degree is read only to say why a table with A * A^2 != 0 is refused.
    """
    n = a.dim
    if a.power(3):
        if engel_degree(a, 2) is None:
            raise PreconditionViolated("not 2-Engel, so IW-max is not (2,2)")
        raise PreconditionViolated("A * A^2 != 0, so IW-max is not (2,2)")
    square = a.power(2)
    s = len(square)
    if s == 3:
        if a.ann_dim != n - 3:
            raise PreconditionViolated(
                f"square has dim 3 but Ann has dim {a.ann_dim} != n-3"
            )
        return CatalogName("T22_e23")
    if s != 2:
        raise PreconditionViolated(f"dim A^2 = {s} is incompatible with (2,2)")
    net = _skew_net(a, square)
    r_gen = _pencil_generic_rank([[w[0] for w in row] for row in net],
                                 [[w[1] for w in row] for row in net])
    if r_gen <= 2:
        return CatalogName("T22")
    if r_gen >= 6:
        return LevelAtLeast6
    # the rank-two members are the common zeros of the Pfaffian forms: two
    # independent forms share at most one, a lone form has its own two
    span = _pfaffian_span(net)[1]
    if len(span) != 1:
        return CatalogName("T22_e45") if span and reduce(_meet, span, None) else LevelAtLeast6
    roots = _form_roots(span[0])
    if roots is None:
        return NeedsExtension
    (x, y), (u, v) = roots
    return CatalogName("T22_e24" if x * v == y * u else "T22_e34")
