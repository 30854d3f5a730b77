"""Anticommutative algebras given by exact structure constants.

A StructureTensor stores only the products e_i e_j with i < j as coordinate
vectors; e_j e_i = -(e_i e_j) and e_i e_i = 0 hold by construction, never by
validation.  All the closed invariants used by the degeneration machinery
live here: the power ideals A^i, the annihilator, the Jacobi/Malcev
identity flags, and the Engel degree.

The Engel decision is exact: over a field of characteristic zero,
(L_a)^m = 0 for every a iff the matrix (sum_i x_i L_{e_i})^m vanishes
identically as a polynomial matrix, that is iff each of its integer
coefficient matrices S_alpha (|alpha| = m) is zero.  `engel_degree`
builds them degree by degree (S_alpha = sum L_{e_i} S_{alpha - e_i} over
i in supp alpha), keeping only the nonzero ones, instead of sampling.

Matrices are lists of rows.  A StructureTensor is the one algebra object,
and it keeps what it computes.  It has one form, its table scaled by the
lcm L of its denominators (`mult` and `table`), and one constructor,
`StructureTensor(dim, mult, table)`, which takes that form as it is.
Outside input enters through `from_pairs` and `from_json_obj`, which
check it and scale it.  Every closed invariant, and every check of a
ledger run, runs over Z on the table.  The table's rows (i, j, ((k, coeff),
...)), 0-based with zero entries and rows dropped, are the one integer
product format: `int_change_basis` writes them for a basis change, an
orbit point and the certificate check alike.  It owns the basis change's
inverse: it takes (d, R = d g^-1) from `linalg.int_scaled_inverse` and
returns d with the rows, or (0, None) for a singular basis.  Fraction
appears only in output: `products`, a view made from the table at each
read (for `to_json_obj` and `repr`), `product`'s result and the rows of
`left_mult_matrix`.  Above this module it remains only in IWDominance
elements (`degeneration`), rationals read from outside.
`power_ideal` and `annihilator` return integer echelon rows: the tensor's
`power(i)`, and the `linalg.kernel_basis` of the integer conditions
x e_j = 0 that a product reaches, handed over as they stand.
`StructureTensor.from_json_obj` is the one reader of the JSON table
format.  The power chain (A^i, the nilpotency index, the centralizer of
A^2) is exact because scaling the table or a spanning set by a nonzero
integer changes no Q-span: A^2 is spanned by the table's own products
e_i e_j, i < j, and A^{i+1} by the integer products e_j w for w in the
integer echelon rows of A^i (`linalg.int_echelon`).  The tensor's
`powers` are the identity and the `linalg.int_image_chain` of the
table's products under w -> the products e_j w, and
`_int_left_products` (the products e_j w, the rows of -L_w^T) is the one
place where L_w is built.
dim {x : x A^i = 0} is n minus the rank of the conditions x w = 0 on x
over the echelon rows w of A^i, built in one pass over the table's
nonzero products (`_int_conditions`): one condition for each (w, k) that
a product reaches, so the identity's one-entry rows make dim Ann cost
what the table's nonzero entries cost.  `annihilator` hands the same
conditions at i = 1 to `kernel_basis` in their (j, k) order; the zero
conditions left out are zero columns of its [M^T | I], which change none
of its rows.  `weight_spaces` reads the weights of the diagonal torus off
the same table, one incidence row e_i + e_j - e_k per nonzero c_ij^k.
`int_change_basis` forms each g_i g_j from the column supports of the
basis: a table entry e_a e_b reaches only the rows nonzero at a and at b.
The identity checks (Jacobi, Malcev, Engel) are homogeneous in the
structure constants: scaling them by L multiplies the Jacobi defect by
L^2, the Malcev defect by L^3 and (sum_i x_i L_{e_i})^m by L^m, so every
zero test, and the least m, is the same as over Q.  A basis change
divides its integer constants once, by their gcd with the total scale.

The three identity checks run on ints packed with base-2^B digits.  The
Engel degree packs each row of S_alpha; the Jacobi and Malcev checks
pack y and z (`_packed_pair`), so a few products per x give the defect
at every basis pair (y, z), one digit each, because the defect is
bilinear in (y, z).  The packed tests are exact because B is proved to
keep every digit strictly inside +-2^(B-1): one rule, `_digit_bits`,
gives B from the table's largest row sum s and a digit's bound
terms * s^degree, (1, m) for the Engel degree m, (3, 2) for Jacobi and
(4, 3) for Malcev.  A packed value is then 0 iff its digits are.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from .exactnum import rational_pair_from_obj, rational_to_obj
from .linalg import (
    Singular,
    _int_rank,
    _span_rows,
    int_image_chain,
    int_reduce,
    int_scaled,
    int_scaled_inverse,
    kernel_basis,
)


# The largest dimension a table may have, checked before anything is built
# wherever a dimension comes from outside the program (a JSON table, a
# catalog instantiation, a ledger reference).  Tables are dense, so a
# dimension n costs about n^3 integers; the paper's algebras stop at 11.
MAX_DIM = 64


class DimensionMismatch(ValueError):
    """Vector or basis size does not match the algebra dimension."""


class TableFormatError(ValueError):
    """An algebra table in JSON form does not parse."""


class StructureTensor:
    """Anticommutative multiplication table on QQ^n, keyed by pairs i < j,
    and its closed invariants, each computed when first read, at most once.

    `StructureTensor(dim, mult, table)` is the one constructor: it takes
    the integer table, `mult` and rows (i, j, ((k, coeff), ...)), 0-based
    with zero entries and rows dropped, and that is the tensor's one form.
    `from_pairs` and `from_json_obj` read outside input into reduced
    (num, den) pairs for `_scaled_table` and hand it its result;
    `change_basis` and the orbit points of `degeneration` hand it integer
    rows.  `products`, the Fraction(x, mult) of the table's entries, is an
    output view made at each read.

    Immutable: nothing writes `dim` or the table after construction, so a
    cached invariant stays true.  `__eq__` and `__hash__` read only `dim`,
    `mult` and the table in key order, the one integer form of a rational
    table (the pairs are reduced, so the lcm of the denominators is the
    same for equal tables).
    """

    # powers: the integer echelon rows of A^1, A^2, ...: the identity, then
    # the image chain of the table's products, filled whole when first read
    __slots__ = ("dim", "mult", "table", "powers", "_centralizers")

    def __init__(self, dim: int, mult: int, table):
        """Store the table as given, which must be in its canonical form:
        mult > 0 and gcd(mult, every entry) = 1, each key i < j at most
        once, each row's entries in ascending k, no zero entry and no row
        without entries.  `__eq__` and `__hash__` are right only on that
        form.  Integers in any other form, or Fractions, enter through
        `from_pairs` or `from_json_obj`, which reduce them to it."""
        self.dim, self.mult, self.table = dim, mult, table
        self._centralizers = {}

    @staticmethod
    def from_pairs(dim: int, pairs) -> "StructureTensor":
        """Build from entries (i, j, k) or (i, j, k, coeff): e_i e_j = coeff*e_k,
        the coefficients of a pair summed; a coefficient that is not an int
        is read as Fraction(coeff).  Raises ValueError for dim < 1, a key
        outside 1 <= i < j <= dim or an index k outside 1..dim."""
        if dim < 1:
            raise ValueError("dimension must be positive")
        rows = {}
        for entry in pairs:
            if len(entry) == 3:
                i, j, k = entry
                coeff = 1
            else:
                i, j, k, coeff = entry
            if not 1 <= i < j <= dim:
                raise ValueError(f"product key ({i},{j}) is not 1 <= i < j <= n")
            if not 1 <= k <= dim:
                raise ValueError(f"product index {k} is not 1 <= k <= {dim}")
            vec = rows.setdefault((i, j), [0] * dim)
            vec[k - 1] += coeff if type(coeff) is int else Fraction(coeff)
        return StructureTensor(dim, *_scaled_table({
            key: [(x.numerator, x.denominator) for x in vec]
            for key, vec in rows.items()}))

    def __getattr__(self, name):
        # reached when normal lookup fails: fill the empty `powers` slot
        if name != "powers":
            raise AttributeError(name)
        table, n = self.table, self.dim
        self.powers = [_int_identity(n), *int_image_chain(
            n, [_int_dense(entries, n) for _, _, entries in table],
            lambda w: _int_left_products(table, n, w))]
        return self.powers

    @property
    def products(self):
        """{(i, j): the n Fractions of e_i e_j}, 1-based, in the table's
        key order: the table over mult, an output view made at each read."""
        n, mult, products = self.dim, self.mult, {}
        for i, j, entries in self.table:
            vec = [Fraction(0)] * n
            for k, v in entries:
                vec[k] = Fraction(v, mult)
            products[(i + 1, j + 1)] = tuple(vec)
        return products

    def power(self, i: int):
        """Integer echelon rows of A^i (i >= 1), with A^1 the whole space
        and A^i = A(A^{i-1}) + (A^{i-1})A (anticommutativity makes the
        two summands equal); a power past the chain's end equals the last
        one `powers` holds (0, or the stalled power)."""
        if i < 1:
            raise ValueError("power index must be >= 1")
        powers = self.powers
        return powers[min(i, len(powers)) - 1]

    def centralizer_dim(self, i: int) -> int:
        """dim {x : x A^i = 0}: n minus the rank of the conditions x w = 0
        over the echelon rows w of A^i that a product reaches
        (`_int_conditions`), ranked as their transpose, n rows with one
        column per condition; at i = 1 this is dim Ann(A), read from the
        identity's one-entry supports without walking the chain."""
        if i not in self._centralizers:
            n = self.dim
            supports = (_unit_supports(n) if i == 1
                        else _int_supports(self.power(i), n))
            self._centralizers[i] = n - _int_rank(
                zip(*_int_conditions(self.table, n, supports).values()))
        return self._centralizers[i]

    @property
    def dim_square(self) -> int:
        return len(self.power(2))

    @property
    def ann_dim(self) -> int:
        return self.centralizer_dim(1)

    @property
    def nilindex(self):
        """Least m with A^m = 0, or None when the chain stalls above 0."""
        powers = self.powers
        return None if powers[-1] else len(powers)

    def __eq__(self, other):
        return (
            isinstance(other, StructureTensor)
            and self.dim == other.dim
            and self.mult == other.mult
            and sorted(self.table) == sorted(other.table)
        )

    def __hash__(self):
        return hash((self.dim, self.mult, tuple(sorted(self.table))))

    def __repr__(self):
        terms = []
        for (i, j), vec in sorted(self.products.items()):
            parts = []
            for k, c in enumerate(vec, start=1):
                if c == 0:
                    continue
                head = f"e{k}" if abs(c) == 1 else f"{abs(c)}*e{k}"
                parts.append(("-" if c < 0 else "+") + head)
            rhs = "".join(parts).lstrip("+")
            terms.append(f"e{i}e{j}={rhs}")
        body = ", ".join(terms) if terms else "zero multiplication"
        return f"StructureTensor(dim={self.dim}: {body})"

    def to_json_obj(self):
        prods = []
        for (i, j), vec in sorted(self.products.items()):
            prods.append({"i": i, "j": j, "value": [rational_to_obj(x) for x in vec]})
        return {"dim": self.dim, "products": prods}

    @staticmethod
    def from_json_obj(obj) -> "StructureTensor":
        """Read the object `to_json_obj` writes, else raise TableFormatError:
        a positive int dim of at most MAX_DIM and a list of products, each
        with int keys 1 <= i < j <= dim given once and a value of dim
        rationals (ints or "p/q" strings, never inexact floats), each read
        straight into a reduced int pair by `rational_pair_from_obj`.
        """
        dim = obj.get("dim") if isinstance(obj, dict) else None
        if type(dim) is not int or dim < 1:
            raise TableFormatError("an algebra table is an object with a "
                                   "positive integer dim")
        if dim > MAX_DIM:
            raise TableFormatError(f"dim {dim} exceeds MAX_DIM = {MAX_DIM}")
        records, rows = obj.get("products", []), {}
        try:
            if not isinstance(records, list):
                raise TypeError("products is not a list")
            for rec in records:
                i, j, value = rec["i"], rec["j"], rec["value"]
                if not (type(i) is type(j) is int and 1 <= i < j <= dim):
                    raise ValueError(f"key ({i},{j}) is not 1 <= i < j <= {dim}")
                if not isinstance(value, list) or len(value) != dim:
                    raise ValueError(f"value of ({i},{j}) is not {dim} entries")
                if (i, j) in rows:
                    raise ValueError(f"key ({i},{j}) is given twice")
                rows[(i, j)] = list(map(rational_pair_from_obj, value))
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise TableFormatError(f"bad products entry: {exc}") from None
        return StructureTensor(dim, *_scaled_table(rows))


def _scaled_table(rows):
    """(L, table) of rows {(i, j): [(num, den), ...]}, each pair reduced
    with den > 0: the rows scaled by the lcm L of their denominators, as
    (i, j, ((k, coeff), ...)) with 0-based indices and integer coeffs,
    all-zero rows dropped, in the rows' key order."""
    mult = lcm(*(den for vec in rows.values() for _, den in vec))
    table = []
    for (i, j), vec in rows.items():
        entries = tuple((k, num * (mult // den))
                        for k, (num, den) in enumerate(vec) if num)
        if entries:
            table.append((i - 1, j - 1, entries))
    return mult, table


def _int_product(table, n: int, x, y):
    """x y over Z for a tensor's table and integer vectors x, y."""
    out = [0] * n
    for i, j, entries in table:
        c = x[i] * y[j] - x[j] * y[i]
        if c:
            for k, v in entries:
                out[k] += c * v
    return out


def _int_left_products(table, n: int, w):
    """[e_1 w, ..., e_n w] over Z, in one pass over a tensor's table."""
    out = [[0] * n for _ in range(n)]
    for i, j, entries in table:
        # e_i e_j = entries = -(e_j e_i)
        if w[j]:
            row, c = out[i], w[j]
            for k, v in entries:
                row[k] += c * v
        if w[i]:
            row, c = out[j], w[i]
            for k, v in entries:
                row[k] -= c * v
    return out


def _int_identity(n: int):
    return [[int(r == c) for c in range(n)] for r in range(n)]


def _int_supports(rows, n: int):
    """[(r, x), ...] for each column c: the rows r with x = rows[r][c] != 0."""
    supports = [[] for _ in range(n)]
    for r, row in enumerate(rows):
        for c, x in enumerate(row):
            if x:
                supports[c].append((r, x))
    return supports


def _unit_supports(n: int):
    """The `_int_supports` of the identity rows: one entry per column."""
    return [[(c, 1)] for c in range(n)]


def _int_conditions(table, n: int, supports):
    """{w n + k: row}: the conditions (x w)_k = 0 on x that a product
    reaches, keyed in (w, k) order, for the rows w whose `_int_supports`
    are `supports`, built in one pass over a tensor's table.

    Entry r of condition (w, k) is (e_r w)_k = sum_c w_c (e_r e_c)_k, so a
    table entry e_i e_j = sum_k v e_k adds w_j v at r = i and, through
    e_j e_i = -(e_i e_j), -w_i v at r = j, for each w nonzero at j or i.
    Every other condition is 0 = 0.
    """
    conds = {}
    for i, j, entries in table:
        for r, c, sign in ((i, j, 1), (j, i, -1)):
            for w, x in supports[c]:
                x, key = sign * x, w * n
                for k, v in entries:
                    row = conds.get(key + k)
                    if row is None:
                        row = conds[key + k] = [0] * n
                    row[r] += x * v
    return conds


def _int_dense(entries, n: int):
    """The length-n integer vector of a table entry's (k, coeff) pairs."""
    row = [0] * n
    for k, v in entries:
        row[k] = v
    return row


def product(a: StructureTensor, x, y):
    """Bilinear extension of the table to arbitrary vectors."""
    n = a.dim
    if len(x) != n or len(y) != n:
        raise DimensionMismatch("vectors must have the algebra dimension")
    (mx, (xs,)), (my, (ys,)) = int_scaled([x]), int_scaled([y])
    scale = a.mult * mx * my
    return tuple(Fraction(v, scale) for v in _int_product(a.table, n, xs, ys))


def left_mult_matrix(a: StructureTensor, vec):
    """Rows of the matrix of L_x in the standard basis; column j is
    product(x, e_j).

    Row j of P = `_int_left_products` on the L-scaled table and the element
    scaled by m is L m (e_j x) = -L m (x e_j), so L_x = -P^T / (L m).
    """
    n = a.dim
    if len(vec) != n:
        raise DimensionMismatch("vector must have the algebra dimension")
    m, (x,) = int_scaled([vec])
    p = _int_left_products(a.table, n, x)
    scale = -a.mult * m
    return [[Fraction(p[j][k], scale) for j in range(n)] for k in range(n)]


def power_ideal(a: StructureTensor, i: int):
    """Integer echelon rows of A^i: the tensor's `power(i)`."""
    return a.power(i)


def dim_square(a: StructureTensor) -> int:
    return a.dim_square


def is_nilpotent(a: StructureTensor):
    """(True, least m with A^m = 0) or (False, None) when powers stabilize."""
    index = a.nilindex
    return index is not None, index


def annihilator(a: StructureTensor):
    """Integer echelon rows of {x : x A = A x = 0}; for anticommutative
    tables one side suffices.

    `kernel_basis` solves the conditions x e_j = 0 that a product reaches
    (`_int_conditions` on the identity's supports), in (j, k) order: the
    condition for the e_k coordinate of x e_j has coefficient (e_i e_j)_k
    on x_i.  The zero conditions it leaves out are zero columns of
    `kernel_basis`'s [M^T | I], which change none of its rows; with no
    condition left, the table is zero and every x is in Ann.
    """
    n = a.dim
    conds = _int_conditions(a.table, n, _unit_supports(n))
    if not conds:
        return _int_identity(n)
    return kernel_basis([conds[key] for key in sorted(conds)])


def weight_spaces(a: StructureTensor):
    """The weight spaces of the diagonal torus of a's basis, as blocks of
    coordinates (0-based), each in ascending order, ordered by their least
    coordinate.

    The torus is t -> diag(t^w_1, ..., t^w_n) over the weights w in
    Z^n with w_i + w_j = w_k for every nonzero c_ij^k, those of the
    derivations diagonal in a's basis, so it lies in Aut(a).  Coordinates
    a and b share a weight space iff w_a = w_b for every such w, that is
    iff e_a - e_b lies in the Q-row space of the incidence rows
    e_i + e_j - e_k, iff e_a and e_b have one normal form modulo it.
    `int_reduce` against the rows' `_span_rows` gives the normal form of
    e_c times a nonzero integer, which an extra coordinate, 1 in e_c and
    0 in every row, carries: the reduced vector made primitive, its last
    entry positive, is the normal form's one integer key.
    """
    n, rows = a.dim, []
    for i, j, entries in a.table:
        for k, _ in entries:
            row = [0] * (n + 1)
            row[i], row[j] = 1, 1
            row[k] -= 1
            rows.append(row)
    spans, blocks = _span_rows(rows), {}
    for c in range(n):
        v = int_reduce([int(k == c) for k in range(n)] + [1], spans)
        g = gcd(*v) if v[n] > 0 else -gcd(*v)
        blocks.setdefault(tuple(x // g for x in v), []).append(c)
    return tuple(map(tuple, blocks.values()))


def int_change_basis(table, n: int, rows):
    """(d, N): N the integer table rows (i, j, ((k, coeff), ...)) of an
    integer table in a new basis, in the tensor's own format; (0, None)
    when the basis is singular.

    table is a.table (a scaled by L) and rows an integer basis g, whose
    (d, R) = int_scaled_inverse(g) is taken here.  The coordinates of
    g_i g_j are T(g_i, g_j) R with no division: they are the structure
    constants of a in the basis s g, where s = d L, because scaling a
    basis by c scales its structure constants by c.

    The products are formed from the basis' column supports: a table
    entry e_a e_b reaches only the pairs of rows g_p, g_q nonzero at a and
    at b, with coefficient g_pa g_qb (negated for p > q, since
    g_q g_p = -(g_p g_q)), and R is read by its nonzero entries.
    """
    d, inv = int_scaled_inverse(rows)
    if not d:
        return 0, None
    supports, prods = _int_supports(rows, n), {}
    for a, b, entries in table:
        for p, x in supports[a]:
            for q, y in supports[b]:
                if p != q:
                    c, key = (x * y, (p, q)) if p < q else (-x * y, (q, p))
                    vec = prods.get(key)
                    if vec is None:
                        vec = prods[key] = [0] * n
                    for k, v in entries:
                        vec[k] += c * v
    inv_rows = [[(k, y) for k, y in enumerate(row) if y] for row in inv]
    out = []
    for (i, j), p in sorted(prods.items()):
        coords = [0] * n
        for r, x in enumerate(p):
            if x:
                for k, y in inv_rows[r]:
                    coords[k] += x * y
        entries = tuple((k, x) for k, x in enumerate(coords) if x)
        if entries:
            out.append((i, j, entries))
    return d, out


def change_basis(a: StructureTensor, basis) -> StructureTensor:
    """Structure constants of the same algebra in a new basis.

    Row i of `basis` expresses the new basis vector f_i in the standard
    basis.  Computed over Z on the integer-scaled table and basis m g; the
    constants are those rows over the total scale L m d, divided once by
    the gcd c of the scale and every entry (signed like the scale, so that
    mult = L m d / c > 0).  Raises linalg.Singular for non-invertible
    input.
    """
    n = a.dim
    if len(basis) != n or any(len(row) != n for row in basis):
        raise DimensionMismatch("basis matrix must be n x n")
    m, rows = int_scaled(basis)
    d, table = int_change_basis(a.table, n, rows)
    if not d:
        raise Singular("basis matrix has zero determinant")
    scale = a.mult * m * d
    c = gcd(scale, *(v for _, _, entries in table for _, v in entries))
    c = c if scale > 0 else -c
    return StructureTensor(n, scale // c, [
        (i, j, tuple((k, v // c) for k, v in entries)) for i, j, entries in table])


class IdentityFlags(NamedTuple):
    jacobi: bool
    malcev: bool


def jacobi_holds(a: StructureTensor) -> bool:
    """True iff the Jacobi identity holds on all basis triples (A is Lie).

    Evaluated over Z on the L-scaled table; the defect scales by L^2.
    The defect (xy)z + (yz)x + (zx)y is linear in each argument, so at a
    basis vector x and the packed Y and Z of `_packed_pair` each of its
    coordinates holds the defect at every (x, e_a, e_b), one base-2^B
    digit each: three terms of two products, so B = `_digit_bits` with
    (3, 2).
    """
    n, table = a.dim, a.table

    def mul(x, y):
        return _int_product(table, n, x, y)

    ys, zs = _packed_pair(n, _digit_bits(table, n, 3, 2))
    yz = mul(ys, zs)
    for x in _int_identity(n):
        # (zx)y = -((xz)y)
        terms = zip(mul(mul(x, ys), zs), mul(yz, x), mul(mul(x, zs), ys))
        if any(p + q - r for p, q, r in terms):
            return False
    return True


def _packed_pair(n: int, bits: int):
    """Y and Z with Y_k = 2^(B n k) and Z_k = 2^(B k), B = bits: by
    bilinearity, coordinate r of a form f at (x, Y, Z) is
    sum_{a,b} 2^(B (n a + b)) f(x, e_a, e_b)_r, one base-2^B digit per
    (y, z), and a packed coordinate is 0 iff all its digits are, once B
    keeps every digit strictly inside +-2^(B-1) (`_digit_bits`)."""
    return ([1 << (bits * n * k) for k in range(n)],
            [1 << (bits * k) for k in range(n)])


def _malcev_holds(a: StructureTensor) -> bool:
    """Malcev identity (xy)(xz) = ((xy)z)x + ((yz)x)x + ((zx)x)y.

    Quadratic in x, linear in y and z: basis vectors and pair sums for x,
    basis vectors for y, z decide it over characteristic zero.  Evaluated
    over Z on the L-scaled table; the defect scales by L^3.  y and z are
    packed (`_packed_pair`), so each coordinate of the defect at (x, Y, Z)
    holds the defect at every (x, e_a, e_b), one base-2^B digit each.  x,
    e_a and e_b have entries in {0, 1}, and each of the defect's four
    terms is three products, so B = `_digit_bits` with (4, 3).
    """
    n, table = a.dim, a.table

    def mul(x, y):
        return _int_product(table, n, x, y)

    ys, zs = _packed_pair(n, _digit_bits(table, n, 4, 3))
    yz = mul(ys, zs)
    e = _int_identity(n)
    xs = e + [[p + q for p, q in zip(e[i], e[j])]
              for i in range(n) for j in range(i + 1, n)]
    for x in xs:
        xy, xz = mul(x, ys), mul(x, zs)
        lhs = mul(xy, xz)
        t1 = mul(mul(xy, zs), x)
        t2 = mul(mul(yz, x), x)
        t3 = mul(mul(xz, x), ys)  # ((zx)x)y = -((xz)x)y
        if any(p - q - r + s for p, q, r, s in zip(lhs, t1, t2, t3)):
            return False
    return True


def identity_flags(a: StructureTensor) -> IdentityFlags:
    return IdentityFlags(
        jacobi=jacobi_holds(a),
        malcev=_malcev_holds(a),
    )


def _digit_bits(table, n: int, terms: int, degree: int) -> int:
    """B = bitlength(terms s^degree) + 1 for a tensor's table, with s the
    largest over r of sum_{i,k} |(e_i e_k)_r| over ordered pairs.

    |(uv)_r| <= s |u|_oo |v|_oo for every u, v, and s bounds every row sum
    of K = sum_i |L_{e_i}| entrywise.  So a sum of `terms` terms, each
    `degree` products of vectors with entries in {0, 1}, or an entry of
    K^degree, lies strictly inside +-2^(B-1): a value packed with base-2^B
    digits of that size is 0 iff its digits are (the top nonzero digit
    outweighs the rest).
    """
    sums = [0] * n
    for _, _, entries in table:
        for r, v in entries:
            sums[r] += 2 * abs(v)
    return (terms * max(sums) ** degree).bit_length() + 1


def engel_degree(a: StructureTensor, max_m: int):
    """Least m <= max_m with (L_x)^m = 0 for every x, or None.

    (sum_i x_i L_i)^m = sum_{|alpha| = m} x^alpha S_alpha, L_i = L_{e_i},
    vanishes iff every S_alpha does.  S_0 = I and S_alpha = sum_{i in
    supp alpha} L_i S_{alpha - e_i}; a zero S_alpha adds nothing to the
    next degree, so only the nonzero ones are kept.  They are integer
    matrices on the L-scaled table (the m-th power scales by L^m), each
    row packed into one int.  |S_alpha| <= K^|alpha| entrywise, so B =
    `_digit_bits` with (1, max_m) bounds every entry.  Row r of L_i S is
    sum_k (e_i e_k)_r S_k, so one `_int_left_products` pass on the packed
    rows of S gives every L_i S, and on those of S_0 every L_i.
    """
    n, table = a.dim, a.table
    bits = _digit_bits(table, n, 1, max_m)
    # alpha, as its sorted tuple of indices -> the packed rows of S_alpha
    level = {(): [1 << (bits * c) for c in range(n)]}
    for m in range(1, max_m + 1):
        nxt = {}
        for beta, rows in level.items():
            for i, prod in enumerate(_int_left_products(table, n, rows)):
                if any(prod):
                    alpha = tuple(sorted(beta + (i,)))
                    acc = nxt.get(alpha)
                    nxt[alpha] = prod if acc is None else [
                        x + y for x, y in zip(acc, prod)]
        level = {alpha: rows for alpha, rows in nxt.items() if any(rows)}
        if not level:
            return m
    return None
