"""Independent brute-force oracles used to pin expected values.

Deliberately separate from the package's linear algebra: plain Gaussian
elimination over Fraction, direct product-span row reduction, and a direct
annihilator solve.  Tests freeze the numbers these produce.  The former
Fraction bodies of the algebra layer (products, power ideals, annihilator,
centralizer of the square) are kept here too, on this module's own
Fraction RREF: `Subspace` holds a subspace as its reduced row echelon
basis, so whole subspaces can be compared, and `kernel_oracle` reads a
null space off the RREF, the reference for the package's integer
`linalg.kernel_basis`.  The Q(t)
oracles of the certificate check run on sympy's rational function field.
The inverse-based orbit sampling and lower-triangular probe, which write
out the whole orbit point of every sample, are the reference for the
package's span tests, and the former sampled lower-triangular probe is
the reference for the exact stability verdict on the pair map.  The
ranks of full integer matrix powers are the reference for the image
chain of `linalg.power_rank_sequence` and of the rank sequences of
`contraction`.  The two walks that `linalg.int_image_chain` replaced,
`algebra._int_powers` (`int_powers_walk`) and
`linalg.int_power_rank_sequence` (`int_power_rank_walk`), are the
references for the tensor's `powers` and for the rank sequences read
off the chain, and the Jacobi check's former loop over basis triples
(`triple_loop_jacobi`) is the reference for the packed check.  The
certificate check with the integer kernels run
over `ZPoly`, before the values were packed into ints at t = 2^B, is the
reference for the packed check.  The dense Bareiss loop that the lazily
scaled `linalg.int_scaled_inverse` replaced is the reference for its
(d, R), and records every entry the packing bound must cover.  The
polynomial gcd of binary forms that the T22 classifier once took is the
reference for its divisor read off the span of the Pfaffian forms.  The
classifier's former Fraction skew net (read through `constant`), its
dense Pfaffians over every 4-subset, its scaled pencil rank and its
order (the Engel test first) are the reference for the integer net, the
sparse Pfaffians and the classifier that tests A * A^2 = 0 first.  The
rational rule that matched a string twice, once by its own regex and once
by `Fraction`'s, and the table reader that then wrapped each entry in a
second Fraction, are the reference for the one-match, one-Fraction reader.
That reader and `from_pairs`'s Fraction sums, each handing its products
to `fraction_tensor(dim, products)`, and `==` read off `products`, are
the reference for the tensors built straight as their integer table.
`fraction_tensor` is the Fraction-dict reader that `StructureTensor`'s
constructor was until the constructor took only the integer form
`(dim, mult, table)`; the tests build their hand-written tables with
it.
The ranks of the powers of sum_i x_i L_{e_i} over Q(x_1, ..., x_n), in
sympy's field, are the generic rank sequence that the scan's exact
stopping bound must dominate.  `constant(a, i, j, k)`, the per-entry
accessor that the package dropped once no run path read Fractions, reads
a tensor's Fraction `products` for the oracles above, and
`products_reads` lists who reads that view while a block runs.  The
package's former source side of a closed-set witness, the stored basis
read at t = 0 by `limit_at_zero` into Fractions, scaled by
`linalg.int_scaled`, written out by `inverse_orbit_point` and tested by
`closed_set_member` on the moved table, is the reference for the source
side that `verify_nondegeneration` now tests as a sample is.  The
annihilator's former reduced conditions, `int_centralizer_conditions`,
are the reference for the rank that `centralizer_dim` reads off n rows.
The dense builders that `centralizer_dim` and `annihilator` used before
their conditions were read off the table's nonzero products
(`dense_centralizer_dim`, `dense_annihilator`), and the pair loop of
`int_change_basis` before it formed products from the basis' column
supports (`pair_loop_change_basis`), are the references for those.
The IW label's former reading through the conjugate partition
(`partition_from_ranks` and `conjugate`, once `linalg`'s) is the
reference for the block counts of `partition_from_rank_sequence`.
sympy's null space of the incidence rows e_i + e_j - e_k, the weights
themselves, is the reference for `algebra.weight_spaces`, and every order
of the coordinates as a full flag, with the line family's conditions
solved by sympy in P^1, the reference for the nested placements of
`degeneration.torus_fixed_flag_search`.
"""

import contextlib
import re
from fractions import Fraction
from functools import lru_cache


def row_reduce_dim(vectors):
    """Dimension of the span of the given vectors (naive elimination)."""
    rows = [list(map(Fraction, v)) for v in vectors if any(v)]
    dim = 0
    col = 0
    ncols = len(rows[0]) if rows else 0
    while rows and col < ncols:
        piv = None
        for i in range(dim, len(rows)):
            if rows[i][col] != 0:
                piv = i
                break
        if piv is None:
            col += 1
            continue
        rows[dim], rows[piv] = rows[piv], rows[dim]
        pr = rows[dim]
        for i in range(len(rows)):
            if i != dim and rows[i][col] != 0:
                f = rows[i][col] / pr[col]
                rows[i] = [a - f * b for a, b in zip(rows[i], pr)]
        dim += 1
        col += 1
    return dim


def table_product(dim, pairs, x, y):
    """Bilinear product from a list of (i, j, k, coeff) entries, 1-based."""
    out = [Fraction(0)] * dim
    for (i, j, k, coeff) in pairs:
        xi, xj, yi, yj = x[i - 1], x[j - 1], y[i - 1], y[j - 1]
        if (xi and yj) or (xj and yi):
            out[k - 1] += Fraction(coeff) * (xi * yj - xj * yi)
    return out


def pairs_of(tensor):
    """(i, j, k, coeff) list of a StructureTensor (duck-typed)."""
    out = []
    for (i, j), vec in tensor.products.items():
        for k, c in enumerate(vec, start=1):
            if c:
                out.append((i, j, k, c))
    return out


@contextlib.contextmanager
def products_reads():
    """A list of the tensors whose `products` view is read in the block:
    the run paths read only the integer table."""
    from degenlab.algebra import StructureTensor

    reads, view = [], StructureTensor.products
    StructureTensor.products = property(lambda a: reads.append(a) or view.fget(a))
    try:
        yield reads
    finally:
        StructureTensor.products = view


@lru_cache(maxsize=64)
def _products_of(tensor):
    """The Fraction products of a StructureTensor, read once per tensor
    (the tensor makes them at each read)."""
    return tensor.products


def constant(a, i, j, k):
    """mu_{i,j}^k of a StructureTensor with anticommutativity filled in
    (1-based indices), as a Fraction."""
    if i == j:
        return Fraction(0)
    vec = _products_of(a).get((min(i, j), max(i, j)))
    if not vec:
        return Fraction(0)
    return vec[k - 1] if i < j else -vec[k - 1]


def square_dim_oracle(tensor):
    n = tensor.dim
    pairs = pairs_of(tensor)
    basis = [[Fraction(int(i == k)) for k in range(n)] for i in range(n)]
    prods = []
    for i in range(n):
        for j in range(i + 1, n):
            prods.append(table_product(n, pairs, basis[i], basis[j]))
    return row_reduce_dim(prods) if prods else 0


def ann_dim_oracle(tensor):
    """Solve a . e_j = 0 for all j directly."""
    n = tensor.dim
    pairs = pairs_of(tensor)
    rows = []
    basis = [[Fraction(int(i == k)) for k in range(n)] for i in range(n)]
    for j in range(n):
        for k in range(n):
            rows.append([
                table_product(n, pairs, basis[i], basis[j])[k] for i in range(n)
            ])
    rank = row_reduce_dim(rows) if any(any(r) for r in rows) else 0
    return n - rank


def fraction_inverse(rows):
    """Inverse of a square matrix by Gauss-Jordan over Fraction; None when
    the matrix is singular."""
    n = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(rows)]
    for c in range(n):
        piv = next((i for i in range(c, n) if aug[i][c] != 0), None)
        if piv is None:
            return None
        aug[c], aug[piv] = aug[piv], aug[c]
        pr = [x / aug[c][c] for x in aug[c]]
        aug[c] = pr
        for i in range(n):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], pr)]
    return [row[n:] for row in aug]


def matmul(a, b):
    """Product of two matrices given as lists of rows."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def change_basis_oracle(dim, pairs, basis_rows):
    """{(i, j): coordinates of f_i f_j in the basis f} for a table given as
    (i, j, k, coeff) entries; row i of basis_rows is f_i."""
    rows = [[Fraction(x) for x in row] for row in basis_rows]
    inv = fraction_inverse(rows)
    out = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            p = table_product(dim, pairs, rows[i], rows[j])
            coords = tuple(sum(p[r] * inv[r][k] for r in range(dim))
                           for k in range(dim))
            if any(coords):
                out[(i + 1, j + 1)] = coords
    return out


def _basis(n):
    return [tuple(Fraction(int(i == k)) for k in range(n)) for i in range(n)]


def jacobi_oracle(tensor):
    """Jacobi identity on all basis triples, over Fraction."""
    n = tensor.dim
    pairs = pairs_of(tensor)
    basis = _basis(n)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                acc = [Fraction(0)] * n
                for u, v, w in ((i, j, k), (j, k, i), (k, i, j)):
                    uv = table_product(n, pairs, basis[u], basis[v])
                    term = table_product(n, pairs, uv, basis[w])
                    for r in range(n):
                        acc[r] += term[r]
                if any(acc):
                    return False
    return True


def jacobi_terms_oracle(tensor):
    """The three terms ((xy)z, (yz)x, (zx)y) of the Jacobi defect over
    Fraction, one tuple per x, y and z among basis vectors."""
    n = tensor.dim
    pairs = pairs_of(tensor)
    basis = _basis(n)
    for x in basis:
        for y in basis:
            for z in basis:
                yield (table_product(n, pairs, table_product(n, pairs, x, y), z),
                       table_product(n, pairs, table_product(n, pairs, y, z), x),
                       table_product(n, pairs, table_product(n, pairs, z, x), y))


def malcev_terms_oracle(tensor):
    """The four terms (lhs, t1, t2, t3) of the Malcev identity
    (xy)(xz) = ((xy)z)x + ((yz)x)x + ((zx)x)y over Fraction, one tuple per
    x among basis vectors and pair sums, y and z among basis vectors."""
    n = tensor.dim
    pairs = pairs_of(tensor)

    def mul(x, y):
        return table_product(n, pairs, x, y)

    basis = _basis(n)
    xs = list(basis)
    for i in range(n):
        for j in range(i + 1, n):
            xs.append(tuple(basis[i][k] + basis[j][k] for k in range(n)))
    for x in xs:
        xb = [mul(x, b) for b in basis]
        bxx = [mul(mul(b, x), x) for b in basis]
        for y in range(n):
            for z in range(n):
                yield (mul(xb[y], xb[z]),
                       mul(mul(xb[y], basis[z]), x),
                       mul(mul(mul(basis[y], basis[z]), x), x),
                       mul(bxx[z], basis[y]))


def malcev_oracle(tensor):
    """The Malcev identity on the triples of `malcev_terms_oracle`."""
    return not any(any(p - q - r - s for p, q, r, s in zip(*terms))
                   for terms in malcev_terms_oracle(tensor))


def _poly_matrix_mul_linear(cur, lin, n):
    """cur * (sum_i x_i L_i) for polynomial-matrix entries
    {sorted variable tuple: coefficient} and lin[k][c] = {i: coefficient}."""
    out = [[{} for _ in range(n)] for _ in range(n)]
    for r in range(n):
        for k in range(n):
            for c in range(n):
                for mono, coeff in cur[r][k].items():
                    for var, lc in lin[k][c].items():
                        key = tuple(sorted(mono + (var,)))
                        out[r][c][key] = out[r][c].get(key, 0) + coeff * lc
                        if not out[r][c][key]:
                            del out[r][c][key]
    return out


def engel_powers_oracle(tensor, max_m):
    """(sum_i x_i L_{e_i})^m for m = 1..max_m over Fraction: the entry
    (r, c) is {sorted variable tuple of alpha: entry (r, c) of S_alpha}."""
    n = tensor.dim
    pairs = pairs_of(tensor)
    basis = _basis(n)
    lin = [[{} for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for c in range(n):
            col = table_product(n, pairs, basis[i], basis[c])
            for r in range(n):
                if col[r]:
                    lin[r][c][i] = col[r]
    cur = [[({(): Fraction(1)} if r == c else {}) for c in range(n)]
           for r in range(n)]
    for _ in range(max_m):
        cur = _poly_matrix_mul_linear(cur, lin, n)
        yield cur


def engel_degree_oracle(tensor, max_m):
    """Least m <= max_m with (sum_i x_i L_{e_i})^m = 0, over Fraction."""
    for m, cur in enumerate(engel_powers_oracle(tensor, max_m), start=1):
        if not any(map(any, cur)):
            return m
    return None


def power_rank_sequence_oracle(base, max_power):
    """Ranks of an integer square matrix and its full matrix powers,
    stopping at the first zero rank or after max_power entries: the
    former body of `linalg.int_power_rank_sequence`, ranked over
    Fraction here."""
    cur, ranks = base, []
    for _ in range(max_power):
        r = row_reduce_dim(cur)
        if r == 0:
            break
        ranks.append(r)
        cur = matmul(cur, base)
    return tuple(ranks)


def int_powers_walk(table, n):
    """The echelon rows of A^1, A^2, ... as `algebra._int_powers` walked
    them before `linalg.int_image_chain`: the identity, the echelon rows
    of the table's own products, then those of the products e_j w over
    the rows w of each power, ending after the first zero power or before
    the first power with the rank of the one before it."""
    from degenlab.algebra import _int_dense, _int_identity, _int_left_products
    from degenlab.linalg import int_echelon

    rows = _int_identity(n)
    yield rows
    nxt = int_echelon([_int_dense(entries, n) for _, _, entries in table])
    while len(nxt) < len(rows):
        rows = nxt
        yield rows
        nxt = int_echelon([p for w in rows
                           for p in _int_left_products(table, n, w)])


def int_power_rank_walk(base, max_power):
    """`linalg.int_power_rank_sequence` as it was before
    `linalg.int_image_chain`: the ranks of the integer echelon rows E_m of
    P^m, E_m = int_echelon(E_{m-1} P), each product divided by its gcd,
    stopping at the first zero rank or after max_power entries, and a
    rank that repeats repeated to max_power."""
    from math import gcd

    from degenlab.linalg import int_echelon

    ranks = []
    rows = int_echelon(base)
    while rows and len(ranks) < max_power:
        ranks.append(len(rows))
        prods = []
        for row in rows:
            prod = [0] * len(base)
            for x, brow in zip(row, base):
                if x:
                    for j, y in enumerate(brow):
                        prod[j] += x * y
            c = gcd(*prod)
            prods.append([v // c for v in prod] if c > 1 else prod)
        nxt = int_echelon(prods)
        if len(nxt) == len(rows):
            ranks += ranks[-1:] * (max_power - len(ranks))
            break
        rows = nxt
    return tuple(ranks)


def triple_loop_jacobi(a):
    """`algebra.jacobi_holds` as it was before its y and z were packed: an
    n^2 table of basis products, then the integer defect at each basis
    triple i < j < k, stopping at the first nonzero one."""
    from degenlab.algebra import _int_identity, _int_product

    n, table = a.dim, a.table
    e = _int_identity(n)
    sq = [[_int_product(table, n, x, y) for y in e] for x in e]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                terms = (
                    _int_product(table, n, sq[i][j], e[k]),
                    _int_product(table, n, sq[j][k], e[i]),
                    _int_product(table, n, sq[k][i], e[j]),
                )
                if any(map(sum, zip(*terms))):
                    return False
    return True


def field_rank(rows):
    """Rank by plain Gaussian elimination over any exact field."""
    rows = [list(row) for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pr = rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][c]:
                f = rows[i][c] / pr[c]
                rows[i] = [a - f * b for a, b in zip(rows[i], pr)]
        rank += 1
    return rank


def pencil_rank_oracle(p_mat, q_mat):
    """Rank of P + tQ over Q(t), by elimination in sympy's field."""
    field, t = qt_field()
    x = field.from_sympy(t)
    return field_rank([
        [field.convert(p) + x * field.convert(q) for p, q in zip(prow, qrow)]
        for prow, qrow in zip(p_mat, q_mat)
    ])


def binary_form_gcd(forms):
    """gcd of nonzero binary quadratic forms (a, b, c) = a x^2 + b xy + c y^2,
    as (degree, root kind): the kind of a degree-2 gcd is "double", "split"
    (two rational roots) or "irrational"; degree <= 1 needs no kind.

    The former body of the T22 classifier's divisor, by polynomial gcds:
    each form is f = y^dinf g(x) with g = f(x, 1), so the gcd is y to the
    least dinf times the gcd of the g.  The reference for the classifier's
    reading of the span, the common zeros on P^1 of `catalog._meet`.
    """
    from math import isqrt, lcm

    from degenlab.exactnum import ZPoly, poly_gcd

    min_dinf = None
    polys = []
    for form in forms:
        scale = lcm(*(Fraction(x).denominator for x in form))
        a, b, c = (int(Fraction(x) * scale) for x in form)
        g = ZPoly((c, b, a))  # g(x) = a x^2 + b x + c from f(x, 1)
        dinf = 3 - len(g.coeffs)
        min_dinf = dinf if min_dinf is None else min(min_dinf, dinf)
        polys.append(g)
    g = polys[0]
    for p in polys[1:]:
        g = poly_gcd(g, p)
    total = len(g.coeffs) - 1 + min_dinf
    if total < 2:
        return total, None
    if min_dinf == 2:
        return 2, "double"  # y^2
    if min_dinf == 1:
        return 2, "split"  # y (x - r) with r rational
    c, b, a = g.coeffs
    disc = b * b - 4 * a * c
    if disc == 0:
        return 2, "double"
    return 2, "split" if disc > 0 and isqrt(disc) ** 2 == disc else "irrational"


# --- the T22 classifier over Fraction -------------------------------------
#
# The former bodies of catalog's skew net, Pfaffian span, pencil rank,
# classifier and pfaffian_conic profile: the net read through
# `constant` as Fractions, every 4 x 4 Pfaffian of every 4-subset
# formed in Fraction arithmetic and scaled to integers, and the 2-Engel
# test run before anything else.  The reference for the integer net, the
# sparse Pfaffians and the classifier that tests A * A^2 = 0 first.


def skew_net_oracle(a, square):
    """The net of skew forms on A / A^2 as Fractions, entry (i, j) the
    coordinates of u_i u_j at the pivot columns of the echelon rows
    `square` of A^2."""
    pivots = [next(i for i, x in enumerate(row) if x) for row in square]
    lift = [i + 1 for i in range(a.dim) if i not in pivots]
    return [[tuple(constant(a, i, j, p + 1) for p in pivots) for j in lift]
            for i in lift]


def pfaffian_span_oracle(net):
    """(monomials, integer echelon rows) spanning the 4 x 4 principal
    Pfaffians w_ij w_kl - w_ik w_jl + w_il w_jk of a skew net, every
    4-subset formed densely and the rows scaled to integers together."""
    from itertools import combinations

    from degenlab.linalg import int_echelon, int_scaled

    d = len(net)
    s = len(net[0][0]) if net else 0
    monomials = [(r, q) for r in range(s) for q in range(r, s)]

    def sym(u, v):
        return [u[r] * v[q] + u[q] * v[r] if r != q else u[r] * v[r]
                for r, q in monomials]

    rows = [[x - y + z for x, y, z in zip(sym(net[i][j], net[k][l]),
                                          sym(net[i][k], net[j][l]),
                                          sym(net[i][l], net[j][k]))]
            for i, j, k, l in combinations(range(d), 4)]
    return monomials, int_echelon(int_scaled(rows)[1])


def pencil_generic_rank_oracle(p_mat, q_mat):
    """Rank of P + tQ over Q(t) for rational P and Q, as the largest integer
    rank of P + tQ at t = 0..d after scaling both by one denominator lcm."""
    from degenlab.linalg import _int_rank, int_scaled

    d = len(p_mat)
    _, rows = int_scaled(p_mat + q_mat)
    p_int, q_int = rows[:d], rows[d:]
    return max((_int_rank([[p + t * q for p, q in zip(pr, qr)]
                           for pr, qr in zip(p_int, q_int)])
                for t in range(d + 1)), default=0)


def pencil_of(net):
    """(P, Q): the two forms of a net of s = 2 skew forms."""
    return ([[w[0] for w in row] for row in net], [[w[1] for w in row] for row in net])


def classify_T22_oracle(a):
    """The classifier's label on the Fraction net, or the PreconditionViolated
    message as a string, with the Engel test first."""
    from degenlab.algebra import engel_degree
    from degenlab.catalog import CatalogName, LevelAtLeast6, NeedsExtension

    if engel_degree(a, 2) is None:
        return "not 2-Engel, so IW-max is not (2,2)"
    square = a.power(2)
    s = len(square)
    if a.power(3):
        return "A * A^2 != 0, so IW-max is not (2,2)"
    if s == 3:
        if a.ann_dim != a.dim - 3:
            return f"square has dim 3 but Ann has dim {a.ann_dim} != n-3"
        return CatalogName("T22_e23")
    if s != 2:
        return f"dim A^2 = {s} is incompatible with (2,2)"
    net = skew_net_oracle(a, square)
    r_gen = pencil_generic_rank_oracle(*pencil_of(net))
    if r_gen <= 2:
        return CatalogName("T22")
    if r_gen >= 6:
        return LevelAtLeast6
    span = pfaffian_span_oracle(net)[1]
    degree, kind = binary_form_gcd(span) if span else (0, None)
    if degree != 2:
        return (LevelAtLeast6, CatalogName("T22_e45"))[degree]
    return {"double": CatalogName("T22_e24"), "split": CatalogName("T22_e34"),
            "irrational": NeedsExtension}[kind]


def pfaffian_conic_profile_oracle(a):
    """(span dim, quadric rank) of the Pfaffian quadrics of the Fraction net,
    or None unless A^2 != 0 = A * A^2."""
    from degenlab.linalg import _int_rank

    square = a.power(2)
    s = len(square)
    if s == 0 or a.power(3):
        return None
    monomials, span = pfaffian_span_oracle(skew_net_oracle(a, square))
    if len(span) != 1:
        return (len(span), None)
    sym = [[0] * s for _ in range(s)]
    for (r, q), c in zip(monomials, span[0]):
        sym[r][q] = sym[q][r] = 2 * c if r == q else c
    return (1, _int_rank(sym))


# --- the certificate check over Q(t) ------------------------------------
#
# The former body of degeneration.verify_degeneration, over sympy's field
# Q(t) (sympy is a test-only dependency): sympy reads the basis rows, the
# constants of the source in that basis come from products and a
# Gauss-Jordan inverse over Q(t), and each reduced constant is evaluated at
# t = 0.  Nothing here runs on degenlab's polynomial arithmetic.


@lru_cache(maxsize=None)
def qt_field():
    """(Q(t), t): sympy's rational function field and its variable."""
    from sympy import QQ, Symbol

    t = Symbol("t")
    return QQ.frac_field(t), t


def sympy_expr(text, names=("t",), evaluate=True):
    """sympy's reading of a text with `^` as the power, the given names as
    symbols; evaluated, 1/0 reads as zoo rather than raising."""
    from sympy import Symbol
    from sympy.parsing.sympy_parser import (
        convert_xor,
        parse_expr,
        standard_transformations,
    )

    local = {name: Symbol(name) for name in names}
    local["t"] = qt_field()[1]
    return parse_expr(text, local_dict=local, evaluate=evaluate,
                      transformations=standard_transformations + (convert_xor,))


def qt_parse(text):
    """sympy's reading of a coefficient text as an element of Q(t)."""
    return qt_field()[0].from_sympy(sympy_expr(text))


def qt_eval(text):
    """A coefficient text in Q(t), by walking sympy's unevaluated parse
    tree; ZeroDivisionError where the text divides by zero (evaluated,
    sympy would turn 1/0 into zoo and t/(1/0) into 0)."""
    field, t = qt_field()

    def walk(e):
        if e.is_Rational:
            return field.convert(Fraction(int(e.p), int(e.q)))
        if e == t:
            return field.from_sympy(t)
        args = [walk(x) for x in e.args[:1 if e.is_Pow else None]]
        if e.is_Add:
            return sum(args, field.zero)
        if e.is_Mul:
            out = field.one
            for x in args:
                out = out * x
            return out
        if e.is_Pow:
            base, k = args[0], int(e.exp)
            if k < 0:
                if not base:
                    raise ZeroDivisionError(text)
                base, k = field.one / base, -k
            return base ** k
        raise ValueError(f"unexpected node {e!r} in {text!r}")

    return walk(sympy_expr(text, evaluate=False))


def qt_value(num, den=1):
    """num / den in Q(t) for ZPolys or ints."""
    field, t = qt_field()
    x = field.from_sympy(t)

    def poly(p):
        coeffs = (p,) if isinstance(p, int) else p.coeffs
        return sum((field.convert(c) * x ** i for i, c in enumerate(coeffs)),
                   field.zero)
    return poly(num) / poly(den)


def qt_basis_row(text, dim):
    """A basis row read by sympy, as its dim coordinates in Q(t)."""
    from sympy import Symbol

    field, _ = qt_field()
    names = [f"e{k}" for k in range(1, dim + 1)]
    expr = sympy_expr(text, names)
    return [field.from_sympy(expr.diff(Symbol(name))) for name in names]


def qt_at_zero(f):
    """A reduced element of Q(t) at t = 0 as a Fraction; None at a pole."""
    den = f.denom(0)
    if den == 0:
        return None
    v = f.numer(0) / den
    return Fraction(int(v.numerator), int(v.denominator))


def qt_inverse(rows):
    """Inverse of a square matrix over Q(t) by Gauss-Jordan; None when the
    matrix is singular."""
    field, _ = qt_field()
    n = len(rows)
    aug = [list(row) + [field.one if i == j else field.zero for j in range(n)]
           for i, row in enumerate(rows)]
    for c in range(n):
        piv = next((i for i in range(c, n) if aug[i][c]), None)
        if piv is None:
            return None
        aug[c], aug[piv] = aug[piv], aug[c]
        pr = [x / aug[c][c] for x in aug[c]]
        aug[c] = pr
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], pr)]
    return [row[n:] for row in aug]


def qt_constants(tensor, rows):
    """{(i, j): Q(t) coordinates of f_i f_j} for i < j in the basis f =
    rows over Q(t), nonzero ones only; None when the rows are singular."""
    field, _ = qt_field()
    n = tensor.dim
    inv = qt_inverse(rows)
    if inv is None:
        return None
    zero = field.zero
    pairs = pairs_of(tensor)
    out = {}
    for i in range(n):
        for j in range(i + 1, n):
            x, y = rows[i], rows[j]
            p = [zero] * n
            for (a, b, k, coeff) in pairs:
                c = x[a - 1] * y[b - 1] - x[b - 1] * y[a - 1]
                if c:
                    p[k - 1] = p[k - 1] + c * field.convert(coeff)
            coords = []
            for k in range(n):
                acc = zero
                for r in range(n):
                    if p[r] and inv[r][k]:
                        acc = acc + p[r] * inv[r][k]
                coords.append(acc)
            if any(coords):
                out[(i + 1, j + 1)] = tuple(coords)
    return out


def qt_certificate_verdict(cert):
    """(status, reason, data) of a degeneration certificate, checked over
    Q(t): poles first in (i, j, k) order, then limit mismatches.  Whether a
    row parses, and the message when it does not, is degenlab's."""
    from degenlab.exactnum import parse_basis_row

    src, tgt = cert.source.resolve(), cert.target.resolve()
    if src.dim != tgt.dim:
        return ("fail", "source and target dimensions differ", {})
    n = src.dim
    if len(cert.basis_rows) != n:
        return ("fail", f"expected {n} basis rows, got {len(cert.basis_rows)}", {})
    for k, text in enumerate(cert.basis_rows, start=1):
        try:
            parse_basis_row(text, n)
        except (ValueError, ZeroDivisionError) as exc:
            return ("fail", f"basis row {k} {text!r} does not parse: {exc}", {})
    constants = qt_constants(src, [qt_basis_row(text, n)
                                   for text in cert.basis_rows])
    if constants is None:
        return ("fail", "parameterized basis has identically zero determinant", {})
    limit = {}
    for (i, j), vec in constants.items():
        out = []
        for k, entry in enumerate(vec, start=1):
            value = qt_at_zero(entry)
            if value is None:
                return ("fail", f"pole at t=0 in constant ({i},{j})^{k}",
                        {"position": (i, j, k)})
            out.append(value)
        if any(out):
            limit[(i, j)] = tuple(out)
    zeros = (Fraction(0),) * n
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            want = tgt.products.get((i, j), zeros)
            got = limit.get((i, j), zeros)
            if want != got:
                k = next(idx + 1 for idx in range(n) if want[idx] != got[idx])
                return ("fail", f"limit constant ({i},{j})^{k} is {got[k - 1]}, "
                                f"target has {want[k - 1]}",
                        {"position": (i, j, k)})
    return ("pass", "", {})


# --- the certificate check over Z[t] ------------------------------------


def zpoly_apply_parameterized_basis(a, rows):
    """(den, N) of degeneration.apply_parameterized_basis, with
    int_change_basis, and so int_scaled_inverse, run on the ZPoly entries
    of G: N is the table rows (i, j, ((k, ZPoly), ...)) of
    int_change_basis."""
    from degenlab.algebra import int_change_basis
    from degenlab.degeneration import SingularFamily, clear_denominators

    n = a.dim
    s, flat = clear_denominators(f for row in rows for f in row)
    g = [flat[i * n:(i + 1) * n] for i in range(n)]
    d, constants = int_change_basis(a.table, n, g)
    if not d:
        raise SingularFamily("parameterized basis has identically zero determinant")
    return s * d * a.mult, constants


def bareiss_inverse_oracle(rows, seen=None):
    """(d, R) of linalg.int_scaled_inverse by the dense loop it replaced:
    every step rewrites every row but the pivot row, also a row with a 0 in
    the pivot column.  Every entry after each step, pivot candidates
    included, is appended to `seen` when a list is given."""
    n = len(rows)
    aug = [list(row) + [int(i == j) for j in range(n)]
           for i, row in enumerate(rows)]
    prev = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if aug[i][c]), None)
        if piv is None:
            return 0, None
        aug[c], aug[piv] = aug[piv], aug[c]
        row_c = aug[c]
        pv = row_c[c]
        for i in range(n):
            if i != c:
                f = aug[i][c]
                aug[i] = [(pv * a - f * b) // prev for a, b in zip(aug[i], row_c)]
        prev = pv
        if seen is not None:
            seen += [x for row in aug for x in row]
    return prev, [row[n:] for row in aug]


def bareiss_entries(rows):
    """Every entry of [G | I] after each pivot of the dense Bareiss loop,
    stopping at a column with no pivot.  The lazily scaled loop of
    linalg.int_scaled_inverse holds only such entries: a row it has not
    brought up to date holds the dense loop's entries of an earlier step."""
    seen = []
    bareiss_inverse_oracle(rows, seen)
    return seen


# --- subspaces over Fraction ---------------------------------------------
#
# The package's former RREF and Subspace: a subspace of Q^n held as its
# reduced row echelon basis, so equal subspaces compare equal.


def _rref(entries):
    """Reduced row echelon form over a field; returns (rows, pivot_cols)."""
    rows = [row[:] for row in entries]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows[: len(pivots)], pivots


class Subspace:
    """Subspace of QQ^n held as an RREF basis with increasing pivots."""

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, basis):
        self.ambient_dim = ambient_dim
        self.basis = tuple(tuple(Fraction(x) for x in row) for row in basis)

    @staticmethod
    def from_vectors(ambient_dim: int, vectors) -> "Subspace":
        vecs = [list(map(Fraction, v)) for v in vectors if any(v)]
        if not vecs:
            return Subspace(ambient_dim, ())
        rows, _ = _rref(vecs)
        return Subspace(ambient_dim, rows)

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, [[int(i == j) for j in range(ambient_dim)]
                                      for i in range(ambient_dim)])

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of QQ^{self.ambient_dim})"


def kernel_oracle(rows) -> Subspace:
    """Null space of nonempty rational rows, read off their RREF: one
    vector per free column."""
    rref_rows, pivots = _rref([[Fraction(x) for x in row] for row in rows])
    n = len(rows[0])
    vecs = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rref_rows[r][fc]
        vecs.append(v)
    return Subspace.from_vectors(n, vecs)


# --- the algebra layer over Fraction ------------------------------------
#
# The former bodies of algebra.product, subspace_product, power_ideal,
# is_nilpotent, annihilator and verification_db._centralizer_square_dim,
# plus helpers only tests use (generated_subalgebra, direct_sum_trivial,
# project_to_spec).


def fraction_product(a, x, y):
    """x y for a StructureTensor, by the bilinear extension over Fraction."""
    n = a.dim
    out = [Fraction(0)] * n
    for (i, j), vec in a.products.items():
        c = x[i - 1] * y[j - 1] - x[j - 1] * y[i - 1]
        if c:
            for k in range(n):
                if vec[k]:
                    out[k] += c * vec[k]
    return tuple(out)


def left_mult_oracle(a, vec):
    """Rows of L_x read off the structure constants: entry (k, j) is
    (x e_j)_k = sum_i x_i mu_{i,j}^k."""
    n = a.dim
    return [[sum(Fraction(vec[i - 1]) * constant(a, i, j, k) for i in range(1, n + 1))
             for j in range(1, n + 1)] for k in range(1, n + 1)]


def subspace_product_oracle(a, u, w):
    vecs = []
    for x in u.basis:
        for y in w.basis:
            p = fraction_product(a, x, y)
            if any(p):
                vecs.append(p)
    return Subspace.from_vectors(a.dim, vecs)


def power_ideal_oracle(a, i):
    full = Subspace.full(a.dim)
    cur = full
    for _ in range(i - 1):
        cur = subspace_product_oracle(a, full, cur)
    return cur


def is_nilpotent_oracle(a):
    full = Subspace.full(a.dim)
    cur = full
    m = 1
    while True:
        nxt = subspace_product_oracle(a, full, cur)
        m += 1
        if nxt.dim == 0:
            return True, m
        if nxt.dim == cur.dim:
            return False, None
        cur = nxt


def annihilator_oracle(a):
    n = a.dim
    rows = []
    for j in range(1, n + 1):
        for k in range(n):
            rows.append([constant(a, i, j, k + 1) for i in range(1, n + 1)])
    return kernel_oracle(rows)


def int_centralizer_conditions(table, n, ws):
    """Integer echelon rows of the conditions x w = 0 (w in ws) on x: the
    columns of [e_1 w, ..., e_n w], reduced, as the package's annihilator
    reduced them before `kernel_basis` read them as they stand."""
    from degenlab.algebra import _int_left_products
    from degenlab.linalg import int_echelon

    return int_echelon([col for w in ws
                        for col in zip(*_int_left_products(table, n, w))])


def dense_centralizer_dim(a, i):
    """`StructureTensor.centralizer_dim(i)` as the package built it before
    its conditions were read off the table's nonzero products: n minus the
    rank of n rows, row r the n dense products e_r w over every echelon
    row w of A^i (the identity rows at i = 1), n |ws| entries each."""
    from degenlab.algebra import _int_identity, _int_left_products
    from degenlab.linalg import _int_rank

    n = a.dim
    ws = _int_identity(n) if i == 1 else a.power(i)
    prods = [_int_left_products(a.table, n, w) for w in ws]
    return n - _int_rank([[x for p in prods for x in p[r]] for r in range(n)])


def dense_annihilator(a):
    """`algebra.annihilator` as it was before the zero conditions were
    left out: `kernel_basis` of all n^2 conditions x e_j = 0, the columns
    of the dense [e_1 e_j, ..., e_n e_j], in (j, k) order."""
    from degenlab.algebra import _int_identity, _int_left_products
    from degenlab.linalg import kernel_basis

    n = a.dim
    return kernel_basis([col for e in _int_identity(n)
                         for col in zip(*_int_left_products(a.table, n, e))])


def pair_loop_change_basis(table, n, rows, inv):
    """`algebra.int_change_basis` as the pair loop it was: `_int_product`
    over the whole table for each pair i < j, then the dense row of R."""
    from degenlab.algebra import _int_product

    out = []
    for i in range(n - 1):
        for j in range(i + 1, n):
            p = _int_product(table, n, rows[i], rows[j])
            if any(p):
                coords = map(sum, zip(*([x * y for y in inv[r]]
                                        for r, x in enumerate(p) if x)))
                entries = tuple((k, x) for k, x in enumerate(coords) if x)
                if entries:
                    out.append((i, j, entries))
    return out


def centralizer_square_dim_oracle(a):
    square = power_ideal_oracle(a, 2)
    if square.dim == 0:
        return a.dim
    n = a.dim
    basis = _basis(n)
    rows = []
    for w in square.basis:
        for k in range(n):
            rows.append([fraction_product(a, basis[i], w)[k] for i in range(n)])
    return kernel_oracle(rows).dim


def generated_subalgebra(a, vec):
    """Smallest subalgebra containing vec (for anticommutative input: <vec>)."""
    cur = Subspace.from_vectors(a.dim, [vec])
    while True:
        nxt = Subspace.from_vectors(
            a.dim, cur.basis + subspace_product_oracle(a, cur, cur).basis)
        if nxt.dim == cur.dim:
            return cur
        cur = nxt


def direct_sum_trivial(a, k):
    """A + k extra central coordinates with zero products."""
    return fraction_tensor(a.dim + k, {
        key: tuple(vec) + (Fraction(0),) * k for key, vec in a.products.items()})


def spec_forbids(spec, p, q, r):
    """True iff a flag condition lambda(V_i, V_j) in V_k of spec forbids
    coordinate r of e_p e_q (1-based): r < k with p >= i, q >= j or
    q >= i, p >= j."""
    return any(r < k and ((p >= i and q >= j) or (q >= i and p >= j))
               for (i, j, k) in spec)


def project_to_spec(a, spec):
    """The structure with each coefficient `spec_forbids` set to zero."""
    table = {}
    for (p, q), vec in a.products.items():
        kept = tuple(0 if spec_forbids(spec, p, q, r) else x
                     for r, x in enumerate(vec, start=1))
        if any(kept):
            table[(p, q)] = kept
    return fraction_tensor(a.dim, table)


def _candidate_pool_oracle(a, seed: int, random_count: int = 64):
    """The whole iw_max candidate pool, built up front (rng drawn first)."""
    import random

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


def iw_max_oracle(a, seed: int = 0, trials: int = 20):
    """iw_max scanning the whole pool: no rank bound, no early stop, and
    every Fraction candidate scaled to integers on its own."""
    from degenlab.contraction import (
        IncomparableMaxima,
        _int_rank_sequence,
        dominates,
        partition_from_rank_sequence,
    )
    from degenlab.linalg import int_scaled

    pool, rng = _candidate_pool_oracle(a, seed)
    table, n = a.table, a.dim

    def seq_of(vec):
        return _int_rank_sequence(table, n, int_scaled([vec])[1][0])

    best_vec = pool[0]
    best_seq = seq_of(best_vec)
    for vec in pool[1:]:
        seq = seq_of(vec)
        if dominates(best_seq, seq):
            continue
        if dominates(seq, best_seq):
            best_vec, best_seq = vec, seq
            continue
        repaired = False
        for _ in range(trials):
            alpha = Fraction(rng.randint(1, 99))
            cand = tuple(b + alpha * v for b, v in zip(best_vec, vec))
            cand_seq = seq_of(cand)
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


def generic_rank_sequence_oracle(a):
    """The generic rank sequence of a table: the ranks of the powers of
    L_x = sum_i x_i L_{e_i} over Q(x_1, ..., x_n), by sympy's field and
    plain elimination, stopping at the first zero rank or after n + 1."""
    from sympy import QQ, symbols

    n = a.dim
    names = symbols(f"x1:{n + 1}")
    field = QQ.frac_field(*names)
    xs = [field.from_sympy(x) for x in names]
    lx = [[sum((xs[i - 1] * field.convert(constant(a, i, j, k))
                for i in range(1, n + 1)), field.zero)
           for j in range(1, n + 1)] for k in range(1, n + 1)]
    cur, ranks = lx, []
    for _ in range(n + 1):
        r = field_rank(cur)
        if r == 0:
            break
        ranks.append(r)
        cur = [[sum((row[t] * lx[t][c] for t in range(n)), field.zero)
                for c in range(n)] for row in cur]
    return tuple(ranks)


def conjugate(partition):
    """The conjugate of a partition: part m counts the parts >= m."""
    if not partition:
        return ()
    return tuple(sum(1 for p in partition if p >= m)
                 for m in range(1, partition[0] + 1))


def partition_from_ranks(ranks, total: int):
    """Jordan partition of a nilpotent operator on a `total`-dim space, by
    the conjugate partition: ranks is (rank N, rank N^2, ...) truncated at
    zero, and the conjugate's parts are the rank differences.  The
    reference for `contraction.partition_from_rank_sequence`'s block
    counts; it drops a zero difference, so it labels a stalled sequence
    such as (1, 1) on Q^3 that no nilpotent operator has."""
    rs = [total] + [r for r in ranks if r > 0]
    conj = [rs[i] - rs[i + 1] for i in range(len(rs) - 1)]
    conj.append(rs[-1])
    conj = [c for c in conj if c > 0]
    if any(conj[i] < conj[i + 1] for i in range(len(conj) - 1)):
        raise ValueError(f"not the rank sequence of a nilpotent operator: {ranks}")
    return conjugate(conj)


def iw_sequence(partition):
    """The rank sequence r_m = sum_i max(lambda_i - m, 0) of an `iw_max`
    label: exact, as the parts of size one `partition_from_rank_sequence`
    drops add 0 and its all-ones label of the zero sequence gives ()."""
    return tuple(sum(max(p - m, 0) for p in partition)
                 for m in range(1, max(partition, default=1)))


def whole_table_draws(dim, rng, spread=3):
    """Random integer table {(i, j): vector}, zero vectors left out, every
    coefficient drawn in pair order: the former body of
    degeneration._int_anticommutative."""
    table = {}
    for i in range(1, dim):
        for j in range(i + 1, dim + 1):
            vec = tuple(rng.randint(-spread, spread) for _ in range(dim))
            if any(vec):
                table[(i, j)] = vec
    return table


def random_member(dim, pairs, rng, spread=3):
    """Random integer member {(i, j): vector} of the set of `_hit_pairs`
    `pairs`, zero vectors left out: the draws of the former sampled
    lower-triangular probe.  Only the free coordinates are drawn, in pair
    order: k..n of a hit product (none for k = n + 1) and all n of any
    other, so `pairs = ()` draws a whole table."""
    start = {(p, q): k - 1 for p, q, k in pairs}
    table = {}
    for p in range(dim - 1):
        for q in range(p + 1, dim):
            lo = start.get((p, q), 0)
            vec = (0,) * lo + tuple(rng.randint(-spread, spread)
                                    for _ in range(lo, dim))
            if any(vec):
                table[(p + 1, q + 1)] = vec
    return table


def random_anticommutative(dim, rng, spread=3):
    """Random integer table: `random_member` with no flag conditions, the
    draws of `whole_table_draws`."""
    return fraction_tensor(dim, random_member(dim, (), rng, spread))


def random_lower_triangular(dim, rng):
    """Random integer flag-preserving basis: row i lives in <e_i, ..., e_n>,
    with a nonzero diagonal."""
    rows = []
    for i in range(dim):
        row = [0] * dim
        row[i] = rng.choice([x for x in range(-3, 4) if x])
        for k in range(i + 1, dim):
            row[k] = rng.randint(-3, 3)
        rows.append(row)
    return rows


def flag_change_meets(table, n, g, pairs):
    """Membership of the orbit point of a flag-preserving basis g in the
    set of the pair map `pairs`: span(g_k, ..., g_n) = V_k, so each hit
    product A(g_p, g_q) of the tensor's table must vanish in its standard
    coordinates 1..k-1."""
    from degenlab.algebra import _int_product

    return not any(any(_int_product(table, n, g[p], g[q])[:k - 1])
                   for p, q, k in pairs)


def exact_lower_triangular_probe(pairs, dim):
    """The former exact lower-triangular probe, for any pair map `pairs`
    ((p, q, k), p < q, 0-based): pass iff the set is stable under the
    lower-triangular group B in dimension `dim`; a fail names both pairs.
    A set of triples always passes (B fixes every V_k), so only a pair map
    that no set of triples gives reaches the fail.

    Let k(p, q) be the listed k of a pair, 1 for an unlisted one.  The set
    is B-stable iff k({a, b}) >= k(p, q) for every listed (p, q), a >= p,
    b >= q, a != b.  Sufficient: g in B has g_p in V_p, so
    A(g_p, g_q) = sum g_pa g_qb A(e_a, e_b) over such a, b lies in
    V_k(p, q) = span(g_k, ..., g_n).  Necessary: a member whose one nonzero
    constant is coordinate k(p, q) - 1 of e_a e_b, moved by g_p = e_p + e_a,
    g_q = e_q + e_b (other rows e_r), leaves the set.  Taking a < b
    suffices: for a > b, the pair (b, a) has b >= q > p and a > b >= q.
    """
    from degenlab.degeneration import Verdict

    strictest = {(p, q): k for p, q, k in pairs}
    for p, q, k in pairs:
        for a in range(p, dim):
            for b in range(max(q, a + 1), dim):
                low = strictest.get((a, b), 1)
                if low < k:
                    return Verdict(
                        "fail",
                        f"e{p + 1}e{q + 1} must lie in V_{k}, but a "
                        f"flag-preserving change mixes in e{a + 1}e{b + 1}, "
                        f"which need only lie in V_{low}")
    return Verdict("pass")


def sampled_lower_triangular_probe(pairs, dim, samples=100, seed=0):
    """The former sampled lower-triangular probe, for any pair map `pairs`
    ((p, q, k), p < q, 0-based): each sample draws a random member
    (`random_member`) and moves it by a random lower-triangular basis; a
    moved table outside the set is a fail verdict.  Evidence only: a pass
    says that `samples` draws found no counterexample."""
    import random

    from degenlab.algebra import _int_identity
    from degenlab.degeneration import Verdict

    rng = random.Random(seed)
    for trial in range(samples):
        tensor = fraction_tensor(dim, random_member(dim, pairs, rng))
        table = tensor.table
        if not flag_change_meets(table, dim, _int_identity(dim), pairs):
            return Verdict("fail", f"sampler produced a non-member at trial {trial}")
        g = random_lower_triangular(dim, rng)
        if not flag_change_meets(table, dim, g, pairs):
            return Verdict(
                "fail",
                f"membership lost under a flag-preserving change at trial {trial}",
                {"tensor": tensor.to_json_obj(),
                 "basis": [[str(x) for x in row] for row in g]},
            )
    return Verdict("pass")


def inverse_orbit_point(table, n, g):
    """Orbit point of the basis s g (s = d L) through the full inverse
    R = d g^-1 and every product of the tensor's table, handed to
    `fraction_tensor(n, {(i, j): dense coordinates})`; None if g is
    singular."""
    from degenlab.algebra import int_change_basis

    d, rows = int_change_basis(table, n, g)
    if not d:
        return None
    products = {}
    for i, j, entries in rows:
        vec = [0] * n
        for k, x in entries:
            vec[k] = x
        products[(i + 1, j + 1)] = tuple(vec)
    return fraction_tensor(n, products)


def closed_set_member(a, spec):
    """Membership in the flag-condition set: the coordinates 1..k-1 of each
    product e_p e_q that `_hit_pairs` lists with k are 0, read off the
    integer table, whose entries of a pair are nonzero and in order."""
    from degenlab.degeneration import _hit_pairs

    first = {(i, j): entries[0][0] for i, j, entries in a.table}
    return not any(first.get((p, q), k) < k - 1
                   for p, q, k in _hit_pairs(spec, a.dim))


def limit_at_zero(num, den):
    """num / den at t = 0 as a Fraction, or None at a pole (ord_t num <
    ord_t den); den is nonzero, and the pair need not be reduced."""
    if not num:
        return Fraction(0)
    v = den.order()
    if num.order() < v:
        return None
    return Fraction(num.coeffs[v], den.coeffs[v])


def source_side_oracle(w, src):
    """The reason a closed-set witness's source side refutes it, or None
    when the source meets the set: the stored basis at t = 0 by
    `limit_at_zero`, scaled by `int_scaled`, moved by `inverse_orbit_point`
    and tested by `closed_set_member` (and the R quadratics for BespokeR);
    the source itself when no basis is stored."""
    from degenlab.degeneration import _R_FLAGS, _r_quadratics_hold
    from degenlab.linalg import int_scaled

    spec, cone = ((w.spec, None) if w.kind == "ClosedSet"
                  else (_R_FLAGS, _r_quadratics_hold))
    moved = src
    if w.source_rows:
        rows = [[limit_at_zero(*x) for x in row] for row in w.source_rows]
        if any(x is None for row in rows for x in row):
            return "stored source basis has a pole at t = 0"
        moved = inverse_orbit_point(src.table, src.dim, int_scaled(rows)[1])
        if moved is None:
            return "stored source basis is singular at t = 0"
    if not (closed_set_member(moved, spec) and (cone is None or cone(moved.table))):
        return "stored source basis does not land in the set"
    return None


def inverse_orbit_refute(b, member, trials, seed):
    """Orbit sampling through the full inverse: each draw of integer rows
    is inverted, singular draws are redrawn, and `member` (a cone) tests
    the whole orbit point.  The verdicts of randomized_orbit_refute."""
    import random

    from degenlab.degeneration import Verdict

    rng = random.Random(seed)
    table, n = b.table, b.dim
    for trial in range(trials):
        while True:
            g = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            moved = inverse_orbit_point(table, n, g)
            if moved is not None:
                break
        if member(moved):
            return Verdict(
                "refuted",
                f"orbit member found in the set at trial {trial}",
                {"basis": [[str(x) for x in row] for row in g]},
            )
    return Verdict(
        "refutation_not_found",
        f"no orbit sample of {trials} landed in the set (falsification only)",
    )


def inverse_lower_triangular_probe(dim, samples, seed, sampler, member):
    """The lower-triangular probe through the full inverse, for any
    (sampler, member) pair: `sampler(rng)` draws a table that `member` (a
    cone) must accept, and each moved orbit point must stay a member."""
    import random

    from degenlab.degeneration import Verdict

    rng = random.Random(seed)
    for trial in range(samples):
        tensor = sampler(rng)
        if not member(tensor):
            return Verdict("fail", f"sampler produced a non-member at trial {trial}")
        g = random_lower_triangular(dim, rng)
        if not member(inverse_orbit_point(tensor.table, dim, g)):
            return Verdict(
                "fail",
                f"membership lost under a flag-preserving change at trial {trial}",
                {"tensor": tensor.to_json_obj(),
                 "basis": [[str(x) for x in row] for row in g]},
            )
    return Verdict("pass")


# --- the two-pass table reader --------------------------------------------

_RATIONAL_TEXT = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def rational_from_obj_oracle(obj):
    """The rational rule as it read before the one-match reader: a string
    is matched by a group-free regex, then handed whole to `Fraction`,
    which matches it again with its own."""
    from degenlab.exactnum import DivisionByZero

    if isinstance(obj, Fraction):
        return obj
    if isinstance(obj, int) and not isinstance(obj, bool):
        return Fraction(obj)
    if isinstance(obj, str):
        if not _RATIONAL_TEXT.fullmatch(obj.strip()):
            raise ValueError(f"cannot interpret {obj!r} as a rational number")
        try:
            return Fraction(obj.strip())
        except ZeroDivisionError:
            raise DivisionByZero(f"zero denominator in {obj!r}") from None
    raise TypeError(f"cannot interpret {obj!r} as a rational number")


def from_json_obj_oracle(obj):
    """(dim, products) as the two-pass reader built them: each entry read
    by `rational_from_obj_oracle`, then wrapped again by `Fraction(x)` as
    the tensor stored it, and the all-zero vectors dropped; the same
    TableFormatError texts."""
    from degenlab.algebra import MAX_DIM, TableFormatError

    dim = obj.get("dim") if isinstance(obj, dict) else None
    if type(dim) is not int or dim < 1:
        raise TableFormatError("an algebra table is an object with a "
                               "positive integer dim")
    if dim > MAX_DIM:
        raise TableFormatError(f"dim {dim} exceeds MAX_DIM = {MAX_DIM}")
    records, table = obj.get("products", []), {}
    try:
        if not isinstance(records, list):
            raise TypeError("products is not a list")
        for rec in records:
            i, j, value = rec["i"], rec["j"], rec["value"]
            if not (type(i) is type(j) is int and 1 <= i < j <= dim):
                raise ValueError(f"key ({i},{j}) is not 1 <= i < j <= {dim}")
            if not isinstance(value, list) or len(value) != dim:
                raise ValueError(f"value of ({i},{j}) is not {dim} entries")
            if (i, j) in table:
                raise ValueError(f"key ({i},{j}) is given twice")
            table[(i, j)] = tuple(map(rational_from_obj_oracle, value))
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise TableFormatError(f"bad products entry: {exc}") from None
    return dim, {key: tuple(Fraction(x) for x in vec)
                 for key, vec in table.items() if any(vec)}


def fraction_tensor(dim, products=None):
    """The tensor as the former Fraction reader built it from a dict
    {(i, j): vector}, 1-based: each entry read as Fraction(x) into a
    reduced pair, the key and the vector's length checked, the rows
    scaled by `_scaled_table` and handed to the one constructor."""
    from degenlab.algebra import DimensionMismatch, StructureTensor, _scaled_table

    if dim < 1:
        raise ValueError("dimension must be positive")
    rows = {}
    for (i, j), vec in (products or {}).items():
        if not 1 <= i < j <= dim:
            raise ValueError(f"product key ({i},{j}) is not 1 <= i < j <= n")
        vec = [(x.numerator, x.denominator) for x in map(Fraction, vec)]
        if len(vec) != dim:
            raise DimensionMismatch(f"product vector for ({i},{j}) has wrong length")
        rows[(i, j)] = vec
    return StructureTensor(dim, *_scaled_table(rows))


def from_pairs_oracle(dim, pairs):
    """The tensor as `from_pairs` built it from Fractions: each coefficient
    summed as Fraction(coeff), the vectors handed to `fraction_tensor`,
    which scales them to the integer table."""
    table = {}
    for entry in pairs:
        if len(entry) == 3:
            i, j, k = entry
            coeff = 1
        else:
            i, j, k, coeff = entry
        vec = list(table.get((i, j), (Fraction(0),) * dim))
        vec[k - 1] += Fraction(coeff)
        table[(i, j)] = tuple(vec)
    return fraction_tensor(dim, table)


def tensor_eq_oracle(a, b):
    """`==` as it read `products`: the same dimension and the same dict."""
    return a.dim == b.dim and a.products == b.products


def weight_spaces_oracle(a):
    """The blocks of coordinates on which every weight of a's diagonal
    torus agrees, read off sympy's null space of the incidence rows
    e_i + e_j - e_k (no row: every weight, so one coordinate a block)."""
    import sympy

    n, rows = a.dim, []
    for i, j, entries in a.table:
        for k, _ in entries:
            row = [0] * n
            row[i] += 1
            row[j] += 1
            row[k] -= 1
            rows.append(row)
    weights = (sympy.Matrix(rows).nullspace() if rows
               else [sympy.eye(n)[:, c] for c in range(n)])
    blocks = {}
    for c in range(n):
        blocks.setdefault(tuple(w[c] for w in weights), []).append(c)
    return tuple(map(tuple, blocks.values()))


def torus_fixed_flag_oracle(b, spec, cone=None):
    """"meets", "misses" or "undecided" for the torus-fixed flags of b in
    the set of the flag conditions `spec` (and `cone`, read on the table
    of the basis), by brute force over every order of the coordinates as a
    full flag, g_r = e_perm[r].  On a 2-dim weight space <e_a, e_c>, a < c,
    a placed deeper than c stands for the line u = x e_a + y e_c and c for
    the rest of the plane; the conditions on (x, y) are sympy polynomials, with a
    common zero in P^1 iff they vanish at (1, 0) or their values at y = 1
    have a gcd of positive degree.  A cone on a line family, a weight
    space of dim >= 3 or two of dim 2 are "undecided"."""
    import itertools
    import sympy

    from degenlab.algebra import change_basis

    n = b.dim
    blocks = [block for block in weight_spaces_oracle(b) if len(block) > 1]
    if len(blocks) > 1 or blocks and len(blocks[0]) > 2:
        return "undecided"
    plane = blocks[0] if blocks else ()
    x, y = sympy.symbols("x y")
    prod = {}
    for i, j, entries in b.table:
        vec = [0] * n
        for k, v in entries:
            vec[k] = v
        prod[(i, j)], prod[(j, i)] = vec, [-v for v in vec]
    zero = [0] * n

    def mul(s, t):  # s, t: a coordinate, or "u" for the line
        if s == "u" and t == "u":
            return zero
        if s == "u":
            return [-v for v in mul(t, s)]
        if t == "u":
            a, c = plane
            return [x * p + y * q for p, q in zip(prod.get((s, a), zero),
                                                  prod.get((s, c), zero))]
        return prod.get((s, t), zero)

    for perm in itertools.permutations(range(n)):
        if plane and perm.index(plane[0]) < perm.index(plane[1]):
            continue
        conds = []
        for i, j, k in spec:
            def basis(level):
                coords = perm[level - 1:]
                if plane and plane[0] in coords and plane[1] not in coords:
                    return ["u" if cc == plane[0] else cc for cc in coords]
                return list(coords)

            inside = set(perm[k - 1:])
            for s in basis(i):
                for t in basis(j):
                    v = mul(s, t)
                    conds += [v[r] for r in range(n) if r not in inside and r not in plane]
                    if plane:
                        a, c = plane
                        if c in inside:
                            pass
                        elif a in inside:  # W_k meets the plane in the line
                            conds.append(v[a] * y - v[c] * x)
                        else:
                            conds += [v[a], v[c]]
        if any(isinstance(e, int) and e for e in conds):
            continue
        conds = [e for e in map(sympy.expand, conds) if e != 0]
        if any(not e.free_symbols for e in conds):
            continue
        if conds and any(e.subs({x: 1, y: 0}) != 0 for e in conds):
            common = conds[0].subs(y, 1)
            for e in conds[1:]:
                common = sympy.gcd(common, e.subs(y, 1))
            if sympy.degree(common, x) < 1:
                continue
        if cone is None:
            return "meets"
        if plane:
            return "undecided"
        g = [[Fraction(int(perm[r] == col)) for col in range(n)] for r in range(n)]
        if cone(change_basis(b, g).table):
            return "meets"
    return "misses"


def catalog_labels(max_dim=12):
    """{label: table} for every catalog name at every dim up to max_dim."""
    from degenlab.catalog import _FAMILIES, CatalogName, instantiate

    tables = {}
    for spelling, fam in _FAMILIES.items():
        m = fam.min_m
        while fam.bound(m)[0] <= max_dim:
            name = CatalogName(spelling, m)
            lo, hi = fam.bound(m)
            for n in range(lo, min(hi or max_dim, max_dim) + 1):
                tables[f"{name.key}@{n}"] = instantiate(name, n)
            if m is None:
                break
            m += 1
    return tables
