"""Independent brute-force oracles used to pin expected values.

Deliberately separate from the package's linear algebra: plain Gaussian
elimination over Fraction, direct product-span row reduction, and a direct
annihilator solve.  Tests freeze the numbers these produce.
"""

from fractions import Fraction


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
        c = x[i - 1] * y[j - 1] - x[j - 1] * y[i - 1]
        out[k - 1] += Fraction(coeff) * c
    return out


def pairs_of(tensor):
    """(i, j, k, coeff) list of a StructureTensor (duck-typed)."""
    out = []
    for (i, j), vec in tensor.products.items():
        for k, c in enumerate(vec, start=1):
            if c:
                out.append((i, j, k, c))
    return out


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
