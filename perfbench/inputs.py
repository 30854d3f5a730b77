"""Workload inputs, made from the seed before any timing starts.

The ledger workloads read a copy of the shipped ledger cut down to one
kind of claim.  The `queries` workload reads a seeded stream of desk
queries; its dense tables are conjugates of catalog members computed here
with plain Fraction arithmetic, so that no change to degenlab's own
basis-change or sampling code can change the inputs.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

# info runs on catalog tables up to dim 6 and iwmax on conjugates up to
# dim 8: identity_flags costs 1.5-4.7 s and a dense iw_max 0.2-0.4 s at
# dims 9-11, which would make a pass too long to repeat within a run.
INFO_MAX_DIM = 6
IWMAX_MAX_DIM = 8
# conjugates per (family, dim) for classify, so the stream tops 100 queries
CLASSIFY_REPEATS = 5
# trials argument of iw_max for iwmax queries: the `degenlab iwmax` default
IWMAX_TRIALS = 20


def data_dir(root: Path) -> Path:
    return root / "src" / "degenlab" / "data"


def write_ledger_copy(root: Path, workload: str, dest: Path) -> dict:
    """Shipped ledger with only the workload's claims; returns the object."""
    obj = json.loads((data_dir(root) / "ledger.json").read_text(encoding="utf-8"))
    if workload == "ledger-certs":
        obj["witnesses"] = []
    elif workload == "ledger-witnesses":
        obj["certificates"] = []
        obj["chains"] = []
    else:
        raise ValueError(f"not a ledger workload: {workload}")
    dest.write_text(json.dumps(obj, indent=1, sort_keys=True), encoding="utf-8")
    return obj


# --- dense conjugates -------------------------------------------------------


def _random_basis(n: int, rng: random.Random):
    """G = L D U: unit triangular L, U with entries in {-1, 0, 1} and a
    diagonal D holding one 2 and one 3, so G is dense, invertible, and
    G^-1 has denominators dividing 6 whatever the seed."""
    low = [[Fraction(int(i == j)) if j >= i else Fraction(rng.randint(-1, 1))
            for j in range(n)] for i in range(n)]
    up = [[Fraction(int(i == j)) if j <= i else Fraction(rng.randint(-1, 1))
           for j in range(n)] for i in range(n)]
    diag = [Fraction(2), Fraction(3)] + [Fraction(1)] * (n - 2)
    rng.shuffle(diag)
    return [[sum(low[i][k] * diag[k] * up[k][j] for k in range(n))
             for j in range(n)] for i in range(n)]


def _inverse(g):
    """Gauss-Jordan inverse of an invertible Fraction matrix."""
    n = len(g)
    rows = [list(row) + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(g)]
    for c in range(n):
        piv = next(r for r in range(c, n) if rows[r][c])
        rows[c], rows[piv] = rows[piv], rows[c]
        inv_p = 1 / rows[c][c]
        rows[c] = [x * inv_p for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return [row[n:] for row in rows]


def conjugate_table(n: int, products: dict, rng: random.Random) -> dict:
    """Structure constants of the table {(i, j): vec} in a random basis.

    Row i of the basis G is the new basis vector f_i; the coordinates of
    f_i f_j are (f_i f_j) G^-1.  Returns the StructureTensor JSON object.
    """
    g = _random_basis(n, rng)
    g_inv = _inverse(g)
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            p = [Fraction(0)] * n
            for (a, b), vec in products.items():
                c = g[i][a - 1] * g[j][b - 1] - g[i][b - 1] * g[j][a - 1]
                if c:
                    for k in range(n):
                        if vec[k]:
                            p[k] += c * vec[k]
            coords = [sum(p[r] * g_inv[r][k] for r in range(n)) for k in range(n)]
            if any(coords):
                out.append({"i": i + 1, "j": j + 1,
                            "value": [_rational_obj(x) for x in coords]})
    return {"dim": n, "products": out}


def _rational_obj(x: Fraction):
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# --- the query stream -------------------------------------------------------


def _expected_partition(iw, dim: int) -> list:
    # the zero family's label is all ones on the quotient by the witness line
    return [1] * (dim - 1) if iw == "ones" else list(iw)


def make_queries(root: Path, seed: int) -> list:
    """The seeded query stream with the expected answer of each query.

    Every seed gets the same multiset of (kind, family, dim) and differs in
    the conjugating bases, the iw_max seeds and the order, so run-to-run
    cost does not depend on which families a seed happened to draw.
    """
    from degenlab import catalog

    manifest = json.loads((data_dir(root) / "manifest.json").read_text(encoding="utf-8"))
    rng = random.Random(seed)
    stream = []
    for fam in manifest["families"]:
        name = fam["name"]
        dims = fam["tested_dims"]
        expected_iw = catalog.expected_iw_max(name)
        for lv in fam["levels"]:
            if lv["dim"] <= INFO_MAX_DIM:
                stream.append({
                    "kind": "info", "name": name, "dim": lv["dim"],
                    "expect": {"level": lv["level"],
                               "infinite_level": lv["infinite_level"],
                               "iw_max": _expected_partition(expected_iw, lv["dim"])},
                })
        if dims[0] <= IWMAX_MAX_DIM:
            stream.append({"kind": "iwmax", "name": name, "dim": dims[0],
                           "expect": {"iw_max": _expected_partition(expected_iw, dims[0])}})
        if fam["iw_max"] == [2, 2]:
            for dim in dims:
                label = catalog.classify_T22(catalog.instantiate(name, dim))
                for _ in range(CLASSIFY_REPEATS):
                    stream.append({"kind": "classify", "name": name, "dim": dim,
                                   "expect": {"label": getattr(label, "key", repr(label))}})
    rng.shuffle(stream)
    for query in stream:
        query["seed"] = rng.randrange(2 ** 31)
        if query["kind"] != "info":
            table = catalog.instantiate(query["name"], query["dim"])
            query["table"] = conjugate_table(query["dim"], table.products, rng)
    return stream
