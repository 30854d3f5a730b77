"""Digest the command outputs that a refactor must keep byte for byte:
the number of runs and one sha256 over all of them, for the degenlab
sources at SRC.

    python tools/outputs.py SRC

prints `<count> outputs sha256 <hex>`.  Run it on two trees (say a
checkout of the parent commit and the working tree) and compare the
lines.  The runs, each one `degenlab` command:

  - `verify-paper` at seeds 20240917, 1, 2 and 99 (200 trials), on the
    shipped ledger and with `--ledger` on a copy of it, and at the default
    seed with `--dims 6` and with `--dims 7 8`;
  - `--trials 0` for `verify-paper`, for `check` on the first certificate
    and on the first witness, and for `iwmax` on the first manifest
    family at its first tested dimension;
  - `check` and `--json check` on every certificate and every witness of
    the shipped ledger, each written out as a claim file, and on the
    failing n3@3 certificates of `FAILING_BASES`, which no shipped claim
    reaches: a pole, a wrong limit, a singular basis and an unparsable
    row, each with one term per row and with a row of two terms;
  - `check` at `--trials 1` and `--trials 200` on every ClosedSet and
    BespokeR witness, the ones whose target side is searched or drawn,
    and on `SELF_WITNESS`, a ClosedSet witness from T22_e24@6 to itself,
    whose target the flag search puts in the set, which refutes it, and
    `--json check` on it, which writes the refuting basis;
  - `info`, `iwmax`, `classify` and `catalog table`, human and `--json`,
    at every tested dimension of each manifest family, and `catalog list`.

Each run calls `cli.main` in-process, in a fresh temporary directory
that holds its input file, so every path it prints is relative and the
same on any tree.  A run's output is its exit code, stdout, stderr and
every file it writes (`report.json` and each `.dot`), in path order.
Nothing is written outside the temporary directories.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

SEEDS = (20240917, 1, 2, 99)
# basis rows of failing n3@3 -> n3@3 certificates, in pairs: one term per
# row (a monomial basis, but for the singular pair's repeated e1), then a
# row of two terms
FAILING_BASES = (
    ("(1/t)*e1", "e2", "e3"), ("(1/t)*e1+e2", "e2", "e3"),  # a pole
    ("e2", "e1", "e3"), ("e2", "e1+e2", "e3"),  # limit -1 where n3 has 1
    ("e1", "t*e1", "e3"), ("e1+e2", "e1+e2", "e3"),  # singular
    ("e1", "(1/0)*e2", "e3"), ("e1+e2", "e2", "e9"),  # does not parse
)


# W.T22deg.a.6's triples, with the source as the target too
SELF_WITNESS = {"kind": "ClosedSet", "id": "W.self.6",
                "source": {"name": "T22_e24", "dim": 6},
                "target": {"name": "T22_e24", "dim": 6},
                "payload": {"triples": [[1, 3, 6], [3, 3, 7]]}}


def _load(src: Path):
    """The cli and catalog modules of the degenlab package under src."""
    sys.path.insert(0, str(src))
    try:
        from degenlab import catalog, cli
    finally:
        sys.path.remove(str(src))
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"degenlab imported from {cli.__file__}, not {src}")
    return cli, catalog


def _runs(catalog, ledger: dict):
    """(argv, input files) of every run, in a fixed order."""
    text = json.dumps(ledger)
    for seed in SEEDS:
        args = ["verify-paper", "--seed", str(seed), "--out", "out"]
        yield args, {}
        yield args + ["--ledger", "ledger.json"], {"ledger.json": text}
    for dims in (["6"], ["7", "8"]):
        yield ["verify-paper", "--dims", *dims, "--out", "out"], {}
    yield ["verify-paper", "--trials", "0", "--out", "out"], {}
    for claim in (ledger["certificates"][0], ledger["witnesses"][0]):
        yield (["check", "claim.json", "--trials", "0"],
               {"claim.json": json.dumps(claim)})
    name = catalog.MANIFEST_FAMILIES[0]
    yield ["iwmax", name, "--dim", str(catalog.tested_dims(name)[0]),
           "--trials", "0"], {}
    n3 = {"name": "n3", "dim": 3}
    failing = [{"basis": list(rows), "source": n3, "target": n3}
               for rows in FAILING_BASES]
    for claim in ledger["certificates"] + ledger["witnesses"] + failing:
        for fmt in ([], ["--json"]):
            yield fmt + ["check", "claim.json"], {"claim.json": json.dumps(claim)}
    sampled = [w for w in ledger["witnesses"] if w["kind"] in ("ClosedSet", "BespokeR")]
    for claim in sampled + [SELF_WITNESS]:
        for trials in ("1", "200"):
            yield (["check", "claim.json", "--trials", trials],
                   {"claim.json": json.dumps(claim)})
    yield ["--json", "check", "claim.json"], {"claim.json": json.dumps(SELF_WITNESS)}
    for name in catalog.MANIFEST_FAMILIES:
        for dim in catalog.tested_dims(name):
            for command in (["info"], ["iwmax"], ["classify"], ["catalog", "table"]):
                for fmt in ([], ["--json"]):
                    yield fmt + command + [name, "--dim", str(dim)], {}
    for fmt in ([], ["--json"]):
        yield fmt + ["catalog", "list"], {}


def _run(cli, argv, inputs) -> bytes:
    """The sha256 of one run's exit code, stdout, stderr and written files."""
    out, err, here = io.StringIO(), io.StringIO(), os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in inputs.items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        finally:
            os.chdir(here)
        written = sorted(p for p in Path(tmp).rglob("*")
                         if p.is_file() and p.name not in inputs)
        h = hashlib.sha256(json.dumps([argv, code, out.getvalue(),
                                       err.getvalue()]).encode("utf-8"))
        for path in written:
            h.update(path.relative_to(tmp).as_posix().encode("utf-8") + b"\0")
            h.update(path.read_bytes())
    return h.digest()


def digest(src) -> tuple:
    """(count, sha256 hex) of the outputs of the sources at src."""
    cli, catalog = _load(Path(src).resolve())
    from degenlab.verification_db import shipped_ledger_path

    ledger = json.loads(Path(shipped_ledger_path()).read_text(encoding="utf-8"))
    total, count = hashlib.sha256(), 0
    for argv, inputs in _runs(catalog, ledger):
        total.update(_run(cli, argv, inputs))
        count += 1
    return count, total.hexdigest()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    count, hexdigest = digest(argv[0])
    print(f"{count} outputs sha256 {hexdigest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
