"""Command-line front end.

Subcommands: info, check, verify-paper, catalog list, catalog table,
iwmax, classify.  Every number printed here is produced by a library
call; the CLI only formats.  `verify-paper --ledger PATH` runs the ledger
at PATH instead of the shipped one, and its report records PATH as
given; the shipped ledger is recorded as `degenlab/data/ledger.json`, so
a seed gives the same report bytes from any checkout.

Exit codes for `check`: 0 pass/proved, 2 fail/refuted, 3 sampling-only
(refutation not found), 1 I/O, parse or argument errors (such as
--trials below 1, for a certificate file as for a witness file, which
`iwmax` and `verify-paper` refuse too: `main` checks it before any
other argument).  `verify-paper` exits 0 exactly when the report
contains no FAIL entries, 2 when it does and 1 on the same errors;
`--dims` given with no value, or with values that select no certificate,
witness or chain of the ledger, is such an error and writes no report.
Leaving out `--dims` runs the whole ledger.
A file that `verify-paper --ledger`, `check` or `classify --file` cannot
read is one error line and exit 1, never a traceback: it cannot be
opened, is not UTF-8, does not parse as JSON, or nests too deep for the
parser (`verification_db.read_json`, the one reader of the three).  The
line names the file and the reason: `cannot read ledger PATH: ...`, and
`claim` or `table` in place of `ledger` for `check` and `classify`.
A certificate `basis` that is not a list of strings is a parse error
(exit 1).  Its rows are parsed when the certificate is verified, so a
row that does not parse, or a basis of the wrong length, is a fail
verdict (exit 2, a FAIL entry in the report); a witness payload is read
at load (exit 1).  `classify --file` reads the table format that
`catalog table` writes; a file that does not parse, or a malformed table
(`StructureTensor.from_json_obj`), is one error line and exit 1, as is an
unknown family or dimension for `info`, `iwmax`, `catalog table` and
`classify`; an unknown family reads `unknown catalog family 'name'`, as
in a ledger.  `check` loads its claim as a one-claim ledger, so every
loader rule holds for it (exit 1): an unknown family reads `algebra
reference name@n: unknown catalog family 'name'`, a source and target
that share a label but not a table, or an inline table under a catalog
member's label that is not its table, read `label name@n names two
different tables`, and a proper certificate between catalog levels that
rule it out is refused; it judges a certificate as `verify-paper` does,
by its exact check and separator.  A catalog name must
be a family's exact key, here as in a ledger: a padded name (" eta2") or a parameter
with a leading zero ("eta02") is an unknown family.  No dimension may exceed
`algebra.MAX_DIM` (64): a larger `--dim`, table `dim`, ledger reference
`dim` or chain `dim` is refused before any table is built, with one
`error:` line and exit 1.  `classify` given a
name or `--dim` together with `--file` is an argument error (exit 1), not
a run on the file.  A table that is not Engel, where the run reads its
rank sequences (the `iw_partition` separator of a verified proper
certificate, the source of an IWDominance witness or its target at the
given element), is one `error:` line naming its label and an element a
whose L_a is not nilpotent
(`error: name@3: L_a is not nilpotent at a = (0, 1, 0)`), and exit 1:
for `check` as for `verify-paper`, which then writes no report.  No
other step reads them: a certificate between such tables with another
separator, or none, is judged by its exact check and separator alone.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import catalog
from .algebra import (
    StructureTensor,
    TableFormatError,
    engel_degree,
    identity_flags,
    is_nilpotent,
)
from .contraction import NotEngelAt, iw_max
from .degeneration import Records, verify_nondegeneration
from .verification_db import (
    SHIPPED_LEDGER_NAME,
    InconsistentLedger,
    ParseError,
    hasse_dot,
    judge_certificate,
    ledger_from_obj,
    load_ledger,
    read_json,
    report_to_json_bytes,
    run_ledger,
    shipped_ledger_path,
)

DEFAULT_SEED = 20240917


def _emit(args, human_lines, payload):
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in human_lines:
            print(line)


def _error(message) -> int:
    """Print one error line; returns exit code 1."""
    print(f"error: {message}", file=sys.stderr)
    return 1


def _instantiate(args):
    """The catalog algebra args.name at args.dim, or None after an error
    line."""
    try:
        return catalog.instantiate(args.name, args.dim)
    except catalog.DimensionOutOfRange as exc:
        _error(exc)
    except catalog.UnknownFamily:
        _error(f"unknown catalog family {args.name!r}")
    return None


def cmd_info(args) -> int:
    tensor = _instantiate(args)
    if tensor is None:
        return 1
    flags = identity_flags(tensor)
    nil, nil_index = is_nilpotent(tensor)
    partition, _ = iw_max(tensor, seed=args.seed)
    levels = catalog.level_lookup(args.name, args.dim)
    payload = {
        "name": args.name,
        "dim": args.dim,
        "dim_square": tensor.dim_square,
        "ann_dim": tensor.ann_dim,
        "nilpotent": nil,
        "nilpotency_index": nil_index,
        "engel_degree": engel_degree(tensor, tensor.dim + 1),
        "jacobi": flags.jacobi,
        "malcev": flags.malcev,
        "iw_max": list(partition),
        "level": levels.level.to_json_obj(),
        "infinite_level": levels.infinite_level.to_json_obj(),
    }
    lines = [
        f"{args.name} at dimension {args.dim}",
        f"  dim A^2         {payload['dim_square']}",
        f"  dim Ann         {payload['ann_dim']}",
        f"  nilpotent       {nil} (index {nil_index})",
        f"  engel degree    {payload['engel_degree']}",
        f"  jacobi / malcev {flags.jacobi} / {flags.malcev}",
        f"  IW-max          {tuple(partition)}",
        f"  level           {levels.level}",
        f"  infinite level  {levels.infinite_level}",
    ]
    _emit(args, lines, payload)
    return 0


def cmd_check(args) -> int:
    try:
        obj = read_json(args.path, f"cannot read claim {args.path}: ")
    except ParseError as exc:
        return _error(exc)
    if not isinstance(obj, dict):
        return _error(f"{args.path} does not hold a JSON object")
    witness = "kind" in obj
    claim = {"id": "cli-witness" if witness else "cli-cert", **obj}
    try:
        ledger = ledger_from_obj({"certificates": [] if witness else [claim],
                                  "witnesses": [claim] if witness else []})
        records = Records(args.seed)
        verdict = (verify_nondegeneration(ledger.witnesses[0], records,
                                          trials=args.trials) if witness
                   else judge_certificate(ledger.certificates[0], records)[0])
    except (KeyError, ValueError) as exc:
        return _error(exc)
    payload = {
        "status": verdict.status,
        "reason": verdict.reason,
        "data": dict(verdict.data),
    }
    _emit(args, [f"{verdict.status}: {verdict.reason}" if verdict.reason
                 else verdict.status], payload)
    if verdict.ok:
        return 0
    if verdict.status == "refutation_not_found":
        return 3
    return 2


def _ledger_dims(ledger) -> set:
    """The dimensions of the ledger's certificates, witnesses and chains."""
    return ({c.source.dim for c in ledger.certificates}
            | {w.source.dim for w in ledger.witnesses}
            | {ch.dim for ch in ledger.chains})


def cmd_verify_paper(args) -> int:
    if args.dims == []:
        return _error("--dims needs at least one dimension")
    try:
        if args.ledger:
            ledger = load_ledger(args.ledger)
        else:
            ledger = load_ledger(shipped_ledger_path())._replace(
                path=SHIPPED_LEDGER_NAME)
    except (ParseError, InconsistentLedger) as exc:
        return _error(exc)
    if args.dims and not set(args.dims) & _ledger_dims(ledger):
        return _error(f"--dims {' '.join(map(str, args.dims))} selects no "
                      f"certificate, witness or chain of the ledger")
    try:
        report = run_ledger(
            ledger, seed=args.seed, trials=args.trials, dims=args.dims
        )
    except NotEngelAt as exc:
        return _error(exc)
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "report.json").write_bytes(report_to_json_bytes(report))
        dims = sorted({
            int(e["source"].rsplit("@", 1)[1]) for e in report["certificates"]
        })
        for dim in dims:
            (out_dir / f"hasse_dim{dim}.dot").write_text(
                hasse_dot(report, dim), encoding="utf-8"
            )
    except OSError as exc:
        return _error(exc)
    counts = report["summary"]["counts"]
    lines = [f"report written to {out_dir}/report.json"]
    lines += [f"  {k:<20} {v}" for k, v in sorted(counts.items())]
    lines.append(f"  failures: {report['summary']['failures']}")
    _emit(args, lines, report["summary"])
    return 0 if report["summary"]["failures"] == 0 else 2


def cmd_catalog_table(args) -> int:
    tensor = _instantiate(args)
    if tensor is None:
        return 1
    print(json.dumps(tensor.to_json_obj(), indent=2, sort_keys=True))
    return 0


def cmd_catalog_list(args) -> int:
    rows = [{key: fam[key] for key in ("name", "min_dim", "max_dim", "iw_max")}
            for fam in catalog.build_manifest()["families"]]
    lines = [f"{r['name']:<22} dims {r['min_dim']}..{r['max_dim'] or ''}"
             f"  IW-max {r['iw_max']}" for r in rows]
    _emit(args, lines, rows)
    return 0


def cmd_iwmax(args) -> int:
    tensor = _instantiate(args)
    if tensor is None:
        return 1
    partition, witness = iw_max(tensor, seed=args.seed, trials=args.trials)
    payload = {
        "name": args.name, "dim": args.dim,
        "partition": list(partition),
        "witness": [str(x) for x in witness],
    }
    _emit(args, [f"IW-max partition {tuple(partition)}",
                 f"witness element {payload['witness']}"], payload)
    return 0


def cmd_classify(args) -> int:
    if args.file and (args.name is not None or args.dim is not None):
        return _error("classify takes a catalog name with --dim, or --file, "
                      "not both")
    if args.file:
        try:
            tensor = StructureTensor.from_json_obj(
                read_json(args.file, f"cannot read table {args.file}: "))
        except (ParseError, TableFormatError) as exc:
            return _error(exc)
    elif args.name is None or args.dim is None:
        return _error("classify needs a catalog name with --dim, or --file")
    else:
        tensor = _instantiate(args)
        if tensor is None:
            return 1
    try:
        result = catalog.classify_T22(tensor)
    except catalog.PreconditionViolated as exc:
        return _error(exc)
    label = getattr(result, "key", repr(result))
    _emit(args, [label], {"classification": label})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="degenlab",
        description="Exact catalog and certificate checker for degenerations "
                    "of anticommutative nilpotent algebras of small level.",
    )
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="invariants of a catalog algebra")
    p.add_argument("name")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("check", help="verify a certificate or witness file")
    p.add_argument("path")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--trials", type=int, default=200)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("verify-paper",
                       help="run the shipped ledger and write the report")
    p.add_argument("--dims", type=int, nargs="*", default=None)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--out", default="verify-out")
    p.add_argument("--ledger", default=None,
                   help="run this ledger instead of the shipped one")
    p.set_defaults(func=cmd_verify_paper)

    p = sub.add_parser("catalog", help="catalog operations")
    csub = p.add_subparsers(dest="catalog_command", required=True)
    pl = csub.add_parser("list", help="list the catalog families")
    pl.set_defaults(func=cmd_catalog_list)
    pt = csub.add_parser("table", help="emit a multiplication table as JSON")
    pt.add_argument("name")
    pt.add_argument("--dim", type=int, required=True)
    pt.set_defaults(func=cmd_catalog_table)

    p = sub.add_parser("iwmax", help="dominant one-dimensional contraction")
    p.add_argument("name")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--trials", type=int, default=20)
    p.set_defaults(func=cmd_iwmax)

    p = sub.add_parser("classify",
                       help="canonical name of a two-block-contraction algebra")
    p.add_argument("name", nargs="?")
    p.add_argument("--dim", type=int)
    p.add_argument("--file", default=None,
                   help="algebra JSON file instead of a catalog name")
    p.set_defaults(func=cmd_classify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # every command with --trials checks it first: a repair or an orbit
    # sample needs at least one
    if getattr(args, "trials", 1) < 1:
        return _error(f"trials must be >= 1, got {args.trials}")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
