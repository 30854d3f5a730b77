"""Ledger loading and the one-shot verification run.

The ledger is a JSON file with three sections: degeneration certificates,
non-degeneration witnesses, and level chains.  Loading validates the
referential invariants (chains reference existing certificates with
matching endpoints and the stated length; no witness denies A -> B when
certificates lead from A to B; ids are unique strings per section; one
label names one table; catalog names and separators are known), the
level rule of proper certificates, and that ids and provenances are
strings.  Inline tables become `StructureTensor`s at load
(`from_json_obj`), and a witness's payload is read once, as the witness
is built (`NonDegenerationWitness`).
Running the ledger re-verifies everything and emits a deterministic
report: same seed, same bytes.

Verdict statuses are kept tier-honest:

  VERIFIED            exact certificate check passed
  PROVED              invariant-tier witness check passed
  FALSIFICATION-ONLY  closed-set emptiness supported by sampling, not proof
  PAPER-ASSERTED      resting on a non-isomorphism on the source's authority
  FAIL                anything that did not check out

A certificate that passes its exact check is VERIFIED, and a proper one
is then judged by its separator, a row of `degeneration.INVARIANTS` or
`paper`.  Along a degeneration A -> B every closed invariant keeps the
order its row declares, and A's dominant rank sequence dominates B's,
since B lies in the closure of A's orbit (Grunewald-O'Halloran 1988;
Burde-Steinhoff 1999): a theorem once the exact check has passed, so the
run does not check it again.  A run keeps one `degeneration.Records`
store, one tensor per label and one `iw_max` scan per label whose rank
sequence a witness or an `iw_partition` separator reads, and one function
per section (`_certificate_entry`, `_witness_entry`, `_probe_entry`,
`_chain_entry`) makes its report entries from the store alone, so no label
is scanned twice.  `degenlab check` judges its claim, loaded as a
one-claim ledger, on a fresh store by the run's own function.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import NamedTuple

from .algebra import MAX_DIM, StructureTensor, TableFormatError
from .catalog import (DimensionOutOfRange, UnknownFamily, _out_of_range,
                      instantiate, level_forbids, level_lookup, parse_name)
from .degeneration import (
    INVARIANT_KINDS,
    INVARIANTS,
    AlgebraRef,
    DegenerationCertificate,
    NonDegenerationWitness,
    Records,
    UnknownKind,
    Verdict,
    lower_triangular_invariance_probe,
    verify_degeneration,
    verify_nondegeneration,
)


class ParseError(ValueError):
    """Ledger file does not parse or misses required fields."""


class InconsistentLedger(ValueError):
    """Ledger violates a referential invariant."""


class Chain(NamedTuple):
    chain_id: str
    algebra: str
    dim: int
    expected_level: int
    edges: tuple


class ClaimLedger(NamedTuple):
    certificates: list
    witnesses: list
    chains: list
    path: str = ""


def _ref_from_json(obj) -> AlgebraRef:
    """A ledger algebra reference; malformed name, dim (not in
    1..MAX_DIM) or products: ParseError."""
    try:
        name, dim = obj["name"], obj["dim"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad algebra reference {obj!r}") from exc
    if not isinstance(name, str):
        raise ParseError(f"bad algebra reference {obj!r}: name is not a string")
    if type(dim) is not int:
        raise ParseError(f"bad algebra reference {obj!r}: dim is not an integer")
    if dim < 1:
        raise ParseError(f"algebra reference {name}@{dim}: dim is not positive")
    if dim > MAX_DIM:
        raise ParseError(
            f"algebra reference {name}@{dim}: dim exceeds MAX_DIM = {MAX_DIM}")
    tensor = None
    if "products" in obj:
        try:
            tensor = StructureTensor.from_json_obj(obj)
        except TableFormatError as exc:
            raise ParseError(f"algebra reference {name}@{dim}: {exc}") from None
    return AlgebraRef(name, dim, tensor)


def _check_catalog_ref(name, dim: int, where: str):
    """ParseError unless `name` is a string naming a catalog family with a
    member at dimension `dim`, by the catalog's one range check (its bound
    and MAX_DIM); builds no table."""
    try:
        if not isinstance(name, str):
            raise UnknownFamily(name)
        undefined = _out_of_range(parse_name(name), dim)
    except UnknownFamily:
        raise ParseError(f"{where}: unknown catalog family {name!r}") from None
    if undefined:
        raise ParseError(f"{where}: {undefined}")


def _string_field(rec, key: str, default, where: str) -> str:
    """rec[key], or `default` when it is not None and the key is missing;
    ParseError unless the value is a string."""
    value = rec[key] if default is None else rec.get(key, default)
    if not isinstance(value, str):
        raise ParseError(f"{where} {key} must be a string, got {value!r}")
    return value


def certificate_from_json(rec) -> DegenerationCertificate:
    """One certificate record; `basis` must be a list of strings, and
    whether each row parses is decided when the certificate is verified."""
    try:
        basis = rec["basis"]
        if not (isinstance(basis, list) and all(isinstance(r, str) for r in basis)):
            raise ParseError(f"certificate basis must be a list of strings, "
                             f"got {basis!r}")
        cert_id = _string_field(rec, "id", None, "certificate")
        proper, separator = rec.get("proper"), rec.get("separator")
        if not (proper is None or isinstance(proper, bool)):
            raise ParseError(f"certificate {cert_id}: proper must be true, "
                             f"false or null, got {proper!r}")
        if separator is not None and separator not in SEPARATORS:
            raise ParseError(f"certificate {cert_id}: unknown separator "
                             f"{separator!r}")
        if proper and separator is None:
            raise ParseError(f"certificate {cert_id}: a proper certificate "
                             f"names its separator")
        return DegenerationCertificate(
            source=_ref_from_json(rec["source"]),
            target=_ref_from_json(rec["target"]),
            basis_rows=tuple(basis),
            provenance=_string_field(rec, "provenance", "", f"certificate {cert_id}"),
            proper=proper,
            separator=separator,
            cert_id=cert_id,
        )
    except KeyError as exc:
        raise ParseError(f"certificate record missing {exc}") from exc
    except TypeError as exc:
        raise ParseError(f"certificate record is malformed: {exc}") from None


def witness_from_json(rec) -> NonDegenerationWitness:
    """One witness record; its payload is read as the witness is built, and
    a malformed one is a ParseError naming the witness."""
    try:
        witness_id = _string_field(rec, "id", None, "witness")
        fields = dict(
            kind=rec["kind"],
            source=_ref_from_json(rec["source"]),
            target=_ref_from_json(rec["target"]),
            payload=rec.get("payload", {}),
            provenance=_string_field(rec, "provenance", "", f"witness {witness_id}"),
        )
    except KeyError as exc:
        raise ParseError(f"witness record missing {exc}") from exc
    except TypeError as exc:
        raise ParseError(f"witness record is malformed: {exc}") from None
    try:
        return NonDegenerationWitness(**fields, witness_id=witness_id)
    except UnknownKind as exc:
        raise ParseError(f"witness record is malformed: {exc}") from None
    except ValueError as exc:
        raise ParseError(f"witness {witness_id}: {exc}") from None


def ledger_from_obj(obj, path: str = "") -> ClaimLedger:
    if not isinstance(obj, dict) or "certificates" not in obj:
        raise ParseError("ledger object lacks a certificates section")
    for section in ("certificates", "witnesses", "chains"):
        if not isinstance(obj.get(section, []), list):
            raise ParseError(f"ledger section {section!r} is not a list")
    certs = [certificate_from_json(rec) for rec in obj["certificates"]]
    witnesses = [witness_from_json(rec) for rec in obj.get("witnesses", [])]
    chains = []
    for rec in obj.get("chains", []):
        try:
            edges = rec["edges"]
            if not (isinstance(edges, list) and all(isinstance(e, str) for e in edges)):
                raise TypeError("edges must be a list of certificate ids")
            dim, level = rec["dim"], rec["expected_level"]
            if not type(dim) is type(level) is int:
                raise TypeError("dim and expected_level must be integers")
            chains.append(Chain(
                chain_id=_string_field(rec, "id", None, "chain"), algebra=rec["algebra"],
                dim=dim, expected_level=level, edges=tuple(edges),
            ))
        except KeyError as exc:
            raise ParseError(f"chain record missing {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ParseError(f"chain record {rec!r} is malformed: {exc}") from None
    ledger = ClaimLedger(certs, witnesses, chains, path)
    _validate(ledger)
    return ledger


def read_json(path, context: str = ""):
    """The JSON value in the file at path, else ParseError: context and the
    reason's own text, for a file that cannot be opened, is not UTF-8 or
    not JSON (ValueError, as is an int past Python's digit limit) or nests
    deeper than the parser's recursion limit (RecursionError)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ParseError(f"{context}{exc}") from None


def load_ledger(path) -> ClaimLedger:
    return ledger_from_obj(read_json(path, f"cannot read ledger {path}: "), str(path))


def check_references(claims):
    """InconsistentLedger unless each label names one table, as `Records`
    keys them: a catalog reference names instantiate(name, dim), and an
    inline table whose label names a catalog member must be that member's
    table; a label bound inline and to the catalog must so name a member.
    Then ParseError unless each catalog reference names a family member."""
    refs = [ref for claim in claims for ref in (claim.source, claim.target)]
    tables, loose = {}, set()  # loose: inline labels that name no member
    for ref in refs:
        if ref.tensor is None:
            continue  # the member's table, which an inline one is held to
        if ref.label not in tables:
            try:
                tables[ref.label] = instantiate(ref.name, ref.dim)
            except (UnknownFamily, DimensionOutOfRange):
                loose.add(ref.label)
        if tables.setdefault(ref.label, ref.tensor) != ref.tensor:
            raise InconsistentLedger(f"label {ref.label} names two different tables")
    for ref in refs:
        if ref.tensor is None and ref.label in loose:
            raise InconsistentLedger(f"label {ref.label} names two different tables")
    for ref in refs:
        if ref.tensor is None:
            _check_catalog_ref(ref.name, ref.dim, f"algebra reference {ref.label}")


def _validate(ledger: ClaimLedger):
    for kind, ids in (
        ("certificate", [c.cert_id for c in ledger.certificates]),
        ("witness", [w.witness_id for w in ledger.witnesses]),
        ("chain", [ch.chain_id for ch in ledger.chains]),
    ):
        seen = set()
        for rid in ids:
            if rid in seen:
                raise InconsistentLedger(f"duplicate {kind} id {rid}")
            seen.add(rid)
    check_references(ledger.certificates + ledger.witnesses)
    for c in ledger.certificates:
        refs = (c.source, c.target)
        if c.proper and all(ref.tensor is None for ref in refs):
            src, tgt = (level_lookup(ref.name, ref.dim).level for ref in refs)
            if level_forbids(src, tgt):
                raise InconsistentLedger(
                    f"certificate {c.cert_id} claims {c.source.label} -> "
                    f"{c.target.label} proper, from level {src} to {tgt}")
    certs_from = {}
    for c in ledger.certificates:
        certs_from.setdefault(c.source.label, []).append(c)
    for w in ledger.witnesses:
        path = _certificate_path(certs_from, w.source.label, w.target.label)
        if path:
            raise InconsistentLedger(
                f"witness {w.witness_id} denies {w.source.label} -> "
                f"{w.target.label}, but certificates {', '.join(path)} "
                f"lead there"
            )
    index = {c.cert_id: c for c in ledger.certificates}
    for ch in ledger.chains:
        if len(ch.edges) != ch.expected_level:
            raise InconsistentLedger(
                f"{ch.chain_id}: {len(ch.edges)} edges != level "
                f"{ch.expected_level}"
            )
        _check_catalog_ref(ch.algebra, ch.dim, f"chain {ch.chain_id}")
        level = level_lookup(ch.algebra, ch.dim).level
        if level.exact != ch.expected_level:
            raise InconsistentLedger(
                f"{ch.chain_id}: expected level {ch.expected_level} but the "
                f"catalog says {level}"
            )
        prev = f"{ch.algebra}@{ch.dim}"
        for eid in ch.edges:
            cert = index.get(eid)
            if cert is None:
                raise InconsistentLedger(f"{ch.chain_id}: unknown edge {eid}")
            if cert.source.label != prev:
                raise InconsistentLedger(
                    f"{ch.chain_id}: edge {eid} starts at {cert.source.label},"
                    f" expected {prev}"
                )
            if cert.proper is not True:
                raise InconsistentLedger(
                    f"{ch.chain_id}: edge {eid} is not flagged non-trivial"
                )
            prev = cert.target.label
        if not prev.startswith("zero@"):
            raise InconsistentLedger(
                f"{ch.chain_id}: chain ends at {prev}, not the zero algebra"
            )


def _certificate_path(certs_from, source: str, target: str):
    """The ids of a shortest path of certificates from label `source` to
    label `target`, or None; `certs_from` lists them by source label."""
    paths, queue = {}, [(source, ())]
    for label, path in queue:
        for cert in certs_from.get(label, ()):
            nxt = cert.target.label
            if nxt not in paths:
                paths[nxt] = path + (cert.cert_id,)
                queue.append((nxt, paths[nxt]))
    return paths.get(target)


# --- separating invariants -------------------------------------------------


SEPARATORS = ("paper", *INVARIANTS)


def separator_check(kind: str, records: Records, src: AlgebraRef,
                    tgt: AlgebraRef):
    """Certify src != tgt by the invariant `kind`, read on their tables and
    scans in the run's `records`."""
    if kind == "paper":
        return None, "non-isomorphism recorded on the source material's authority"
    if kind not in INVARIANTS:
        raise ValueError(f"unknown separator {kind!r}")
    read = INVARIANTS[kind].read
    a, b = read(records, src), read(records, tgt)
    return a != b, f"{kind}: source {a}, target {b}"


# --- the run ----------------------------------------------------------------


def judge_certificate(cert: DegenerationCertificate, records: Records):
    """(verdict, nontrivial) for one certificate: its exact check, then for
    a passing proper one its separator; a failed separator is a fail
    verdict.  `nontrivial` holds the report fields of a passing proper
    certificate's tier ("nontrivial", and "separator" when PROVED), and is
    empty otherwise."""
    verdict = verify_degeneration(cert, records)
    if not (verdict.ok and cert.proper):
        return verdict, {}
    ok, detail = separator_check(cert.separator, records, cert.source,
                                 cert.target)
    if ok is None:
        return verdict, {"nontrivial": "PAPER-ASSERTED"}
    if ok:
        return verdict, {"nontrivial": "PROVED", "separator": detail}
    return Verdict("fail", f"separator failed: {detail}"), {}


def _certificate_entry(cert: DegenerationCertificate, records: Records) -> dict:
    """The report entry of one certificate, as `judge_certificate` judges it."""
    verdict, nontrivial = judge_certificate(cert, records)
    return {
        "id": cert.cert_id,
        "source": cert.source.label,
        "target": cert.target.label,
        "provenance": cert.provenance,
        "status": "VERIFIED" if verdict.ok else "FAIL",
        "reason": verdict.reason,
        **nontrivial,
    }


_WITNESS_STATUS = {"proved": "PROVED", "refutation_not_found": "FALSIFICATION-ONLY"}


def _witness_entry(w: NonDegenerationWitness, records: Records, trials: int) -> dict:
    """The report entry of one witness, its verdict by tier."""
    verdict = verify_nondegeneration(w, records, trials=trials)
    return {
        "id": w.witness_id,
        "kind": w.kind,
        "source": w.source.label,
        "target": w.target.label,
        "provenance": w.provenance,
        "tier": "invariant" if w.kind in INVARIANT_KINDS else "closed-set",
        "status": _WITNESS_STATUS.get(verdict.status, "FAIL"),
        "reason": verdict.reason,
    }


def _probe_entry(w: NonDegenerationWitness) -> dict:
    """The report entry of the lower-triangular probe of a ClosedSet
    witness's set, in its source dimension."""
    verdict = lower_triangular_invariance_probe(w.spec, w.source.dim)
    return {
        "triples": [list(t) for t in w.spec],
        "dim": w.source.dim,
        "first_witness": w.witness_id,
        "status": "PASS" if verdict.ok else "FAIL",
        "reason": verdict.reason,
    }


def _chain_entry(ch: Chain, cert_entries: dict) -> dict:
    """The report entry of one level chain: FAIL unless every edge is
    VERIFIED, PAPER-ASSERTED unless every edge is also PROVED nontrivial."""
    edges = [cert_entries.get(eid, {}) for eid in ch.edges]
    status = ("FAIL" if any(e.get("status") != "VERIFIED" for e in edges)
              else "VERIFIED" if all(e.get("nontrivial") == "PROVED" for e in edges)
              else "PAPER-ASSERTED")
    return {
        "id": ch.chain_id,
        "algebra": ch.algebra,
        "dim": ch.dim,
        "expected_level": ch.expected_level,
        "edges": list(ch.edges),
        "status": status,
    }


def run_ledger(ledger: ClaimLedger, seed: int = 0, trials: int = 200,
               dims=None) -> dict:
    """Verify every claim; returns the report as a JSON-ready dict.

    Raises ValueError when trials < 1: orbit sampling needs a sample.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    dims = set(dims) if dims else None

    def in_scope(dim):
        return dims is None or dim in dims

    records = Records(seed)
    cert_reports = [_certificate_entry(cert, records)
                    for cert in ledger.certificates if in_scope(cert.source.dim)]
    cert_entries = {e["id"]: e for e in cert_reports}
    witnesses = [w for w in ledger.witnesses if in_scope(w.source.dim)]
    witness_reports = [_witness_entry(w, records, trials) for w in witnesses]
    # each closed set once, under the first witness that names it
    probes = {(w.spec, w.source.dim): w
              for w in reversed(witnesses) if w.kind == "ClosedSet"}
    probe_reports = [_probe_entry(w) for _, w in sorted(probes.items())]
    chain_reports = [_chain_entry(ch, cert_entries)
                     for ch in ledger.chains if in_scope(ch.dim)]

    counts = Counter(e["status"] for e in cert_reports + witness_reports)
    failures = sum(e["status"] == "FAIL" for e in cert_reports + witness_reports
                   + chain_reports + probe_reports)
    return {
        "ledger": ledger.path,
        "seed": seed,
        "trials": trials,
        "dims": sorted(dims) if dims else None,
        "certificates": cert_reports,
        "witnesses": witness_reports,
        "closed_set_probes": probe_reports,
        "chains": chain_reports,
        "composed": _composed_edges(ledger, cert_entries),
        "summary": {
            "counts": dict(sorted(counts.items())),
            "failures": failures,
        },
    }


def _composed_edges(ledger, cert_entries):
    """Transitive arrows implied by two verified certificates, each pair
    once and none that a certificate states, in order of dimension and
    then of the ledger.  A label names its dimension, so one map of
    outgoing arrows serves every dimension."""
    edges = sorted(((cert.source.dim, cert.source.label, cert.target.label, cert.cert_id)
                    for cert in ledger.certificates if cert.proper
                    and cert_entries.get(cert.cert_id, {}).get("status") == "VERIFIED"),
                   key=lambda edge: edge[0])
    outgoing = {}
    for (_, s, t, cid) in edges:
        outgoing.setdefault(s, []).append((t, cid))
    # the stated pairs, then each composed pair once it is listed
    known = {(s, t) for (_, s, t, _) in edges}
    composed = []
    for (dim, s, t, cid) in edges:
        for (t2, cid2) in outgoing.get(t, []):
            if (s, t2) not in known and s != t2:
                known.add((s, t2))
                composed.append({
                    "dim": dim, "source": s, "target": t2,
                    "via": [cid, cid2],
                })
    return composed


def report_to_json_bytes(report: dict) -> bytes:
    return json.dumps(report, indent=2, sort_keys=True).encode("utf-8") + b"\n"


def _dot_id(label: str) -> str:
    """A label as a quoted DOT id, its quotes and backslashes escaped."""
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def hasse_dot(report: dict, dim: int) -> str:
    """DOT digraph of verified (solid, grey when not claimed proper) and
    composed (dashed) arrows."""
    lines = [f'digraph "degenerations_dim{dim}" {{', "  rankdir=TB;"]
    nodes = set()
    edges = []
    for entry in report["certificates"]:
        if entry["status"] != "VERIFIED":
            continue
        src, tgt = entry["source"], entry["target"]
        if not src.endswith(f"@{dim}"):
            continue
        nodes.add(src)
        nodes.add(tgt)
        attrs = ('style="solid"' if entry.get("nontrivial")
                 else "style=solid, color=gray")
        edges.append(f"  {_dot_id(src)} -> {_dot_id(tgt)} [{attrs}];")
    for entry in report["composed"]:
        if entry["dim"] != dim:
            continue
        nodes.add(entry["source"])
        nodes.add(entry["target"])
        edges.append(f"  {_dot_id(entry['source'])} -> "
                     f"{_dot_id(entry['target'])} [style=dashed];")
    for node in sorted(nodes):
        lines.append(f"  {_dot_id(node)};")
    lines.extend(sorted(edges))
    lines.append("}")
    return "\n".join(lines) + "\n"


# what a report records as the shipped ledger, the same from any checkout
SHIPPED_LEDGER_NAME = "degenlab/data/ledger.json"


def shipped_ledger_path() -> str:
    import importlib.resources as resources

    return str(resources.files("degenlab").joinpath("data/ledger.json"))
