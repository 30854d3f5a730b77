import collections
import copy
import importlib.util
import inspect
import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from degenlab import catalog, contraction, degeneration, verification_db
from degenlab.algebra import StructureTensor, change_basis
from degenlab.catalog import (
    MANIFEST_FAMILIES,
    build_manifest,
    instantiate,
    pfaffian_conic_profile,
)
from degenlab.catalog import tested_dims as catalog_tested_dims
from degenlab.contraction import dominates, iw_max, rank_sequence
from degenlab.degeneration import AlgebraRef, Records
from degenlab.verification_db import (
    ClaimLedger,
    InconsistentLedger,
    ParseError,
    SEPARATORS,
    hasse_dot,
    ledger_from_obj,
    load_ledger,
    report_to_json_bytes,
    run_ledger,
    separator_check,
    shipped_ledger_path,
)
from oracles import iw_max_oracle, iw_sequence, products_reads, random_lower_triangular
from paperdata import build_ledger


def shipped_obj():
    with open(shipped_ledger_path(), encoding="utf-8") as fh:
        return json.load(fh)


def test_shipped_ledger_loads_with_enough_claims():
    ledger = load_ledger(shipped_ledger_path())
    assert len(ledger.certificates) >= 25
    assert len(ledger.witnesses) >= 20
    assert len(ledger.chains) == 25


def test_generators_reproduce_the_shipped_data_files():
    # tools/make_ledger.py writes both files from these generators
    tool = Path(__file__).resolve().parents[1] / "tools" / "make_ledger.py"
    spec = importlib.util.spec_from_file_location("make_ledger", tool)
    make_ledger = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_ledger)
    data = Path(shipped_ledger_path()).parent
    for name, obj in (("ledger.json", build_ledger()),
                      ("manifest.json", build_manifest())):
        assert make_ledger.render(obj).encode("utf-8") == (data / name).read_bytes()


def test_empty_ledger_is_vacuously_consistent():
    ledger = ledger_from_obj({"certificates": [], "witnesses": [], "chains": []})
    report = run_ledger(ledger, seed=1, trials=5)
    assert report["summary"]["failures"] == 0


def test_a_run_calls_the_probe_once_per_closed_set_in_report_order(monkeypatch):
    # the benchmark marks one segment per call of the probe through this
    # module's name, so each distinct (triples, dim) must still reach it
    calls = []
    probe = verification_db.lower_triangular_invariance_probe
    monkeypatch.setattr(verification_db, "lower_triangular_invariance_probe",
                        lambda spec, dim: calls.append((spec, dim)) or probe(spec, dim))
    ledger = load_ledger(shipped_ledger_path())
    report = run_ledger(ledger._replace(certificates=[], chains=[]), seed=1, trials=1)
    assert len(calls) == 9
    assert calls == [(tuple(map(tuple, e["triples"])), e["dim"])
                     for e in report["closed_set_probes"]]


@pytest.mark.parametrize("trials", [0, -1])
def test_run_ledger_needs_a_sample(trials):
    ledger = ledger_from_obj({"certificates": [], "witnesses": [], "chains": []})
    with pytest.raises(ValueError):
        run_ledger(ledger, seed=1, trials=trials)


def test_contradictory_pair_is_rejected():
    # a witness A -/-> B is refused when certificates lead from A to B, by
    # one certificate or, as for a composed pair of the report, by several
    for source, target, path in (
            ("T22_e34@6", "T22_e24@6", "T22deg.2.6"),
            ("T22_e45@7", "T22_e24@7", "T22deg.1.7, T22deg.2.7")):
        obj = copy.deepcopy(shipped_obj())
        refs = {f"{r['name']}@{r['dim']}": r for c in obj["certificates"]
                for r in (c["source"], c["target"])}
        obj["witnesses"].append({
            "id": "W.bogus",
            "kind": "DimSquare",
            "source": refs[source],
            "target": refs[target],
            "payload": {},
            "provenance": "synthetic contradiction",
        })
        with pytest.raises(InconsistentLedger, match=(
                f"witness W.bogus denies {source} -> {target}, but "
                f"certificates {path} lead there")):
            ledger_from_obj(obj)


def test_no_shipped_inline_table_takes_a_catalog_label():
    # an inline table under a label that a catalog member has must be that
    # member's table (test_cli pins the refusal); the shipped ledger's 36
    # inline labels name no catalog family, so no shipped output moves
    obj = shipped_obj()
    labels = {(r["name"], r["dim"]) for c in obj["certificates"] + obj["witnesses"]
              for r in (c["source"], c["target"]) if "products" in r}
    assert len(labels) == 36
    for name, _ in labels:
        with pytest.raises(catalog.UnknownFamily):
            catalog.parse_name(name)


def test_a_proper_certificate_must_lower_the_catalog_level():
    # conn.n3_zero.4 reversed claims zero@4 -> n3@4 proper, from level 0
    # to level 1; the shipped ledger has no such certificate
    obj = copy.deepcopy(shipped_obj())
    cert = next(c for c in obj["certificates"] if c["id"] == "conn.n3_zero.4")
    assert cert["proper"] is True
    cert["source"], cert["target"] = cert["target"], cert["source"]
    with pytest.raises(InconsistentLedger, match=(
            "certificate conn.n3_zero.4 claims zero@4 -> n3@4 proper, from "
            "level 0 to 1")):
        ledger_from_obj(obj)
    # the same pair not claimed proper is left to the certificate check
    cert["proper"] = None
    cert.pop("separator", None)
    assert ledger_from_obj(obj)


def test_the_level_rule_reads_exact_levels_and_bounds():
    level, forbids = catalog.LevelValue, catalog.level_forbids
    assert forbids(level(exact=3), level(exact=3))
    assert forbids(level(exact=3), level(exact=4))
    assert not forbids(level(exact=3), level(exact=2))
    # a target known by a lower bound at least the source's level
    assert forbids(level(exact=5), level(at_least=6))
    assert forbids(level(exact=6), level(at_least=6))
    assert not forbids(level(exact=7), level(at_least=6))
    # a source known only by a bound decides nothing
    assert not forbids(level(at_least=6), level(exact=6))
    assert not forbids(level(at_least=6), level(at_least=7))


def test_chain_length_must_match_catalog_level():
    obj = copy.deepcopy(shipped_obj())
    chain = next(c for c in obj["chains"] if c["algebra"] == "T22_e45")
    chain["edges"] = chain["edges"][:-1]
    chain["expected_level"] = 4
    with pytest.raises(InconsistentLedger):
        ledger_from_obj(obj)


def test_parse_error_on_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ParseError):
        load_ledger(path)


def test_corrupted_entry_is_isolated():
    obj = copy.deepcopy(shipped_obj())
    for cert in obj["certificates"]:
        if cert["id"] == "T22deg.1.7":
            cert["basis"][4] = "t*e5"  # wrong slot scaled
    ledger = ledger_from_obj(obj)
    report = run_ledger(ledger, seed=3, trials=5, dims=[7])
    statuses = {e["id"]: e["status"] for e in report["certificates"]}
    assert statuses["T22deg.1.7"] == "FAIL"
    others = [v for k, v in statuses.items() if k != "T22deg.1.7"]
    assert all(s == "VERIFIED" for s in others)
    chains = {c["id"]: c["status"] for c in report["chains"]}
    assert chains["chain.T22_e45.7"] == "FAIL"
    assert chains["chain.T222_e24.7"] == "VERIFIED"


def test_a_chain_with_a_paper_asserted_edge_is_not_verified():
    # a chain proves its level only if each edge is proved nontrivial
    obj = copy.deepcopy(shipped_obj())
    chain = next(c for c in obj["chains"] if c["id"] == "chain.T22_e45.7")
    edge = chain["edges"][0]
    cert = next(c for c in obj["certificates"] if c["id"] == edge)
    assert cert["separator"] != "paper"
    cert["separator"] = "paper"
    report = run_ledger(ledger_from_obj(obj), seed=3, trials=5, dims=[7])
    certs = {e["id"]: e for e in report["certificates"]}
    assert certs[edge]["status"] == "VERIFIED"
    assert certs[edge]["nontrivial"] == "PAPER-ASSERTED"
    chains = {c["id"]: c["status"] for c in report["chains"]}
    assert chains["chain.T22_e45.7"] == "PAPER-ASSERTED"
    assert chains["chain.T222_e24.7"] == "VERIFIED"
    assert report["summary"]["failures"] == 0


def test_report_determinism_same_seed_same_bytes():
    ledger = load_ledger(shipped_ledger_path())
    r1 = run_ledger(ledger, seed=9, trials=10, dims=[6])
    r2 = run_ledger(ledger, seed=9, trials=10, dims=[6])
    assert report_to_json_bytes(r1) == report_to_json_bytes(r2)


def test_hasse_dot_contains_solid_and_declared_nodes():
    ledger = load_ledger(shipped_ledger_path())
    report = run_ledger(ledger, seed=2, trials=5, dims=[5])
    dot = hasse_dot(report, 5)
    assert '"T4@5" -> "T3@5"' in dot
    assert '"n3@5" -> "zero@5"' in dot
    assert "digraph" in dot


def test_hasse_dot_escapes_quotes_and_backslashes_in_labels():
    # an inline table's name is free text; every node id stays one DOT
    # string, and the ids of shipped labels are unchanged
    report = {"certificates": [
        {"status": "VERIFIED", "source": 'my "alg"@4', "target": "zero@4",
         "nontrivial": True},
        {"status": "VERIFIED", "source": "back\\slash@4", "target": 'my "alg"@4'}],
        "composed": [{"dim": 4, "source": "back\\slash@4", "target": "zero@4"}]}
    dot = hasse_dot(report, 4)
    assert dot.splitlines()[2:] == [
        '  "back\\\\slash@4";',
        '  "my \\"alg\\"@4";',
        '  "zero@4";',
        '  "back\\\\slash@4" -> "my \\"alg\\"@4" [style=solid, color=gray];',
        '  "back\\\\slash@4" -> "zero@4" [style=dashed];',
        '  "my \\"alg\\"@4" -> "zero@4" [style="solid"];',
        "}"]
    # each line reads as DOT ids: quoted strings whose inner quotes are
    # escaped
    ident = r'"(?:[^"\\]|\\.)*"'
    for line in dot.splitlines()[2:-1]:
        assert re.fullmatch(rf"  {ident}( -> {ident} \[.*\])?;", line), line


def _edge_attributes(dot):
    """(source, target, {key: value}) for each edge line of a DOT digraph,
    its attribute list read as comma-separated key=value pairs (a value is
    a bare word or a quoted string, whose quotes are dropped)."""
    edges = []
    for line in dot.splitlines():
        if "->" not in line:
            continue
        match = re.fullmatch(r'  "([^"]+)" -> "([^"]+)" \[(.*)\];', line)
        assert match, line
        pairs = re.findall(r'(\w+)=("[^"]*"|[^",\s]+)', match[3])
        assert ", ".join(f"{k}={v}" for k, v in pairs) == match[3], line
        edges.append((match[1], match[2], {k: v.strip('"') for k, v in pairs}))
    return edges


def test_hasse_dot_edges_have_a_style_name_and_grey_edges_a_color():
    # style is a list of style names; the grey of an arrow that is not
    # claimed proper must be its own color attribute
    ledger = load_ledger(shipped_ledger_path())
    report = run_ledger(ledger, seed=2, trials=5, dims=[5])
    edges = _edge_attributes(hasse_dot(report, 5))
    assert all(attrs["style"] in ("solid", "dashed") and set(attrs) <= {"style", "color"}
               for _, _, attrs in edges)
    grey = [(src, tgt) for src, tgt, attrs in edges if attrs.get("color") == "gray"]
    assert grey
    assert all(attrs["style"] == "solid" for _, _, attrs in edges
               if attrs.get("color") == "gray")


def test_separator_battery():
    records = Records()
    src, tgt = AlgebraRef("T22_e24", 6), AlgebraRef("T22_e23", 6)
    assert separator_check("dim_square", records, src, tgt) == (
        True, "dim_square: source 2, target 3")
    assert separator_check("ann_dim", records, src, tgt) == (
        True, "ann_dim: source 2, target 3")
    ok, _ = separator_check("classifier", records, src,
                            AlgebraRef("T22_e34", 6))
    assert ok
    same = AlgebraRef("X", 6, instantiate("T22_e24", 6))
    for kind in SEPARATORS[1:]:
        assert separator_check(kind, records, src, same)[0] is False, kind
    assert separator_check("paper", records, src, tgt)[0] is None


def test_the_loader_accepts_exactly_the_separators_the_check_knows():
    records = Records()
    src, tgt = AlgebraRef("T22_e24", 6), AlgebraRef("T22_e23", 6)
    for kind in SEPARATORS:
        separator_check(kind, records, src, tgt)
    with pytest.raises(ValueError, match="unknown separator"):
        separator_check("nosuch", records, src, tgt)
    shipped = {c.separator for c in load_ledger(shipped_ledger_path()).certificates}
    assert shipped - {None} <= set(SEPARATORS)


def test_the_run_reads_each_dominant_sequence_off_its_iw_max_label(monkeypatch):
    # the audit needs no rank sequence beside iw_max: on the certificates
    # and chains of the shipped ledger rank_sequence is never called, and
    # on the whole ledger only for the target elements of IWDominance
    def refuse(a, vec):
        raise AssertionError("rank_sequence called")

    for module in (contraction, degeneration, verification_db):
        monkeypatch.setattr(module, "rank_sequence", refuse, raising=False)
    obj = shipped_obj()
    obj["witnesses"] = []
    report = run_ledger(ledger_from_obj(obj), seed=20240917, trials=1)
    assert report["summary"]["failures"] == 0

    calls = []
    monkeypatch.setattr(degeneration, "rank_sequence",
                        lambda a, vec: calls.append(vec) or rank_sequence(a, vec))
    ledger = load_ledger(shipped_ledger_path())
    run_ledger(ledger, seed=20240917, trials=1)
    elements = [tuple(map(Fraction, w.payload["element"]))
                for w in ledger.witnesses if w.kind == "IWDominance"]
    assert len(elements) == 3 and calls == elements


def test_the_run_builds_one_invariant_record_per_label(monkeypatch):
    # the run's Records store holds one tensor per label (160), witnesses
    # included, each a catalog or inline JSON table that carries its
    # integer table from construction; the checks, the audit, the
    # separators, iw_max and classify_T22 read that table, and no step of
    # the run reads the Fraction products (91 reads when the certificate
    # check compared Fraction limits)
    tensors, resolve = {}, AlgebraRef.resolve

    def resolved(ref):
        tensor = tensors[ref.label] = resolve(ref)
        StructureTensor.table.__get__(tensor)  # set, not filled when read
        return tensor

    monkeypatch.setattr(AlgebraRef, "resolve", resolved)
    with products_reads() as reads:
        ledger = load_ledger(shipped_ledger_path())
        report = run_ledger(ledger, seed=20240917, trials=1)
        records = Records(20240917)
        src, tgt = AlgebraRef("T222", 7), AlgebraRef("T3", 7)
        for kind in SEPARATORS:
            separator_check(kind, records, src, tgt)
        assert separator_check("iw_partition", records, src, tgt) == (
            True, "iw_partition: source (2, 2, 2), target (3,)")
    assert report["summary"]["failures"] == 0
    labels = {ref.label for claim in ledger.certificates + ledger.witnesses
              for ref in (claim.source, claim.target)}
    assert len(labels) == 160 and tensors.keys() == labels
    assert reads == []


def test_an_iw_partition_separator_continues_the_audit_scan(monkeypatch):
    # the separator reads each label's scan in the run's store, the one the
    # dominance audit left: one iw_scan per label of the claim
    cert = {"id": "c", "source": {"name": "T222", "dim": 7},
            "target": {"name": "T22", "dim": 7},
            "basis": ["e1", "e2", "e3", "t*e4", "e7", "e5", "e6"],
            "proper": True, "separator": "iw_partition"}
    ledger = ledger_from_obj({"certificates": [cert]})
    scans = collections.Counter()
    iw_scan = contraction.iw_scan

    def counted(a, *args):
        scans[id(a)] += 1
        return iw_scan(a, *args)

    for module in (contraction, degeneration):
        monkeypatch.setattr(module, "iw_scan", counted)
    report = run_ledger(ledger, seed=20240917, trials=1)
    entry = report["certificates"][0]
    assert (entry["status"], entry.get("nontrivial")) == ("VERIFIED", "PROVED")
    assert entry["separator"] == "iw_partition: source (2, 2, 2), target (2, 2)"
    assert list(scans.values()) == [1, 1]


@pytest.mark.parametrize("seed", [20240917, 1, 5])
def test_iw_monotone_is_the_dominance_of_full_scans(seed):
    # every shipped certificate pair, and its reverse (where dominance often
    # fails), against iw_max_oracle's full scan with no rank bound: once on
    # the run's shared store, whose scans earlier pairs have advanced, and
    # once on a fresh store, whose scans start at their first candidate;
    # the audit's rule is the dominance of the two sequences that fresh
    # stores read whole, whichever branch the audit took
    full = {}

    def oracle(ref):
        if ref.label not in full:
            partition, _ = iw_max_oracle(ref.resolve(), seed=seed)
            full[ref.label] = iw_sequence(partition)
        return full[ref.label]

    shared = degeneration.Records(seed)
    answers = collections.Counter()
    for cert in load_ledger(shipped_ledger_path()).certificates:
        for src, tgt in ((cert.source, cert.target), (cert.target, cert.source)):
            want = dominates(oracle(src), oracle(tgt))
            assert dominates(Records(seed).iw_sequence(src),
                             Records(seed).iw_sequence(tgt)) == want
            assert shared.iw_monotone(src, tgt) == want, (src.label, tgt.label)
            assert degeneration.Records(seed).iw_monotone(src, tgt) == want
            answers[want] += 1
    assert answers[True] >= 133 and answers[False] > 0


def test_an_audit_from_a_table_that_is_not_nilpotent_names_it():
    # e1e3 = e2, e3e4 = -e3: L_e4 is not nilpotent, and the scan meets a
    # new best first; the zero target's bound is met by any first best, so
    # only the source's own scan can raise
    x = AlgebraRef("X", 5, StructureTensor.from_pairs(5, [(1, 3, 2), (3, 4, 3, -1)]))
    zero = AlgebraRef("zero", 5)
    for src, tgt in ((x, zero), (x, x)):
        with pytest.raises(contraction.NotEngelAt) as info:
            Records().iw_monotone(src, tgt)
        assert str(info.value) == "X@5: L_a is not nilpotent at a = (0, 0, 0, 1, 0)"


def test_the_monotone_audit_names_each_invariant_a_reversed_arrow_breaks():
    # T2k2rest3.a1.m3.7 degenerates T222_e7special@7 to T222_e23@7; read
    # backwards, the arrow raises dim A^2 and shrinks the annihilator
    records = Records()
    src, tgt = AlgebraRef("T222_e23", 7), AlgebraRef("T222_e7special", 7)
    assert verification_db._monotone_audit(records, src, tgt) == [
        "dim square grows: 3 -> 4", "annihilator shrinks: 3 -> 1"]
    assert verification_db._monotone_audit(records, tgt, src) == []


def test_each_declared_order_holds_on_every_passing_shipped_certificate():
    # A -> B keeps order(value of A, value of B) for every row of the
    # invariant table that declares an order: dim A^2, the nilpotency index
    # and the Engel degree fall, dim Ann and C(A^2) rise, and a Lie source
    # has a Lie target; checked on each shipped certificate that passes
    ordered = {name: row for name, row in degeneration.INVARIANTS.items()
               if row.order}
    assert sorted(ordered) == ["ann_dim", "centralizer_square", "dim_square",
                               "engel_degree", "jacobi", "nilindex"]
    records = Records(20240917)
    passing = [c for c in load_ledger(shipped_ledger_path()).certificates
               if verification_db.judge_certificate(c, records)[0].ok]
    assert len(passing) == 133
    broken = [(c.cert_id, name) for c in passing for name, row in ordered.items()
              if not row.order(row.read(records, c.source),
                               row.read(records, c.target))]
    assert broken == []
    # each order is strict on some certificate (for jacobi: a source that
    # is not Lie with a Lie target), so a reversed order fails above
    strict = {name for c in passing for name, row in ordered.items()
              if not row.order(row.read(records, c.target),
                               row.read(records, c.source))}
    assert strict == set(ordered)


def test_a_failed_dominance_audit_fails_every_certificate(monkeypatch):
    # with the dominant rank sequences made to fail the audit, each
    # certificate that passes its exact check reads FAIL, with no tier
    monkeypatch.setattr(Records, "iw_monotone", lambda self, src, tgt: False)
    obj = shipped_obj()
    report = run_ledger(ledger_from_obj({"certificates": obj["certificates"]}),
                        seed=20240917, trials=1)
    assert len(report["certificates"]) == len(obj["certificates"])
    for entry in report["certificates"]:
        assert (entry["status"], entry["reason"]) == (
            "FAIL", "dominant rank sequence not monotone"), entry["id"]
        assert "nontrivial" not in entry


def test_a_scan_left_in_part_finishes_as_a_fresh_iw_max():
    ledger = load_ledger(shipped_ledger_path())
    records = degeneration.Records(20240917)
    for cert in ledger.certificates:
        assert records.iw_monotone(cert.source, cert.target)
    refs = {ref.label: ref for cert in ledger.certificates
            for ref in (cert.source, cert.target)}
    left = [label for label, (scan, _) in records._scans.items()
            if inspect.getgeneratorstate(scan) != inspect.GEN_CLOSED]
    assert len(left) > 50
    for label in left:
        partition, _ = iw_max(refs[label].resolve(), seed=20240917)
        assert records.iw_sequence(refs[label]) == iw_sequence(partition), label


def test_a_certificate_run_builds_each_table_once_and_few_rank_sequences(
        monkeypatch):
    # certificates only, as the ledger-certs benchmark runs them: the check,
    # the audit and the separators read the store's tables, so each catalog
    # label is instantiated once (331 calls when each certificate check
    # resolved its own), and the audit scans each label only as far as its
    # verdict needs, each scan stopping at the lowered bound of contraction
    # (767 rank sequences when the scans stopped only at _rank_bound, 2222
    # when every iw_max ran to its end)
    counts = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    obj = shipped_obj()
    ledger = ledger_from_obj(dict(obj, witnesses=[]))
    catalog_labels = {ref.label for cert in ledger.certificates
                      for ref in (cert.source, cert.target) if ref.tensor is None}
    monkeypatch.setattr(catalog, "instantiate",
                        counted("instantiate", catalog.instantiate))
    monkeypatch.setattr(contraction, "_int_rank_sequence",
                        counted("rank", contraction._int_rank_sequence))
    report = run_ledger(ledger, seed=20240917, trials=200)
    assert report["summary"] == {"counts": {"VERIFIED": 133}, "failures": 0}
    assert counts["instantiate"] == len(catalog_labels) == 108
    assert counts["rank"] <= 250


def test_a_fresh_store_gives_each_witness_the_verdict_of_the_run():
    # `degenlab check` hands verify_nondegeneration a fresh store; the run
    # shares one across the ledger, and no verdict depends on which
    ledger = load_ledger(shipped_ledger_path())
    report = run_ledger(ledger, seed=5, trials=3)
    assert len(ledger.witnesses) == len(report["witnesses"]) == 56
    status = {"proved": "PROVED", "refutation_not_found": "FALSIFICATION-ONLY"}
    for w, entry in zip(ledger.witnesses, report["witnesses"]):
        verdict = degeneration.verify_nondegeneration(
            w, degeneration.Records(5), trials=3)
        assert entry["id"] == w.witness_id
        assert (status.get(verdict.status, "FAIL"), verdict.reason) == (
            entry["status"], entry["reason"]), w.witness_id


def test_pfaffian_conic_profile_distinguishes_the_three_block_pair():
    e23 = pfaffian_conic_profile(instantiate("T222_e23", 7))
    e24 = pfaffian_conic_profile(instantiate("T222_e24", 7))
    plain = pfaffian_conic_profile(instantiate("T222", 7))
    assert e23 == (1, 1)
    assert e24 == (1, 2)
    assert plain == (0, None)
    assert len({e23, e24, plain}) == 3


# pfaffian_conic_profile of every manifest family, the same at each of its
# tested dims
PFAFFIAN_PROFILES = {
    None: ["zero", "eta_eps15", "eta_eps_double2", "eta_eps_double3", "T3",
           "T4", "T32", "T33", "T322", "T222_e7special", "T2k2_special_m4",
           "T2k2_special_m5", "T3_e23", "T3_e24", "T3_e34", "T3_e45",
           "T32_e23", "T4_e23"],
    (0, None): ["n3", "T22", "T222", "T2222", "T22222", "T22_e23"],
    (1, 1): ["eta2", "eta3", "eta4", "eta5", "T22_e24", "T222_e23"],
    (1, 2): ["T22_e34", "T222_e24", "T2k2_e23_shift_m3"],
    (2, None): ["T22_e45", "T2k2_e23_m4", "T2k2_e23_shift_m4",
                "T2k2_e2m2_m3"],
    (3, None): ["T2k2_e23_m5", "T2k2_e2m2_m4"],
}


def test_pfaffian_conic_profile_golden_on_every_manifest_family():
    expected = {key: profile for profile, keys in PFAFFIAN_PROFILES.items()
                for key in keys}
    assert sorted(expected) == sorted(MANIFEST_FAMILIES)
    rng = random.Random(61)
    for key in MANIFEST_FAMILIES:
        for n in catalog_tested_dims(key):
            a = instantiate(key, n)
            assert pfaffian_conic_profile(a) == expected[key], (key, n)
            # a GL-invariant: a flag-preserving conjugate reads the same
            moved = change_basis(a, random_lower_triangular(n, rng))
            assert pfaffian_conic_profile(moved) == expected[key], (key, n)


def test_transitivity_audit_reports_composed_arrows():
    ledger = load_ledger(shipped_ledger_path())
    report = run_ledger(ledger, seed=4, trials=5, dims=[7, 8])
    composed = {(e["source"], e["target"]) for e in report["composed"]}
    # two-step arrows implied by the verified ladder
    assert ("T22_e45@7", "T22_e24@7") in composed
    # the stabilized form of the seven-dimensional exceptional structure
    # does reach the five-level three-block member one dimension up
    assert ("T2k2_special_m3@8", "T222_e24@8") in composed


def test_composed_arrows_come_in_order_of_dim_then_of_the_ledger():
    # a hand-made ledger, its dims interleaved (6, 5, 6) and a failed edge
    # B -> C in the middle: the composed arrows are listed by dim, then in
    # ledger order of their first edge, with no self-loop (P -> Q -> P), no
    # stated pair (B -> D -> F, stated as s) and nothing through the failed
    # edge (A -> B -> C, B -> C -> E)
    edges = [("a", "A", "B", 6, "VERIFIED"), ("p", "P", "Q", 5, "VERIFIED"),
             ("x", "B", "C", 6, "FAIL"), ("q", "Q", "P", 5, "VERIFIED"),
             ("r", "Q", "R", 5, "VERIFIED"), ("b", "B", "D", 6, "VERIFIED"),
             ("c", "C", "E", 6, "VERIFIED"), ("s", "B", "F", 6, "VERIFIED"),
             ("d", "D", "F", 6, "VERIFIED")]
    certs = [degeneration.DegenerationCertificate(
        AlgebraRef(src, dim), AlgebraRef(tgt, dim), (), proper=True, cert_id=cid)
        for cid, src, tgt, dim, _ in edges]
    entries = {cid: {"status": status} for cid, _, _, _, status in edges}
    composed = verification_db._composed_edges(ClaimLedger(certs, [], []), entries)
    assert composed == [
        {"dim": 5, "source": "P@5", "target": "R@5", "via": ["p", "r"]},
        {"dim": 6, "source": "A@6", "target": "D@6", "via": ["a", "b"]},
        {"dim": 6, "source": "A@6", "target": "F@6", "via": ["a", "s"]},
    ]


def test_chain_missing_field_is_a_parse_error():
    obj = copy.deepcopy(shipped_obj())
    del obj["chains"][0]["expected_level"]
    with pytest.raises(ParseError):
        ledger_from_obj(obj)


@pytest.mark.parametrize("section", ["witnesses", "chains"])
def test_duplicate_ids_are_rejected(section):
    obj = copy.deepcopy(shipped_obj())
    obj[section][1]["id"] = obj[section][0]["id"]
    with pytest.raises(InconsistentLedger):
        ledger_from_obj(obj)


def _inline(name, tensor):
    return {"name": name, "dim": tensor.dim,
            "products": tensor.to_json_obj()["products"]}


def test_a_json_float_in_an_inline_product_is_a_parse_error():
    # an inline table is read by StructureTensor.from_json_obj at load:
    # rationals are ints or "p/q" strings, never inexact floats
    source = _inline("X", instantiate("T3", 5))
    obj = {"certificates": [{"id": "a", "source": source,
                             "target": {"name": "zero", "dim": 5},
                             "basis": ["t*e1", "t*e2", "t*e3", "t*e4", "t*e5"]}],
           "witnesses": [], "chains": []}
    source["products"][0]["value"][0] = 0.5
    with pytest.raises(ParseError, match="algebra reference X@5"):
        ledger_from_obj(obj)
    source["products"][0]["value"][0] = "1/2"
    tensor = ledger_from_obj(obj).certificates[0].source.resolve()
    assert tensor == StructureTensor.from_json_obj(source)
    assert tensor.products[(1, 2)][0] == Fraction(1, 2)


def test_label_bound_to_two_tables_is_rejected():
    def cert(cid, source):
        return {"id": cid, "source": source, "target": {"name": "zero", "dim": 5},
                "basis": ["t*e1", "t*e2", "t*e3", "t*e4", "t*e5"]}

    inline_t3 = _inline("X", instantiate("T3", 5))
    inline_t4 = _inline("X", instantiate("T4", 5))
    catalog_x = {"name": "X", "dim": 5}
    same = {"certificates": [cert("a", inline_t3), cert("b", inline_t3)],
            "witnesses": [], "chains": []}
    assert len(ledger_from_obj(same).certificates) == 2
    for other in (inline_t4, catalog_x):
        obj = {"certificates": [cert("a", inline_t3), cert("b", other)],
               "witnesses": [], "chains": []}
        with pytest.raises(InconsistentLedger):
            ledger_from_obj(obj)


def _n3_claims(inline_of):
    """Two certificates to zero@4: one from the catalog's n3@4, one from an
    inline table named n3@4, `inline_of`'s table at dimension 4."""
    basis = ("t*e1", "t*e2", "t*e3", "t*e4")
    inline = AlgebraRef("n3", 4, instantiate(inline_of, 4))
    return [degeneration.DegenerationCertificate(src, AlgebraRef("zero", 4), basis)
            for src in (AlgebraRef("n3", 4), inline)]


def test_a_catalog_label_and_an_inline_copy_of_its_table_load_together():
    # the catalog reference names instantiate("n3", 4), which the inline
    # copy equals, in either order of the claims
    for claims in (_n3_claims("n3"), _n3_claims("n3")[::-1]):
        verification_db.check_references(claims)
        ledger = ledger_from_obj({"certificates": [
            {"id": f"c{k}", "source": (
                {"name": "n3", "dim": 4} if c.source.tensor is None
                else {"name": "n3", **c.source.tensor.to_json_obj()}),
             "target": {"name": "zero", "dim": 4}, "basis": list(c.basis_rows)}
            for k, c in enumerate(claims)]})
        records = Records()
        assert [degeneration.verify_degeneration(c, records).status
                for c in ledger.certificates] == ["pass", "pass"]


def test_an_inline_table_unlike_the_catalogs_is_refused_beside_its_label():
    # also an inline X@4, which no catalog member is, beside a catalog X@4
    loose = [c._replace(source=AlgebraRef("X", 4, c.source.tensor))
             if c.source.tensor else c._replace(source=AlgebraRef("X", 4))
             for c in _n3_claims("T3")]
    for claims in (_n3_claims("T3"), loose):
        for ordered in (claims, claims[::-1]):
            with pytest.raises(InconsistentLedger,
                               match=f"label {claims[0].source.label} names two "
                                     f"different tables"):
                verification_db.check_references(ordered)
