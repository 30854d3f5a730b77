"""Acceptance suite: one test per exit criterion, one verdict line each.

Every expected number asserted here was first computed with the
independent oracles in oracles.py (row reduction over plain Fractions,
direct annihilator solves) and then frozen as a literal.
"""

import hashlib
import json
import random
import time
from fractions import Fraction

import pytest

from degenlab.algebra import change_basis, engel_degree, identity_flags, is_nilpotent, left_mult_matrix
from degenlab.catalog import (
    LevelValue,
    classify_T22,
    instantiate,
    parse_name,
)
from degenlab.contraction import iw_max
from degenlab.degeneration import (
    _R_FLAGS,
    Records,
    _r_quadratics_hold,
    randomized_orbit_refute,
    verify_degeneration,
)
from degenlab.linalg import power_rank_sequence
from degenlab.verification_db import (
    load_ledger,
    report_to_json_bytes,
    run_ledger,
    shipped_ledger_path,
)

from oracles import ann_dim_oracle, random_lower_triangular, square_dim_oracle
from oracles import closed_set_member, fraction_inverse, matmul
from oracles import partition_from_ranks

SEED = 20240917

LEMMA_PREFIXES = (
    "T22deg.", "T22rest.", "T2k2rest1.", "T2k2rest2.", "T2k2rest3.",
    "T222lev.", "T2222lev.", "T3lev.", "T32lev.", "T3rest2.", "T4lev.",
)


def _report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def ledger():
    return load_ledger(shipped_ledger_path())


@pytest.fixture(scope="module")
def full_report(ledger):
    return run_ledger(ledger, seed=SEED, trials=200)


def test_criterion_1_certificate_suite(ledger):
    start = time.time()
    lemma_certs = [
        c for c in ledger.certificates
        if c.cert_id.startswith(LEMMA_PREFIXES)
    ]
    failures = []
    for cert in lemma_certs:
        verdict = verify_degeneration(cert, Records())
        if verdict.status != "pass":
            failures.append((cert.cert_id, verdict.reason))
    elapsed = time.time() - start
    lemmas = {c.cert_id.split(".")[0] for c in lemma_certs}
    _report(
        1,
        len(lemma_certs) >= 25 and not failures and elapsed < 30.0
        and lemmas >= {"T22deg", "T22rest", "T2k2rest1", "T2k2rest2",
                       "T2k2rest3", "T222lev", "T2222lev", "T3lev",
                       "T32lev", "T3rest2", "T4lev"},
        f"{len(lemma_certs)} transcribed lemma certificates verified in "
        f"{elapsed:.1f}s, failures: {failures}",
    )


def test_criterion_2_level_lower_bound_chains(ledger, full_report):
    chains = {c["id"]: c for c in full_report["chains"]}
    bad = [c for c in chains.values() if c["status"] != "VERIFIED"]
    # chain lengths pinned for the three examples named in the criterion
    assert len(chains["chain.T22_e45.7"]["edges"]) == 5
    assert len(chains["chain.T4_e23.5"]["edges"]) == 5
    assert len(chains["chain.eta3.7"]["edges"]) == 3
    # every theorem algebra at its minimal dimension carries a chain
    expected = {
        3: ["T3.5", "T22_e23.6", "T22_e24.6", "eta3.7", "T222.7"],
        4: ["T3_e23.5", "T3_e24.5", "T4.5", "T22_e34.6", "T32.6",
            "T222_e23.7", "eta4.9", "T2222.9"],
        5: ["T3_e34.5", "T4_e23.5", "T3_e45.6", "T32_e23.6", "T4.6",
            "T22_e45.7", "T222_e24.7", "T222_e7special.7", "T33.7",
            "T322.8", "eta5.11", "T22222.11"],
    }
    missing = []
    for level, names in expected.items():
        for label in names:
            cid = f"chain.{label}"
            if cid not in chains:
                missing.append(cid)
            elif chains[cid]["expected_level"] != level:
                missing.append(f"{cid}:level")
    # each edge of each verified chain ends at the zero algebra and every
    # edge certificate was verified with a non-triviality certification
    cert_entries = {e["id"]: e for e in full_report["certificates"]}
    unproved_edges = []
    for chain in chains.values():
        for eid in chain["edges"]:
            entry = cert_entries[eid]
            if entry.get("nontrivial") not in ("PROVED", "PAPER-ASSERTED"):
                unproved_edges.append(eid)
    _report(
        2,
        not bad and not missing and not unproved_edges,
        f"{len(chains)} chains verified at exact lengths; "
        f"bad={bad} missing={missing} unproved={unproved_edges}",
    )


def test_criterion_3_invariant_witnesses(ledger, full_report):
    tier1 = {"DimSquare", "AnnDim"}
    entries = [w for w in full_report["witnesses"]
               if any(w["id"].startswith(p) for p in ("W.",))]
    failures = [w for w in entries
                if w["kind"] in tier1 and w["status"] != "PROVED"]
    # oracle-pinned dimensions behind the named subscripts
    pins = [
        # (1,1,n-1): square of e24 strictly below square of e23 at n=6
        ("T22_e24", 6, "square", 2), ("T22_e23", 6, "square", 3),
        # (1,4,n+1): annihilator of e23 beats e24 at n=6
        ("T22_e23", 6, "ann", 3), ("T22_e24", 6, "ann", 2),
        # (1,5,n+1): annihilator of e34 beats e45 at n=7
        ("T22_e34", 7, "ann", 3), ("T22_e45", 7, "ann", 2),
        # (1,10,n+1): eta5 at n=11 has a one-dimensional annihilator
        ("eta5", 11, "ann", 1), ("T222_e24", 11, "ann", 7),
    ]
    pin_failures = []
    for key, n, kind, want in pins:
        tensor = instantiate(key, n)
        got = square_dim_oracle(tensor) if kind == "square" \
            else ann_dim_oracle(tensor)
        if got != want:
            pin_failures.append((key, n, kind, got, want))
    witness_ids = {w["id"] for w in entries}
    named = {
        "W.T22lev.b.6",   # (1,1,n-1)
        "W.T22lev.a.6",   # (1,4,n+1)
        "W.T22deg.b.7",   # (1,5,n+1)
        "W.T222lev.c.11",  # (1,10,n+1)
    }
    _report(
        3,
        not failures and not pin_failures and named <= witness_ids,
        f"{sum(1 for w in entries if w['kind'] in tier1)} dimension "
        f"witnesses PROVED; oracle pins hold; failures={failures} "
        f"pins={pin_failures}",
    )


def test_criterion_4_iw_fidelity():
    with open(shipped_ledger_path().replace("ledger.json", "manifest.json"),
              encoding="utf-8") as fh:
        manifest = json.load(fh)
    mismatches = []
    checked = 0
    for family in manifest["families"]:
        name = parse_name(family["name"])
        for n in family["tested_dims"]:
            tensor = instantiate(name, n)
            part, _ = iw_max(tensor, seed=SEED)
            if family["iw_max"] == "ones":
                want = (1,) * (n - 1)
            else:
                want = tuple(family["iw_max"])
            checked += 1
            if part != want:
                mismatches.append((family["name"], n, part, want))
    expected_count = sum(len(f["tested_dims"]) for f in manifest["families"])
    _report(
        4,
        checked == expected_count and checked >= 60 and not mismatches,
        f"IW-max fidelity on {checked} catalog instances; "
        f"mismatches={mismatches}",
    )


def test_criterion_5_identity_corollaries():
    with open(shipped_ledger_path().replace("ledger.json", "manifest.json"),
              encoding="utf-8") as fh:
        manifest = json.load(fh)
    non_lie = set()
    problems = []
    for family in manifest["families"]:
        name = parse_name(family["name"])
        for rec in family["levels"]:
            level = LevelValue.from_json_obj(rec["level"])
            if level.exact is None or level.exact > 5:
                continue
            n = rec["dim"]
            tensor = instantiate(name, n)
            flags = identity_flags(tensor)
            nilpotent, index = is_nilpotent(tensor)
            if not flags.malcev:
                problems.append((family["name"], n, "malcev"))
            if not nilpotent or index is None:
                problems.append((family["name"], n, "nilpotent"))
            if not flags.jacobi:
                non_lie.add(family["name"])
    _report(
        5,
        not problems and non_lie == {"T3_e34", "T222_e7special"},
        f"all level<=5 members Malcev and nilpotent; Jacobi fails exactly "
        f"for {sorted(non_lie)}; problems={problems}",
    )


def test_criterion_6_bespoke_set_reproduction():
    start = time.time()
    special = instantiate("T222_e7special", 7)
    perm = [0, 1, 2, 4, 5, 3, 6]
    rows = [[Fraction(int(j == perm[i])) for j in range(7)] for i in range(7)]
    moved = change_basis(special, rows)
    inside = closed_set_member(moved, _R_FLAGS) and _r_quadratics_hold(moved.table)
    v1 = randomized_orbit_refute(
        instantiate("T22_e45", 7), _R_FLAGS, trials=1000, seed=SEED,
        cone=_r_quadratics_hold,
    )
    v2 = randomized_orbit_refute(
        instantiate("T222_e24", 7), _R_FLAGS, trials=1000, seed=SEED,
        cone=_r_quadratics_hold,
    )
    elapsed = time.time() - start
    _report(
        6,
        inside and v1.status == "refutation_not_found"
        and v2.status == "refutation_not_found" and elapsed < 60.0,
        f"permutation basis lies in R; 2x1000 orbit samples all outside "
        f"(falsification tier) in {elapsed:.1f}s",
    )


def test_criterion_7_engel_degrees():
    cases = [("eta2", 5, 2), ("eta3", 7, 2), ("eta4", 9, 2),
             ("T22", 5, 2), ("T22_e23", 6, 2), ("T22_e24", 6, 2),
             ("T22_e34", 6, 2), ("T22_e45", 7, 2),
             ("T4", 5, 4), ("T4_e23", 5, 4)]
    wrong = []
    rng = random.Random(SEED)
    spot_failures = []
    for key, n, want in cases:
        tensor = instantiate(key, n)
        got = engel_degree(tensor, n)
        if got != want:
            wrong.append((key, n, got, want))
            continue
        for _ in range(200):
            v = tuple(Fraction(rng.randint(-7, 7)) for _ in range(n))
            # (L_v)^got = 0 iff the rank sequence stops before got entries
            if len(power_rank_sequence(left_mult_matrix(tensor, v), got)) == got:
                spot_failures.append((key, n))
                break
    _report(
        7,
        not wrong and not spot_failures,
        f"engel degrees match on {len(cases)} families with 200 random "
        f"spot checks each; wrong={wrong} spots={spot_failures}",
    )


def test_criterion_8_classifier_round_trip():
    rng = random.Random(SEED)
    keys = ("T22", "T22_e23", "T22_e24", "T22_e34", "T22_e45")
    mis = []
    extensions = 0
    total = 0
    for key in keys:
        dims = (7,) if key == "T22_e45" else (6, 7)
        for n in dims:
            base = instantiate(key, n)
            for _ in range(100):
                moved = change_basis(base, random_lower_triangular(n, rng))
                result = classify_T22(moved)
                total += 1
                label = getattr(result, "key", None)
                if label == key:
                    continue
                if label is None and repr(result) == "NeedsExtension":
                    extensions += 1
                    continue
                mis.append((key, n, label or repr(result)))
    _report(
        8,
        total == 900 and not mis,
        f"classifier recovered the canonical name on {total} transforms "
        f"({extensions} NeedsExtension escapes); misclassifications={mis}",
    )


def test_criterion_9_property_suites(ledger, full_report):
    # monotone-invariant audit over the full ledger: any violation turns a
    # certificate entry into FAIL inside run_ledger
    cert_fails = [e for e in full_report["certificates"]
                  if e["status"] != "VERIFIED"]
    probe_fails = [e for e in full_report["closed_set_probes"]
                   if e["status"] != "PASS"]
    specs = {tuple(tuple(t) for t in e["triples"])
             for e in full_report["closed_set_probes"]}

    rng = random.Random(SEED)
    conj_failures = 0
    for _ in range(500):
        n = rng.randint(2, 9)
        nil = [[Fraction(rng.randint(-2, 2)) if j > i else Fraction(0)
                for j in range(n)] for i in range(n)]
        while True:
            p = [[Fraction(rng.randint(-3, 3)) for _ in range(n)]
                 for _ in range(n)]
            pinv = fraction_inverse(p)
            if pinv is not None:
                break
        conj = matmul(matmul(p, nil), pinv)
        if (partition_from_ranks(power_rank_sequence(conj, n + 1), n)
                != partition_from_ranks(power_rank_sequence(nil, n + 1), n)):
            conj_failures += 1
    _report(
        9,
        not cert_fails and not probe_fails and conj_failures == 0
        and len(specs) >= 4,
        f"monotone audit clean on {len(full_report['certificates'])} "
        f"certificates; {len(full_report['closed_set_probes'])} closed-set "
        f"probes pass; 500 conjugation invariance checks clean",
    )


# SHA-256 of report_to_json_bytes for the shipped ledger at SEED, with the
# "ledger" field set to "ledger.json"; recorded before the integer orbit
# engine replaced the Fraction sampling path, which must not move a byte.
GOLDEN_REPORT_SHA256 = {
    20: "2049268272fab363c50347a548d82a21afc51c7a9e093faa884b19d94459763a",
    200: "f417b5911c11550551838d6f96994f3ff68adb28d145f01c86383be3a4400d81",
}


def _report_digest(report):
    return hashlib.sha256(
        report_to_json_bytes(dict(report, ledger="ledger.json"))).hexdigest()


def test_golden_report_digest_20_trials(ledger):
    report = run_ledger(ledger, seed=SEED, trials=20)
    assert _report_digest(report) == GOLDEN_REPORT_SHA256[20]


def test_golden_report_digest_200_trials(full_report):
    assert _report_digest(full_report) == GOLDEN_REPORT_SHA256[200]
