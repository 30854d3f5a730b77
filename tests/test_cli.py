import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from degenlab import catalog
from degenlab.algebra import (
    MAX_DIM,
    StructureTensor,
    TableFormatError,
    is_nilpotent,
)
from degenlab.cli import main
from degenlab.degeneration import UnknownKind
from degenlab.contraction import iw_max
from oracles import products_reads
from paperdata import certificates, witnesses


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def cert_by_id(cid):
    return next(c for c in certificates() if c["id"] == cid)


def witness_by_id(wid):
    return next(w for w in witnesses() if w["id"] == wid)


# SHA-256 of the `--json info` output for every manifest family and level
# at dim <= 6, then of `--json iwmax` at each family's first tested
# dimension, in manifest order: a flipped Jacobi or Malcev flag, Engel
# degree, partition or witness changes it
QUERY_OUTPUTS_SHA256 = (
    "2b5212bea22690e1497c8d99684780c65f227edf739b0a369a7d0bf284ed9e21")


def test_query_outputs_are_golden(capsys):
    digest = hashlib.sha256()
    families = catalog.build_manifest()["families"]
    queries = [("info", fam["name"], lv["dim"]) for fam in families
               for lv in fam["levels"] if lv["dim"] <= 6]
    queries += [("iwmax", fam["name"], fam["tested_dims"][0])
                for fam in families]
    for kind, name, dim in queries:
        code, out = run(capsys, "--json", kind, name, "--dim", str(dim))
        assert code == 0, (kind, name, dim)
        digest.update(out.encode("utf-8"))
    assert len(queries) == 65
    assert digest.hexdigest() == QUERY_OUTPUTS_SHA256


def test_info_level_five_lie_member(capsys):
    code, out = run(capsys, "--json", "info", "T32_e23", "--dim", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["level"] == 5
    assert payload["jacobi"] is True


def test_info_level_one(capsys):
    code, out = run(capsys, "--json", "info", "n3", "--dim", "3")
    payload = json.loads(out)
    assert code == 0
    assert payload["level"] == 1
    assert payload["ann_dim"] == 1


def test_info_zero(capsys):
    code, out = run(capsys, "--json", "info", "zero", "--dim", "4")
    payload = json.loads(out)
    assert code == 0
    assert payload["level"] == 0
    assert payload["dim_square"] == 0


def test_info_dimension_out_of_range(capsys):
    assert main(["info", "T22_e45", "--dim", "6"]) == 1


@pytest.mark.parametrize("argv", [
    ["info", "etaX", "--dim", "5"], ["info", "eta-1", "--dim", "3"],
    ["info", "eta+2", "--dim", "5"], ["info", "eta0", "--dim", "3"],
    ["catalog", "table", "eta_eps_double", "--dim", "5"],
    ["iwmax", "T2k2_e23_mq", "--dim", "7"],
    ["info", "T2k2_e23_m0", "--dim", "5"],
    ["classify", "T2k2_special_m1", "--dim", "5"],
    ["info", "T\u00b2", "--dim", "5"],
    ["info", "T2k2_e23_m1", "--dim", "3"],
    ["iwmax", "T2k2_e23_m1", "--dim", "3"],
    ["info", "T2k2_e23_shift_m1", "--dim", "4"],
    ["info", "T2k2_special_m2", "--dim", "5"],
    ["iwmax", "T2k2_special_m2", "--dim", "6"],
    ["info", "T2k2_e2m2_m2", "--dim", "6"],
    ["info", "eta02", "--dim", "5"],
    ["iwmax", "T2k2_e23_m04", "--dim", "9"],
    ["info", " eta2", "--dim", "5"],
])
def test_a_malformed_catalog_name_is_an_error_line(capsys, argv):
    # a family parameter is ASCII digits >= 1 with no leading zero, the
    # all-twos families T2k2_* start at m = 3, and a name is an exact key
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_every_accepted_family_parameter_gives_a_nilpotent_table(capsys):
    # every declared family, and m = 1..6 for each parameterized one, at
    # its least two dims: the key round-trips, the table is nilpotent with
    # the promised IW-max and a level, and the bound is the whole range
    declared = catalog._FAMILIES
    listed = {name.spelling
              for name in map(catalog.parse_name, catalog.MANIFEST_FAMILIES)}
    assert listed == set(declared)
    refused = []
    for spelling, fam in declared.items():
        for m in [None] if fam.min_m is None else range(1, 7):
            key = spelling + ("" if m is None else str(m))
            try:
                name = catalog.parse_name(key)
            except catalog.UnknownFamily:
                refused.append(key)
                assert main(["info", key, "--dim", "9"]) == 1
                assert capsys.readouterr() == (
                    "", f"error: unknown catalog family '{key}'\n")
                continue
            assert name == catalog.CatalogName(spelling, m)
            assert name.key == key
            lo, hi = catalog._bound(name)
            want = catalog.expected_iw_max(name)
            for n in [n for n in (lo, lo + 1) if hi is None or n <= hi]:
                a = catalog.instantiate(name, n)
                assert is_nilpotent(a)[0], (key, n)
                assert iw_max(a)[0] == ((1,) * (n - 1)
                                        if want == "ones" else want), (key, n)
                catalog.level_lookup(name, n)
                assert main(["info", key, "--dim", str(n)]) == 0, (key, n)
                capsys.readouterr()
            for n in (lo - 1, (hi or MAX_DIM) + 1):
                with pytest.raises(catalog.DimensionOutOfRange):
                    catalog.instantiate(name, n)
    assert refused == [f"T2k2_{kind}_m{m}" for kind in ("e23", "e23_shift",
                                                       "special", "e2m2")
                       for m in (1, 2)]


@pytest.mark.parametrize("command", [["info"], ["iwmax"], ["classify"],
                                     ["catalog", "table"]])
@pytest.mark.parametrize("name", ["nosuch", "T9"])
def test_an_unknown_family_is_named(capsys, command, name):
    # the text a ledger reference with the same name gets
    assert main(command + [name, "--dim", "5"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: unknown catalog family '{name}'\n"


def test_check_certificate_pass(tmp_path, capsys):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert_by_id("T22deg.2.6")), encoding="utf-8")
    code, _ = run(capsys, "check", str(path))
    assert code == 0


def test_check_tampered_certificate_fails(tmp_path, capsys):
    cert = json.loads(json.dumps(cert_by_id("T22deg.2.6")))
    cert["target"] = {"name": "T22_e23", "dim": 6}
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert), encoding="utf-8")
    code, out = run(capsys, "--json", "check", str(path))
    assert code == 2
    assert "(2,3)" in json.loads(out)["reason"]


@pytest.mark.parametrize("claim", ["certificate", "witness"])
def test_check_names_an_unknown_family_as_the_loader_does(tmp_path, capsys,
                                                          claim):
    rec = json.loads(json.dumps(cert_by_id("T22deg.2.6") if claim == "certificate"
                                else witness_by_id("W.ex222.b.7")))
    rec["target"]["name"] = "nosuch"
    path = tmp_path / "claim.json"
    path.write_text(json.dumps(rec), encoding="utf-8")
    label = f"nosuch@{rec['target']['dim']}"
    assert main(["check", str(path), "--trials", "1"]) == 1
    assert capsys.readouterr() == (
        "", f"error: algebra reference {label}: unknown catalog family "
            f"'nosuch'\n")


def test_check_refuses_a_label_that_names_two_tables(tmp_path, capsys):
    # the store keys records by label: read as one table, the zero table's
    # square (dim 0) would not be below its own
    wit = {"id": "w", "kind": "DimSquare",
           "source": {"name": "x", "dim": 3, "products": []},
           "target": {"name": "x", "dim": 3, "products": [
               {"i": 1, "j": 2, "value": [0, 0, 1]}]}}
    path = tmp_path / "wit.json"
    path.write_text(json.dumps(wit), encoding="utf-8")
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr() == (
        "", "error: label x@3 names two different tables\n")
    wit["target"]["name"] = "y"
    path.write_text(json.dumps(wit), encoding="utf-8")
    assert main(["check", str(path)]) == 0
    assert capsys.readouterr().out == "proved: dim source^2 = 0 < 1 = dim target^2\n"


def test_info_builds_one_integer_table(capsys, monkeypatch):
    # a catalog tensor (cmd_info's), one from pairs and one read from JSON
    # carry their integer table from construction: the identity flags,
    # nilpotency, Engel degree and iw_max read the table and none reads
    # the Fraction products; nor does a seeded queries stream run through
    # the benchmark child's library calls
    import importlib

    import degenlab
    from degenlab import algebra

    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))
    child, inputs = (importlib.import_module(name) for name in ("child", "inputs"))
    stream = inputs.make_queries(perfbench.parent, 37001)
    with products_reads() as reads:
        tensors = [algebra.StructureTensor.from_json_obj(q["table"]) if "table" in q
                   else None for q in stream]
        t = algebra.StructureTensor.from_pairs(
            6, [(1, 2, 4), (1, 4, 5), (2, 4, 6), (1, 3, 6, "1/2")])
        for a in [catalog.instantiate("T32_e23", 6), t,
                  *(a for a in tensors if a is not None)]:
            algebra.StructureTensor.table.__get__(a)  # AttributeError if unset
        assert main(["info", "T32_e23", "--dim", "6"]) == 0
        assert "jacobi / malcev" in capsys.readouterr().out
        algebra.identity_flags(t)
        algebra.is_nilpotent(t)
        iw_max(t, seed=3)
        algebra.dim_square(t)
        algebra.annihilator(t)
        algebra.engel_degree(t, t.dim + 1)
        for query, tensor in zip(stream, tensors):
            assert "error" not in child._run_query(degenlab, query, tensor)
    assert reads == [] and t.mult == 2


def test_check_reads_no_products_on_any_shipped_claim(tmp_path, capsys):
    # `check` judges every shipped claim on the integer tables: the
    # certificate check, the closed sets and the R quadratics read the
    # Fraction products of no tensor
    from degenlab.verification_db import shipped_ledger_path

    ledger = json.loads(open(shipped_ledger_path(), encoding="utf-8").read())
    claims = ledger["certificates"] + ledger["witnesses"]
    assert len(claims) == 189
    path = tmp_path / "claim.json"
    codes = []
    with products_reads() as reads:
        for claim in claims:
            path.write_text(json.dumps(claim), encoding="utf-8")
            codes.append(main(["check", "--trials", "1", str(path)]))
    capsys.readouterr()
    assert (codes.count(0), codes.count(3)) == (176, 13)
    assert reads == []


def _cert_with_first_row(row):
    cert = json.loads(json.dumps(certificates()[0]))
    cert["basis"][0] = row
    return cert


# shipped certificates with one row changed, and the fail line `check`
# printed for each before limits were read off packed digits
MUTATED_CERTIFICATES = [
    ("T22deg.1.7", 0, "(1/t^3)*e1", "pole at t=0 in constant (1,2)^6",
     (1, 2, 6)),
    ("T22rest.r6.8", 7, "e8+e1", "limit constant (1,3)^1 is -1, target has 0",
     (1, 3, 1)),
    ("T22rest.r6.8", 7, "(1/t^3)*e8", "limit constant (1,3)^8 is 0, target has 1",
     (1, 3, 8)),
    ("T2k2rest1.case1.m3.9", 5, "t^4*e6+e7", "pole at t=0 in constant (2,3)^7",
     (2, 3, 7)),
    ("T22deg.1.7", 0, "e2", "parameterized basis has identically zero "
     "determinant", None),
]


@pytest.mark.parametrize("cid, index, row, reason, position",
                         MUTATED_CERTIFICATES)
def test_check_names_the_first_failing_constant_of_a_mutated_certificate(
        tmp_path, capsys, cid, index, row, reason, position):
    cert = json.loads(json.dumps(cert_by_id(cid)))
    cert["basis"][index] = row
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert), encoding="utf-8")
    assert run(capsys, "check", str(path)) == (2, f"fail: {reason}\n")
    code, out = run(capsys, "--json", "check", str(path))
    data = {"position": list(position)} if position else {}
    assert (code, json.loads(out)) == (
        2, {"data": data, "reason": reason, "status": "fail"})


@pytest.mark.parametrize("row", ["(1/0)*e1", "e99", "foo", "e1+"])
def test_check_unparsable_certificate_row_fails(tmp_path, capsys, row):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(_cert_with_first_row(row)), encoding="utf-8")
    assert main(["check", str(path)]) == 2
    out, err = capsys.readouterr()
    assert err == ""
    assert len(out.splitlines()) == 1
    assert out.startswith(f"fail: basis row 1 {row!r} does not parse: ")


@pytest.mark.parametrize("row", ["(1/0)*e1", "e99", "foo", "e1+"])
def test_verify_paper_unparsable_certificate_row_is_a_fail_entry(
        tmp_path, capsys, row):
    path = tmp_path / "ledger.json"
    path.write_text(json.dumps({"certificates": [_cert_with_first_row(row)],
                                "witnesses": [], "chains": []}),
                    encoding="utf-8")
    code = main(["verify-paper", "--ledger", str(path), "--trials", "1",
                 "--out", str(tmp_path / "out")])
    assert code == 2
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    [entry] = report["certificates"]
    assert entry["status"] == "FAIL"
    assert entry["reason"].startswith(f"basis row 1 {row!r} does not parse: ")
    assert report["summary"]["failures"] == 1


def _check_within_a_minute(tmp_path, claim):
    """`python -m degenlab check` on a claim, killed after 60 s: a power
    expanded term by term would run for minutes."""
    path = tmp_path / "claim.json"
    path.write_text(json.dumps(claim), encoding="utf-8")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run(
        [sys.executable, "-m", "degenlab", "check", str(path), "--trials", "1"],
        capture_output=True, text=True, env=env, timeout=60)


# a power past exactnum.MAX_DEGREE, as the text that parses it
HUGE_POWERS = [("t^100000*e1", "^100000", "t^100000*e1"),
               ("t^-100000*e1", "^-100000", "t^-100000*e1"),
               ("((t^64)^64)^64*e1", "^64", "((t^64)^64)^64*e1")]


@pytest.mark.parametrize("row, power, text", HUGE_POWERS)
def test_check_fails_a_certificate_row_with_a_huge_power(tmp_path, row,
                                                         power, text):
    done = _check_within_a_minute(tmp_path, _cert_with_first_row(row))
    assert (done.returncode, done.stderr) == (2, "")
    assert done.stdout == (
        f"fail: basis row 1 {row!r} does not parse: power {power} in "
        f"{text!r} exceeds MAX_DEGREE = 64\n")


@pytest.mark.parametrize("factors", [160, 320])
def test_check_fails_a_certificate_row_with_a_long_product_of_powers(tmp_path,
                                                                    factors):
    row = "(" + "*".join(["t^64"] * factors) + ")*e1"
    done = _check_within_a_minute(tmp_path, _cert_with_first_row(row))
    assert (done.returncode, done.stderr) == (2, "")
    assert done.stdout == (
        f"fail: basis row 1 {row!r} does not parse: product of degree 192 "
        f"exceeds 2 * MAX_DEGREE = 128\n")


@pytest.mark.parametrize("row, power, text", HUGE_POWERS)
def test_check_refuses_a_witness_source_basis_with_a_huge_power(tmp_path, row,
                                                                power, text):
    wit = json.loads(json.dumps(witness_by_id("W.ex222.b.7")))
    wit["payload"]["source_basis"][0] = row
    done = _check_within_a_minute(tmp_path, wit)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == (
        f"error: witness W.ex222.b.7: payload.source_basis: power {power} "
        f"in {text!r} exceeds MAX_DEGREE = 64\n")


# rows that nest past exactnum.MAX_NESTING, by parentheses or by unary
# minus signs; either once raised RecursionError out of the parser
DEEP_ROWS = ["(" * 300 + "t" + ")" * 300 + "*e1", "(" + "-" * 1200 + "1)*e1"]
NESTING = "nesting deeper than MAX_NESTING = 32"


@pytest.mark.parametrize("row", DEEP_ROWS, ids=["parentheses", "minus-signs"])
def test_check_fails_a_certificate_row_nested_too_deep(tmp_path, capsys, row):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(_cert_with_first_row(row)), encoding="utf-8")
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr() == (
        f"fail: basis row 1 {row!r} does not parse: {NESTING}\n", "")


@pytest.mark.parametrize("row", DEEP_ROWS, ids=["parentheses", "minus-signs"])
def test_verify_paper_fails_a_certificate_row_nested_too_deep(tmp_path, capsys,
                                                             row):
    path = tmp_path / "ledger.json"
    path.write_text(json.dumps({"certificates": [_cert_with_first_row(row)],
                                "witnesses": [], "chains": []}),
                    encoding="utf-8")
    code = main(["verify-paper", "--ledger", str(path), "--trials", "1",
                 "--out", str(tmp_path / "out")])
    assert (code, capsys.readouterr().err) == (2, "")
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    [entry] = report["certificates"]
    assert (entry["status"], entry["reason"]) == (
        "FAIL", f"basis row 1 {row!r} does not parse: {NESTING}")


def _witness_with_first_row(row):
    wit = json.loads(json.dumps(witness_by_id("W.ex222.b.7")))
    wit["payload"]["source_basis"][0] = row
    return wit


@pytest.mark.parametrize("row", DEEP_ROWS, ids=["parentheses", "minus-signs"])
def test_check_refuses_a_witness_source_basis_nested_too_deep(tmp_path, capsys,
                                                             row):
    path = tmp_path / "wit.json"
    path.write_text(json.dumps(_witness_with_first_row(row)), encoding="utf-8")
    assert main(["check", str(path), "--trials", "1"]) == 1
    assert capsys.readouterr() == (
        "", f"error: witness W.ex222.b.7: payload.source_basis: {NESTING}\n")


@pytest.mark.parametrize("row", DEEP_ROWS, ids=["parentheses", "minus-signs"])
def test_verify_paper_refuses_a_witness_source_basis_nested_too_deep(
        tmp_path, capsys, row):
    path = tmp_path / "ledger.json"
    path.write_text(json.dumps({"certificates": [], "chains": [],
                                "witnesses": [_witness_with_first_row(row)]}),
                    encoding="utf-8")
    code = main(["verify-paper", "--ledger", str(path), "--trials", "1",
                 "--out", str(tmp_path / "out")])
    assert (code, capsys.readouterr().err) == (
        1, f"error: witness W.ex222.b.7: payload.source_basis: {NESTING}\n")
    assert not (tmp_path / "out" / "report.json").exists()


def test_check_bespoke_witness_exits_three(tmp_path, capsys):
    path = tmp_path / "wit.json"
    path.write_text(json.dumps(witness_by_id("W.ex222.b.7")), encoding="utf-8")
    code, _ = run(capsys, "check", str(path), "--trials", "20")
    assert code == 3


# a witness between dimensions, and the bespoke set R outside dimension 7
MISMATCHED_WITNESSES = [
    {"id": "W.dims", "kind": "DimSquare", "source": {"name": "zero", "dim": 6},
     "target": {"name": "n3", "dim": 7}, "payload": {}, "provenance": "test"},
    {"id": "W.R8", "kind": "BespokeR", "source": {"name": "T22_e45", "dim": 8},
     "target": {"name": "T222_e24", "dim": 8},
     "payload": {"source_basis": [f"e{k}" for k in range(1, 9)]},
     "provenance": "test"},
]


@pytest.mark.parametrize("wit", MISMATCHED_WITNESSES)
def test_check_fails_a_witness_outside_its_dimension(tmp_path, capsys, wit):
    path = tmp_path / "wit.json"
    path.write_text(json.dumps(wit), encoding="utf-8")
    code, out = run(capsys, "--json", "check", str(path), "--trials", "2")
    assert code == 2
    assert json.loads(out)["status"] == "fail"


def test_verify_paper_fails_witnesses_outside_their_dimension(tmp_path, capsys):
    path = tmp_path / "ledger.json"
    path.write_text(json.dumps({"certificates": [], "chains": [],
                                "witnesses": MISMATCHED_WITNESSES}),
                    encoding="utf-8")
    code = main(["verify-paper", "--ledger", str(path), "--trials", "2",
                 "--out", str(tmp_path / "out")])
    assert code == 2
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert [w["status"] for w in report["witnesses"]] == ["FAIL", "FAIL"]
    assert report["summary"]["failures"] == 2


def test_check_io_error():
    assert main(["check", "/nonexistent/path.json"]) == 1


def test_verify_paper_small_dims(tmp_path, capsys):
    code, _ = run(
        capsys, "verify-paper", "--dims", "5", "--trials", "10",
        "--out", str(tmp_path / "out"),
    )
    assert code == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["summary"]["failures"] == 0
    assert (tmp_path / "out" / "hasse_dim5.dot").exists()


def test_verify_paper_report_bytes_reproducible(tmp_path, capsys):
    for sub in ("a", "b"):
        code, _ = run(
            capsys, "verify-paper", "--dims", "4", "--trials", "5",
            "--seed", "7", "--out", str(tmp_path / sub),
        )
        assert code == 0
    a = (tmp_path / "a" / "report.json").read_bytes()
    b = (tmp_path / "b" / "report.json").read_bytes()
    assert a == b


def test_the_shipped_ledger_report_is_the_same_from_any_checkout(tmp_path):
    # two copies of the package, same seed: the report names the shipped
    # ledger by its package-relative path, so the bytes are the same
    import shutil

    src = Path(__file__).resolve().parents[1] / "src"
    reports = []
    for copy in ("a", "b"):
        shutil.copytree(src, tmp_path / copy / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, PYTHONPATH=str(tmp_path / copy / "src"))
        done = subprocess.run(
            [sys.executable, "-m", "degenlab", "verify-paper", "--dims", "4",
             "--trials", "2", "--seed", "7", "--out", "out"],
            cwd=tmp_path / copy, capture_output=True, text=True, env=env,
            timeout=300)
        assert done.returncode == 0, done.stderr
        reports.append((tmp_path / copy / "out" / "report.json").read_bytes())
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["ledger"] == "degenlab/data/ledger.json"


def test_verify_paper_ledger_override(tmp_path, capsys, monkeypatch):
    # the report records --ledger PATH as given, relative or not
    empty = tmp_path / "ledger.json"
    empty.write_text(json.dumps(
        {"certificates": [], "witnesses": [], "chains": []}
    ), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    for given in (str(empty), "ledger.json", "./ledger.json"):
        code, _ = run(capsys, "verify-paper", "--ledger", given,
                      "--out", str(tmp_path / "out"))
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["certificates"] == [] and report["ledger"] == given


def test_catalog_list(capsys):
    code, out = run(capsys, "--json", "catalog", "list")
    assert code == 0
    rows = json.loads(out)
    assert any(r["name"] == "T22_e45" for r in rows)


def test_iwmax_subcommand(capsys):
    code, out = run(capsys, "--json", "iwmax", "T222_e7special", "--dim", "7")
    assert code == 0
    assert json.loads(out)["partition"] == [2, 2, 2]


def test_classify_subcommand(capsys):
    code, out = run(capsys, "--json", "classify", "T22_e34", "--dim", "7")
    assert code == 0
    assert json.loads(out)["classification"] == "T22_e34"


def test_classify_from_file(tmp_path, capsys):
    from degenlab.catalog import instantiate

    path = tmp_path / "algebra.json"
    path.write_text(
        json.dumps(instantiate("T22_e24", 6).to_json_obj()), encoding="utf-8"
    )
    code, out = run(capsys, "--json", "classify", "--file", str(path))
    assert code == 0
    assert json.loads(out)["classification"] == "T22_e24"


def test_classify_precondition_error(capsys):
    assert main(["classify", "T4", "--dim", "5"]) == 1


def _bad_table(case):
    from degenlab.catalog import instantiate

    obj = instantiate("T22_e24", 6).to_json_obj()
    product = obj["products"][0]
    if case == "dim":
        obj["dim"] = "seven"
    elif case == "list":
        obj = [obj]
    elif case == "key-order":
        product["i"], product["j"] = product["j"], product["i"]
    elif case == "float":
        product["value"][0] = 0.5
    elif case == "short-value":
        product["value"] = product["value"][1:]
    elif case == "zero-denominator":
        product["value"][0] = "1/0"
    elif case == "bool":
        product["value"][product["value"].index(1)] = True
    elif case == "repeated-key":
        obj["products"].append(dict(product))
    elif case in ("0/0", "1/-2", "1e5"):
        product["value"][0] = case
    return obj


# each malformed table's one error line, as the Fraction reader gave it:
# reading entries straight into int pairs refuses each with the same text
MALFORMED_TABLE_LINES = {
    "dim": "an algebra table is an object with a positive integer dim",
    "list": "an algebra table is an object with a positive integer dim",
    "key-order": "bad products entry: key (2,1) is not 1 <= i < j <= 6",
    "float": "bad products entry: cannot interpret 0.5 as a rational number",
    "short-value": "bad products entry: value of (1,2) is not 6 entries",
    "zero-denominator": "bad products entry: zero denominator in '1/0'",
    "bool": "bad products entry: cannot interpret True as a rational number",
    "repeated-key": "bad products entry: key (1,2) is given twice",
    "0/0": "bad products entry: zero denominator in '0/0'",
    "1/-2": "bad products entry: cannot interpret '1/-2' as a rational number",
    "1e5": "bad products entry: cannot interpret '1e5' as a rational number",
}


@pytest.mark.parametrize("case", list(MALFORMED_TABLE_LINES))
def test_classify_rejects_a_malformed_table_file(tmp_path, capsys, case):
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(_bad_table(case)), encoding="utf-8")
    assert main(["classify", "--file", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: {MALFORMED_TABLE_LINES[case]}\n")


@pytest.mark.parametrize("argv", [["classify"], ["classify", "T22_e34"]])
def test_classify_without_algebra(capsys, argv):
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("extra", [["T22_e45", "--dim", "6"], ["T22_e45"],
                                   ["--dim", "6"]])
def test_classify_rejects_a_name_or_dim_with_file(tmp_path, capsys, extra):
    from degenlab.catalog import instantiate

    path = tmp_path / "algebra.json"
    path.write_text(
        json.dumps(instantiate("T22_e24", 6).to_json_obj()), encoding="utf-8"
    )
    assert main(["classify", *extra, "--file", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("text", ["[1, 2]", "5"])
def test_check_rejects_json_that_is_not_an_object(tmp_path, capsys, text):
    path = tmp_path / "claim.json"
    path.write_text(text, encoding="utf-8")
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error:")


def _inline_n3_ledger(table_of):
    """A one-certificate ledger from an inline table named n3@4, table_of's
    table at dimension 4, to zero@4, with a chain for n3@4 through it."""
    cert = {"id": "n3.zero.4", "source": {"name": "n3", **catalog.instantiate(
                table_of, 4).to_json_obj()},
            "target": {"name": "zero", "dim": 4},
            "basis": ["t*e1", "t*e2", "t*e3", "t*e4"], "proper": True,
            "separator": "dim_square"}
    chain = {"id": "chain.n3.4", "algebra": "n3", "dim": 4,
             "expected_level": 1, "edges": ["n3.zero.4"]}
    return {"certificates": [cert], "witnesses": [], "chains": [chain]}


def test_an_inline_table_under_a_catalog_label_must_be_the_catalog_table(
        tmp_path, capsys):
    # T3@4's table named n3@4 would pass as the catalog's n3@4: its arrow
    # to zero@4 VERIFIED and PROVED, and n3@4's chain VERIFIED
    error = ("", "error: label n3@4 names two different tables\n")
    ledger = tmp_path / "ledger.json"
    ledger.write_text(json.dumps(_inline_n3_ledger("T3")), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["verify-paper", "--ledger", str(ledger), "--out", str(out)]) == 1
    assert capsys.readouterr() == error
    assert not out.exists()
    claim = tmp_path / "claim.json"
    claim.write_text(json.dumps(_inline_n3_ledger("T3")["certificates"][0]),
                     encoding="utf-8")
    assert main(["check", str(claim)]) == 1
    assert capsys.readouterr() == error
    # an inline copy of the catalog's own table still loads and verifies
    ledger.write_text(json.dumps(_inline_n3_ledger("n3")), encoding="utf-8")
    assert main(["verify-paper", "--ledger", str(ledger), "--out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert [(e["source"], e["status"], e["nontrivial"])
            for e in report["certificates"]] == [("n3@4", "VERIFIED", "PROVED")]
    assert [e["status"] for e in report["chains"]] == ["VERIFIED"]


def test_verify_paper_inconsistent_ledger(tmp_path, capsys):
    chain = {"id": "c", "algebra": "n3", "dim": 3, "expected_level": 1,
             "edges": []}
    path = tmp_path / "ledger.json"
    path.write_text(json.dumps({"certificates": [], "witnesses": [],
                                "chains": [chain, chain]}), encoding="utf-8")
    code = main(["verify-paper", "--ledger", str(path),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_check_rejects_zero_trials(tmp_path, capsys):
    path = tmp_path / "wit.json"
    path.write_text(json.dumps(witness_by_id("W.ex222.b.7")), encoding="utf-8")
    assert main(["check", str(path), "--trials", "-3"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("trials", ["0", "-2"])
@pytest.mark.parametrize("claim", [cert_by_id("T22deg.2.6"),
                                   witness_by_id("W.T22lev.b.6")])
def test_check_rejects_fewer_than_one_trial_for_every_kind_of_file(
        tmp_path, capsys, claim, trials):
    # a certificate and a DimSquare witness read no trials, and would pass
    path = tmp_path / "claim.json"
    path.write_text(json.dumps(claim), encoding="utf-8")
    assert main(["check", str(path), "--trials", trials]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: trials must be >= 1, got {trials}\n"
    assert main(["check", str(path), "--trials", "1"]) == 0


def test_verify_paper_rejects_dims_without_a_value(tmp_path, capsys):
    # `--dims` with its value lost would otherwise run the whole ledger
    code = main(["verify-paper", "--dims", "--trials", "2",
                 "--out", str(tmp_path / "out")])
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --dims needs at least one dimension\n"
    assert not (tmp_path / "out").exists()
    # leaving --dims out selects every dimension
    ledger = tmp_path / "ledger.json"
    ledger.write_text(json.dumps({"certificates": [], "witnesses": [],
                                  "chains": []}), encoding="utf-8")
    code, _ = run(capsys, "verify-paper", "--ledger", str(ledger),
                  "--out", str(tmp_path / "out"))
    assert code == 0
    assert json.loads((tmp_path / "out" / "report.json").read_text())["dims"] is None


def test_verify_paper_rejects_zero_trials(tmp_path, capsys):
    code = main(["verify-paper", "--dims", "5", "--trials", "0",
                 "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("trials", ["0", "-2"])
@pytest.mark.parametrize("name, dim", [("eta_eps_double2", "7"), ("n3", "3")])
def test_iwmax_rejects_fewer_than_one_trial(capsys, name, dim, trials):
    assert main(["iwmax", name, "--dim", dim, "--trials", trials]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: trials must be >= 1, got {trials}\n"


@pytest.mark.parametrize("argv", [
    ["check", "missing.json"],
    ["verify-paper", "--dims", "--ledger", "missing.json"],
    ["iwmax", "nosuch", "--dim", "99"],
], ids=lambda argv: argv[0])
def test_too_few_trials_is_the_first_error_of_every_command(capsys, argv):
    # each command's other arguments are errors too; trials is read first
    assert main([*argv, "--trials", "0"]) == 1
    assert capsys.readouterr() == ("", "error: trials must be >= 1, got 0\n")
    assert main(argv) == 1
    assert "trials" not in capsys.readouterr().err


@pytest.mark.parametrize("dims", [["99"], ["0", "12"]])
def test_verify_paper_rejects_dims_that_select_nothing(tmp_path, capsys, dims):
    code = main(["verify-paper", "--dims", *dims, "--trials", "5",
                 "--out", str(tmp_path / "out")])
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: --dims ") and len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_verify_paper_runs_when_dims_select_some_claim(tmp_path, capsys):
    # an empty ledger has no dimension to select; a known dimension next
    # to an unknown one is a run
    ledger = tmp_path / "ledger.json"
    ledger.write_text(json.dumps({"certificates": [], "witnesses": [],
                                  "chains": []}), encoding="utf-8")
    code = main(["verify-paper", "--ledger", str(ledger), "--dims", "4",
                 "--out", str(tmp_path / "out")])
    assert code == 1
    code, _ = run(capsys, "verify-paper", "--dims", "99", "4", "--trials", "3",
                  "--out", str(tmp_path / "out"))
    assert code == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["dims"] == [4, 99] and report["certificates"]


def test_verify_paper_does_not_hide_verifier_errors(tmp_path, monkeypatch):
    # only bad input maps to exit 1; a fault inside verification keeps its
    # traceback even when it is a ValueError subclass
    def broken_run_ledger(*args, **kwargs):
        raise ValueError("internal verifier fault")

    monkeypatch.setattr("degenlab.cli.run_ledger", broken_run_ledger)
    with pytest.raises(ValueError, match="internal verifier fault"):
        main(["verify-paper", "--dims", "5", "--trials", "1",
              "--out", str(tmp_path / "out")])


# e1e2 = e3, e2e3 = e3: L_{e2} is not nilpotent
NOT_ENGEL = {"name": "notengel", "dim": 3, "products": [
    {"i": 1, "j": 2, "value": [0, 0, 1]}, {"i": 2, "j": 3, "value": [0, 0, 1]}]}
# the identity certificate from that table to itself
NOT_ENGEL_CERT = {"id": "c", "source": NOT_ENGEL, "target": NOT_ENGEL,
                  "basis": ["e1", "e2", "e3"]}


@pytest.mark.parametrize("claim", [
    {"certificates": [dict(NOT_ENGEL_CERT, proper=True, separator="iw_partition")],
     "witnesses": []},
    {"certificates": [], "witnesses": [{
        "id": "w", "kind": "IWDominance", "source": NOT_ENGEL,
        "target": {"name": "zero", "dim": 3},
        "payload": {"element": [1, 0, 0]}}]},
    {"certificates": [], "witnesses": [{
        "id": "w", "kind": "IWDominance", "source": {"name": "zero", "dim": 3},
        "target": NOT_ENGEL, "payload": {"element": [0, 1, 0]}}]},
], ids=["certificate-audit", "iw-dominance-source", "iw-dominance-target"])
def test_verify_paper_names_a_table_that_is_not_engel(tmp_path, capsys, claim):
    # where a rank sequence of the table is read: the iw_partition
    # separator of a verified certificate, the source of an IWDominance
    # witness or its target at the element
    path = tmp_path / "ledger.json"
    path.write_text(json.dumps(claim), encoding="utf-8")
    code = main(["verify-paper", "--ledger", str(path), "--trials", "1",
                 "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: notengel@3: L_a is not nilpotent at a = (0, 1, 0)\n"
    assert not (tmp_path / "out" / "report.json").exists()
    single = tmp_path / "claim.json"
    single.write_text(json.dumps((claim["certificates"] + claim["witnesses"])[0]),
                      encoding="utf-8")
    assert main(["check", str(single)]) == 1
    assert capsys.readouterr() == ("", err)


def test_a_certificate_between_tables_that_are_not_engel_is_judged_by_its_check(
        tmp_path, capsys):
    # with no separator that reads a rank sequence, nothing reads one: the
    # exact check proves the identity certificate, so verify-paper reports
    # it VERIFIED and check passes it
    path = tmp_path / "ledger.json"
    path.write_text(json.dumps({"certificates": [NOT_ENGEL_CERT]}), encoding="utf-8")
    assert main(["verify-paper", "--ledger", str(path), "--trials", "1",
                 "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert [(e["id"], e["status"]) for e in report["certificates"]] == [("c", "VERIFIED")]
    assert report["summary"] == {"counts": {"VERIFIED": 1}, "failures": 0}
    claim = tmp_path / "cert.json"
    claim.write_text(json.dumps(NOT_ENGEL_CERT), encoding="utf-8")
    assert main(["check", str(claim)]) == 0
    assert capsys.readouterr() == ("pass\n", "")


# e1e3 = e2, e3e4 = -e3: the scan meets a new best, e1 + e3, before L_e4,
# which is not nilpotent
NEW_BEST_FIRST = {"name": "X", "dim": 5, "products": [
    {"i": 1, "j": 3, "value": [0, 1, 0, 0, 0]},
    {"i": 3, "j": 4, "value": [0, 0, -1, 0, 0]}]}


def test_a_table_that_is_not_engel_is_named_after_a_new_best(tmp_path, capsys):
    # the iw_partition separator of a certificate from the table to
    # itself: one error line, exit 1 and no report, for verify-paper as for
    # check
    cert = {"id": "c", "source": NEW_BEST_FIRST, "target": NEW_BEST_FIRST,
            "basis": ["e1", "e2", "e3", "e4", "e5"],
            "proper": True, "separator": "iw_partition"}
    err = "error: X@5: L_a is not nilpotent at a = (0, 0, 0, 1, 0)\n"
    path = tmp_path / "ledger.json"
    path.write_text(json.dumps({"certificates": [cert]}), encoding="utf-8")
    assert main(["verify-paper", "--ledger", str(path), "--trials", "1",
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr() == ("", err)
    assert not (tmp_path / "out" / "report.json").exists()
    claim = tmp_path / "cert.json"
    claim.write_text(json.dumps(cert), encoding="utf-8")
    assert main(["check", str(claim)]) == 1
    assert capsys.readouterr() == ("", err)


def _bad_basis_witness():
    wit = json.loads(json.dumps(witness_by_id("W.ex222.b.7")))
    wit["payload"]["source_basis"] = ["(1/t)*e1"] + wit["payload"]["source_basis"][1:]
    return wit


def test_check_bad_source_basis_is_refuted(tmp_path, capsys):
    path = tmp_path / "wit.json"
    path.write_text(json.dumps(_bad_basis_witness()), encoding="utf-8")
    code, out = run(capsys, "--json", "check", str(path), "--trials", "5")
    assert code == 2
    assert json.loads(out)["reason"] == "stored source basis has a pole at t = 0"


def test_json_check_writes_a_refuting_basis_as_lists(tmp_path, capsys):
    # the flag search puts T22_e24@6 in W.T22deg.a.6's set by a
    # permutation basis, which --json check writes as JSON rows, not as
    # one string
    wit = json.loads(json.dumps(witness_by_id("W.T22deg.a.6")))
    wit["target"] = wit["source"]
    path = tmp_path / "wit.json"
    path.write_text(json.dumps(wit), encoding="utf-8")
    code, out = run(capsys, "--json", "check", str(path))
    perm = (1, 0, 4, 3, 2, 5)
    assert code == 2
    assert json.loads(out)["data"] == {
        "basis": [["1" if c == p else "0" for c in range(6)] for p in perm]}


def test_verify_paper_bad_source_basis_is_a_fail_entry(tmp_path, capsys):
    path = tmp_path / "ledger.json"
    path.write_text(json.dumps({"certificates": [], "chains": [],
                                "witnesses": [_bad_basis_witness()]}),
                    encoding="utf-8")
    code = main(["verify-paper", "--ledger", str(path), "--trials", "5",
                 "--out", str(tmp_path / "out")])
    assert code == 2
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert [w["status"] for w in report["witnesses"]] == ["FAIL"]
    assert report["summary"]["failures"] == 1


def _witness_of_kind(kind, payload):
    wit = next(w for w in witnesses() if w["kind"] == kind)
    return dict(wit, payload=payload)


BAD_PAYLOADS = [
    ("ClosedSet", {}, "payload.triples"),
    ("ClosedSet", {"triples": [[1, 2, "3"]]}, "payload.triples"),
    ("ClosedSet", {"triples": [[1, 2, 99]]}, "payload.triples"),
    ("IWDominance", {}, "payload.element"),
    ("IWDominance", {"element": [1, 0]}, "payload.element"),
    ("IWDominance", {"element": ["1/0", 0, 0, 0, 0]}, "payload.element"),
    ("BespokeR", {"source_basis": 5}, "payload.source_basis"),
    ("BespokeR", {"source_basis": ["e1", "e2"]}, "payload.source_basis"),
    ("BespokeR", {"source_basis": ["e99"] + ["e1"] * 6}, "payload.source_basis"),
    ("BespokeR", {"source_basis": ["(1/0)*e1"] + ["e1"] * 6},
     "payload.source_basis"),
    ("BespokeR", {"source_basis": ["e1+"] + ["e1"] * 6},
     "payload.source_basis"),
]

# the exact text of each BAD_PAYLOADS error, and of two more: a payload
# that is not an object and an unknown kind
BAD_PAYLOAD_MESSAGES = [
    (ValueError, "payload.triples must be a list of integer triples (i, j, k) "
                 "with 1 <= i, j <= 6, 1 <= k <= 7"),
] * 3 + [
    (ValueError, "payload.element must be a list of 5 rationals"),
] * 3 + [
    (ValueError, "payload.source_basis must be a list of 7 basis rows"),
] * 2 + [
    (ValueError, "payload.source_basis: basis index e99 outside dimension 7"),
    (ValueError, "payload.source_basis: division by the zero rational function"),
    (ValueError, "payload.source_basis: dangling sign at the end of basis row "
                 "'e1+'"),
]


@pytest.mark.parametrize("case, message", list(zip(
    BAD_PAYLOADS + [("DimSquare", [1], ""), ("DimSquare", None, ""),
                    ("Nope", {}, "")],
    BAD_PAYLOAD_MESSAGES + [(ValueError, "payload is not an object")] * 2
    + [(UnknownKind, "unknown witness kind 'Nope'")])))
def test_a_bad_witness_payload_keeps_its_message(case, message):
    from degenlab.degeneration import AlgebraRef, NonDegenerationWitness

    kind, payload, _ = case
    wit = _witness_of_kind("DimSquare" if kind == "Nope" else kind, payload)
    refs = [AlgebraRef(wit[side]["name"], wit[side]["dim"])
            for side in ("source", "target")]
    with pytest.raises(Exception) as raised:
        NonDegenerationWitness(kind, *refs, payload=payload)
    assert (type(raised.value), str(raised.value)) == message


@pytest.mark.parametrize("kind, payload, field", BAD_PAYLOADS)
def test_verify_paper_rejects_bad_witness_payload(tmp_path, capsys, kind,
                                                  payload, field):
    path = tmp_path / "ledger.json"
    path.write_text(json.dumps({"certificates": [], "chains": [],
                                "witnesses": [_witness_of_kind(kind, payload)]}),
                    encoding="utf-8")
    code = main(["verify-paper", "--ledger", str(path), "--trials", "2",
                 "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert field in err
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("kind, payload, field", BAD_PAYLOADS)
def test_a_bad_witness_payload_raises_where_the_witness_is_built(
        kind, payload, field):
    # the loader reads no payload of its own: building the witness does
    from degenlab.degeneration import AlgebraRef, NonDegenerationWitness

    wit = _witness_of_kind(kind, payload)
    refs = [AlgebraRef(wit[side]["name"], wit[side]["dim"])
            for side in ("source", "target")]
    with pytest.raises(ValueError, match=field):
        NonDegenerationWitness(kind, *refs, payload=payload)


@pytest.mark.parametrize("kind", ["ClosedSet", "IWDominance"])
def test_check_rejects_witness_without_payload(tmp_path, capsys, kind):
    path = tmp_path / "wit.json"
    path.write_text(json.dumps(_witness_of_kind(kind, {})), encoding="utf-8")
    assert main(["check", str(path), "--trials", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1


def _cert_with_bad_source(case):
    cert = json.loads(json.dumps(certificates()[0]))
    n = cert["source"]["dim"]
    product = {"i": 1, "j": 2, "value": [0] * (n - 1) + [1]}
    source = {"name": "inline", "dim": n, "products": [product]}
    if case == "dim":
        source["dim"] = "seven"
    elif case == "zero-denominator":
        product["value"][0] = "1/0"
    elif case == "not-a-number":
        product["value"][0] = "x"
    elif case == "short-value":
        product["value"] = [0] * (n - 1)
    elif case == "key-order":
        product["i"], product["j"] = 3, 2
    elif case == "float":
        product["value"][0] = 0.5
    cert["source"] = source
    return cert


BAD_SOURCES = ["dim", "zero-denominator", "not-a-number", "short-value",
               "key-order", "float"]


@pytest.mark.parametrize("case", BAD_SOURCES)
def test_verify_paper_rejects_a_malformed_inline_algebra(tmp_path, capsys, case):
    path = tmp_path / "ledger.json"
    path.write_text(json.dumps({"certificates": [_cert_with_bad_source(case)],
                                "witnesses": [], "chains": []}),
                    encoding="utf-8")
    code = main(["verify-paper", "--ledger", str(path), "--trials", "1",
                 "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "algebra reference" in err
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("case", BAD_SOURCES)
def test_check_rejects_a_malformed_inline_algebra(tmp_path, capsys, case):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(_cert_with_bad_source(case)), encoding="utf-8")
    assert main(["check", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "algebra reference" in err


def _claim_with_rational_text(tmp_path, entry, text):
    """(argv, JSON object) of a command whose input holds one rational as
    the string text: an inline table value of a ledger, a checked
    certificate or a classified table, or an IWDominance element."""
    if entry == "element":
        wit = json.loads(json.dumps(_witness_of_kind("IWDominance", {})))
        wit["payload"] = {"element": [text] + [0] * (wit["target"]["dim"] - 1)}
        return ["check"], wit
    if entry == "classify":
        obj = _bad_table("zero-denominator")
        obj["products"][0]["value"][0] = text
        return ["classify", "--file"], obj
    cert = _cert_with_bad_source("zero-denominator")
    cert["source"]["products"][0]["value"][0] = text
    if entry == "ledger":
        return (["verify-paper", "--trials", "1", "--out", str(tmp_path / "out"),
                 "--ledger"],
                {"certificates": [cert], "witnesses": [], "chains": []})
    return ["check"], cert


@pytest.mark.parametrize("text", ["1e20000000", "1.5", "1_000"])
@pytest.mark.parametrize("entry", ["ledger", "check", "classify", "element"])
def test_a_rational_string_that_is_not_p_over_q_is_refused_fast(
        tmp_path, capsys, entry, text):
    # Fraction would read "1e20000000" as a 66-million-bit int
    argv, obj = _claim_with_rational_text(tmp_path, entry, text)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    start = time.perf_counter()
    assert main(argv + [str(path)]) == 1
    assert time.perf_counter() - start < 10
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


BAD_BASES = [5, "e1", None, ["e1", 5]]


def _cert_with_basis(basis):
    cert = json.loads(json.dumps(certificates()[0]))
    cert["basis"] = basis if not isinstance(basis, list) else \
        basis + cert["basis"][len(basis):]
    return cert


@pytest.mark.parametrize("basis", BAD_BASES)
def test_verify_paper_rejects_a_basis_that_is_not_a_list_of_strings(
        tmp_path, capsys, basis):
    path = tmp_path / "ledger.json"
    path.write_text(json.dumps({"certificates": [_cert_with_basis(basis)],
                                "witnesses": [], "chains": []}),
                    encoding="utf-8")
    code = main(["verify-paper", "--ledger", str(path), "--trials", "1",
                 "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: certificate basis must be a list of strings")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("basis", BAD_BASES)
def test_check_rejects_a_basis_that_is_not_a_list_of_strings(
        tmp_path, capsys, basis):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(_cert_with_basis(basis)), encoding="utf-8")
    assert main(["check", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: certificate basis must be a list of strings")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("field, value", [
    ("dim", "seven"), ("expected_level", None), ("edges", 5), ("edges", [["x"]]),
    ("dim", 5.9), ("dim", True), ("expected_level", 3.0), ("expected_level", True),
    ("edges", "conn.t3_t22.5"),  # not split into one-character edges
])
def test_verify_paper_rejects_a_malformed_chain(tmp_path, capsys, field, value):
    from degenlab.verification_db import shipped_ledger_path

    ledger = json.loads(open(shipped_ledger_path(), encoding="utf-8").read())
    ledger["chains"][0][field] = value
    path = tmp_path / "ledger.json"
    path.write_text(json.dumps(ledger), encoding="utf-8")
    code = main(["verify-paper", "--ledger", str(path), "--trials", "1",
                 "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: chain record") and len(err.splitlines()) == 1
    assert field in err.split(" is malformed: ")[1]
    assert not (tmp_path / "out" / "report.json").exists()


def _one_cert_ledger(case):
    cert = json.loads(json.dumps(certificates()[0]))
    ledger = {"certificates": [cert], "witnesses": [], "chains": []}
    if case == "unknown-family":
        cert["source"]["name"] = "nosuch"
    elif case == "dim-out-of-range":
        cert["source"]["name"] = "T22_e45"
        cert["source"]["dim"] = cert["target"]["dim"] = 6
    elif case == "unknown-partition":
        cert["source"]["name"] = "T9"
    elif case == "name-not-a-string":
        cert["source"]["name"] = 5
    elif case == "unknown-separator":
        cert["separator"] = 7
    elif case == "proper-without-separator":
        cert["proper"] = True
        cert.pop("separator", None)
    elif case == "proper-not-a-bool":
        cert["proper"] = "yes"
    elif case == "list-id":
        cert["id"] = ["T22deg.2.6"]
    elif case == "section-not-a-list":
        ledger["certificates"] = 5
    elif case == "unknown-witness-kind":
        ledger["witnesses"] = [dict(witnesses()[0], kind="Nosuch")]
    elif case == "provenance-not-a-string":
        cert["provenance"] = [1]
    elif case == "witness-provenance-not-a-string":
        ledger["witnesses"] = [dict(witnesses()[0], provenance=[1])]
    elif case == "dim-float":
        cert["source"]["dim"] = 7.9
    elif case == "dim-bool":
        cert["source"]["dim"] = True
    elif case == "dim-string":
        cert["source"]["dim"] = "7"
    elif case == "chain-unknown-family":
        ledger["chains"] = [{"id": "c", "algebra": "nosuch", "dim": 3,
                             "expected_level": 1, "edges": [cert["id"]]}]
    elif case == "padded-name":
        # one table under a second label, ' eta2' -> 'eta2'
        cert["source"] = {"name": " eta2", "dim": 5}
        cert["target"] = {"name": "eta2", "dim": 5}
    elif case == "chain-dim-above-the-ceiling":
        ledger = {"certificates": [], "chains": [
            {"id": "ch", "algebra": "zero", "dim": 10 ** 8,
             "expected_level": 0, "edges": []}]}
    return ledger


@pytest.mark.parametrize("case, detail", [
    ("unknown-family", "unknown catalog family 'nosuch'"),
    ("dim-out-of-range", "T22_e45 requires n >= 7, got n = 6"),
    ("unknown-partition", "unknown catalog family 'T9'"),
    ("name-not-a-string", "name is not a string"),
    ("unknown-separator", "unknown separator 7"),
    ("proper-without-separator", "a proper certificate names its separator"),
    ("proper-not-a-bool", "proper must be true, false or null, got 'yes'"),
    ("list-id", "certificate id must be a string"),
    ("section-not-a-list", "section 'certificates' is not a list"),
    ("unknown-witness-kind", "unknown witness kind 'Nosuch'"),
    ("chain-unknown-family", "unknown catalog family 'nosuch'"),
    ("padded-name", "algebra reference  eta2@5: unknown catalog family ' eta2'"),
    ("chain-dim-above-the-ceiling", "chain ch: zero: n = 100000000 exceeds MAX_DIM = 64"),
    ("provenance-not-a-string", "provenance must be a string, got [1]"),
    ("witness-provenance-not-a-string", "provenance must be a string, got [1]"),
    ("dim-float", "'dim': 7.9}: dim is not an integer"),
    ("dim-bool", "'dim': True}: dim is not an integer"),
    ("dim-string", "'dim': '7'}: dim is not an integer"),
])
def test_verify_paper_rejects_a_malformed_ledger(tmp_path, capsys, case, detail):
    path = tmp_path / "ledger.json"
    path.write_text(json.dumps(_one_cert_ledger(case)), encoding="utf-8")
    code = main(["verify-paper", "--ledger", str(path), "--trials", "1",
                 "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert detail in err
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("dim", [7.9, True, "7"])
def test_check_rejects_a_dim_that_is_not_an_integer(tmp_path, capsys, dim):
    # int() used to read 7.9 as 7 and true as 1
    cert = json.loads(json.dumps(certificates()[0]))
    cert["source"]["dim"] = dim
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert), encoding="utf-8")
    assert main(["check", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: bad algebra reference {cert['source']!r}: "
                   "dim is not an integer\n")


def test_a_zero_denominator_is_named(tmp_path, capsys):
    table = tmp_path / "algebra.json"
    table.write_text(json.dumps(_bad_table("zero-denominator")), encoding="utf-8")
    assert main(["classify", "--file", str(table)]) == 1
    assert capsys.readouterr() == (
        "", "error: bad products entry: zero denominator in '1/0'\n")
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(_cert_with_bad_source("zero-denominator")),
                    encoding="utf-8")
    assert main(["check", str(cert)]) == 1
    assert capsys.readouterr() == ("", "error: algebra reference inline@7: bad "
                                       "products entry: zero denominator in '1/0'\n")


@pytest.mark.parametrize("claim", [
    lambda: cert_by_id("T22deg.2.6"), lambda: witness_by_id("W.ex222.b.7"),
], ids=["certificate", "witness"])
def test_check_rejects_a_provenance_that_is_not_a_string(tmp_path, capsys, claim):
    path = tmp_path / "claim.json"
    path.write_text(json.dumps(dict(claim(), provenance=[1])), encoding="utf-8")
    assert main(["check", str(path), "--trials", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "provenance must be a string" in err


# each command names the file it cannot read, in the ledger's wording
_UNREADABLE = {"classify": "table", "check": "claim", "verify-paper": "ledger"}


@pytest.mark.parametrize("argv", [
    ["classify", "--file", "{path}"], ["check", "{path}"],
    ["verify-paper", "--ledger", "{path}", "--out", "{out}"],
])
def test_a_file_that_is_not_utf8_is_an_error_line(tmp_path, capsys, argv):
    path = tmp_path / "claim.json"
    path.write_bytes(b'\xff\xfe{"dim": 3}')
    assert main([a.format(path=path, out=tmp_path / "out") for a in argv]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert err.startswith(f"error: cannot read {_UNREADABLE[argv[0]]} {path}: ")
    assert "codec can't decode" in err


@pytest.mark.parametrize("argv", [
    ["classify", "--file", "{path}"], ["check", "{path}"],
    ["verify-paper", "--ledger", "{path}", "--out", "{out}"],
], ids=["classify", "check", "verify-paper"])
@pytest.mark.parametrize("text", [None, "", "{", "not json"],
                         ids=["missing", "empty", "truncated", "text"])
def test_a_file_that_cannot_be_read_is_named(tmp_path, capsys, argv, text):
    path = tmp_path / "claim.json"
    if text is not None:
        path.write_text(text, encoding="utf-8")
    assert main([a.format(path=path, out=tmp_path / "out") for a in argv]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: cannot read {_UNREADABLE[argv[0]]} {path}: ")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["classify", "--file", "{path}"], ["check", "{path}"],
    ["verify-paper", "--ledger", "{path}", "--out", "{out}"],
], ids=["classify", "check", "verify-paper"])
@pytest.mark.parametrize("text", [
    "[" * 200_000 + "]" * 200_000,  # deeper than the parser's recursion limit
    "1" * 5000,  # an int past Python's digit limit
], ids=["nested", "long-int"])
def test_a_file_the_json_parser_gives_up_on_is_an_error_line(tmp_path, argv, text):
    # the parser raises RecursionError or a bare ValueError here, not a
    # JSONDecodeError: still one error line and exit 1, no traceback
    path = tmp_path / "claim.json"
    path.write_text(text, encoding="utf-8")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run(
        [sys.executable, "-m", "degenlab"]
        + [a.format(path=path, out=tmp_path / "out") for a in argv],
        capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.startswith("error:") and len(done.stderr.splitlines()) == 1
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith(f"error: cannot read {_UNREADABLE[argv[0]]} {path}: ")
    assert not (tmp_path / "out").exists()


# --- the dimension ceiling ---------------------------------------------------

HUGE_DIM = 10 ** 8


@pytest.fixture
def no_table_is_built(monkeypatch):
    # a huge dimension that got past the ceiling would allocate without
    # limit; fail at the first table instead
    def refuse(*args, **kwargs):
        raise AssertionError("a table was built")

    monkeypatch.setattr(StructureTensor, "__init__", refuse)
    monkeypatch.setattr(catalog, "_pairs", refuse)


@pytest.mark.parametrize("argv", [
    ["info", "T22_e23"], ["iwmax", "T22_e23"], ["catalog", "table", "zero"],
    ["classify", "T22_e23"],
])
def test_a_dim_above_the_ceiling_is_refused_by_every_catalog_command(
        capsys, no_table_is_built, argv):
    assert main(argv + ["--dim", str(HUGE_DIM)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: {argv[-1]}: n = {HUGE_DIM} exceeds "
                   f"MAX_DIM = {MAX_DIM}\n")


def test_a_table_file_above_the_ceiling_is_refused(tmp_path, capsys,
                                                    no_table_is_built):
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps({"dim": HUGE_DIM, "products": []}),
                    encoding="utf-8")
    assert main(["classify", "--file", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: dim {HUGE_DIM} exceeds MAX_DIM = {MAX_DIM}\n"


@pytest.mark.parametrize("inline", [False, True])
def test_a_ledger_reference_above_the_ceiling_is_refused(
        tmp_path, capsys, no_table_is_built, inline):
    cert = json.loads(json.dumps(certificates()[0]))
    cert["target"] = {"name": "huge", "dim": HUGE_DIM}
    if inline:
        cert["target"]["products"] = []
    else:
        cert["target"]["name"] = "zero"
    name = cert["target"]["name"]
    want = (f"error: algebra reference {name}@{HUGE_DIM}: dim exceeds "
            f"MAX_DIM = {MAX_DIM}\n")
    cert_path, ledger_path = tmp_path / "cert.json", tmp_path / "ledger.json"
    cert_path.write_text(json.dumps(cert), encoding="utf-8")
    ledger_path.write_text(json.dumps({"certificates": [cert], "witnesses": [],
                                       "chains": []}), encoding="utf-8")
    assert main(["check", str(cert_path)]) == 1
    assert capsys.readouterr() == ("", want)
    assert main(["verify-paper", "--ledger", str(ledger_path), "--trials", "1",
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr() == ("", want)
    assert not (tmp_path / "out").exists()


def test_the_ceiling_admits_max_dim_itself(capsys):
    code, out = run(capsys, "--json", "catalog", "table", "zero",
                    "--dim", str(MAX_DIM))
    assert code == 0 and json.loads(out) == {"dim": MAX_DIM, "products": []}
    with pytest.raises(catalog.DimensionOutOfRange, match="exceeds MAX_DIM"):
        catalog.instantiate("zero", MAX_DIM + 1)
    with pytest.raises(TableFormatError, match="exceeds MAX_DIM"):
        StructureTensor.from_json_obj({"dim": MAX_DIM + 1, "products": []})


def _check_outputs(capsys, tmp_path, claim):
    """(exit code, human stdout, --json stdout, stderr) of `check` on one
    claim."""
    path = tmp_path / "claim.json"
    path.write_text(json.dumps(claim), encoding="utf-8")
    code = main(["check", str(path), "--trials", "2"])
    human, err = capsys.readouterr()
    assert main(["--json", "check", str(path), "--trials", "2"]) == code
    out, json_err = capsys.readouterr()
    assert json_err == err
    return code, human, out, err


def test_check_fails_a_separator_that_does_not_separate(tmp_path, capsys):
    # the Jacobi identity holds on both sides of T22deg.1.7: verify-paper
    # and check both fail the claim on its separator
    cert = dict(cert_by_id("T22deg.1.7"), separator="jacobi")
    reason = "separator failed: jacobi: source True, target True"
    code, human, out, err = _check_outputs(capsys, tmp_path, cert)
    assert (code, human, err) == (2, f"fail: {reason}\n", "")
    assert json.loads(out) == {"status": "fail", "reason": reason, "data": {}}
    path = tmp_path / "ledger.json"
    path.write_text(json.dumps({"certificates": [cert]}), encoding="utf-8")
    assert main(["verify-paper", "--ledger", str(path), "--trials", "1",
                 "--out", str(tmp_path / "out")]) == 2
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["certificates"][0]["reason"] == reason


def test_check_applies_the_loaders_level_rule(tmp_path, capsys):
    cert = cert_by_id("conn.n3_zero.4")
    cert = dict(cert, source=cert["target"], target=cert["source"])
    code, human, out, err = _check_outputs(capsys, tmp_path, cert)
    assert (code, human, out) == (1, "", "")
    assert err == ("error: certificate conn.n3_zero.4 claims zero@4 -> n3@4 "
                   "proper, from level 0 to 1\n")


def test_check_passes_exactly_the_certificates_the_report_verifies(
        tmp_path, capsys):
    # the shipped certificates, one failing its exact check and one its
    # separator
    from degenlab.verification_db import ledger_from_obj, run_ledger

    certs = json.loads(json.dumps(certificates()))
    by_id = {c["id"]: c for c in certs}
    by_id["T22deg.1.7"]["basis"][4] = "t*e5"
    by_id["T22deg.2.7"]["separator"] = "jacobi"
    report = run_ledger(ledger_from_obj({"certificates": certs}), trials=1)
    statuses = {e["id"]: (e["status"], e["reason"])
                for e in report["certificates"]}
    assert sorted(cid for cid, (status, _) in statuses.items()
                  if status != "VERIFIED") == ["T22deg.1.7", "T22deg.2.7"]
    assert statuses["T22deg.2.7"][1].startswith("separator failed: jacobi")
    for cert in certs:
        code, human, _, _ = _check_outputs(capsys, tmp_path, cert)
        status, reason = statuses[cert["id"]]
        assert (code == 0) == (status == "VERIFIED"), cert["id"]
        assert human == (f"fail: {reason}\n" if code else "pass\n")


def test_too_few_trials_is_refused_before_any_flag_search(tmp_path, capsys, monkeypatch):
    from degenlab import degeneration

    def refuse(*args):
        raise AssertionError("searched")

    monkeypatch.setattr(degeneration, "torus_fixed_flag_search", refuse)
    path = tmp_path / "claim.json"
    path.write_text(json.dumps(witness_by_id("W.T22deg.a.6")), encoding="utf-8")
    for argv in (["check", str(path)], ["verify-paper", "--out", str(tmp_path / "out")]):
        assert main([*argv, "--trials", "0"]) == 1
        assert capsys.readouterr() == ("", "error: trials must be >= 1, got 0\n")
    assert not (tmp_path / "out").exists()
