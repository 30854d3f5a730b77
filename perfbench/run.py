"""degenlab benchmark: three workloads, one caller, one thread.

    python3 perfbench/run.py --workload ledger-certs --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  Builds each workload's input
from --seed, runs passes in fresh child processes for about --seconds
seconds (closed loop, one caller), checks every output, and prints one
JSON line with the end-to-end metrics (--trace 0) or the per-layer
metrics of a traced pass (--trace 1).  End-to-end timings are read at a
fixed reference speed of the host (perfbench/hostspeed.py), which drifts.
The workloads, the metrics and what each is expected to move are
recorded in perfbench/design.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from inputs import make_queries, write_ledger_copy  # noqa: E402
from tracer import quantile  # noqa: E402

WORKLOADS = ("ledger-certs", "ledger-witnesses", "queries")
# Passes per run: one per NOMINAL_PASS_S of --seconds, at least
# MIN_PASSES.  The count depends on --seconds only, never on how fast the
# passes ran, so a faster program is not also measured more often.
NOMINAL_PASS_S = 15
MIN_PASSES = 2
# setup-only processes per run, besides the setup of every pass
SETUP_SAMPLES = 5
# a run must end within 180 s; a child still running at this point fails
RUN_DEADLINE_S = 170
WORK_DIR = ".perfbench-work"
INVARIANT_KINDS = ("DimSquare", "AnnDim", "IWDominance", "LieClosure")


def load_design() -> dict:
    return json.loads((HERE / "design.json").read_text(encoding="utf-8"))


def ledger_seed(design: dict, seed: int) -> int:
    """The verify-paper seed: one of the seeds whose report digest is recorded."""
    seeds = design["recorded_seeds"]
    return seeds[seed % len(seeds)]


def report_digest(report_bytes: bytes, ledger_path: str) -> str:
    """SHA-256 of report.json with the ledger copy's path normalised."""
    normalised = report_bytes.replace(json.dumps(ledger_path).encode(), b'"<ledger>"')
    return hashlib.sha256(normalised).hexdigest()


class Run:
    """Child processes of one benchmark run, sharing one scratch directory."""

    def __init__(self, root: Path, workload: str, seed: int, trials: int,
                 input_path: Path, work: Path):
        self.root, self.workload, self.seed, self.trials = root, workload, seed, trials
        self.input_path, self.work = input_path, work
        self.count = 0
        self.deadline = perf_counter() + RUN_DEADLINE_S

    def child(self, setup_only=False, trace=False, spans=None) -> dict:
        self.count += 1
        pass_dir = self.work / f"pass{self.count}"
        pass_dir.mkdir()
        out = pass_dir / "result.json"
        cmd = [sys.executable, str(HERE / "child.py"), "--root", str(self.root),
               "--workload", self.workload, "--input", str(self.input_path),
               "--seed", str(self.seed), "--trials", str(self.trials),
               "--trace", str(int(trace)), "--out", str(out)]
        if setup_only:
            cmd.append("--setup-only")
        if spans:
            cmd += ["--spans", str(spans)]
        try:
            proc = subprocess.run(cmd, cwd=self.work, capture_output=True, text=True,
                                  timeout=max(1.0, self.deadline - perf_counter()))
        except subprocess.TimeoutExpired:
            return {"error": f"child killed at the {RUN_DEADLINE_S} s run deadline"}
        if proc.returncode != 0 or not out.is_file():
            return {"error": f"child exited {proc.returncode}: {proc.stderr[-2000:]}"}
        return json.loads(out.read_text(encoding="utf-8"))


# --- correctness gates ------------------------------------------------------


def check_ledger_pass(result: dict, ledger: dict, workload: str,
                      digest_expected: str | None, ledger_path: str):
    """(operations, failed operations, problems) of one ledger pass.

    An operation is a claim.  A claim fails on an unexpected status.  When
    the pass as a whole is wrong (exception, exit code, chain, probe or
    report digest), every claim of the pass counts as failed.
    """
    section = "certificates" if workload == "ledger-certs" else "witnesses"
    ops = len(ledger[section])
    if result.get("error"):
        return ops, ops, [result["error"]]
    report_bytes = Path(result["report"]).read_bytes()
    report = json.loads(report_bytes)
    problems = []
    if workload == "ledger-certs":
        expected = {c["id"]: "VERIFIED" for c in ledger["certificates"]}
    else:
        expected = {w["id"]: "PROVED" if w["kind"] in INVARIANT_KINDS
                    else "FALSIFICATION-ONLY" for w in ledger["witnesses"]}
    got = {e["id"]: e["status"] for e in report[section]}
    failed = sum(1 for cid, status in expected.items() if got.get(cid) != status)
    if failed:
        problems.append(f"{failed} claims with an unexpected status")
    if result["exit_code"] != 0:
        problems.append(f"verify-paper exited {result['exit_code']}")
    bad_chains = [c["id"] for c in report["chains"] if c["status"] != "VERIFIED"]
    if len(report["chains"]) != len(ledger["chains"]) or bad_chains:
        problems.append(f"chains not all VERIFIED: {bad_chains}")
    bad_probes = [p for p in report["closed_set_probes"] if p["status"] != "PASS"]
    if bad_probes:
        problems.append(f"{len(bad_probes)} closed-set probes did not PASS")
    digest = report_digest(report_bytes, ledger_path)
    if digest_expected is None:
        problems.append("no report digest recorded for this seed and trial count")
    elif digest != digest_expected:
        problems.append(f"report digest {digest} != recorded {digest_expected}")
    return ops, (ops if problems else failed), problems


def check_queries_pass(result: dict, stream: list):
    """(operations, failed operations, problems) of one pass over the stream."""
    if result.get("error"):
        return len(stream), len(stream), [result["error"]]
    problems = []
    for query, output in zip(stream, result["outputs"]):
        want = dict(query["expect"])
        if query["kind"] == "info":
            want["nilpotent"] = True
        if output != want:
            problems.append(f"{query['kind']} {query['name']}@{query['dim']}: "
                            f"got {output}, expected {want}")
    missing = len(stream) - len(result["outputs"])
    return len(stream), len(problems) + missing, problems


# --- the run ----------------------------------------------------------------


def measure(root: Path, workload: str, seed: int, seconds: float, trace: bool,
            trials: int | None = None, ledger_edit=None) -> dict:
    """Run one workload; returns metrics, operation counts and problems.

    `trials` overrides the workload's trial count and `ledger_edit` alters
    the ledger copy; both exist for the self-test only.
    """
    design = load_design()
    params = design["workloads"][workload]
    trials = params.get("trials", 0) if trials is None else trials
    (root / WORK_DIR).mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=root / WORK_DIR))
    try:
        if workload == "queries":
            run_seed = seed
            input_path = work / "queries.json"
            stream = make_queries(root, seed)
            input_path.write_text(json.dumps(stream), encoding="utf-8")

            def check(result):
                return check_queries_pass(result, stream)
        else:
            run_seed = ledger_seed(design, seed)
            input_path = work / "ledger.json"
            ledger = write_ledger_copy(root, workload, input_path)
            if ledger_edit is not None:
                ledger_edit(ledger)
                input_path.write_text(json.dumps(ledger), encoding="utf-8")
            digest = params["report_sha256"].get(str(trials), {}).get(str(run_seed))

            def check(result):
                return check_ledger_pass(result, ledger, workload, digest,
                                         str(input_path))

        run = Run(root, workload, run_seed, trials, input_path, work)
        setups = [run.child(setup_only=True) for _ in range(SETUP_SAMPLES)]
        if trace:
            passes = [run.child()]
            spans = root / WORK_DIR / f"spans-{workload}-seed{seed}.json"
            traced = run.child(trace=True, spans=spans)
        else:
            count = max(MIN_PASSES, round(seconds / NOMINAL_PASS_S))
            passes = [run.child() for _ in range(count)]
            traced = None

        attempted = failed = 0
        problems = [r["error"] for r in setups if r.get("error")]
        for result in passes + ([traced] if traced else []):
            ops, bad, why = check(result)
            attempted += ops
            failed += bad
            problems += why
        end_to_end = {}
        timed = [p for p in passes if "wall_s" in p]
        if timed:
            # every claim or query of every pass, pooled
            latencies = [t for p in timed for kind, t in p["segments"] if kind == "op"]
            end_to_end = {
                "setup_s": statistics.median(
                    r["setup_s"] for r in setups + timed if "setup_s" in r),
                "wall_s": statistics.median(p["wall_s"] for p in timed),
                "latency_p50_s": quantile(latencies, 0.5),
                "latency_p90_s": quantile(latencies, 0.9),
                "peak_rss_mb": statistics.median(p["rss_mb"] for p in timed),
                "pass_share": (attempted - failed) / attempted,
            }
        per_layer = {}
        if traced and "per_layer" in traced and timed:
            per_layer = dict(traced["per_layer"])
            per_layer["trace.overhead_s"] = traced["wall_s"] - timed[0]["wall_s"]
        host = [(p["wall_raw_s"], p["speed"]) for p in timed + ([traced] if traced else [])
                if "speed" in p]
        return {"attempted": attempted, "failed": failed, "problems": problems,
                "end_to_end": end_to_end, "per_layer": per_layer, "host": host}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def result_line(outcome: dict, trace: bool) -> dict:
    """The JSON object printed last: metrics named and united as in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {}
    values = outcome["per_layer"] if trace else outcome["end_to_end"]
    for entry in spec["per_layer" if trace else "end_to_end"]:
        if entry["name"] in values:
            metrics[entry["name"]] = {"value": values[entry["name"]], "unit": entry["unit"]}
    correct = not outcome["problems"] and outcome["failed"] == 0 and bool(values)
    return {"correct": correct, "attempted": outcome["attempted"],
            "failed": outcome["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "degenlab" / "__init__.py").is_file():
        print(f"error: no degenlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    outcome = measure(ROOT, args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in outcome["problems"]:
        print(f"gate: {problem}", file=sys.stderr)
    for raw, speed in outcome["host"]:
        print(f"pass: {raw:.3f} s raw at host speed {speed:.3f}", file=sys.stderr)
    print(json.dumps(result_line(outcome, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
