"""Self-test of the benchmark itself; takes about two minutes.

    python3 perfbench/selftest.py

1. A traced run of each workload (ledger-witnesses at a tiny trial count)
   emits every end-to-end and every per-layer metric of BENCHMARK.json;
   ledger-certs and queries also pass their gates.
2. Two traced runs of the same seed give identical counts.
3. Negative control: a ledger copy with one corrupted certificate basis
   gives a failed share above zero and a report digest mismatch.
4. In a directory holding only BENCHMARK.json and perfbench/, the
   benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import HERE, ROOT, WORK_DIR, WORKLOADS, measure, result_line

TINY_TRIALS = 2


def check(condition: bool, message: str):
    if not condition:
        raise SystemExit(f"FAIL: {message}")
    print(f"ok: {message}")


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e_names = {m["name"] for m in spec["end_to_end"]}
    layer_names = {m["name"] for m in spec["per_layer"]}

    for workload in WORKLOADS:
        tiny = TINY_TRIALS if workload == "ledger-witnesses" else None
        outcome = measure(ROOT, workload, 1, 0, trace=True, trials=tiny)
        for trace, names in ((False, e2e_names), (True, layer_names)):
            line = result_line(outcome, trace)
            check(set(line["metrics"]) == names,
                  f"{workload} --trace {int(trace)} emits every metric")
        if tiny is None:
            check(not outcome["problems"] and outcome["failed"] == 0,
                  f"{workload} passes its gate")
        if workload == "ledger-witnesses":
            again = measure(ROOT, workload, 1, 0, trace=True, trials=tiny)
            counts = {k: v for k, v in outcome["per_layer"].items()
                      if k.endswith(".calls") or k == "degeneration.orbit_draws"}
            repeat = {k: again["per_layer"][k] for k in counts}
            check(counts == repeat, "counts repeat exactly between traced runs")

    def corrupt(ledger):
        cert = next(c for c in ledger["certificates"]
                    if any("t*" in row for row in c["basis"]))
        cert["basis"] = [row.replace("t*", "2*") for row in cert["basis"]]

    outcome = measure(ROOT, "ledger-certs", 1, 0, trace=True, ledger_edit=corrupt)
    check(outcome["failed"] / outcome["attempted"] > 0,
          "negative control: failed share above zero")
    check(any("digest" in p and "!=" in p for p in outcome["problems"]),
          "negative control: report digest mismatch")
    check(not result_line(outcome, True)["correct"],
          "negative control: result is not correct")

    (ROOT / WORK_DIR).mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / WORK_DIR))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "queries",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        check(proc.returncode != 0 and '"metrics"' not in proc.stdout,
              "without the sources it exits non-zero and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
