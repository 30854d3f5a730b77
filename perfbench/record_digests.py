"""Record the report.json digests that the ledger workloads' gate checks.

    python3 perfbench/record_digests.py

Runs verify-paper once per recorded seed on each ledger workload, checks
every other part of the gate, and writes the SHA-256 of each report into
perfbench/design.json.  The report bytes are a fixed point of degenlab:
re-record only at a commit whose reports are known to be right.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import (HERE, ROOT, WORK_DIR, Run, check_ledger_pass, load_design,
                 report_digest, write_ledger_copy)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    design = load_design()
    (ROOT / WORK_DIR).mkdir(exist_ok=True)
    for workload in ("ledger-certs", "ledger-witnesses"):
        params = design["workloads"][workload]
        trials = params["trials"]
        digests = {}
        for seed in design["recorded_seeds"]:
            work = Path(tempfile.mkdtemp(prefix="record-", dir=ROOT / WORK_DIR))
            try:
                ledger_path = work / "ledger.json"
                ledger = write_ledger_copy(ROOT, workload, ledger_path)
                result = Run(ROOT, workload, seed, trials, ledger_path, work).child()
                if result.get("error"):
                    print(result["error"], file=sys.stderr)
                    return 1
                digest = report_digest(Path(result["report"]).read_bytes(),
                                       str(ledger_path))
                _, failed, problems = check_ledger_pass(
                    result, ledger, workload, digest, str(ledger_path))
                if failed or problems:
                    print(f"{workload} seed {seed}: {problems}", file=sys.stderr)
                    return 1
                digests[str(seed)] = digest
                print(f"{workload} seed {seed}: {digest} ({result['wall_s']:.1f} s)")
            finally:
                shutil.rmtree(work, ignore_errors=True)
        params["report_sha256"] = {str(trials): digests}
    (HERE / "design.json").write_text(json.dumps(design, indent=2) + "\n",
                                      encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
