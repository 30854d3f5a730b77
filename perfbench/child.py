"""One measured process: import degenlab, load the input, run one pass.

Each pass runs in a fresh interpreter so that nothing one pass computes
(a module-level cache, say) is reused by the next, as for a user who runs
the command once.  Writes its measurements as JSON to --out.

    python3 perfbench/child.py --root . --workload ledger-certs \
        --input ledger.json --seed 1 --trials 200 --trace 0 --out r.json
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import traceback
from pathlib import Path

from hostspeed import HostSpeed
from inputs import IWMAX_TRIALS


def _mark_boundaries(cli, vdb, marks, clock):
    """Append (kind, time) at each claim, probe and run_ledger boundary.

    Consecutive marks split a pass into segments: one per claim (its
    verify call plus the audit and separators that follow it), one per
    closed-set probe, and the work before and after the ledger loop.
    """
    def at_entry(kind, fn):
        def wrapper(*args, **kwargs):
            marks.append((kind, clock()))
            return fn(*args, **kwargs)
        return wrapper

    def around(fn):
        def wrapper(*args, **kwargs):
            marks.append(("loop", clock()))
            try:
                return fn(*args, **kwargs)
            finally:
                marks.append(("after", clock()))
        return wrapper

    cli.run_ledger = around(cli.run_ledger)
    vdb.verify_degeneration = at_entry("op", vdb.verify_degeneration)
    vdb.verify_nondegeneration = at_entry("op", vdb.verify_nondegeneration)
    vdb.lower_triangular_invariance_probe = at_entry(
        "probe", vdb.lower_triangular_invariance_probe)


def _run_ledger_pass(cli, args, work: Path) -> dict:
    out_dir = work / "out"
    argv = ["verify-paper", "--ledger", args.input, "--out", str(out_dir),
            "--seed", str(args.seed), "--trials", str(args.trials)]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    return {"exit_code": code, "report": str(out_dir / "report.json")}


def _run_query(degenlab, query, tensor) -> dict:
    """The library calls behind `degenlab info`, `iwmax` and `classify`."""
    catalog = degenlab.catalog
    if query["kind"] == "info":
        t = catalog.instantiate(query["name"], query["dim"])
        degenlab.identity_flags(t)
        nilpotent, _ = degenlab.is_nilpotent(t)
        partition, _ = degenlab.iw_max(t, seed=query["seed"])
        levels = catalog.level_lookup(query["name"], query["dim"])
        degenlab.dim_square(t)
        degenlab.annihilator(t)
        degenlab.engel_degree(t, t.dim + 1)
        return {"level": levels.level.to_json_obj(),
                "infinite_level": levels.infinite_level.to_json_obj(),
                "iw_max": list(partition), "nilpotent": nilpotent}
    if query["kind"] == "iwmax":
        partition, _ = degenlab.iw_max(tensor, seed=query["seed"],
                                       trials=IWMAX_TRIALS)
        return {"iw_max": list(partition)}
    label = catalog.classify_T22(tensor)
    return {"label": getattr(label, "key", repr(label))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--input", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trials", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    src = Path(args.root).resolve() / "src"
    result = {"error": None}

    # Every time below is on the work clock, which leaves out the host-speed
    # slices; *_s values are read at the reference speed, *_raw_s are not.
    host = HostSpeed()
    host.start()
    clock = host.work_clock
    first_slice = len(host.slices)
    start = clock()
    host.sample()  # at least two speed samples however short the setup
    sys.path.insert(0, str(src))
    import degenlab
    from degenlab import cli, verification_db
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(clock)
        tracer.install()
    if args.workload == "queries":
        with open(args.input, "r", encoding="utf-8") as fh:
            stream = json.load(fh)
        tensors = [degenlab.StructureTensor.from_json_obj(q["table"]) if "table" in q
                   else None for q in stream]
    else:
        verification_db.load_ledger(args.input)
    host.sample()
    result["setup_raw_s"] = clock() - start
    result["setup_s"] = result["setup_raw_s"] * host.factor(first_slice)
    if not Path(degenlab.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"degenlab imported from {degenlab.__file__}, not {src}")

    if not args.setup_only:
        first_slice = len(host.slices)
        marks = [("before", clock())]
        if args.workload == "queries":
            outputs = []
            for query, tensor in zip(stream, tensors):
                marks.append(("op", clock()))
                try:
                    outputs.append(_run_query(degenlab, query, tensor))
                except Exception:  # an unexpected exception fails the query
                    outputs.append({"error": traceback.format_exc()})
            result["outputs"] = outputs
        else:
            _mark_boundaries(cli, verification_db, marks, clock)
            try:
                result.update(_run_ledger_pass(cli, args, Path(args.out).parent))
            except Exception:  # recorded; the pass then fails its gate
                result["error"] = traceback.format_exc()
        marks.append(("end", clock()))
        speed = host.factor(first_slice)
        result["speed"] = speed
        result["wall_raw_s"] = marks[-1][1] - marks[0][1]
        result["wall_s"] = result["wall_raw_s"] * speed
        result["segments"] = [[kind, (marks[i + 1][1] - start) * speed]
                              for i, (kind, start) in enumerate(marks[:-1])]
    host.stop()
    if tracer is not None:
        result["per_layer"] = tracer.metrics()
        if args.spans:
            tracer.write_spans(args.spans)
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
