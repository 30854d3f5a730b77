import importlib
import importlib.util
from pathlib import Path


def test_tracer_targets_resolve():
    # the tracer patches each target with getattr: a renamed or deleted
    # function would break `perfbench/run.py --trace 1`
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    missing = [
        (module, attr) for module, attr, _ in tracer.TARGETS
        if not callable(getattr(importlib.import_module(f"degenlab.{module}"),
                                attr, None))
    ]
    assert missing == []
