"""The benchmark's traced mode wraps names that the package must keep."""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_trace_target_resolves(monkeypatch):
    # run.py imports its sibling spans.py and puts src/ on sys.path
    monkeypatch.setattr(sys, "path", [str(PERFBENCH), *sys.path])
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)  # its dataclasses look it up
    spec.loader.exec_module(run)
    targets = run.trace_targets()
    assert targets
    missing = [(module.__name__, attr) for module, attr, _ in targets
               if not hasattr(module, attr)]
    assert missing == []
