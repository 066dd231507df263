"""The benchmark's traced mode wraps names that the package must keep."""

import ast
from pathlib import Path

import kappacmp

PACKAGE = Path(kappacmp.__file__).resolve().parent


def test_every_trace_target_resolves(perfbench_run):
    targets = perfbench_run.trace_targets()
    assert targets
    missing = [(module.__name__, attr) for module, attr, _ in targets
               if not hasattr(module, attr)]
    assert missing == []


def unused_import_shims() -> set:
    """(module, name) of every import in the package marked ``# noqa: F401``."""
    shims = set()
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                shims.update((f"kappacmp.{path.stem}", alias.asname or alias.name)
                             for alias in node.names
                             if "# noqa: F401" in lines[alias.lineno - 1])
    return shims


def test_every_unused_import_is_a_trace_target(perfbench_run):
    # an import kept only for the traced mode must go when the mode stops wrapping it
    shims = unused_import_shims()
    traced = {(module.__name__, attr) for module, attr, _ in perfbench_run.trace_targets()}
    assert sorted(shims - traced) == []
