"""Imports and exports of the package modules stay consistent.

Every name a module imports is used there, exported or marked
``# noqa: F401``; every ``__all__`` entry is bound; and the package
re-exports each eager module's ``__all__``, naming only simulate's names
itself, which it resolves lazily so that no other command loads
``simulation`` or the process-pool modules. Only
``data_model.read_table`` opens a file to read, so the input formats
share one reader, and only
``inference._Resamples.statistics`` reads ``inference._kappa_stats``, so
the resample store is the one producer of interval statistics, and only
the bootstrap and the Bayesian interval ask it, each for the first k
statistics within a row limit. One draw
loop, ``numerics._multinomial_draw``, reads ``numerics._binomial_chunk``,
and the closed-form bound functions are named only in ``inference``, so
every multinomial draw and every closed-form interval takes one path. The
package holds no lambda, and only ``inference.Method.interval`` runs the
bootstrap and the Bayesian interval, so every interval is evaluated in one
place.
Only the worker pool's functions in ``simulation`` rebind a module
global, so no other call keeps state between calls. Every call of
``numerics._multinomial_plan`` passes only the vector and the size, so
only ``numerics`` knows how a plan stores its CDF tables. In
``simulation`` only ``_tally`` builds an interval and only
``_sampled_tables`` plans and draws tables, so sampled and listed tables
share one scorer. Only ``inference.analysis_draws`` reads the stream tags of
``analyze``'s bootstrap tables and posterior draws.
"""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import kappacmp

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "kappacmp"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def module_all(source: str) -> list:
    """The literal ``__all__`` of a module's source, or [] when it has none."""
    for node in ast.parse(source).body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return ast.literal_eval(node.value)
    return []


def unused_imports(source: str) -> list:
    """(line, name) of each imported name that is neither used, in __all__ nor marked."""
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    exported = set(module_all(source))
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*" and "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted((line, name) for name, line in imported.items()
                  if name not in used and name not in exported)


def test_checker_flags_only_unused_unmarked_names():
    source = ("import os\nimport os.path as osp\nfrom x import (\n    a,  # noqa: F401\n"
              "    b,\n)\nfrom y import c\n__all__ = ['c']\n\n\ndef f():\n"
              "    from z import d\n    return os.sep\n")
    assert unused_imports(source) == [(2, "osp"), (5, "b"), (12, "d")]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_export_is_bound(path):
    module = importlib.import_module(f"kappacmp.{path.stem}")
    assert [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)] == []


# the simulation names the package imported eagerly before they loaded lazily
SIMULATION_EXPORTS = {
    "CoverageResult", "MethodRecommendation", "Scenario", "build_scenario_from_kappas",
    "coverage_grid", "coverage_study", "dependence_bounds", "evaluate_failure",
    "read_scenario_batch", "recommend_method", "render_coverage_report", "sample_counts",
    "scenario_probabilities",
}


# the modules the package imports on import; cli is the front end, and
# simulation's names load on first access
EAGER = [path.stem for path in MODULES if path.stem not in ("cli", "simulation")]


def test_package_imports_only_exported_names():
    # the package re-exports each eager module's __all__ and lists only the
    # lazy names itself, so every public name is declared once, in its module
    listed = {module: module_all((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
              for module in [*EAGER, "simulation"]}
    eager = {name for module in EAGER for name in listed[module]}
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    starred = sorted(node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                     and [alias.name for alias in node.names] == ["*"])
    assert starred == EAGER
    assert kappacmp.__all__ == sorted(eager | set(kappacmp._LAZY))
    assert set(kappacmp._LAZY) == set(listed["simulation"]) - eager
    assert set(kappacmp._LAZY.values()) == {"simulation"} and "dependence_bounds" in eager
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant):
            named.add(node.value)
        elif isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.alias):
            named.add(node.asname or node.name)
    assert named & set(kappacmp.__all__) == set(kappacmp._LAZY)
    assert [name for name in kappacmp.__all__ if not hasattr(kappacmp, name)] == []
    assert SIMULATION_EXPORTS <= set(kappacmp.__all__)


POOL_MODULES = ["kappacmp.simulation", "concurrent.futures.process", "multiprocessing"]
WORKED = ["41", "0", "40", "8", "5", "1", "24", "181"]


@pytest.mark.parametrize("code, loaded", [
    ("import kappacmp.cli", []),
    ("import kappacmp\nassert set(kappacmp.__all__) <= set(dir(kappacmp))", []),
    (f"from kappacmp.cli import main\nassert main(['analyze', *{WORKED}, '--out', os.devnull]) == 0",
     []),
    (f"from kappacmp.cli import main\nassert main(['curve', *{WORKED}, '--out', os.devnull]) == 0",
     []),
    (f"from kappacmp.cli import main\nassert main(['plan', *{WORKED}, '--c', '0.5', "
     "'--precision', '0.1']) == 0", []),
    ("from kappacmp.cli import main\nassert main(['simulate', '--batch', 'batch.csv', "
     "'--out', os.devnull]) == 0", POOL_MODULES),
    ("from kappacmp import Scenario, coverage_study, recommend_method\n"
     "import kappacmp.simulation as simulation\n"
     "assert (Scenario, coverage_study) == (simulation.Scenario, simulation.coverage_study)",
     POOL_MODULES),
], ids=["import-cli", "import-package", "analyze", "curve", "plan", "simulate", "lazy-names"])
def test_only_simulate_loads_the_pool_modules(code, loaded, tmp_path):
    (tmp_path / "batch.csv").write_text("k0_1,k1_1,k0_2,k1_2,p,c,f,n,N\n"
                                        "0.3,0.6,0.8,0.8,0.25,0.5,0.5,40,100\n", encoding="utf-8")
    script = (f"import os, sys\nsys.path.insert(0, {str(PACKAGE.parent)!r})\n{code}\n"
              f"print([name for name in {POOL_MODULES!r} if name in sys.modules])\n")
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert ast.literal_eval(done.stdout.splitlines()[-1]) == loaded


def opens_to_read(call: ast.Call) -> bool:
    """True for an ``open``/``io.open`` call whose mode is not a constant write mode."""
    func = call.func
    if not (isinstance(func, ast.Name) and func.id == "open"
            or isinstance(func, ast.Attribute) and func.attr == "open"
            and isinstance(func.value, ast.Name) and func.value.id == "io"):
        return False
    mode = call.args[1] if len(call.args) > 1 else next(
        (kw.value for kw in call.keywords if kw.arg == "mode"), None)
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and set(mode.value) & set("wax"))


def located(source: str):
    """(qualified enclosing function or class, node) of every node of a module's source."""
    def visit(node, where):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name if where == "<module>" else f"{where}.{node.name}"
        yield where, node
        for child in ast.iter_child_nodes(node):
            yield from visit(child, where)

    return visit(ast.parse(source), "<module>")


def reading_opens(source: str) -> list:
    """(function, line) of each call in a module's source that opens a file to read."""
    return [(where, node.lineno) for where, node in located(source)
            if isinstance(node, ast.Call) and opens_to_read(node)]


def test_open_checker_flags_only_reads():
    source = ("import io\nopen('a')\n\n\ndef f(p, m):\n    open(p, 'w').close()\n"
              "    io.open(p, mode='a')\n    io.open(p, encoding='utf-8')\n"
              "    open(p, m)\n    open(p, 'r+')\n    os.open(p)\n")
    assert reading_opens(source) == [("<module>", 2), ("f", 8), ("f", 9), ("f", 10)]


def test_only_read_table_opens_files_to_read():
    readers = {(path.stem, where) for path in PACKAGE.glob("*.py")
               for where, _ in reading_opens(path.read_text(encoding="utf-8"))}
    assert readers == {("data_model", "read_table")}


def references(source: str, name: str) -> list:
    """(qualified function, line) of each use of ``name`` in a module's source."""
    return [(where, node.lineno) for where, node in located(source)
            if isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.Attribute) and node.attr == name]


def calls(source: str, name: str) -> list:
    """(qualified function, argument count) of each call of ``name`` in a module's source."""
    return [(where, len(node.args) + len(node.keywords)) for where, node in located(source)
            if isinstance(node, ast.Call) and (
                isinstance(node.func, ast.Name) and node.func.id == name
                or isinstance(node.func, ast.Attribute) and node.func.attr == name)]


def global_statements(source: str) -> list:
    """(qualified function, names) of each ``global`` statement in a module's source."""
    return [(where, tuple(node.names)) for where, node in located(source)
            if isinstance(node, ast.Global)]


def test_reference_checker_names_the_enclosing_function():
    source = ("f = g\n\n\nclass A:\n    def m(self):\n        return g(1)\n\n\n"
              "def h():\n    def inner():\n        return mod.g\n    return g\n")
    assert references(source, "g") == [("<module>", 1), ("A.m", 6), ("h.inner", 11), ("h", 12)]


def test_only_the_resample_store_computes_interval_statistics():
    users = {(path.stem, where) for path in PACKAGE.glob("*.py")
             for where, _ in references(path.read_text(encoding="utf-8"), "_kappa_stats")}
    assert users == {("inference", "_Resamples.statistics")}


def test_the_resampled_intervals_ask_the_store_one_question():
    # (c, which, k, limit): the store alone decides how many rows to scan
    askers = {(path.stem, where, count) for path in PACKAGE.glob("*.py")
              for where, count in calls(path.read_text(encoding="utf-8"), "statistics")}
    assert askers == {("inference", "_bootstrap", 4), ("inference", "_bayesian", 4)}


def test_one_draw_loop_reads_the_binomial_chunks():
    users = {(path.stem, where) for path in PACKAGE.glob("*.py")
             for where, _ in references(path.read_text(encoding="utf-8"), "_binomial_chunk")}
    assert users == {("numerics", "_multinomial_draw")}


def test_call_checker_counts_every_argument():
    source = "f(1)\n\n\ndef g(p):\n    return mod.f(p, 2, k=3), f\n"
    assert calls(source, "f") == [("<module>", 1), ("g", 3)]


def test_multinomial_plans_take_only_the_vector_and_the_size():
    # the plan owns its CDF tables: no caller passes a store of its own
    planners = {(path.stem, where, count) for path in PACKAGE.glob("*.py")
                for where, count in calls(path.read_text(encoding="utf-8"), "_multinomial_plan")}
    assert planners == {("numerics", "sample_multinomial", 2),
                        ("inference", "BootstrapTables._draw", 2),
                        ("simulation", "_sampled_tables", 2)}


def test_one_evaluation_path_per_interval():
    # a METHODS entry is data: no lambda anywhere in the package, and only
    # Method.interval runs the resampled intervals
    lambdas = [(path.stem, where, node.lineno) for path in PACKAGE.glob("*.py")
               for where, node in located(path.read_text(encoding="utf-8"))
               if isinstance(node, ast.Lambda)]
    assert lambdas == []
    runners = {(path.stem, where) for path in PACKAGE.glob("*.py")
               for name in ("_bootstrap", "_bayesian")
               for where, _ in calls(path.read_text(encoding="utf-8"), name)}
    assert runners == {("inference", "Method.interval")}


def test_one_scorer_for_every_table_source():
    # a coverage range is a table source plus _tally: only _tally builds an
    # interval, and only the sampled source plans and draws the tables
    source = (PACKAGE / "simulation.py").read_text(encoding="utf-8")
    scorers = {where for name in ("bound", "interval") for where, _ in calls(source, name)}
    assert scorers == {"_tally"}
    samplers = {where for name in ("_multinomial_plan", "_head_streams")
                for where, _ in calls(source, name)}
    assert samplers == {"_sampled_tables"}


def test_only_analysis_draws_reads_the_analysis_streams():
    # analyze's resample stores and the default draws of bootstrap_ci and
    # bayesian_ci come from inference.analysis_draws alone
    users = {(path.stem, where) for path in PACKAGE.glob("*.py")
             for name in ("BOOTSTRAP_STREAM", "BAYES_STREAM")
             for where, _ in references(path.read_text(encoding="utf-8"), name)}
    assert users == {("inference", "<module>"), ("inference", "analysis_draws")}


@pytest.mark.parametrize("name", ["_wald_diff", "_wald_ratio", "_log_ratio", "_fieller"])
def test_closed_form_bounds_are_named_only_in_inference(name):
    # other modules reach a bound through inference.METHODS, never by name
    modules = {path.stem for path in PACKAGE.glob("*.py")
               if references(path.read_text(encoding="utf-8"), name)}
    assert modules == {"inference"}


def test_global_checker_names_the_enclosing_function():
    source = ("x = 0\n\n\ndef f():\n    global x\n\n\nclass A:\n    def m(self):\n"
              "        global x, y\n")
    assert global_statements(source) == [("f", ("x",)), ("A.m", ("x", "y"))]


def test_only_the_worker_pool_is_module_state_that_functions_rebind():
    # a function that rebinds a module global keeps state no caller passed
    # it; only the shared worker pool of parallel coverage cells does
    users = {(path.stem, where, names) for path in PACKAGE.glob("*.py")
             for where, names in global_statements(path.read_text(encoding="utf-8"))}
    assert users == {("simulation", "_drop_pool", ("_pool",)),
                     ("simulation", "_map_ranges", ("_pool", "_pool_workers"))}
