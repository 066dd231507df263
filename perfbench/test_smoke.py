"""Smoke test of the benchmark at tiny sizes. It never gates on timings.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import math

import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY = (
    run.Analyze("tiny_analyze", b=100, m=1000, cs=(0.5,)),
    run.Coverage("tiny_cell", cells=((3, 50),), methods=run.ALL_METHODS,
                 replicates=100, b=100, m=1000),
)


def test_spec_matches_the_metrics_the_benchmark_emits():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END_UNITS.items())
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(run.PER_LAYER_UNITS.items())
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_tiny_run_prints_every_metric_and_passes_the_gate(workload, trace, capsys):
    result = run.run_workload(workload, seed=3, seconds=0.0, trace=bool(trace))
    printed = capsys.readouterr().out.splitlines()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert math.isfinite(got["value"])
        assert any(line.split()[:1] == [metric["name"]] and line.split()[-1] == metric["unit"]
                   for line in printed), metric["name"]


def test_gate_rejects_out_of_range_coverage():
    from kappacmp.simulation import CoverageResult
    bad = CoverageResult(method="wald-diff", target="difference", n=50, n_replicates=100,
                         cp=1.5, al=math.nan, failures=0, invalid=0, cp_valid=0.9,
                         failed=False)
    workload = run.Coverage("one", cells=((3, 50),), methods=("wald-diff",), replicates=100)
    assert len(run.check_cell(workload, [bad])) == 1


@pytest.mark.xfail(raises=OverflowError, strict=True,
                   reason="library defect: log_ratio_ci overflows when kappa1 is just above 0; "
                          "coverage_closed_grid leaves out demo-06 scenario 2 until it is fixed")
def test_log_ratio_on_a_table_that_scenario_2_draws():
    from kappacmp.data_model import PairedCounts
    from kappacmp.errors import KappaCmpError
    from kappacmp.inference import log_ratio_ci
    try:
        ci = log_ratio_ci(PairedCounts(3, 0, 18, 8, 7, 21, 3, 240), 0.9)
    except KappaCmpError:
        return
    assert math.isfinite(ci.lower) and math.isfinite(ci.upper)
