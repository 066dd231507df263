"""The benchmark's output digests, recomputed at its check seed.

``python3 perfbench/run.py --digests`` only prints whether a digest
differs; here a byte drift of either rendered output fails.
"""

import json


def test_outputs_match_the_recorded_digests(perfbench_run):
    run = perfbench_run
    recorded = json.loads(run.DIGESTS.read_text(encoding="utf-8"))
    analyze, coverage = run.WORKLOADS["analyze_worked"], run.WORKLOADS["coverage_closed_grid"]
    _, _, machine = run.analyze_once(analyze, run.CHECK_SEED)
    # the grid at jobs=1: its report is byte-identical to the jobs=2 one
    _, results = run.coverage_pass(coverage, run.build_scenarios(coverage),
                                   run.config_for(coverage, run.CHECK_SEED), 1)
    report = run.coverage_report(results)
    assert report is not None, "a coverage cell raised"
    assert {"analyze_worked": run.sha256(machine),
            "coverage_closed_grid": run.sha256(report)} == recorded
