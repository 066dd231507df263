"""The benchmark's output digests, recomputed at its check seed, and the
machine output of ``kappacmp analyze`` at another seed.

``python3 perfbench/run.py --digests`` only prints whether a digest
differs; here a byte drift of any of these rendered outputs fails.
"""

import hashlib
import json

import pytest

from kappacmp.cli import main


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


# sha256 of `kappacmp analyze ... --seed 3 --machine-out F`, recorded before
# the bootstrap and the posterior shared one statistics pass per c and read
# their quantiles by selection; the last table gets the +0.5 correction
MACHINE_DIGESTS = {
    ("41 0 40 8 5 1 24 181", False):
        "f97e4c8c6afa5d503edbbda0e2274b335e7d2b580753d7a3816d0f04a6d853e6",
    ("41 0 40 8 5 1 24 181", True):
        "b8d94d9a805d09929e19bf49817e56fb4de0be24adc5fad66d89502a5c8c2ac4",
    ("5 0 1 3 2 0 3 7", False):
        "dbd865cfd12e47aa30e0dc4c1dcadb28dc3173280b80a3608ab14cba84be8921",
}


@pytest.mark.parametrize("table, inverse", list(MACHINE_DIGESTS))
def test_machine_output_matches_the_recorded_digest(table, inverse, tmp_path, capsys):
    out = tmp_path / "machine.txt"
    argv = ["analyze", *table.split(), "--seed", "3", "--machine-out", str(out), "--out", "-"]
    assert main(argv + ["--inverse"] * inverse) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == MACHINE_DIGESTS[table, inverse]
