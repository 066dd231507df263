"""Smoke test: every demo runs to completion against the library as it stands."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = [
    ["01_point_estimates_and_ordering.py"],
    ["02_intervals_and_test.py"],
    ["03_kappa_curves.py"],
    ["04_sample_size_planning.py"],
    ["05_coverage_study.py"],
    ["06_full_coverage_tables.py", "--replicates", "100", "--sizes", "25", "--scenarios", "4"],
]


@pytest.mark.parametrize("argv", DEMOS, ids=lambda argv: argv[0][:2])
def test_demo_runs(argv, tmp_path):
    # demo 03 writes curves/ into its working directory
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, str(ROOT / "demos" / argv[0]), *argv[1:]],
                            cwd=tmp_path, env=env, capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr
