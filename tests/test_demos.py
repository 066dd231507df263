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


def run_demo(argv, cwd):
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, str(ROOT / "demos" / argv[0]), *argv[1:]],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("argv", DEMOS, ids=lambda argv: argv[0][:2])
def test_demo_runs(argv, tmp_path):
    # demo 03 writes curves/ into its working directory
    result = run_demo(argv, tmp_path)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("scenarios, message", [
    ("0", "--scenarios must be numbers from 1 to 8, got '0'"),
    ("4,9", "--scenarios must be numbers from 1 to 8, got '4,9'"),
    ("x", "--scenarios must be a comma list of numbers, got 'x'"),
], ids=["0", "9", "x"])
def test_demo06_rejects_unknown_scenarios(scenarios, message, tmp_path):
    result = run_demo(["06_full_coverage_tables.py", "--scenarios", scenarios], tmp_path)
    assert result.returncode == 2
    assert result.stderr.rstrip().endswith(f"error: {message}")
    assert "Traceback" not in result.stderr and result.stdout == ""
