"""Smoke test: every demo runs to completion against the library as it stands."""

import os
import re
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


def test_every_demo_has_a_smoke_test_and_a_readme_row():
    scripts = sorted(path.name for path in (ROOT / "demos").glob("*.py"))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `demos/([^`]+)` \|", readme, flags=re.MULTILINE)
    assert sorted(argv[0] for argv in DEMOS) == scripts
    assert sorted(rows) == scripts
