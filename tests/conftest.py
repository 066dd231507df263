import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from kappacmp.data_model import PairedCounts


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench_run(monkeypatch):
    """perfbench/run.py as a module, loaded read-only and dropped after the test."""
    # run.py imports its sibling spans.py and puts src/ on sys.path
    monkeypatch.setattr(sys, "path", [str(PERFBENCH), *sys.path])
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)  # its dataclasses look it up
    spec.loader.exec_module(run)
    return run


@pytest.fixture
def table8():
    """The malaria-style worked example: n=300, two tests versus a gold standard."""
    return PairedCounts(41, 0, 40, 8, 5, 1, 24, 181)


def random_accuracies(rng: np.random.RandomState, size: int,
                      min_y: float = 0.02) -> np.ndarray:
    """(size, 5) array of feasible (se1, sp1, se2, sp2, p) with positive Youden."""
    rows = []
    while len(rows) < size:
        block = rng.uniform(0.02, 0.98, size=(size, 5))
        keep = ((block[:, 0] + block[:, 1] - 1.0 > min_y)
                & (block[:, 2] + block[:, 3] - 1.0 > min_y)
                & (block[:, 4] > 0.05) & (block[:, 4] < 0.95))
        rows.extend(block[keep].tolist())
    return np.asarray(rows[:size])


def random_counts(rng: np.random.RandomState, n: int = 200) -> PairedCounts:
    """A random estimable table with all margins positive."""
    while True:
        probs = rng.dirichlet(np.ones(8))
        cells = rng.multinomial(n, probs)
        counts = PairedCounts(*cells)
        if counts.s > 0 and counts.r > 0 and all(c > 0 for c in counts.cells()):
            return counts
