import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from kappacmp.data_model import PairedCounts
from kappacmp.errors import DomainError
from kappacmp.numerics import _GOLDEN, _INV_2_53, _MASK64, RandomStream, _mix64
from kappacmp.simulation import read_scenario_batch


ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
PAPER_GRID = ROOT / "grids" / "paper.csv"


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


def paper_scenarios():
    """The populations of grids/paper.csv in file order, one Scenario each."""
    return list(dict.fromkeys(scenario for scenario, _, _ in read_scenario_batch(PAPER_GRID)))


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


def reference_uniforms(seed: int, stream: int):
    """The uniforms of RandomStream(seed, stream) by their definition, one counter at a time.

    Counter k (from 1) is the stream's state plus k golden-ratio steps;
    its uniform is the top 53 bits of its _mix64, times 2**-53.
    """
    state = _mix64((seed & _MASK64) ^ _mix64(((stream & _MASK64) + 1) * _GOLDEN))
    while True:
        state = (state + _GOLDEN) & _MASK64
        yield (_mix64(state) >> 11) * _INV_2_53


class ReferenceStream:
    """A RandomStream whose uniforms come from reference_uniforms: the oracle of the block readers.

    ``gauss``, ``gamma`` and ``uniform_open`` are RandomStream's own, on these uniforms.
    """

    uniform_open = RandomStream.uniform_open
    gauss = RandomStream.gauss
    gamma = RandomStream.gamma

    def __init__(self, seed: int, stream: int = 0):
        self.uniform = reference_uniforms(seed, stream).__next__
        self._spare_gauss = None


def stream_state(stream) -> tuple:
    """The pending normal and the next uniform of a RandomStream.

    Two streams of one (seed, stream) pair that agree on both are at the
    same counter; the read moves both on by one uniform.
    """
    return stream._spare_gauss, stream.uniform()


def empirical_quantile(values, q: float) -> float:
    """Interpolating empirical quantile at one-based index q*(m-1)+1 of
    ``sorted(values)``: the sort oracle of numerics.select_quantile."""
    vals = sorted(values)
    if not vals:
        raise DomainError("empirical_quantile needs a non-empty sequence")
    if not 0.0 <= q <= 1.0:
        raise DomainError(f"quantile level must be in [0, 1], got {q}")
    pos = q * (len(vals) - 1)
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi:
        return float(vals[lo])
    w = pos - lo
    return float(vals[lo]) * (1.0 - w) + float(vals[hi]) * w
