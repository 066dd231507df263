"""Seeded fuzz of the interval entry points on awkward tables.

Every call must return finite, ordered bounds or raise a KappaCmpError
subclass: never a bare Python exception, never an infinite or NaN bound.
"""

import math
import random

import pytest

from kappacmp.data_model import PairedCounts, apply_continuity_correction
from kappacmp.errors import KappaCmpError
from kappacmp.inference import (
    BAYES_STREAM,
    BOOTSTRAP_STREAM,
    BootstrapTables,
    ConfidenceConfig,
    PosteriorDraws,
    bayesian_ci,
    bootstrap_ci,
    fieller_ratio_ci,
    log_ratio_ci,
    wald_diff_ci,
    wald_ratio_ci,
)
from kappacmp.numerics import RandomStream

FUZZ_SEED = 20240
CLOSED_FORM_CS = (0.0, 0.05, 0.3, 0.5, 0.7, 0.9, 1.0)
STOCHASTIC_CS = (0.1, 0.5, 0.9)
CONFIG = ConfidenceConfig(bootstrap_b=100, bayes_m=1000, seed=3)
# kappa1 just above 0 at c = 0.9: exp(z * sqrt(Var[ln theta])) overflows
LOG_OVERFLOW_TABLE = PairedCounts(3, 0, 18, 8, 7, 21, 3, 240)


def _tiny(rng):
    return [rng.randint(0, 3) for _ in range(8)]


def _degenerate(rng):
    cells = [rng.randint(0, 40) for _ in range(8)]
    kind = rng.randrange(4)
    if kind == 0:  # identical test columns
        cells[1] = cells[2] = cells[5] = cells[6] = 0
    elif kind == 1:  # test 1 positive on everyone
        cells[2] = cells[3] = cells[6] = cells[7] = 0
    elif kind == 2:  # one stratum empty
        lo = rng.choice((0, 4))
        cells[lo:lo + 4] = [0, 0, 0, 0]
    else:  # both tests agree with the gold standard
        cells[1] = cells[2] = cells[3] = cells[4] = cells[5] = cells[6] = 0
    return cells


def _sparse(rng):
    cells = [0] * 8
    for index in rng.sample(range(8), rng.randint(2, 4)):
        cells[index] = rng.randint(1, 300)
    return cells


def _fuzz_tables(count):
    rng = random.Random(FUZZ_SEED)
    tables = [LOG_OVERFLOW_TABLE]
    makers = (_tiny, _degenerate, _sparse)
    while len(tables) < count:
        table = PairedCounts(*rng.choice(makers)(rng))
        if rng.random() < 0.3:
            table = apply_continuity_correction(table)
        tables.append(table)
    return tables


def _outcome(call):
    """'ok' for finite ordered bounds, 'raised' for a KappaCmpError; anything else fails."""
    try:
        ci = call()
    except KappaCmpError:
        return "raised"
    assert math.isfinite(ci.lower) and math.isfinite(ci.upper), ci
    assert ci.lower <= ci.upper, ci
    return "ok"


def test_closed_form_intervals_are_finite_or_raise_package_errors():
    outcomes = []
    for counts in _fuzz_tables(600):
        for c in CLOSED_FORM_CS:
            for method in (wald_diff_ci, wald_ratio_ci, log_ratio_ci, fieller_ratio_ci):
                outcomes.append(_outcome(lambda: method(counts, c, CONFIG)))
    # the fuzz reaches both sides
    assert outcomes.count("ok") > 2000 and outcomes.count("raised") > 2000


@pytest.mark.filterwarnings("ignore:.*posterior draws had an undefined")
def test_resampling_intervals_are_finite_or_raise_package_errors():
    outcomes = []
    for counts in _fuzz_tables(60):
        tables = None  # an empty table cannot be resampled: bootstrap_ci raises
        if counts.n > 0:
            tables = BootstrapTables(counts, RandomStream(CONFIG.seed, BOOTSTRAP_STREAM))
        draws = PosteriorDraws(counts, CONFIG.priors, CONFIG.bayes_m,
                               RandomStream(CONFIG.seed, BAYES_STREAM))
        for c in STOCHASTIC_CS:
            for target in ("difference", "ratio"):
                outcomes.append(_outcome(lambda: bootstrap_ci(counts, c, target, CONFIG, tables)))
                outcomes.append(_outcome(lambda: bayesian_ci(counts, c, target, CONFIG, draws)))
    assert outcomes.count("ok") > 100 and outcomes.count("raised") > 100
