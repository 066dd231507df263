"""Seeded fuzz of the interval and planning entry points on awkward tables.

Every call must return finite, ordered bounds (or, for the planner, a
non-negative integer size) or raise a KappaCmpError subclass: never a
bare Python exception, never an infinite or NaN bound.
"""

import math
import random

import pytest

from kappacmp.cli import build_analysis_report
from kappacmp.data_model import MAX_SUBJECTS, PairedCounts, apply_continuity_correction
from kappacmp.errors import DegenerateKappaError, DomainError, KappaCmpError
from kappacmp.inference import (
    BAYES_STREAM,
    BOOTSTRAP_STREAM,
    BetaPrior,
    BootstrapTables,
    ConfidenceConfig,
    PosteriorDraws,
    Priors,
    bayesian_ci,
    bloch_test,
    bootstrap_ci,
    fieller_ratio_ci,
    log_ratio_ci,
    wald_diff_ci,
    wald_ratio_ci,
)
from kappacmp.kappa_core import accuracy_from_counts, kappa_pair
from kappacmp.numerics import RandomStream, sample_multinomial
from kappacmp.sample_size import plan_iteration, required_sample_size
from kappacmp.simulation import build_scenario_from_kappas, coverage_study, sample_counts

FUZZ_SEED = 20240
CLOSED_FORM_CS = (0.0, 0.05, 0.3, 0.5, 0.7, 0.9, 1.0)
STOCHASTIC_CS = (0.1, 0.5, 0.9)
PLAN_PHIS = (1e-300, 1e-160, 1e-3, 0.1, 10.0)
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
        draws = PosteriorDraws(counts, CONFIG.priors, RandomStream(CONFIG.seed, BAYES_STREAM))
        for c in STOCHASTIC_CS:
            for target in ("difference", "ratio"):
                outcomes.append(_outcome(lambda: bootstrap_ci(counts, c, target, CONFIG, tables)))
                outcomes.append(_outcome(lambda: bayesian_ci(counts, c, target, CONFIG, draws)))
    assert outcomes.count("ok") > 100 and outcomes.count("raised") > 100


# cells at the edges of the table domain: small counts and half-counts, large
# cells two of which fit under the cap, one cell at about the cap; and cells
# the domain refuses: negative, non-finite, neither a count nor a count + 0.5,
# or past the cap
SMALL_CELLS = (0, 0, 0.5, 1, 3)
LARGE_CELLS = (2**20 + 0.5, 2**48, 2**50 - 0.5, 2**50, 2**51 - 8)
REFUSED_CELLS = (-1, math.nan, math.inf, 0.3, 1e-300, 2**51 + 0.5, 10**400, 4 * 10**154)


def test_edge_tables_are_refused_when_built_or_give_finite_bounds():
    rng = random.Random(FUZZ_SEED)
    outcomes = []
    refusals = 0
    for _ in range(400):
        cells = [rng.choice(SMALL_CELLS) for _ in range(8)]
        for index in rng.sample(range(8), rng.randint(0, 2)):
            cells[index] = rng.choice(LARGE_CELLS)
        if rng.random() < 0.2:
            cells[rng.randrange(8)] = rng.choice(REFUSED_CELLS)
        try:
            counts = PairedCounts(*cells)
        except DomainError:
            refusals += 1
            continue
        assert counts.n <= MAX_SUBJECTS
        for c in CLOSED_FORM_CS:
            for method in (wald_diff_ci, wald_ratio_ci, log_ratio_ci, fieller_ratio_ci):
                outcomes.append(_outcome(lambda: method(counts, c, CONFIG)))
            try:
                test = bloch_test(counts, c)
            except KappaCmpError:
                continue
            assert math.isfinite(test.z_stat) and 0.0 <= test.p_value <= 1.0, test
            outcomes.append(_size_outcome(
                lambda: plan_iteration(counts, c, 0.1, config=CONFIG).n_required))
    # the fuzz reaches every side
    assert refusals > 100
    assert outcomes.count("ok") > 3000 and outcomes.count("raised") > 3000


# the DomainError of a cell outside the table domain (PairedCounts)
REFUSED = r"must be a count or a count \+ 0\.5 in \[0, 2\*\*51\], got"


def test_products_that_underflow_are_refused_when_the_table_is_built():
    # on 1e-300 cells p*p*q*q*y1*y2 underflows to 0, a ZeroDivisionError in
    # every closed-form interval at every c
    with pytest.raises(DomainError, match=rf"cell s11 {REFUSED} 1e-300"):
        wald_diff_ci(PairedCounts(1e-300, 0, 0, 1e-300, 5, 1, 1, 5), 0.5)


def test_an_infinite_pilot_is_refused_when_the_table_is_built():
    # plan_iteration takes int(round(n)), an OverflowError at n = inf
    with pytest.raises(DomainError, match=rf"cell s11 {REFUSED} inf"):
        plan_iteration(PairedCounts(math.inf, 1, 1, 1, 1, 1, 1, 1), 0.5, 0.1)


def test_an_infinite_cell_is_named_not_a_nan_proportion():
    # the estimators would see se1 = inf/inf = nan, far from the cause
    with pytest.raises(DomainError, match=rf"cell r00 {REFUSED} inf"):
        accuracy_from_counts(PairedCounts(1, 1, 1, 1, 1, 1, 1, math.inf))


def _size_outcome(call):
    """'ok' for a non-negative int size, 'raised' for a KappaCmpError; anything else fails."""
    try:
        n = call()
    except KappaCmpError:
        return "raised"
    assert isinstance(n, int) and n >= 0, n
    return "ok"


def _required_size(counts, c, phi):
    acc = accuracy_from_counts(counts)
    return required_sample_size(acc, kappa_pair(acc, c), phi, CONFIG.conf)


def test_planner_sizes_are_non_negative_ints_or_raise_package_errors():
    outcomes = []
    for counts in _fuzz_tables(200):
        for c in CLOSED_FORM_CS:
            for phi in PLAN_PHIS:
                outcomes.append(_size_outcome(lambda: _required_size(counts, c, phi)))
                outcomes.append(_size_outcome(
                    lambda: plan_iteration(counts, c, phi, config=CONFIG).n_required))
    assert outcomes.count("ok") > 2000 and outcomes.count("raised") > 2000


@pytest.mark.parametrize("size", [math.inf, math.nan], ids=["inf", "nan"])
def test_non_finite_sample_sizes_raise_package_errors(size):
    # float.is_integer() is False for both: the size is refused before any draw
    with pytest.raises(DomainError, match="multinomial size must be a non-negative integer"):
        sample_multinomial([0.5, 0.5], size, RandomStream(0))
    scenario = build_scenario_from_kappas(0.3, 0.6, 0.8, 0.8, 0.25, 0.5, 0.5)
    with pytest.raises(DomainError, match="multinomial size must be a non-negative integer"):
        sample_counts(scenario, size, RandomStream(0))


# 3 * 10**8 subjects: past the largest size a multinomial draw takes
HUGE_TABLE = PairedCounts(41_000_000, 0, 40_000_000, 8_000_000, 5_000_000, 1_000_000,
                          24_000_000, 181_000_000)


@pytest.mark.parametrize("size", [2**26 + 1, 10**12, 1e300])
def test_sizes_past_the_cap_raise_package_errors(size):
    # refused before the first block of trials, which a huge size would loop over for hours
    with pytest.raises(DomainError, match=r"multinomial size must be at most 2\*\*26"):
        sample_multinomial([0.5, 0.5], size, RandomStream(0))
    scenario = build_scenario_from_kappas(0.3, 0.6, 0.8, 0.8, 0.25, 0.5, 0.5)
    with pytest.raises(DomainError, match=r"multinomial size must be at most 2\*\*26"):
        sample_counts(scenario, size, RandomStream(0))


def test_largest_size_is_drawn():
    assert sum(sample_multinomial([0.5, 0.5], 2**26, RandomStream(0))) == 2**26


def test_analysis_past_the_cap_reports_both_bootstraps_invalid():
    report = build_analysis_report(HUGE_TABLE, cs=[0.5], config=CONFIG)
    row, = report.rows
    assert {"boot-diff", "boot-ratio"} <= set(row.interval_errors)
    assert "multinomial size must be at most 2**26" in row.interval_errors["boot-diff"]
    # the closed-form and posterior intervals do not resample the table
    assert {"wald-diff", "bayes-diff"} <= set(row.intervals)
    # and the report names the method, c and reason of each
    for method in ("boot-diff", "boot-ratio"):
        assert (f"{method} interval invalid at c=0.5: multinomial size must be at most "
                "2**26 = 67108864, got 300000000") in report.warnings


def test_confidence_level_whose_critical_value_rounds_to_one_is_refused():
    # 1 - alpha/2 rounds to 1.0, where normal_quantile is undefined
    with pytest.raises(DomainError, match=r"confidence level 0\.9999999999999999 is too close"):
        ConfidenceConfig(conf=0.9999999999999999)
    # the next level down has a finite critical value
    assert 8.0 < ConfidenceConfig(conf=1.0 - 2.0**-52).z < math.inf


# a prior so strong that every posterior draw has Se = Sp = 1/2: kappa2 is
# exactly 0 on every draw, so no ratio is defined
FLAT_HALF = ConfidenceConfig(bayes_m=1000, priors=Priors(*[BetaPrior(1e300, 1e300)] * 5))


def test_posterior_without_a_defined_ratio_is_an_invalid_interval():
    counts = PairedCounts(41, 0, 40, 8, 5, 1, 24, 181)
    with pytest.raises(DegenerateKappaError, match="no posterior draw has a defined ratio"):
        bayesian_ci(counts, 0.5, "ratio", FLAT_HALF)
    row, = build_analysis_report(counts, cs=[0.5], methods=["bayes-diff", "bayes-ratio"],
                                 config=FLAT_HALF).rows
    assert list(row.intervals) == ["bayes-diff"] and list(row.interval_errors) == ["bayes-ratio"]
    # a coverage study counts the ratio invalid on every replicate and runs on
    scenario = build_scenario_from_kappas(0.3, 0.6, 0.8, 0.8, 0.25, 0.5, 0.5)
    diff, ratio = coverage_study(scenario, 50, 100, ["bayes-diff", "bayes-ratio"], FLAT_HALF)
    assert (diff.invalid, ratio.invalid) == (0, 100)
