import hashlib
import io
import itertools
import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

import kappacmp.simulation as simulation
from conftest import PAPER_GRID, paper_scenarios, random_accuracies
from kappacmp import inference, numerics
from kappacmp.data_model import PairedCounts, apply_continuity_correction, recommend_method
from kappacmp.errors import (
    DegenerateKappaError,
    DomainError,
    FiellerInvalidError,
    InfeasibleScenarioError,
    KappaCmpError,
    LogIntervalError,
    NonEstimableError,
    UndefinedRatioError,
    UnsupportedNominalError,
)
from kappacmp.inference import (
    METHODS,
    BootstrapTables,
    ConfidenceConfig,
    PosteriorDraws,
    bayesian_ci,
    bootstrap_ci,
    fieller_ratio_ci,
    kappa_covariance,
    log_ratio_ci,
    wald_diff_ci,
    wald_ratio_ci,
)
from kappacmp.kappa_core import accuracy_from_counts, kappa_pair
from kappacmp.numerics import RandomStream
from kappacmp.simulation import (
    build_scenario_from_kappas,
    coverage_grid,
    coverage_study,
    dependence_bounds,
    evaluate_failure,
    read_scenario_batch,
    render_coverage_report,
    sample_counts,
    scenario_probabilities,
)

TABLE3_HEADER = dict(se1=0.484, sp1=0.684, se2=0.852, sp2=0.911, p=0.5)


def kappa_from_cells(pi, c, which):
    """Independent route: kappa for one test straight from the cell vector."""
    p11, p10, p01, p00, q11, q10, q01, q00 = pi
    p = p11 + p10 + p01 + p00
    q = q11 + q10 + q01 + q00
    if which == 1:
        num = (p11 + p10) * (q01 + q00) - (p01 + p00) * (q10 + q11)
        t_neg = p01 + p00 + q01 + q00   # P(T1 = 0)
        t_pos = p11 + p10 + q11 + q10   # P(T1 = 1)
    else:
        num = (p11 + p01) * (q10 + q00) - (p10 + p00) * (q01 + q11)
        t_neg = p10 + p00 + q10 + q00
        t_pos = p11 + p01 + q11 + q01
    return num / (p * c * t_neg + q * (1 - c) * t_pos)


class TestDependenceBounds:
    def test_table3_header_values(self):
        eps1_max, eps0_max = dependence_bounds(0.484, 0.852, 0.684, 0.911)
        assert 0.5 * eps1_max == pytest.approx(0.0359, abs=5e-4)
        assert 0.5 * eps0_max == pytest.approx(0.0306, abs=5e-4)

    def test_perfect_sensitivity(self):
        assert dependence_bounds(1.0, 1.0, 0.8, 0.9)[0] == 0.0

    def test_symmetric_half(self):
        assert dependence_bounds(0.5, 0.5, 0.7, 0.7)[0] == 0.25

    def test_domain(self):
        with pytest.raises(DomainError):
            dependence_bounds(1.2, 0.5, 0.5, 0.5)


class TestScenarioProbabilities:
    def test_independence_factorizes(self):
        sc = scenario_probabilities(0.8, 0.9, 0.7, 0.85, 0.3, 0.0, 0.0)
        assert sc.pi[0] == pytest.approx(0.3 * 0.8 * 0.7, abs=1e-15)
        assert sc.pi[7] == pytest.approx(0.7 * 0.9 * 0.85, abs=1e-15)

    def test_cells_sum_to_one(self):
        rng = np.random.RandomState(31)
        for row in random_accuracies(rng, 200):
            se1, sp1, se2, sp2, p = row
            eps1_max, eps0_max = dependence_bounds(se1, se2, sp1, sp2)
            f = rng.uniform(0, 1)
            sc = scenario_probabilities(se1, sp1, se2, sp2, p,
                                        f * eps1_max, f * eps0_max)
            assert abs(sum(sc.pi) - 1.0) < 1e-12
            assert all(cell >= 0 for cell in sc.pi)
            assert sum(sc.pi[:4]) == pytest.approx(p, abs=1e-12)

    def test_table3_header_kappas(self):
        sc = scenario_probabilities(c=0.1, eps1=0.0359, eps0=0.0306, **TABLE3_HEADER)
        assert sc.kappa1 == pytest.approx(0.2, abs=0.005)
        assert sc.kappa2 == pytest.approx(0.8, abs=0.005)

    def test_infeasible_dependence_rejected(self):
        with pytest.raises(InfeasibleScenarioError):
            scenario_probabilities(0.9, 0.9, 0.9, 0.9, 0.5, 0.2, 0.0)

    def test_null_scenarios_have_exact_truths(self):
        # paper scenarios 7 and 8 are built with kappa1 = kappa2 = 0.4 but
        # differ in the last bits; scenario 4 (0.4 and 0.8) does not tie
        scenarios = paper_scenarios()
        for sc in scenarios[6:8]:
            assert sc.kappa1 != sc.kappa2
            assert sc.kappa1 == pytest.approx(sc.kappa2, rel=1e-12)
            assert (sc.delta, sc.theta) == (0.0, 1.0)
        sc = scenarios[3]
        assert (sc.delta, sc.theta) == (sc.kappa1 - sc.kappa2, sc.kappa1 / sc.kappa2)
        # two uninformative tests: both kappas are 0, and the ratio stays undefined
        sc = scenario_probabilities(0.5, 0.5, 0.5, 0.5, 0.4, 0.0, 0.0)
        assert (sc.kappa1, sc.kappa2, sc.delta) == (0.0, 0.0, 0.0)
        with pytest.raises(UndefinedRatioError):
            _ = sc.theta

    def test_two_route_kappa_consistency(self):
        rng = np.random.RandomState(32)
        for row in random_accuracies(rng, 300):
            se1, sp1, se2, sp2, p = row
            eps1_max, eps0_max = dependence_bounds(se1, se2, sp1, sp2)
            sc = scenario_probabilities(se1, sp1, se2, sp2, p,
                                        0.5 * eps1_max, 0.5 * eps0_max, c=0.37)
            assert sc.kappa1 == pytest.approx(kappa_from_cells(sc.pi, 0.37, 1), abs=1e-12)
            assert sc.kappa2 == pytest.approx(kappa_from_cells(sc.pi, 0.37, 2), abs=1e-12)


class TestBuildScenario:
    def test_table3_header_reconstruction(self):
        sc = build_scenario_from_kappas(0.21, 0.14, 0.81, 0.72, 0.5, 0.1, 0.5)
        assert round(sc.se1, 3) == 0.484
        assert round(sc.sp1, 3) == 0.684
        assert round(sc.se2, 3) == 0.852
        assert round(sc.sp2, 3) == 0.911
        assert round(sc.eps1, 4) == 0.0359
        assert round(sc.eps0, 4) == 0.0306
        assert sc.kappa1 == pytest.approx(0.2, abs=1e-12)
        assert sc.kappa2 == pytest.approx(0.8, abs=1e-12)
        assert sc.delta == pytest.approx(-0.6, abs=1e-12)
        assert sc.theta == pytest.approx(0.25, abs=1e-12)

    def test_zero_fraction_is_independence(self):
        sc = build_scenario_from_kappas(0.5, 0.5, 0.6, 0.6, 0.3, 0.5, 0.0)
        assert sc.eps1 == 0.0 and sc.eps0 == 0.0
        assert sc.pi[0] == pytest.approx(0.3 * sc.se1 * sc.se2, abs=1e-15)

    def test_high_fraction(self):
        sc = build_scenario_from_kappas(0.5, 0.5, 0.6, 0.6, 0.3, 0.5, 0.8)
        eps1_max, eps0_max = dependence_bounds(sc.se1, sc.se2, sc.sp1, sc.sp2)
        assert sc.eps1 == pytest.approx(0.8 * eps1_max, abs=1e-15)
        assert sc.eps0 == pytest.approx(0.8 * eps0_max, abs=1e-15)

    def test_bad_fraction(self):
        with pytest.raises(DomainError):
            build_scenario_from_kappas(0.5, 0.5, 0.6, 0.6, 0.3, 0.5, 1.2)


class TestSampleCounts:
    def test_point_mass(self):
        sc = scenario_probabilities(1.0, 1.0, 1.0, 1.0, 0.5, 0.0, 0.0)
        # all mass on s11 and r00; diseased half gets s11
        counts = sample_counts(sc, 40, RandomStream(1, 0))
        assert counts.s11 + counts.r00 == 40
        assert counts.s10 == counts.s01 == counts.s00 == 0

    def test_sum_matches_n(self):
        sc = build_scenario_from_kappas(0.21, 0.14, 0.81, 0.72, 0.5, 0.1, 0.5)
        stream = RandomStream(2, 0)
        for n in (1, 17, 300):
            assert sample_counts(sc, n, stream).n == n

    def test_frequencies_match_probabilities(self):
        sc = build_scenario_from_kappas(0.21, 0.14, 0.81, 0.72, 0.5, 0.1, 0.5)
        stream = RandomStream(3, 0)
        draws, n = 20_000, 300
        totals = np.zeros(8)
        for _ in range(draws):
            totals += sample_counts(sc, n, stream).cells()
        rates = totals / (draws * n)
        for rate, p in zip(rates, sc.pi):
            se = math.sqrt(p * (1 - p) / (draws * n))
            assert abs(rate - p) < 4 * se

    def test_zero_size_rejected(self):
        sc = build_scenario_from_kappas(0.21, 0.14, 0.81, 0.72, 0.5, 0.1, 0.5)
        with pytest.raises(DomainError):
            sample_counts(sc, 0, RandomStream(0))


@pytest.fixture
def no_cached_pool(monkeypatch):
    """Drop the process's shared coverage pool before and after the test.

    The worker count is capped at the CPU count; a count of 64 keeps the
    pools of these tests the same on any host.
    """
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    simulation._drop_pool()
    yield
    simulation._drop_pool()


class FakePools:
    """In-process stand-in for ProcessPoolExecutor; counts builds and shutdowns."""

    def __init__(self):
        self.sizes = []
        self.shutdowns = 0

    def __call__(self, max_workers):
        self.sizes.append(max_workers)
        return self

    def map(self, fn, items):
        return map(fn, items)

    def shutdown(self):
        self.shutdowns += 1


@pytest.fixture
def fake_pools(monkeypatch, no_cached_pool):
    pools = FakePools()
    monkeypatch.setattr(simulation, "ProcessPoolExecutor", pools)
    return pools


def _exit_worker(args):
    os._exit(1)  # a worker that dies mid-call


class TestCoverageStudy:
    def test_identical_tests_always_covered(self):
        # both tests equal: delta_hat = 0 = true delta with zero-width interval
        sc = scenario_probabilities(0.9, 0.9, 0.9, 0.9, 0.5, 0.9 * 0.1, 0.9 * 0.1)
        res, = coverage_study(sc, 100, 100, ["wald-diff"], ConfidenceConfig(seed=3))
        assert res.cp == 1.0
        assert not res.failed

    def test_seed_invariance_within_noise(self):
        sc = build_scenario_from_kappas(0.3, 0.6, 0.8, 0.8, 0.25, 0.5, 0.5)
        cps = []
        for seed in (11, 12):
            res, = coverage_study(sc, 200, 400, ["wald-ratio"], ConfidenceConfig(seed=seed))
            cps.append(res.cp)
        bound = 4 * math.sqrt(0.95 * 0.05 / 400)
        assert abs(cps[0] - cps[1]) <= 2 * bound

    def test_wald_length_shrinks_like_root_n(self):
        sc = build_scenario_from_kappas(0.21, 0.14, 0.81, 0.72, 0.5, 0.1, 0.5)
        config = ConfidenceConfig(seed=5)
        al = {}
        for n in (250, 1000):
            res, = coverage_study(sc, n, 400, ["wald-diff"], config)
            al[n] = res.al
        assert 0.45 <= al[1000] / al[250] <= 0.55

    def test_deterministic_across_workers(self):
        sc = build_scenario_from_kappas(0.3, 0.6, 0.8, 0.8, 0.25, 0.5, 0.5)
        config = ConfidenceConfig(seed=6)
        serial = coverage_study(sc, 60, 120, ["wald-diff", "wald-ratio"], config, jobs=1)
        parallel = coverage_study(sc, 60, 120, ["wald-diff", "wald-ratio"], config, jobs=3)
        assert serial == parallel

    def test_pool_has_no_more_workers_than_ranges(self, fake_pools):
        sc = build_scenario_from_kappas(0.3, 0.6, 0.8, 0.8, 0.25, 0.5, 0.5)
        config = ConfidenceConfig(seed=6)
        serial = coverage_study(sc, 60, 100, ["wald-diff"], config, jobs=1)
        assert coverage_study(sc, 60, 100, ["wald-diff"], config, jobs=64) == serial
        assert coverage_study(sc, 60, 100, ["wald-diff"], config, jobs=3) == serial
        assert fake_pools.sizes == [50, 3]  # 50 ranges of 2 replicates; 34 + 34 + 32

    def test_pool_has_no_more_workers_than_cpus(self, fake_pools, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        sc = build_scenario_from_kappas(0.3, 0.6, 0.8, 0.8, 0.25, 0.5, 0.5)
        config = ConfidenceConfig(seed=6)
        serial = coverage_study(sc, 60, 100, ["wald-diff"], config, jobs=1)
        assert coverage_study(sc, 60, 100, ["wald-diff"], config, jobs=64) == serial
        assert coverage_study(sc, 60, 100, ["wald-diff"], config, jobs=3) == serial
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: one worker, no pool
        assert coverage_study(sc, 60, 100, ["wald-diff"], config, jobs=64) == serial
        assert fake_pools.sizes == [4, 3]  # 4 ranges of 25 replicates; 34 + 34 + 32

    def test_bootstrap_and_bayes_methods_run(self):
        sc = build_scenario_from_kappas(0.3, 0.6, 0.8, 0.8, 0.25, 0.5, 0.5)
        config = ConfidenceConfig(seed=7, bootstrap_b=100, bayes_m=1000)
        results = coverage_study(sc, 150, 100, ["boot-ratio", "bayes-diff"], config)
        for res in results:
            assert 0.5 < res.cp <= 1.0
            assert res.al > 0

    def test_corrected_variant_improves_small_sample_coverage(self):
        # the small-sample experiment: +0.5 per cell before each interval
        sc = build_scenario_from_kappas(0.21, 0.14, 0.81, 0.72, 0.5, 0.1, 0.5)
        config = ConfidenceConfig(seed=13)
        raw, = coverage_study(sc, 25, 400, ["wald-ratio"], config)
        fixed, = coverage_study(sc, 25, 400, ["wald-ratio"], config, correct=True)
        assert fixed.cp > raw.cp
        assert fixed.cp > 0.93

    def test_fieller_invalid_scored_and_counted(self):
        # tiny samples on a weak-ratio scenario produce some invalid intervals
        sc = build_scenario_from_kappas(0.2, 0.2, 0.3, 0.3, 0.3, 0.5, 0.5)
        res, = coverage_study(sc, 25, 300, ["fieller-ratio"], ConfidenceConfig(seed=8))
        assert res.invalid > 0
        assert res.cp <= res.cp_valid + 1e-12
        covered = round(res.cp * res.n_replicates)
        assert res.cp_valid == pytest.approx(covered / (res.n_replicates - res.invalid))

    def test_redraw_rule_is_pinned(self, monkeypatch):
        # paper-grid scenario 5 at n = 25 redraws both kinds of table that the
        # analysis rejects: an empty stratum and a Youden estimate of zero
        reasons = []
        analysis = simulation._analysis

        def counted(counts, c):
            try:
                return analysis(counts, c)
            except (NonEstimableError, DegenerateKappaError) as exc:
                reasons.append(type(exc))
                raise

        monkeypatch.setattr(simulation, "_analysis", counted)
        sc = build_scenario_from_kappas(0.60, 0.60, 0.40, 0.90, 0.05, 0.9, 0.5)
        results = coverage_study(sc, 25, 200, ["wald-diff", "wald-ratio", "log-ratio",
                                               "fieller-ratio"], ConfidenceConfig(seed=0))
        assert results[0].failures == len(reasons) > 0
        assert (reasons.count(NonEstimableError), reasons.count(DegenerateKappaError)) == (112, 39)
        # sha256 of the report, recorded when an accuracy-based check chose the redraws
        digest = hashlib.sha256(render_coverage_report(results).encode()).hexdigest()
        assert digest == "a504eaba733cae4d41baf179d0fb7da00400c3a4ef282d61c31bd1473291d446"

    def test_true_ratio_undefined_rejected_early(self):
        sc = scenario_probabilities(0.7, 0.7, 0.65, 0.35, 0.4, 0.0, 0.0, c=0.5)
        assert sc.kappa2 == pytest.approx(0.0, abs=1e-15)
        with pytest.raises(UndefinedRatioError):
            coverage_study(sc, 50, 100, ["wald-ratio"], ConfidenceConfig(seed=9))

    def test_replicate_floor(self):
        sc = build_scenario_from_kappas(0.3, 0.6, 0.8, 0.8, 0.25, 0.5, 0.5)
        with pytest.raises(DomainError):
            coverage_study(sc, 50, 50, ["wald-diff"], ConfidenceConfig())

    def test_unknown_method(self):
        sc = build_scenario_from_kappas(0.3, 0.6, 0.8, 0.8, 0.25, 0.5, 0.5)
        with pytest.raises(DomainError):
            coverage_study(sc, 50, 100, ["wald-odds"], ConfidenceConfig())


class TestCoverageGrid:
    CELLS = (
        (build_scenario_from_kappas(0.3, 0.6, 0.8, 0.8, 0.25, 0.5, 0.5), 60, 100),
        (build_scenario_from_kappas(0.21, 0.14, 0.81, 0.72, 0.5, 0.1, 0.5), 40, 120),
        (build_scenario_from_kappas(0.3, 0.6, 0.8, 0.8, 0.25, 0.5, 0.5), 80, 100),
    )
    METHODS = ("wald-diff", "wald-ratio", "log-ratio")

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_cells_match_the_one_cell_studies(self, jobs, no_cached_pool):
        config = ConfidenceConfig(seed=4)
        expected = [coverage_study(sc, n, reps, self.METHODS, config, jobs=jobs)
                    for sc, n, reps in self.CELLS]
        assert list(coverage_grid(self.CELLS, self.METHODS, config, jobs=jobs)) == expected

    def test_integral_float_sizes_are_taken_as_ints(self):
        sc, config = self.CELLS[0][0], ConfidenceConfig(seed=4)
        rows = coverage_study(sc, 50.0, 100.0, self.METHODS, config)
        assert rows == coverage_study(sc, 50, 100, self.METHODS, config)
        assert all(type(row.n) is int and type(row.n_replicates) is int for row in rows)

    @pytest.mark.parametrize("last, error", [
        ((0, 100), "sample size must be at least 1, got 0"),
        ((60, 50), "need at least 100 replicates, got 50"),
        (None, "kappa2 is zero"),
        ((50.5, 100), "sample size must be an integer, got 50.5"),
        ((60, 150.5), "replicate count must be an integer, got 150.5"),
        ((math.nan, 100), "sample size must be an integer, got nan"),
        (("60", 100), "sample size must be an integer, got '60'"),
        ((0.0, 100), "sample size must be at least 1, got 0"),
        ((60, 50.0), "need at least 100 replicates, got 50"),
        ((2 ** 26 + 1, 100), r"sample size must be at most 2\*\*26 = 67108864, got 67108865"),
    ], ids=["n=0", "N=50", "theta", "n=50.5", "N=150.5", "n=nan", "n='60'", "n=0.0", "N=50.0",
            "n=2**26+1"])
    def test_bad_last_cell_fails_before_any_replicate(self, last, error, monkeypatch):
        calls = []
        run_range = simulation._run_range

        def counted(args):
            calls.append(args)
            return run_range(args)

        monkeypatch.setattr(simulation, "_run_range", counted)
        if last is None:  # a scenario whose true ratio is undefined
            bad = (scenario_probabilities(0.7, 0.7, 0.65, 0.35, 0.4, 0.0, 0.0, c=0.5), 60, 100)
        else:
            bad = (self.CELLS[0][0], *last)
        with pytest.raises(KappaCmpError, match=error):
            list(coverage_grid([*self.CELLS, bad], self.METHODS, ConfidenceConfig(seed=4)))
        assert calls == []

    @pytest.mark.parametrize("jobs", [0, -1, 1.5, 2.0, "2", None])
    def test_jobs_that_is_not_a_positive_integer_fails_before_any_replicate(self, jobs,
                                                                            monkeypatch):
        # -1 is not "all cores": a worker count below 1 would run serially without a word
        calls = []
        monkeypatch.setattr(simulation, "_run_range", calls.append)
        with pytest.raises(DomainError, match=f"jobs must be an integer >= 1, got {jobs!r}"):
            coverage_grid(self.CELLS, self.METHODS, ConfidenceConfig(seed=4), jobs=jobs)
        assert calls == []


SCORER_CONFIG = ConfidenceConfig(bootstrap_b=100, bayes_m=1000, seed=4)
# each tag's public interval function, on (counts, c, tables, draws)
PUBLIC_CI = {
    "wald-diff": lambda counts, c, tables, draws: wald_diff_ci(counts, c, SCORER_CONFIG),
    "boot-diff": lambda counts, c, tables, draws: bootstrap_ci(
        counts, c, "difference", SCORER_CONFIG, tables),
    "bayes-diff": lambda counts, c, tables, draws: bayesian_ci(
        counts, c, "difference", SCORER_CONFIG, draws),
    "wald-ratio": lambda counts, c, tables, draws: wald_ratio_ci(counts, c, SCORER_CONFIG),
    "log-ratio": lambda counts, c, tables, draws: log_ratio_ci(counts, c, SCORER_CONFIG),
    "fieller-ratio": lambda counts, c, tables, draws: fieller_ratio_ci(counts, c, SCORER_CONFIG),
    "boot-ratio": lambda counts, c, tables, draws: bootstrap_ci(
        counts, c, "ratio", SCORER_CONFIG, tables),
    "bayes-ratio": lambda counts, c, tables, draws: bayesian_ci(
        counts, c, "ratio", SCORER_CONFIG, draws),
}


def _scorer_cases():
    """(table, scenario) pairs: the table is scored at the scenario's c and true values."""
    scenarios = paper_scenarios()
    stream = RandomStream(77, 0)
    cases = []
    for sc in scenarios:
        for n in (25, 100, 500):
            cases += [(sample_counts(sc, n, stream), sc) for _ in range(2)]
    # scenario 2 at n = 300 and 400 draws tables with kappa1 just above 0
    for n in (300, 400):
        cases += [(sample_counts(scenarios[1], n, stream), scenarios[1]) for _ in range(6)]
    cases += [(apply_continuity_correction(sample_counts(sc, 25, stream)), sc)
              for sc in scenarios]
    cases += [
        # kappa1 just above 0 at c = 0.9: the logarithmic interval overflows
        (PairedCounts(3, 0, 18, 8, 7, 21, 3, 240), scenarios[1]),
        (PairedCounts(3, 2, 4, 1, 2, 3, 1, 4), scenarios[3]),  # Se1 = Sp1 = 0.5
        (PairedCounts(3, 4, 2, 1, 2, 1, 3, 4), scenarios[3]),  # Se2 = Sp2 = 0.5: kappa2 = 0
        (PairedCounts(6, 0, 5, 3, 2, 5, 6, 1), scenarios[3]),  # Fieller invalid at c = 0.5
    ]
    return cases


def _redrawn(counts, c) -> bool:
    """True when a range's redraw rule rejects the table: its analysis raises."""
    try:
        simulation._analysis(counts.cells(), c)
    except simulation._REDRAW_ERRORS:
        return True
    return False


def _scored(tag, values, counts, c):
    """(covered, length) of one method at each true value in ``values`` as
    _tally tallies it, (False, None) where it tallies neither, or the
    KappaCmpError it raised.

    The source is the one table ``counts`` of weight 1 and stream base 0,
    so its shared draws are those of BootstrapTables(counts,
    RandomStream(seed, 1)) and PosteriorDraws(counts, priors,
    RandomStream(seed, 2)); a closed-form method reads the table's analysis.
    """
    method = METHODS[tag]
    entries = tuple((value, method.bound, method) for value in values)
    try:
        analysis = simulation._analysis(counts.cells(), c) if method.bound else None
        redraws, total, covered, lengths = simulation._tally(
            entries, [(1, counts.cells(), analysis, 0, 0)], c, SCORER_CONFIG)
    except KappaCmpError as exc:
        return type(exc)
    assert (redraws, total) == (0, 1)
    return [(hit == 1, length[0] if length else None) for hit, length in zip(covered, lengths)]


class TestScorer:
    @pytest.mark.filterwarnings("ignore:.*posterior draws had an undefined")
    def test_scores_every_method_as_the_public_interval(self):
        # (covered, length) bit for bit, invalid for an interval error, and
        # any other KappaCmpError raised, on every method and table. A range
        # never scores a closed-form interval on a table the redraw rule
        # rejects: there the public interval raises the analysis's error
        errors = set()
        kappa2_zero = redrawn = 0
        for counts, sc in _scorer_cases():
            c = sc.c
            tables = BootstrapTables(counts, RandomStream(SCORER_CONFIG.seed, 1))
            draws = PosteriorDraws(counts, SCORER_CONFIG.priors,
                                   RandomStream(SCORER_CONFIG.seed, 2))
            for tag, (true_value, bound, _) in zip(METHODS, simulation._entries(sc, METHODS)):
                try:
                    ci = PUBLIC_CI[tag](counts, c, tables, draws)
                except KappaCmpError as exc:
                    errors.add(type(exc))
                    interval_error = isinstance(exc, simulation._INTERVAL_ERRORS)
                    expected = [(False, None)] if interval_error else type(exc)
                    if bound is not None and _redrawn(counts, c):
                        expected = type(exc)  # the analysis's error, which the redraw rule catches
                        redrawn += 1
                    assert _scored(tag, [true_value], counts, c) == expected
                    continue
                # the true value, the bounds and the floats just outside them
                values = (true_value, ci.lower, ci.upper, math.nextafter(ci.lower, -math.inf),
                          math.nextafter(ci.upper, math.inf))
                for value, (hit, length) in zip(values, _scored(tag, values, counts, c),
                                                strict=True):
                    assert hit is ci.contains(value)
                    assert length.hex() == ci.length.hex()
                if tag == "bayes-ratio" and counts.cells() == (3, 4, 2, 1, 2, 1, 3, 4):
                    kappa2_zero += 1
        assert {LogIntervalError, DegenerateKappaError, FiellerInvalidError} <= errors
        assert kappa2_zero == 1
        assert redrawn == 6 * 4  # six tables, among them both Youden-zero ones

    def test_bounds_out_of_order_raise_as_the_interval_does(self, table8, monkeypatch):
        def reversed_bootstrap(counts, c, target, config, tables):
            return 1.0, 0.5, 0.75

        def reversed_bound(analysis, z):
            return 1.0, 0.5, 0.75

        monkeypatch.setattr(inference, "_bootstrap", reversed_bootstrap)
        source = [(1, table8.cells(), simulation._analysis(table8.cells(), 0.5), 0, 0)]
        for entries in (((0.7, None, METHODS["boot-ratio"]),),
                        ((0.7, reversed_bound, METHODS["wald-ratio"]),)):
            with pytest.raises(DomainError, match=r"interval bounds out of order: \(1.0, 0.5\)"):
                simulation._tally(entries, source, 0.5, SCORER_CONFIG)

    def test_tally_adds_each_table_weight(self):
        # wald-diff at c = 0.5 gives (-0.345, -0.100) on the first table and
        # (-0.150, 0.116) on the second
        method = METHODS["wald-diff"]
        listed = [(0.25, (41, 0, 40, 8, 5, 1, 24, 181), 2),
                  (0.75, (30, 10, 12, 20, 8, 14, 15, 190), 3)]
        source = [(weight, cells, simulation._analysis(cells, 0.5), None, redraws)
                  for weight, cells, redraws in listed]
        # true values inside the first interval only, both, the second only and neither
        entries = tuple((value, method.bound, method) for value in (-0.3, -0.12, 0.0, 0.5))
        redraws, total, covered, lengths = simulation._tally(entries, source, 0.5, SCORER_CONFIG)
        assert (redraws, total, covered) == (5, 1.0, [0.25, 1.0, 0.75, 0])
        widths = [method.interval(PairedCounts(*cells), 0.5, SCORER_CONFIG).length
                  for _, cells, _ in listed]
        assert [list(entry_lengths) for entry_lengths in lengths] == [widths] * len(entries)


CLOSED_FORM = ("wald-diff", "wald-ratio", "log-ratio", "fieller-ratio")


def object_route(sc, n, n_replicates, methods, config, correct):
    """(redraws, {tag: (covered, length)}) of each replicate, through the public objects.

    sample_counts, then apply_continuity_correction when ``correct``; a
    table whose kappas or covariance cannot be estimated is redrawn; each
    interval is scored by ConfidenceInterval.contains and .length.
    """
    replicates = []
    for index in range(n_replicates):
        stream = RandomStream(config.seed, simulation._STREAMS_PER_REPLICATE * index)
        redraws = 0
        while True:
            counts = sample_counts(sc, n, stream)
            if correct:
                counts = apply_continuity_correction(counts)
            try:
                acc = accuracy_from_counts(counts)
                kappa_covariance(acc, kappa_pair(acc, sc.c), counts.n)
            except (NonEstimableError, DegenerateKappaError):
                redraws += 1
            else:
                break
        outcomes = {}
        for tag in methods:
            true_value = sc.delta if METHODS[tag].target == "difference" else sc.theta
            try:
                ci = METHODS[tag].interval(counts, sc.c, config)
            except simulation._INTERVAL_ERRORS:
                outcomes[tag] = (False, None)
            else:
                outcomes[tag] = (ci.contains(true_value), ci.length)
        replicates.append((redraws, outcomes))
    return replicates


class TestReplicateRoute:
    # paper-grid scenario 5 (p = 5%) at n = 25: many redraws and invalid intervals
    SCENARIO = paper_scenarios()[4]
    CONFIG = ConfidenceConfig(seed=21)

    @pytest.mark.parametrize("correct", [False, True])
    def test_replicates_match_the_object_route(self, correct):
        sc, config = self.SCENARIO, self.CONFIG
        expected = object_route(sc, 25, 200, CLOSED_FORM, config, correct)
        # +0.5 leaves no stratum empty; uncorrected, empty strata are redrawn
        assert correct or sum(redraws for redraws, _ in expected) > 0
        assert any(outcomes[tag][1] is None for _, outcomes in expected for tag in CLOSED_FORM)
        # the range's tallies: redraws, and per method the covered count and valid lengths
        range_redraws, range_covered, range_lengths = simulation._run_range(
            (sc, 25, CLOSED_FORM, config, 0, 200, correct))
        assert range_redraws == sum(redraws for redraws, _ in expected)
        for k, tag in enumerate(CLOSED_FORM):
            valid = [outcomes[tag] for _, outcomes in expected if outcomes[tag][1] is not None]
            assert range_covered[k] == sum(hit for hit, _ in valid)
            assert list(range_lengths[k]) == [length for _, length in valid]
        for jobs in (1, 2):
            results = coverage_study(sc, 25, 200, CLOSED_FORM, config, jobs=jobs, correct=correct)
            for res in results:
                lengths = [outcomes[res.method][1] for _, outcomes in expected
                           if outcomes[res.method][1] is not None]
                covered = sum(outcomes[res.method][0] for _, outcomes in expected)
                assert (res.cp, res.al, res.invalid, res.failures) == (
                    covered / 200, math.fsum(lengths) / len(lengths), 200 - len(lengths),
                    sum(redraws for redraws, _ in expected))

    def test_paired_counts_are_built_only_for_the_resampled_methods(self, monkeypatch):
        built = []
        post_init = PairedCounts.__post_init__

        def counted(counts):
            built.append(counts)
            post_init(counts)

        monkeypatch.setattr(PairedCounts, "__post_init__", counted)
        sc = build_scenario_from_kappas(0.3, 0.6, 0.8, 0.8, 0.25, 0.5, 0.5)
        config = ConfidenceConfig(seed=2, bootstrap_b=100)
        for correct in (False, True):
            coverage_study(sc, 60, 100, CLOSED_FORM, config, correct=correct)
        assert built == []
        coverage_study(sc, 60, 100, ("wald-diff", "boot-diff"), config, correct=True)
        assert len(built) == 100

    def test_zero_size_rejected_before_any_replicate(self, monkeypatch):
        monkeypatch.setattr(simulation, "_run_range", None)
        with pytest.raises(DomainError, match="sample size must be at least 1, got 0"):
            coverage_study(self.SCENARIO, 0, 100, CLOSED_FORM, self.CONFIG)


def all_tables(n: int, cells: int = 8):
    """Every table of ``n`` subjects over ``cells`` cells, as a tuple of counts (stars and bars)."""
    for bars in itertools.combinations(range(n + cells - 1), cells - 1):
        edges = (-1, *bars, n + cells - 1)
        yield tuple(right - left - 1 for left, right in zip(edges, edges[1:]))


def multinomial_pmf(table: tuple, pi) -> float:
    return (math.factorial(sum(table)) / math.prod(math.factorial(x) for x in table)
            * math.prod(p ** x for p, x in zip(pi, table)))


class TestExactCoverage:
    """Monte Carlo coverage of a tiny cell against its exact coverage.

    A closed-form interval is a function of the table, so its coverage is
    the sum of P(table) * covered over the estimable tables, divided by
    P(estimable): the redraw rule conditions on estimable tables.
    """

    N_REPLICATES = 4000

    @staticmethod
    def listed_tables(sc, n: int):
        """A listed source: every table of ``n`` subjects that the redraw rule
        keeps, weighted by its probability, with its analysis at sc.c."""
        for table in all_tables(n):
            try:
                analysis = simulation._analysis(table, sc.c)
            except simulation._REDRAW_ERRORS:
                continue
            yield multinomial_pmf(table, sc.pi), table, analysis, None, 0

    @classmethod
    def exact_coverage(cls, sc, n: int, config, methods=CLOSED_FORM) -> list:
        """The exact cp of each of ``methods`` at (sc, n), in method order."""
        _, estimable, covered, _ = simulation._tally(
            simulation._entries(sc, methods), cls.listed_tables(sc, n), sc.c, config)
        return [hits / estimable for hits in covered]

    @pytest.mark.parametrize("n, count", [(6, 1716), (8, 6435)])
    def test_closed_form_coverage_matches_the_exact_sum(self, n, count):
        sc = paper_scenarios()[3]
        config = ConfidenceConfig(seed=0)
        tables = list(all_tables(n))
        assert len(tables) == len(set(tables)) == count
        results = coverage_study(sc, n, self.N_REPLICATES, CLOSED_FORM, config)
        for res, cp in zip(results, self.exact_coverage(sc, n, config), strict=True):
            assert abs(res.cp - cp) <= 4 * math.sqrt(cp * (1 - cp) / self.N_REPLICATES)

    # scenario 4's true delta and theta lie outside every two-subject
    # interval; null scenario 7's (0 and 1) lie inside some
    @pytest.mark.parametrize("number", [4, 7])
    def test_exact_coverage_of_two_subjects_matches_a_hand_listing(self, number):
        sc = paper_scenarios()[number - 1]
        config = ConfidenceConfig(seed=0)
        # the 36 tables of two subjects, in cells i <= j (s11, s10, s01, s00,
        # r11, r10, r01, r00), with their probabilities
        tables = []
        for i, j in itertools.combinations_with_replacement(range(8), 2):
            cells = [0] * 8
            cells[i] += 1
            cells[j] += 1
            tables.append((i, j, PairedCounts(*cells), sc.pi[i] * sc.pi[j] * (1 if i == j else 2)))
        assert sorted(t.cells() for _, _, t, _ in tables) == sorted(all_tables(2))
        # estimable: one diseased subject (i < 4) and one not (j >= 4), and
        # each test right on both or wrong on both, so that Se + Sp - 1 != 0
        estimable = [(table, weight) for i, j, table, weight in tables
                     if i < 4 <= j and (i in (0, 1)) == (j in (6, 7))
                     and (i in (0, 2)) == (j in (5, 7))]
        assert len(estimable) == 4
        expected = []
        for tag in CLOSED_FORM:
            true_value = sc.delta if METHODS[tag].target == "difference" else sc.theta
            covered = 0.0
            for table, weight in estimable:
                try:
                    covered += weight * METHODS[tag].interval(table, sc.c, config).contains(
                        true_value)
                except simulation._INTERVAL_ERRORS:
                    pass
            expected.append(covered / math.fsum(weight for _, weight in estimable))
        assert self.exact_coverage(sc, 2, config) == pytest.approx(expected, rel=1e-12)
        assert (max(expected) > 0.0) is (number == 7)

    # paper scenario 4 has c = 0.5; scenario 1 (c = 0.1) also moves c. The
    # null scenarios 7 and 8 (kappa1 = kappa2) score every table against
    # delta = 0 and theta = 1 exactly; Fieller's near-degenerate widths there
    # still depend on the last bits, so it is left out for them
    @pytest.mark.parametrize("number, methods", [(4, CLOSED_FORM), (1, CLOSED_FORM),
                                                 (7, CLOSED_FORM[:3]), (8, CLOSED_FORM[:3])],
                             ids=["4", "1", "7", "8"])
    def test_relabelled_twin_has_the_same_exact_coverage(self, number, methods):
        # swapping the disease labels and both tests' results swaps Se with
        # Sp, p with q and eps1 with eps0, reverses the cells and replaces c
        # by 1 - c; every closed-form interval of a reversed table at 1 - c is
        # that of the table at c (tests/test_metamorphic.py), so each
        # method's exact coverage is the same
        sc = paper_scenarios()[number - 1]
        twin = scenario_probabilities(sc.sp1, sc.se1, sc.sp2, sc.se2, 1.0 - sc.p,
                                      sc.eps0, sc.eps1, c=1.0 - sc.c)
        assert twin.pi == pytest.approx(sc.pi[::-1], rel=1e-12, abs=1e-15)
        assert (twin.delta, twin.theta) == pytest.approx((sc.delta, sc.theta), rel=1e-12)
        config = ConfidenceConfig(seed=0)
        exact = self.exact_coverage(sc, 6, config, methods)
        twin_exact = self.exact_coverage(twin, 6, config, methods)
        assert 0.0 < min(exact) and max(exact) < 1.0
        assert twin_exact == pytest.approx(exact, rel=1e-12)


def count_streams(monkeypatch) -> list:
    """The stream ids of the RandomStreams built from now on, in order."""
    built = []

    class Counted(RandomStream):
        __slots__ = ()

        def __init__(self, seed, stream=0):
            built.append(stream)
            super().__init__(seed, stream)

    monkeypatch.setattr(numerics, "RandomStream", Counted)
    monkeypatch.setattr(simulation, "RandomStream", Counted)
    return built


class TestSampleStreamHeads:
    """A range reads its sample streams' first uniforms from one lane batch, and builds no stream."""

    def test_a_range_without_redraws_builds_no_stream(self, monkeypatch):
        built = count_streams(monkeypatch)
        sc = build_scenario_from_kappas(0.3, 0.6, 0.8, 0.8, 0.25, 0.5, 0.5)
        redraws, _, _ = simulation._run_range((sc, 500, CLOSED_FORM, ConfidenceConfig(seed=2),
                                               0, 300, False))
        assert redraws == 0 and built == []

    def test_a_redraw_past_the_head_builds_no_stream(self, monkeypatch):
        # p = 5% at n = 25: many redraws, as in test_redraw_rule_is_pinned
        sc, config = paper_scenarios()[4], ConfidenceConfig(seed=0)
        expected = []  # each replicate's samples, drawn from RandomStream(seed, 3i)
        for i in range(200):
            stream = RandomStream(config.seed, simulation._STREAMS_PER_REPLICATE * i)
            while True:
                expected.append(numerics.sample_multinomial(sc.pi, 25, stream))
                try:
                    simulation._analysis(expected[-1], sc.c)
                except (NonEstimableError, DegenerateKappaError):
                    continue
                break
        built = count_streams(monkeypatch)
        drawn = []
        draw = simulation._multinomial_draw

        def recorded(*args):
            drawn.append(draw(*args))
            return drawn[-1]

        monkeypatch.setattr(simulation, "_multinomial_draw", recorded)
        redraws, _, _ = simulation._run_range((sc, 25, CLOSED_FORM, config, 0, 200, False))
        assert redraws == len(expected) - 200 > 0 and built == []
        assert drawn == expected


class TestSharedPool:
    SCENARIO = build_scenario_from_kappas(0.3, 0.6, 0.8, 0.8, 0.25, 0.5, 0.5)

    def test_consecutive_calls_share_one_pool(self, fake_pools):
        other = build_scenario_from_kappas(0.21, 0.14, 0.81, 0.72, 0.5, 0.1, 0.5)
        coverage_study(self.SCENARIO, 60, 100, ["wald-diff"], ConfidenceConfig(seed=6), jobs=2)
        coverage_study(other, 80, 120, ["wald-ratio", "log-ratio"],
                       ConfidenceConfig(seed=7, conf=0.9), jobs=2, correct=True)
        assert (fake_pools.sizes, fake_pools.shutdowns) == ([2], 0)

    def test_new_worker_count_replaces_the_pool(self, fake_pools):
        config = ConfidenceConfig(seed=6)
        coverage_study(self.SCENARIO, 60, 100, ["wald-diff"], config, jobs=2)
        coverage_study(self.SCENARIO, 60, 100, ["wald-diff"], config, jobs=3)
        assert (fake_pools.sizes, fake_pools.shutdowns) == ([2, 3], 1)

    def test_serial_call_builds_no_pool(self, fake_pools):
        coverage_study(self.SCENARIO, 60, 100, ["wald-diff"], ConfidenceConfig(seed=6), jobs=1)
        assert (fake_pools.sizes, fake_pools.shutdowns) == ([], 0)

    def test_pool_with_killed_workers_is_replaced(self, no_cached_pool):
        config = ConfidenceConfig(seed=6)
        serial = coverage_study(self.SCENARIO, 60, 100, ["wald-diff"], config, jobs=1)
        assert coverage_study(self.SCENARIO, 60, 100, ["wald-diff"], config, jobs=2) == serial
        pool = simulation._pool
        workers = multiprocessing.active_children()
        assert len(workers) == 2  # the pool's own, started by this test
        for worker in workers:
            os.kill(worker.pid, signal.SIGKILL)
        assert coverage_study(self.SCENARIO, 60, 100, ["wald-diff"], config, jobs=2) == serial
        assert simulation._pool is not None and simulation._pool is not pool

    def test_broken_call_raises_and_drops_the_pool(self, no_cached_pool, monkeypatch):
        monkeypatch.setattr(simulation, "_run_range", _exit_worker)
        with pytest.raises(BrokenProcessPool):
            coverage_study(self.SCENARIO, 60, 100, ["wald-diff"], ConfidenceConfig(seed=6), jobs=2)
        assert simulation._pool is None

    def test_idle_pool_does_not_hang_interpreter_exit(self):
        script = ("import sys; sys.path.insert(0, sys.argv[1]);"
                  "from kappacmp.inference import ConfidenceConfig;"
                  "from kappacmp.simulation import build_scenario_from_kappas, coverage_study;"
                  "sc = build_scenario_from_kappas(0.3, 0.6, 0.8, 0.8, 0.25, 0.5, 0.5);"
                  "print(coverage_study(sc, 60, 100, ['wald-diff'], ConfidenceConfig(seed=6),"
                  " jobs=2)[0].cp)")
        src = str(Path(simulation.__file__).parents[1])
        done = subprocess.run([sys.executable, "-c", script, src], capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert 0.0 < float(done.stdout) <= 1.0


class TestEvaluateFailure:
    @pytest.mark.parametrize("cp,expected", [
        (0.912, True),    # a bolded entry
        (0.937, False),
        (0.930, True),    # boundary is inclusive
        (0.955, False),
        (0.957, False),
    ])
    def test_rule(self, cp, expected):
        assert evaluate_failure(cp, 0.95) is expected

    def test_unsupported_nominal(self):
        with pytest.raises(UnsupportedNominalError):
            evaluate_failure(0.9, 0.90)

    def test_fraction_boundary_consistency(self):
        assert evaluate_failure(1860 / 2000, 0.95)  # exactly 0.93

    @pytest.mark.parametrize("cp", [1.5, -0.1, math.nan])
    def test_coverage_outside_the_unit_interval_rejected(self, cp):
        with pytest.raises(DomainError, match="coverage probability must be in"):
            evaluate_failure(cp)


class TestRecommendMethod:
    def test_small_sample(self):
        rec = recommend_method(80)
        assert rec.method == "wald-ratio" and rec.corrected

    def test_moderate_sample(self):
        rec = recommend_method(250)
        assert rec.method == "wald-ratio" and not rec.corrected

    def test_gap_resolved_conservatively(self):
        rec = recommend_method(450)
        assert rec.method == "wald-ratio" and not rec.corrected

    def test_large_sample(self):
        rec = recommend_method(1000)
        assert rec.method == "any"

    def test_domain(self):
        with pytest.raises(DomainError):
            recommend_method(0)


LABEL = re.compile(r"# scenario (\d+): diff +(-?[\d.]+) / ratio ([\d.]+), c=([\d.]+), p=(\d+)%")


def half_unit(shown: str) -> float:
    """Half a unit in the last decimal place of a number as printed."""
    return 0.5 * 10.0 ** -len(shown.partition(".")[2])


class TestPaperGrid:
    @pytest.mark.parametrize("name, sizes", [
        ("paper.csv", [25, 50, 100, 200, 300, 400, 500, 1000]),
        ("paper_small.csv", [25, 50, 100]),
    ])
    def test_scenario_labels_match_their_rows(self, name, sizes):
        # each row sits under the "# scenario k: diff ... / ratio ..., c=..., p=...%"
        # line of its population, and the label holds to the precision shown
        path = PAPER_GRID.with_name(name)
        # f is the one column a Scenario does not keep, so it is read from the text
        labels, fs, label = [], [], None
        for line in path.read_text(encoding="utf-8").splitlines():
            if line.startswith("# scenario"):
                label = LABEL.fullmatch(line)
            elif line and not line.startswith(("#", "k0_1")):
                labels.append(label)
                fs.append(float(line.split(",")[6]))
        cells = read_scenario_batch(path)
        assert len(labels) == len(fs) == len(cells) == 8 * len(sizes)
        for k, (label, f, (sc, n, n_replicates)) in enumerate(zip(labels, fs, cells)):
            number, delta, theta, c, p = label.groups()
            assert (int(number), n, f, n_replicates) == (
                k // len(sizes) + 1, sizes[k % len(sizes)], 0.5, 2000)
            assert abs(sc.delta - float(delta)) <= half_unit(delta)
            assert abs(sc.theta - float(theta)) <= half_unit(theta)
            assert abs(sc.c - float(c)) <= half_unit(c)
            assert abs(100 * sc.p - float(p)) <= half_unit(p)


class TestBatchIO:
    def test_round_trip(self):
        text = ("k0_1,k1_1,k0_2,k1_2,p,c,f,n,N\n"
                "0.21,0.14,0.81,0.72,0.5,0.1,0.5,500,2000\n"
                "0.3,0.6,0.8,0.8,0.25,0.5,0.8,100,500\n")
        assert read_scenario_batch(io.StringIO(text)) == [
            (build_scenario_from_kappas(0.21, 0.14, 0.81, 0.72, 0.5, 0.1, 0.5), 500, 2000),
            (build_scenario_from_kappas(0.3, 0.6, 0.8, 0.8, 0.25, 0.5, 0.8), 100, 500),
        ]

    def test_error_carries_line_number(self):
        text = "k0_1,k1_1,k0_2,k1_2,p,c,f,n,N\n0.2,0.2,0.8,0.8,0.1,0.9,0.5,zap,100\n"
        with pytest.raises(DomainError, match=":2"):
            read_scenario_batch(io.StringIO(text))

    @pytest.mark.parametrize("sizes, field", [
        ("100,0", "N"), ("nan,100", "n"), ("inf,100", "n"), ("100,nan", "N"), ("100,inf", "N"),
        ("50.5,100", "n"), ("0,100", "n"), ("100,99.5", "N"), ("1e300,100", "n"),
    ])
    def test_bad_sizes_rejected(self, sizes, field):
        # the reader runs coverage_grid's checks: a bad row fails with the
        # grid's message for its field, after the row's file and line
        scenario = build_scenario_from_kappas(0.2, 0.2, 0.8, 0.8, 0.1, 0.9, 0.5)
        n, n_replicates = (float(size) for size in sizes.split(","))
        with pytest.raises(DomainError) as grid:
            coverage_grid([(scenario, n, n_replicates)], ["wald-diff"])
        assert {"n": "sample size", "N": "replicate"}[field] in str(grid.value)
        text = f"k0_1,k1_1,k0_2,k1_2,p,c,f,n,N\n0.2,0.2,0.8,0.8,0.1,0.9,0.5,{sizes}\n"
        with pytest.raises(DomainError, match=f"^<stream>:2: {re.escape(str(grid.value))}$"):
            read_scenario_batch(io.StringIO(text))

    def test_report_rendering(self):
        sc = build_scenario_from_kappas(0.3, 0.6, 0.8, 0.8, 0.25, 0.5, 0.5)
        results = coverage_study(sc, 80, 100, ["wald-diff"], ConfidenceConfig(seed=10))
        text = render_coverage_report(results)
        header, row = text.strip().split("\n")
        assert header == "method,target,n,N,cp,al,failed,redraws,invalid,cp_valid"
        fields = row.split(",")
        assert fields[0] == "wald-diff" and fields[1] == "difference"
        assert float(fields[4]) == results[0].cp
