import hashlib
import io
import math
import multiprocessing
import os
import signal
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

import kappacmp.simulation as simulation
from conftest import random_accuracies
from kappacmp.data_model import PairedCounts, apply_continuity_correction
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
    log_ratio_ci,
    wald_diff_ci,
    wald_ratio_ci,
)
from kappacmp.numerics import RandomStream
from kappacmp.simulation import (
    BatchRow,
    build_scenario_from_kappas,
    coverage_study,
    dependence_bounds,
    evaluate_failure,
    read_scenario_batch,
    recommend_method,
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
def no_cached_pool():
    """Drop the process's shared coverage pool before and after the test."""
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
        # demo-06 scenario 5 at n = 25 redraws both kinds of table that the
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


# the populations of demos/06_full_coverage_tables.py: (k0_1, k1_1, k0_2, k1_2, p, c)
DEMO06 = (
    (0.21, 0.14, 0.81, 0.72, 0.50, 0.1),
    (0.20, 0.20, 0.80, 0.80, 0.10, 0.9),
    (0.38, 0.76, 0.80, 0.80, 0.10, 0.1),
    (0.30, 0.60, 0.80, 0.80, 0.25, 0.5),
    (0.60, 0.60, 0.40, 0.90, 0.05, 0.9),
    (0.90, 0.15, 0.90, 0.40, 0.25, 0.1),
    (0.30, 0.60, 0.60, 0.30, 0.25, 0.5),
    (0.10, 0.60, 0.40, 0.40, 0.50, 0.9),
)
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
    scenarios = [build_scenario_from_kappas(*row, 0.5) for row in DEMO06]
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


def _scored(tag, true_value, counts, c, tables, draws):
    """The scorer's outcome of one method, or the KappaCmpError it raised."""
    try:
        return simulation._score(((tag, true_value, METHODS[tag].call),),
                                 counts, c, SCORER_CONFIG, tables, draws)[tag]
    except KappaCmpError as exc:
        return type(exc)


class TestScorer:
    @pytest.mark.filterwarnings("ignore:.*posterior draws had an undefined")
    def test_scores_every_method_as_the_public_interval(self):
        # (covered, length) bit for bit, invalid for an interval error, and
        # any other KappaCmpError raised, on every method and table
        errors = set()
        kappa2_zero = 0
        for counts, sc in _scorer_cases():
            c = sc.c
            tables = BootstrapTables(counts, RandomStream(SCORER_CONFIG.seed, 1))
            draws = PosteriorDraws(counts, SCORER_CONFIG.priors, SCORER_CONFIG.bayes_m,
                                   RandomStream(SCORER_CONFIG.seed, 2))
            for tag, true_value, _ in simulation._entries(sc, METHODS):
                try:
                    ci = PUBLIC_CI[tag](counts, c, tables, draws)
                except KappaCmpError as exc:
                    errors.add(type(exc))
                    interval_error = isinstance(exc, simulation._INTERVAL_ERRORS)
                    expected = (False, None) if interval_error else type(exc)
                    assert _scored(tag, true_value, counts, c, tables, draws) == expected
                    continue
                # the true value, the bounds and the floats just outside them
                for value in (true_value, ci.lower, ci.upper, math.nextafter(ci.lower, -math.inf),
                              math.nextafter(ci.upper, math.inf)):
                    hit, length = _scored(tag, value, counts, c, tables, draws)
                    assert hit is ci.contains(value)
                    assert length.hex() == ci.length.hex()
                if tag == "bayes-ratio" and counts.cells() == (3, 4, 2, 1, 2, 1, 3, 4):
                    kappa2_zero += 1
        assert {LogIntervalError, DegenerateKappaError, FiellerInvalidError} <= errors
        assert kappa2_zero == 1

    def test_bounds_out_of_order_raise_as_the_interval_does(self, table8):
        def reversed_bounds(counts, c, config, tables, draws):
            return 1.0, 0.5, 0.75

        entries = (("wald-ratio", 0.7, reversed_bounds),)
        with pytest.raises(DomainError, match=r"interval bounds out of order: \(1.0, 0.5\)"):
            simulation._score(entries, table8, 0.5, SCORER_CONFIG, None, None)


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


class TestBatchIO:
    def test_round_trip(self):
        text = ("k0_1,k1_1,k0_2,k1_2,p,c,f,n,N\n"
                "0.21,0.14,0.81,0.72,0.5,0.1,0.5,500,2000\n"
                "0.3,0.6,0.8,0.8,0.25,0.5,0.8,100,500\n")
        rows = read_scenario_batch(io.StringIO(text))
        assert rows[0] == BatchRow(0.21, 0.14, 0.81, 0.72, 0.5, 0.1, 0.5, 500, 2000)
        assert rows[1].f == 0.8 and rows[1].n_replicates == 500

    def test_error_carries_line_number(self):
        text = "k0_1,k1_1,k0_2,k1_2,p,c,f,n,N\n0.2,0.2,0.8,0.8,0.1,0.9,0.5,zap,100\n"
        with pytest.raises(DomainError, match=":2"):
            read_scenario_batch(io.StringIO(text))

    def test_zero_replicates_rejected(self):
        text = "k0_1,k1_1,k0_2,k1_2,p,c,f,n,N\n0.2,0.2,0.8,0.8,0.1,0.9,0.5,100,0\n"
        with pytest.raises(DomainError, match="N must be"):
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
