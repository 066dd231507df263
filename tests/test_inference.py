import hashlib
import itertools
import math
import tracemalloc
import warnings
from array import array
from collections import Counter

import numpy as np
import pytest

import kappacmp.inference as inference
import kappacmp.numerics as numerics
import kappacmp.simulation as simulation
from conftest import (
    ReferenceStream,
    empirical_quantile,
    paper_scenarios,
    random_accuracies,
    random_counts,
    stream_state,
)
from kappacmp.cli import DEFAULT_C_GRID, build_analysis_report
from kappacmp.data_model import PairedCounts, apply_continuity_correction
from kappacmp.errors import (
    BootstrapFailedError,
    DegenerateKappaError,
    DenormalsAreZeroError,
    DomainError,
    FiellerInvalidError,
    InversionUndefinedError,
    LogIntervalError,
    NonEstimableError,
)
from kappacmp.inference import (
    METHODS,
    BetaPrior,
    BootstrapTables,
    ConfidenceConfig,
    ConfidenceInterval,
    PosteriorDraws,
    Priors,
    bayesian_ci,
    bloch_test,
    bootstrap_ci,
    fieller_interval,
    fieller_ratio_ci,
    kappa_covariance,
    log_ratio_ci,
    reciprocal_ratio_ci,
    wald_diff_ci,
    wald_ratio_ci,
)
from kappacmp.kappa_core import (
    AccuracyEstimates,
    KappaPair,
    accuracy_from_counts,
    compare_over_range,
    kappa_pair,
    weighted_kappa,
)
from kappacmp.numerics import (
    RandomStream,
    normal_cdf,
    normal_quantile,
    sample_beta,
    sample_multinomial,
)
from kappacmp.simulation import build_scenario_from_kappas, coverage_study, sample_counts

Z975 = 1.959963984540054

# half-width of the published Wald difference interval at c = 0.5
TABLE8_SE_DELTA = ((-0.100) - (-0.345)) / 2.0 / Z975

IDENTICAL_COLUMNS = PairedCounts(30, 0, 0, 12, 4, 0, 0, 60)  # t1 == t2 everywhere


class TestKappaCovariance:
    def test_table8_se_delta_matches_published_interval(self, table8):
        acc = accuracy_from_counts(table8)
        cov = kappa_covariance(acc, kappa_pair(acc, 0.5), table8.n)
        # sqrt(var1 + var2 - 2 cov12) backed out of the published interval, 3 s.f.
        assert float(f"{cov.se_delta:.3g}") == 0.0625
        assert cov.se_delta == pytest.approx(TABLE8_SE_DELTA, rel=2e-3)

    @pytest.mark.parametrize("n", [0, -1.0])
    def test_non_positive_sample_size_rejected(self, table8, n):
        acc = accuracy_from_counts(table8)
        with pytest.raises(DomainError, match="sample size must be positive"):
            kappa_covariance(acc, kappa_pair(acc, 0.5), n)

    def test_conditional_independence_kills_cross_terms(self):
        counts = PairedCounts(8, 4, 2, 1, 1, 2, 4, 8)
        acc = accuracy_from_counts(counts)
        assert acc.eps1 == 0.0 and acc.eps0 == 0.0
        kp = kappa_pair(acc, 0.4)
        cov = kappa_covariance(acc, kp, counts.n)
        a1, a2 = cov.a
        p, q = acc.p, acc.q
        expected = (kp.kappa1 * kp.kappa2 / (p * p * q * q * acc.y1 * acc.y2)
                    * a1[2] * a2[2] * p * q / counts.n)
        assert cov.cov12 == pytest.approx(expected, rel=1e-12)

    def test_gradients_match_finite_differences(self):
        # dkappa/dSe = kappa*a1/(pqY), dkappa/dSp = kappa*a2/(pqY),
        # dkappa/dp = kappa*a3/(pqY); central differences at h = 1e-6
        rng = np.random.RandomState(21)
        h = 1e-6
        for se, sp, p in random_accuracies(rng, 300)[:, [0, 1, 4]]:
            for c in (0.1, 0.5, 0.9):
                acc = AccuracyEstimates(se1=se, sp1=sp, se2=se, sp2=sp, p=p)
                kp = kappa_pair(acc, c)
                cov = kappa_covariance(acc, kp, 1.0)
                scale = kp.kappa1 / (p * (1 - p) * acc.y1)
                a1, a2, a3 = cov.a[0]
                d_se = (weighted_kappa(se + h, sp, p, c)
                        - weighted_kappa(se - h, sp, p, c)) / (2 * h)
                d_sp = (weighted_kappa(se, sp + h, p, c)
                        - weighted_kappa(se, sp - h, p, c)) / (2 * h)
                d_p = (weighted_kappa(se, sp, p + h, c)
                       - weighted_kappa(se, sp, p - h, c)) / (2 * h)
                assert scale * a1 == pytest.approx(d_se, abs=1e-5)
                assert scale * a2 == pytest.approx(d_sp, abs=1e-5)
                assert scale * a3 == pytest.approx(d_p, abs=1e-5)

    def test_full_delta_method_oracle(self):
        # independent route: numeric gradients of both kappas against the
        # exact covariance of (Se1, Sp1, Se2, Sp2, p), whose only nonzero
        # off-diagonal entries are Cov(Se1,Se2) = eps1/(np) and
        # Cov(Sp1,Sp2) = eps0/(nq)
        rng = np.random.RandomState(24)
        h = 1e-6
        n = 173.0
        for row in random_accuracies(rng, 100):
            se1, sp1, se2, sp2, p = row
            eps1 = 0.9 * min(se1 * (1 - se2), se2 * (1 - se1))
            eps0 = 0.7 * min(sp1 * (1 - sp2), sp2 * (1 - sp1))
            acc = AccuracyEstimates(se1=se1, sp1=sp1, se2=se2, sp2=sp2, p=p,
                                    eps1=eps1, eps0=eps0)
            for c in (0.15, 0.62):
                kp = kappa_pair(acc, c)
                cov = kappa_covariance(acc, kp, n)

                def grad(se, sp):
                    return np.array([
                        (weighted_kappa(se + h, sp, p, c) - weighted_kappa(se - h, sp, p, c)) / (2 * h),
                        (weighted_kappa(se, sp + h, p, c) - weighted_kappa(se, sp - h, p, c)) / (2 * h),
                        (weighted_kappa(se, sp, p + h, c) - weighted_kappa(se, sp, p - h, c)) / (2 * h),
                    ])

                g1 = grad(se1, sp1)   # d kappa1 / d (Se1, Sp1, p)
                g2 = grad(se2, sp2)   # d kappa2 / d (Se2, Sp2, p)
                q = 1 - p
                var = np.array([
                    [se1 * (1 - se1) / (n * p), se2 * (1 - se2) / (n * p)],
                    [sp1 * (1 - sp1) / (n * q), sp2 * (1 - sp2) / (n * q)],
                    [p * q / n, p * q / n],
                ])
                var1 = g1[0] ** 2 * var[0, 0] + g1[1] ** 2 * var[1, 0] + g1[2] ** 2 * var[2, 0]
                var2 = g2[0] ** 2 * var[0, 1] + g2[1] ** 2 * var[1, 1] + g2[2] ** 2 * var[2, 1]
                cov12 = (g1[0] * g2[0] * eps1 / (n * p)
                         + g1[1] * g2[1] * eps0 / (n * q)
                         + g1[2] * g2[2] * p * q / n)
                assert cov.var1 == pytest.approx(var1, rel=1e-4, abs=1e-12)
                assert cov.var2 == pytest.approx(var2, rel=1e-4, abs=1e-12)
                assert cov.cov12 == pytest.approx(cov12, rel=1e-4, abs=1e-10)

    def test_cauchy_schwarz(self):
        rng = np.random.RandomState(22)
        for _ in range(200):
            counts = random_counts(rng)
            acc = accuracy_from_counts(counts)
            if acc.y1 <= 1e-3 or acc.y2 <= 1e-3:
                continue
            cov = kappa_covariance(acc, kappa_pair(acc, 0.5), counts.n)
            assert abs(cov.cov12) <= math.sqrt(cov.var1 * cov.var2) + 1e-12

    def test_degenerate_youden_raises(self):
        acc = AccuracyEstimates(se1=0.5, sp1=0.5, se2=0.9, sp2=0.9, p=0.5)
        with pytest.raises(DegenerateKappaError):
            kappa_covariance(acc, KappaPair(0.5, 0.0, 0.6), 100)

    def test_var_theta_none_when_kappa2_zero(self):
        acc = AccuracyEstimates(se1=0.9, sp1=0.9, se2=0.9, sp2=0.9, p=0.5)
        cov = kappa_covariance(acc, KappaPair(0.5, 0.5, 0.0), 100)
        assert cov.var_theta is None
        assert cov.var_log_theta is None

    def test_empirical_variance_matches_formula(self):
        # delta-method sanity: 1000 samples of n=1000 from a fixed scenario
        scenario = build_scenario_from_kappas(0.3, 0.6, 0.8, 0.8, 0.25, 0.5, 0.5)
        acc_true = AccuracyEstimates(se1=scenario.se1, sp1=scenario.sp1,
                                     se2=scenario.se2, sp2=scenario.sp2,
                                     p=scenario.p, eps1=scenario.eps1,
                                     eps0=scenario.eps0)
        formula = kappa_covariance(acc_true, kappa_pair(acc_true, 0.5), 1000).var1
        stream = RandomStream(77, 0)
        draws = []
        for _ in range(1000):
            counts = sample_counts(scenario, 1000, stream)
            acc = accuracy_from_counts(counts)
            draws.append(weighted_kappa(acc.se1, acc.sp1, acc.p, 0.5))
        assert np.var(draws, ddof=1) == pytest.approx(formula, rel=0.10)


class TestBlochTest:
    def test_table8_cohen_case(self, table8):
        result = bloch_test(table8, 0.5)
        expected_delta = (weighted_kappa(41 / 89, 205 / 211, 89 / 300, 0.5)
                          - weighted_kappa(81 / 89, 182 / 211, 89 / 300, 0.5))
        assert result.z_stat == pytest.approx(expected_delta / TABLE8_SE_DELTA, rel=0.02)
        assert result.z_stat < 0
        assert result.p_value < 0.001

    def test_identical_columns(self):
        result = bloch_test(IDENTICAL_COLUMNS, 0.5)
        assert result.z_stat == 0.0
        assert result.p_value == 1.0

    def test_at_crossover_z_is_zero(self, table8):
        result = bloch_test(table8, 0.1902)
        assert abs(result.z_stat) < 0.01
        assert result.p_value > 0.99

    def test_zero_standard_error_with_unequal_kappas_is_degenerate(self):
        # test 1 is perfect on both strata and test 2 negative on the diseased:
        # every variance is 0 and the kappas are 1 and 0
        with pytest.raises(DegenerateKappaError, match="zero standard error"):
            bloch_test(PairedCounts(0, 0, 5, 0, 3, 0, 0, 2), 0.5)


class TestWaldDiff:
    @pytest.mark.parametrize("c,expected", [(0.5, (-0.345, -0.100)),
                                            (0.1, (-0.041, 0.208))])
    def test_table8(self, table8, c, expected):
        ci = wald_diff_ci(table8, c)
        assert ci.lower == pytest.approx(expected[0], abs=1e-3)
        assert ci.upper == pytest.approx(expected[1], abs=1e-3)
        assert ci.target == "difference" and ci.method == "wald"

    def test_identical_columns_symmetric_about_zero(self):
        ci = wald_diff_ci(IDENTICAL_COLUMNS, 0.5)
        assert ci.lower == pytest.approx(-ci.upper, abs=1e-15)
        assert ci.point == 0.0

    def test_duality_with_bloch(self):
        # interval covers 0 exactly when the two-sided p-value is >= alpha
        rng = np.random.RandomState(23)
        config = ConfidenceConfig()
        checked = 0
        while checked < 100:
            counts = random_counts(rng)
            try:
                ci = wald_diff_ci(counts, 0.3, config)
                test = bloch_test(counts, 0.3)
            except DegenerateKappaError:
                continue
            assert ci.contains(0.0) == (test.p_value >= config.alpha)
            checked += 1


class TestWaldRatio:
    @pytest.mark.parametrize("c,expected", [(0.9, (0.341, 0.582)),
                                            (0.5, (0.537, 0.847))])
    def test_table8(self, table8, c, expected):
        ci = wald_ratio_ci(table8, c)
        assert ci.lower == pytest.approx(expected[0], abs=1e-3)
        assert ci.upper == pytest.approx(expected[1], abs=1e-3)

    def test_identical_columns_centered_at_one(self):
        ci = wald_ratio_ci(IDENTICAL_COLUMNS, 0.5)
        assert ci.point == 1.0
        assert (ci.lower + ci.upper) / 2 == pytest.approx(1.0, abs=1e-12)


class TestLogRatio:
    @pytest.mark.parametrize("c,expected", [(0.9, (0.356, 0.599)),
                                            (0.5, (0.553, 0.866))])
    def test_table8(self, table8, c, expected):
        ci = log_ratio_ci(table8, c)
        assert ci.lower == pytest.approx(expected[0], abs=1e-3)
        assert ci.upper == pytest.approx(expected[1], abs=1e-3)
        assert ci.lower > 0

    def test_zero_variance_collapses_to_point(self):
        # identical columns: var_log_theta is 0 up to rounding
        ci = log_ratio_ci(IDENTICAL_COLUMNS, 0.5)
        assert ci.lower == pytest.approx(1.0, abs=1e-6)
        assert ci.upper == pytest.approx(1.0, abs=1e-6)

    def test_exploding_log_variance_raises_log_interval_error(self):
        # kappa1 just above 0 at c = 0.9: Var[ln theta] is about 2.2e5, so
        # exp(z * sqrt(Var)) overflows
        counts = PairedCounts(3, 0, 18, 8, 7, 21, 3, 240)
        acc = accuracy_from_counts(counts)
        kp = kappa_pair(acc, 0.9)
        cov = kappa_covariance(acc, kp, counts.n)
        assert 0.0 < kp.kappa1 < 1e-2 and cov.var_log_theta > 1e5
        with pytest.raises(LogIntervalError):
            log_ratio_ci(counts, 0.9)

    def test_negative_kappa_rejected(self):
        # test 1 anti-informative at this table: kappa1 < 0
        counts = PairedCounts(2, 1, 8, 9, 9, 8, 1, 2)
        acc = accuracy_from_counts(counts)
        assert weighted_kappa(acc.se1, acc.sp1, acc.p, 0.5) < 0
        with pytest.raises((LogIntervalError, DegenerateKappaError)):
            log_ratio_ci(counts, 0.5)


class TestFieller:
    @pytest.mark.parametrize("c,expected", [(0.9, (0.342, 0.584)),
                                            (0.3, (0.704, 1.059))])
    def test_table8(self, table8, c, expected):
        ci = fieller_ratio_ci(table8, c)
        assert ci.lower == pytest.approx(expected[0], abs=1e-3)
        assert ci.upper == pytest.approx(expected[1], abs=1e-3)

    def test_zero_variances_degenerate_point(self):
        lo, hi = fieller_interval(0.6, 0.8, 0.0, 0.0, 0.0, Z975)
        assert lo == pytest.approx(0.75, abs=1e-15)
        assert hi == pytest.approx(0.75, abs=1e-15)

    def test_invalid_condition_raises(self):
        # huge variance on kappa2 drives w22 negative and the discriminant below 0
        with pytest.raises(FiellerInvalidError):
            fieller_interval(0.1, 0.05, 0.5, 0.5, 0.0, Z975)

    def test_contains_theta_hat_when_valid(self, table8):
        acc = accuracy_from_counts(table8)
        for c in (0.1, 0.3, 0.5, 0.7, 0.9):
            kp = kappa_pair(acc, c)
            ci = fieller_ratio_ci(table8, c)
            assert ci.contains(kp.theta)


class TestBootstrap:
    def test_table8_difference(self, table8):
        ci = bootstrap_ci(table8, 0.9, "difference", ConfidenceConfig(seed=4))
        assert ci.lower == pytest.approx(-0.557, abs=0.02)
        assert ci.upper == pytest.approx(-0.329, abs=0.02)
        assert ci.method == "bootstrap-bc"

    def test_table8_ratio(self, table8):
        ci = bootstrap_ci(table8, 0.9, "ratio", ConfidenceConfig(seed=4))
        assert ci.lower == pytest.approx(0.347, abs=0.02)
        assert ci.upper == pytest.approx(0.594, abs=0.02)

    def test_reproducible_given_seed(self, table8):
        config = ConfidenceConfig(seed=99, bootstrap_b=200)
        a = bootstrap_ci(table8, 0.5, "difference", config)
        b = bootstrap_ci(table8, 0.5, "difference", config)
        assert (a.lower, a.upper) == (b.lower, b.upper)
        other = bootstrap_ci(table8, 0.5, "difference", ConfidenceConfig(seed=100, bootstrap_b=200))
        assert (a.lower, a.upper) != (other.lower, other.upper)

    def test_degenerate_patterns_zero_width(self):
        counts = PairedCounts(30, 0, 0, 0, 0, 0, 0, 50)
        ci = bootstrap_ci(counts, 0.5, "difference", ConfidenceConfig(bootstrap_b=200, seed=1))
        assert ci.lower == 0.0 and ci.upper == 0.0 and ci.point == 0.0

    def test_budget_exhaustion_fails(self, table8, monkeypatch):
        monkeypatch.setattr(inference, "_BOOTSTRAP_DRAW_FACTOR", 0)
        with pytest.raises(BootstrapFailedError):
            bootstrap_ci(table8, 0.5, "difference", ConfidenceConfig(bootstrap_b=100, seed=1))

    def test_bad_target(self, table8):
        with pytest.raises(DomainError):
            bootstrap_ci(table8, 0.5, "odds", ConfidenceConfig())


class TestBayesian:
    def test_table8_difference(self, table8):
        ci = bayesian_ci(table8, 0.9, "difference", ConfidenceConfig(seed=4))
        assert ci.lower == pytest.approx(-0.561, abs=0.02)
        assert ci.upper == pytest.approx(-0.296, abs=0.02)
        assert ci.method == "bayesian-quantile"

    def test_table8_ratio(self, table8):
        ci = bayesian_ci(table8, 0.5, "ratio", ConfidenceConfig(seed=4))
        assert ci.lower == pytest.approx(0.525, abs=0.02)
        assert ci.upper == pytest.approx(0.877, abs=0.02)

    def test_posterior_concentration(self, table8):
        prior = BetaPrior(1e6, 1e6)
        config = ConfidenceConfig(seed=5, bayes_m=2000,
                                  priors=Priors(prior, prior, prior, prior, prior))
        ci = bayesian_ci(table8, 0.5, "difference", config)
        assert ci.length < 0.01

    def test_reproducible_given_seed(self, table8):
        config = ConfidenceConfig(seed=6, bayes_m=1000)
        a = bayesian_ci(table8, 0.5, "ratio", config)
        b = bayesian_ci(table8, 0.5, "ratio", config)
        assert (a.lower, a.upper, a.point) == (b.lower, b.upper, b.point)

    def test_point_is_posterior_mean(self, table8):
        ci = bayesian_ci(table8, 0.5, "difference", ConfidenceConfig(seed=7, bayes_m=1000))
        assert ci.lower < ci.point < ci.upper

    def test_non_estimable_counts_rejected(self):
        with pytest.raises(NonEstimableError):
            bayesian_ci(PairedCounts(1, 0, 0, 0, 0, 0, 0, 0), 0.5, "difference",
                        ConfidenceConfig(bayes_m=1000))


# Small table whose bootstrap resamples sometimes have an empty diseased stratum.
SPARSE = PairedCounts(2, 1, 0, 1, 1, 2, 3, 30)
SHARED_CONFIG = ConfidenceConfig(bootstrap_b=200, bayes_m=1000, seed=5)
# sha256 of _interval_lines at SHARED_CONFIG, recorded before the bootstrap
# tables and posterior draws were shared (one fresh stream per call).
RECORDED_DIGESTS = {
    "table8": "0abc9568419fa35255cdc7944c602c2118917bc964f62d16b7d7a053a7693d38",
    "sparse": "7e141fdf6b02f4431a13298168c65533e5f87b3715845f38e43fbf327a768d53",
}


def _report_grid(counts):
    """The analyze default grid plus c', as the CLI builds it."""
    cs = list(DEFAULT_C_GRID)
    c_prime = compare_over_range(accuracy_from_counts(counts)).c_prime
    if c_prime is not None and 0.0 < c_prime < 1.0:
        cs.append(round(c_prime, 4))
    return sorted(cs)


def _interval_lines(counts, tables=None, draws=None):
    lines = []
    for c in _report_grid(counts):
        for target in ("difference", "ratio"):
            for ci in (bootstrap_ci(counts, c, target, SHARED_CONFIG, tables),
                       bayesian_ci(counts, c, target, SHARED_CONFIG, draws)):
                lines.append(f"{c!r} {target} {ci.method} {ci.lower.hex()} "
                             f"{ci.upper.hex()} {ci.point.hex()}")
    return "\n".join(lines) + "\n"


def _bits(stats):
    return [x.hex() for x in stats]


def _reference_stats(accuracies, c, ratio):
    """The difference (or ratio) at ``c`` of each estimate through kappa_pair.

    Estimates where kappa_pair raises and, for the ratio, kappa2 = 0 are
    skipped, as _kappa_stats skips them.
    """
    stats = []
    for acc in accuracies:
        try:
            kp = kappa_pair(acc, c)
        except DegenerateKappaError:
            continue
        if not ratio:
            stats.append(kp.delta)
        elif kp.kappa2 != 0.0:
            stats.append(kp.theta)
    return stats


class _HandBuilt(inference._Resamples):
    """Stands in for BootstrapTables or PosteriorDraws (flat priors) with fixed
    coefficient rows (A1, B1, N1, A2, B2, N2); it draws no more."""

    priors = Priors()

    def __init__(self, counts, rows):
        super().__init__(counts, None)
        for column, values in zip(self._coefficients, zip(*rows)):
            column.extend(values)


class TestSharedDraws:
    @pytest.mark.parametrize("name, counts", [("table8", PairedCounts(41, 0, 40, 8, 5, 1, 24, 181)),
                                              ("sparse", SPARSE)])
    def test_shared_objects_match_fresh_calls_and_recorded_digest(self, name, counts):
        tables = BootstrapTables(counts, RandomStream(SHARED_CONFIG.seed, inference.BOOTSTRAP_STREAM))
        draws = PosteriorDraws(counts, SHARED_CONFIG.priors,
                               RandomStream(SHARED_CONFIG.seed, inference.BAYES_STREAM))
        shared = _interval_lines(counts, tables, draws)
        assert shared == _interval_lines(counts)
        assert hashlib.sha256(shared.encode()).hexdigest() == RECORDED_DIGESTS[name]

    def test_analysis_draws_read_the_analysis_streams(self, table8):
        tables, draws = inference.analysis_draws(table8, SHARED_CONFIG)
        assert (tables.counts, draws.counts, draws.priors) == (table8, table8, SHARED_CONFIG.priors)
        seed = SHARED_CONFIG.seed
        assert tables.coefficients(50) == BootstrapTables(
            table8, RandomStream(seed, inference.BOOTSTRAP_STREAM)).coefficients(50)
        assert draws.coefficients(50) == PosteriorDraws(
            table8, SHARED_CONFIG.priors, RandomStream(seed, inference.BAYES_STREAM)).coefficients(50)

    def test_sparse_table_has_non_estimable_resamples(self):
        tables = BootstrapTables(SPARSE, RandomStream(SHARED_CONFIG.seed, inference.BOOTSTRAP_STREAM))
        rows = list(zip(*tables.coefficients(400)))[:400]
        assert 0 < rows.count((0.0,) * 6) < 400

    def test_default_grid_includes_c_prime(self, table8):
        assert len(_report_grid(table8)) == len(DEFAULT_C_GRID) + 1

    def test_bias_correction_ignores_ties(self, table8):
        # 100 hand-built replicates: 30 below the plug-in difference, 40 tied
        # with it, 30 above. A counts only the 30 strictly below.
        config = ConfidenceConfig(bootstrap_b=100)
        point = kappa_pair(accuracy_from_counts(table8), 0.5).delta
        stats = ([point - 0.01 * i for i in range(30, 0, -1)] + [point] * 40
                 + [point + 0.01 * i for i in range(1, 31)])
        # both denominators are 1 at c = 0.5 and kappa2 = 0, so each row's difference is its N1
        tables = _HandBuilt(table8, [(1.0, 1.0, k1, 1.0, 1.0, 0.0) for k1 in stats])
        assert tables.statistics(0.5, 0, 100, 100) == stats
        ci = bootstrap_ci(table8, 0.5, "difference", config, tables)
        assert stats.count(point) == 40

        def bounds(a_count):
            z0 = normal_quantile(a_count / 100)
            return (empirical_quantile(stats, normal_cdf(2.0 * z0 - config.z)),
                    empirical_quantile(stats, normal_cdf(2.0 * z0 + config.z)))

        assert (ci.lower, ci.upper) == bounds(30)
        assert (ci.lower, ci.upper) != bounds(70)  # ties counted as below

    def test_a_target_short_of_b_scans_a_longer_prefix(self, table8):
        # 1000 hand-built rows, both denominators 1 at c = 0.5: every 4th is
        # not estimable (zeros) and every 5th has kappa2 = 0, so the first B
        # rows give each target fewer than B statistics. The kappas spread
        # around those of table8 at c = 0.5 (0.50 and 0.72).
        config = ConfidenceConfig(bootstrap_b=100)
        rows = [(0.0,) * 6 if i % 4 == 3 else
                (1.0, 1.0, 0.5 + (i * 37 % 101 - 50) / 500, 1.0, 1.0,
                 0.0 if i % 5 == 4 else 0.6 + i / 4000) for i in range(1000)]
        tables = _HandBuilt(table8, rows)

        def segment(start, stop, ratio):
            """The statistics of rows start:stop, row by row."""
            stats = []
            for a1, b1, n1, a2, b2, n2 in rows[start:stop]:
                den1, den2 = a1 * 0.5 + b1 * 0.5, a2 * 0.5 + b2 * 0.5
                if den1 > 0.0 and den2 > 0.0:
                    if not ratio:
                        stats.append(n1 / den1 - n2 / den2)
                    elif n2 != 0.0:
                        stats.append(n1 / den1 / (n2 / den2))
            return stats

        kp = kappa_pair(accuracy_from_counts(table8), 0.5)
        for target, point in (("difference", kp.delta), ("ratio", kp.theta)) * 2:
            ratio = target == "ratio"
            # the first B rows, then each time as many more rows as statistics are missing
            stats, scanned = segment(0, 100, ratio), 100
            while len(stats) < 100:
                stats, scanned = (stats + segment(scanned, scanned + 100 - len(stats), ratio),
                                  scanned + 100 - len(stats))
            assert scanned == (166 if ratio else 133)  # up to the B-th accepted row
            a_count = len([x for x in stats if x < point])
            z0 = normal_quantile(a_count / 100)
            ci = bootstrap_ci(table8, 0.5, target, config, tables)
            assert (ci.lower, ci.upper, ci.point) == (
                empirical_quantile(stats, normal_cdf(2.0 * z0 - config.z)),
                empirical_quantile(stats, normal_cdf(2.0 * z0 + config.z)), point)

    def test_corrected_table_resamples_n_plus_4_from_corrected_proportions(self):
        raw = PairedCounts(3, 1, 2, 4, 0, 5, 1, 24)  # n = 40
        corrected = apply_continuity_correction(raw)
        tables = BootstrapTables(corrected, RandomStream(8, 1))
        assert tables.size == 44
        assert tables.probs == [(cell + 0.5) / 44 for cell in raw.cells()]
        stream = ReferenceStream(8, 1)
        accuracies = []
        for _ in range(50):
            sample = sample_multinomial([(cell + 0.5) / 44 for cell in raw.cells()], 44, stream)
            assert sum(sample) == 44
            accuracies.append(accuracy_from_counts(PairedCounts(*sample)))
        for ratio in (False, True):
            expected = _reference_stats(accuracies, 0.3, ratio)
            assert len(expected) > 40
            got = tables.statistics(0.3, ratio, 50, 50)
            assert _bits(got) == _bits(expected)
        assert stream_state(tables._stream) == stream_state(stream)

    @pytest.mark.parametrize("counts", [PairedCounts(41, 0, 40, 8, 5, 1, 24, 181), SPARSE,
                                        PairedCounts(1, 0, 0, 0, 0, 0, 2, 1)])
    def test_coefficients_match_those_of_accuracy_estimates(self, counts):
        # the old route: a PairedCounts and an AccuracyEstimates per resample
        tables = BootstrapTables(counts, RandomStream(4, 1))
        stream = ReferenceStream(4, 1)
        probs = [cell / counts.n for cell in counts.cells()]
        drawn = []
        for _ in range(500):
            table = PairedCounts(*sample_multinomial(probs, int(round(counts.n)), stream))
            if table.s <= 0 or table.r <= 0:
                drawn.append(None)
            else:
                acc = accuracy_from_counts(table)
                drawn.append((acc.se1, acc.sp1, acc.se2, acc.sp2, acc.p))
        expected = tuple(array("d") for _ in range(6))
        inference._add_coefficients(expected, drawn)
        assert tables.coefficients(500) == expected
        assert stream_state(tables._stream) == stream_state(stream)

    def test_empty_table_cannot_be_resampled(self):
        with pytest.raises(NonEstimableError):
            BootstrapTables(PairedCounts(0, 0, 0, 0, 0, 0, 0, 0), RandomStream(0, 1))

    @pytest.mark.parametrize("cells", [(math.inf, 1, 1, 1, 1, 1, 1, 1),
                                       (1e308, 1e308, 1, 1, 1, 1, 1, 1)])
    def test_infinite_table_cannot_be_built(self, cells):
        # refused as a table, so no resample store meets an n that
        # overflows, and int(round(n)) never raises its OverflowError
        with pytest.raises(DomainError,
                           match=r"cell s11 must be a count or a count \+ 0\.5 in \[0, 2\*\*51\]"):
            PairedCounts(*cells)

    def test_tables_of_another_table_rejected(self, table8):
        tables = BootstrapTables(SPARSE, RandomStream(0, 1))
        with pytest.raises(DomainError):
            bootstrap_ci(table8, 0.5, "difference", SHARED_CONFIG, tables)

    def test_draws_of_another_table_or_prior_rejected(self, table8):
        for counts, priors in ((table8, Priors(p=BetaPrior(2.0, 2.0))), (SPARSE, Priors())):
            draws = PosteriorDraws(counts, priors, RandomStream(0, inference.BAYES_STREAM))
            with pytest.raises(DomainError, match="another table or prior"):
                bayesian_ci(table8, 0.5, "difference", SHARED_CONFIG, draws)

    @pytest.mark.parametrize("counts, priors", [
        (PairedCounts(41, 0, 40, 8, 5, 1, 24, 181), Priors()),
        (SPARSE, Priors()),
        # no false negatives on test 1: its Se posterior is Beta(8.5, 0.5), a shape below 1
        (PairedCounts(5, 3, 0, 0, 2, 4, 6, 40),
         Priors(se1=BetaPrior(0.5, 0.5), p=BetaPrior(0.3, 2.0))),
    ])
    def test_posterior_draws_match_scalar_beta_draws(self, counts, priors):
        m = 1000
        stream = ReferenceStream(SHARED_CONFIG.seed, inference.BAYES_STREAM)
        params = inference._posterior_params(counts, priors)
        accuracies = [AccuracyEstimates(*(sample_beta(a, b, stream) for a, b in params))
                      for _ in range(m)]
        draws = PosteriorDraws(counts, priors,
                               RandomStream(SHARED_CONFIG.seed, inference.BAYES_STREAM))
        for c in (0.0, 0.25, 0.5, 0.9, 1.0):
            for ratio in (False, True):
                expected = _reference_stats(accuracies, c, ratio)
                assert len(expected) == m
                got = draws.statistics(c, ratio, m, m)
                assert _bits(got) == _bits(expected)
        assert stream_state(draws._stream) == stream_state(stream)

    def test_bayesian_rejects_weighting_index_outside_unit_interval(self, table8):
        with pytest.raises(DomainError):
            bayesian_ci(table8, 1.5, "difference", SHARED_CONFIG)

    def test_bayesian_warns_with_the_excluded_draw_count(self, table8):
        config = ConfidenceConfig(bayes_m=1000)
        clean = [(0.2, 0.3, 0.1 + i / 2000, 0.25, 0.35, 0.05 + i / 4000) for i in range(998)]
        zero_denominator = (0.0, 0.0, 0.1, 0.25, 0.35, 0.05)
        zero_kappa2 = (0.2, 0.3, 0.1, 0.25, 0.35, 0.0)
        draws = _HandBuilt(table8, [zero_denominator, zero_kappa2] + clean)
        with pytest.warns(UserWarning, match="^1 of 1000 posterior draws"):
            bayesian_ci(table8, 0.5, "difference", config, draws)
        with pytest.warns(UserWarning, match="^2 of 1000 posterior draws"):
            bayesian_ci(table8, 0.5, "ratio", config, draws)
        # the warning names the line that called the library, not a library frame
        for call in (bayesian_ci, METHODS["bayes-ratio"].interval):
            args = (table8, 0.5, "ratio") if call is bayesian_ci else (table8, 0.5)
            with pytest.warns(UserWarning, match="^2 of 1000 posterior draws") as record:
                call(*args, config, draws=draws)
            assert [warning.filename for warning in record] == [__file__]
        draws = _HandBuilt(table8, clean + clean[:2])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for target in ("difference", "ratio"):
                bayesian_ci(table8, 0.5, target, config, draws)


class TestOnePassPerC:
    """One statistics pass per resample set and c serves the difference and the ratio."""

    def test_analyze_makes_one_pass_per_resample_set_and_c(self, table8, monkeypatch):
        passes = Counter()  # by the identity of the coefficient columns read
        kappa_stats = inference._kappa_stats

        def counting(columns, c, start, stop):
            passes[id(columns)] += 1
            return kappa_stats(columns, c, start, stop)

        monkeypatch.setattr(inference, "_kappa_stats", counting)
        report = build_analysis_report(table8)
        assert len(report.rows) == len(DEFAULT_C_GRID) + 1
        assert all(not row.interval_errors for row in report.rows)
        assert sorted(passes.values()) == [len(report.rows)] * 2

    def test_each_interval_makes_one_filtering_pass(self, table8, monkeypatch):
        passes = []  # per select_quantiles call, the passes over its values
        select = inference.select_quantiles

        class Counted(list):
            count = 0

            def __iter__(self):
                self.count += 1
                return super().__iter__()

        def counting(values, q_low, q_high):
            values = Counted(values)
            bounds = select(values, q_low, q_high)
            passes.append(values.count)
            return bounds

        monkeypatch.setattr(inference, "select_quantiles", counting)
        for tag in ("boot-diff", "boot-ratio", "bayes-diff", "bayes-ratio"):
            passes.clear()
            inference.METHODS[tag].interval(table8, 0.4, SHARED_CONFIG)
            assert passes == [1], tag

    @pytest.mark.parametrize("counts", [PairedCounts(41, 0, 40, 8, 5, 1, 24, 181), SPARSE])
    def test_another_b_on_shared_tables_matches_fresh_calls(self, counts):
        tables = BootstrapTables(counts, RandomStream(5, inference.BOOTSTRAP_STREAM))
        for b in (300, 200, 300, 1000):
            config = ConfidenceConfig(bootstrap_b=b, seed=5)
            for target in ("difference", "ratio"):
                assert (bootstrap_ci(counts, 0.4, target, config, tables)
                        == bootstrap_ci(counts, 0.4, target, config))

    @pytest.mark.parametrize("counts", [PairedCounts(41, 0, 40, 8, 5, 1, 24, 181), SPARSE])
    def test_another_m_on_shared_draws_matches_fresh_calls(self, counts):
        draws = PosteriorDraws(counts, Priors(), RandomStream(5, inference.BAYES_STREAM))
        for m in (2000, 1000, 3000):
            config = ConfidenceConfig(bayes_m=m, seed=5)
            for target in ("difference", "ratio"):
                assert (bayesian_ci(counts, 0.4, target, config, draws)
                        == bayesian_ci(counts, 0.4, target, config))
        assert len(draws.coefficients(0)[0]) == 3000

    # SPARSE's first 200 resamples include non-estimable ones; table8's do not
    @pytest.mark.parametrize("counts, factors", [(SPARSE, (1, 0)),
                                                 (PairedCounts(41, 0, 40, 8, 5, 1, 24, 181), (0,))])
    def test_patched_draw_factor_fails_on_shared_tables(self, counts, factors, monkeypatch):
        config = ConfidenceConfig(bootstrap_b=200, seed=5)
        tables = BootstrapTables(counts, RandomStream(5, inference.BOOTSTRAP_STREAM))
        bootstrap_ci(counts, 0.5, "difference", config, tables)  # keeps the pair at c = 0.5
        for factor in factors:
            monkeypatch.setattr(inference, "_BOOTSTRAP_DRAW_FACTOR", factor)
            for target in ("difference", "ratio", "difference"):
                with pytest.raises(BootstrapFailedError):
                    bootstrap_ci(counts, 0.5, target, config, tables)

    def test_a_prefix_at_the_kept_c_scans_each_row_once(self, monkeypatch):
        passes = []  # (start, stop) of each statistics pass
        kappa_stats = inference._kappa_stats

        def recorded(columns, c, start, stop):
            passes.append((start, stop))
            return kappa_stats(columns, c, start, stop)

        def fresh(which, k, limit, c=0.4):
            return BootstrapTables(SPARSE, RandomStream(5, inference.BOOTSTRAP_STREAM)).statistics(
                c, which, k, limit)

        tables = BootstrapTables(SPARSE, RandomStream(5, inference.BOOTSTRAP_STREAM))
        monkeypatch.setattr(inference, "_kappa_stats", recorded)
        held = [tables.statistics(0.4, which, 300, 300) for which in (0, 1)]
        copies = [list(stats) for stats in held]
        for which, k, limit in ((0, 700, 700), (0, 700, 700), (1, 300, 700), (0, 300, 500),
                                (0, 900, 900), (1, 900, 9000)):
            stats = tables.statistics(0.4, which, k, limit)
            monkeypatch.undo()
            assert _bits(stats) == _bits(fresh(which, k, limit))
            monkeypatch.setattr(inference, "_kappa_stats", recorded)
        assert [list(stats) for stats in held] == copies  # a list handed out never changes
        # both targets of 300 rows share one pass, and 700 reads on from 300;
        # the 685 ratios of those 700 rows hold the first 300, so asking for
        # them, or for 700 again, reads no row; a limit below the 700 rows
        # kept gets a pass of its own; 900 reads on from 700, and 900 ratios
        # from the 882 of 900 rows read on to ceil(900 * 900 / 882) = 919
        assert passes == [(0, 300), (300, 700), (0, 500), (700, 900), (900, 919)]
        tables.statistics(0.6, 0, 500, 500)  # another c starts again from the first row
        assert passes[-1] == (0, 500)

    def test_sparse_bootstraps_read_far_fewer_rows_than_rescans(self, monkeypatch):
        # 40 estimable tables of paper scenario 5 (p = 5%) at n = 25: many
        # resamples have an empty stratum or kappa2 = 0, so both targets
        # scan past the first B rows
        sc = paper_scenarios()[4]
        counts = []
        for i in itertools.count():
            table = sample_counts(sc, 25, RandomStream(7, i))
            try:
                inference._analysis(table.cells(), sc.c)
            except (NonEstimableError, DegenerateKappaError):
                continue
            counts.append(table)
            if len(counts) == 40:
                break
        config = ConfidenceConfig(seed=0)
        expected = [bootstrap_ci(table, sc.c, target, config)
                    for table in counts for target in ("difference", "ratio")]
        passes = []  # (start, stop) of each statistics pass
        kappa_stats = inference._kappa_stats

        def reading(columns, c, start, stop):
            passes.append((start, stop))
            return kappa_stats(columns, c, start, stop)

        monkeypatch.setattr(inference, "_kappa_stats", reading)
        shared = []
        for table in counts:
            tables = BootstrapTables(table, RandomStream(0, inference.BOOTSTRAP_STREAM))
            shared += [bootstrap_ci(table, sc.c, target, config, tables)
                       for target in ("difference", "ratio")]
        assert shared == expected
        read = sum(stop - start for start, stop in passes)
        assert (read, len(passes)) == (109_556, 90)
        assert sum(stop > config.bootstrap_b for _, stop in passes) >= 40
        # passes that each rescanned from the first row would read nearly twice as many
        assert sum(stop for _, stop in passes) > 1.9 * read

    def test_growing_batches_leave_the_stream_where_scalar_draws_do(self, table8):
        tables = BootstrapTables(table8, RandomStream(9, inference.BOOTSTRAP_STREAM))
        stream = ReferenceStream(9, inference.BOOTSTRAP_STREAM)
        drawn = 0
        for count in (1, 1, 37, 150, 149, 2000, 2300):
            columns = tables.coefficients(count)
            for _ in range(count - drawn):
                sample_multinomial(tables.probs, tables.size, stream)
            drawn = max(drawn, count)
            assert len(columns[0]) == drawn
            assert stream_state(tables._stream) == stream_state(stream)

    def test_growing_posterior_batches_equal_one_batch(self, table8):
        def fresh():
            return PosteriorDraws(table8, Priors(), RandomStream(9, inference.BAYES_STREAM))

        batches = (1, 1, 37, 1000)
        pending = set()
        for stop in range(1, len(batches) + 1):
            grown = fresh()
            for count in batches[:stop]:
                columns = grown.coefficients(count)
            once = fresh()
            assert columns == once.coefficients(batches[stop - 1])
            state = stream_state(grown._stream)
            assert state == stream_state(once._stream)
            pending.add(state[0] is None)
        assert pending == {False, True}  # some batches end between the two normals of a pair

    @pytest.mark.parametrize("kind", ["tables", "draws"])
    def test_failed_extension_raises_only_past_the_rows_drawn(self, table8, kind, monkeypatch):
        if kind == "tables":
            config = ConfidenceConfig(bootstrap_b=100, seed=3)
            resamples = BootstrapTables(table8, RandomStream(3, inference.BOOTSTRAP_STREAM))
            interval, kernel = bootstrap_ci, "_multinomial_draw"
            larger = ConfidenceConfig(bootstrap_b=101, seed=3)
        else:
            config = ConfidenceConfig(bayes_m=1000, seed=3)
            resamples = PosteriorDraws(table8, Priors(), RandomStream(3, inference.BAYES_STREAM))
            interval, kernel = bayesian_ci, "sample_beta_rows"
            larger = ConfidenceConfig(bayes_m=1001, seed=3)
        drawn = interval(table8, 0.5, "difference", config, resamples)
        expected = [interval(table8, c, "ratio", config) for c in (0.3, 0.5)]
        calls = []

        def refusing(*args):
            calls.append(args)
            raise DomainError("refused")

        monkeypatch.setattr(inference, kernel, refusing)
        for c in (0.5, 0.3, 0.5):
            with pytest.raises(DomainError, match="refused"):
                interval(table8, c, "difference", larger, resamples)
        assert len(calls) == 1
        assert interval(table8, 0.5, "difference", config, resamples) == drawn
        assert [interval(table8, c, "ratio", config, resamples) for c in (0.3, 0.5)] == expected

    @pytest.mark.parametrize("kind", ["tables", "draws"])
    def test_refused_read_leaves_no_rows_unlike_a_fresh_set(self, table8, kind, monkeypatch):
        # denormals-are-zero is on for the 5th block the stream mixes, part-way
        # through the batch; then gradual underflow is back
        def fresh():
            if kind == "tables":
                return BootstrapTables(table8, RandomStream(3, inference.BOOTSTRAP_STREAM))
            return PosteriorDraws(table8, Priors(), RandomStream(3, inference.BAYES_STREAM))

        resamples = fresh()
        blocks = []
        raw_uniforms = numerics._raw_uniforms

        def refusing_the_5th(z, count):
            blocks.append(count)
            if len(blocks) == 5:
                raise DenormalsAreZeroError("refused")
            return raw_uniforms(z, count)

        monkeypatch.setattr(numerics, "_raw_uniforms", refusing_the_5th)
        with pytest.raises(DenormalsAreZeroError, match="refused"):
            resamples.coefficients(200)
        monkeypatch.undo()
        assert len(blocks) == 5
        expected = fresh().coefficients(200)
        for _ in range(3):
            try:
                columns = resamples.coefficients(200)
            except DenormalsAreZeroError:
                continue
            assert columns == expected

    def test_failed_posterior_is_drawn_once(self, table8, monkeypatch):
        calls = []
        draw = inference.sample_beta_rows

        def counting(*args):
            calls.append(args)
            return draw(*args)

        monkeypatch.setattr(inference, "sample_beta_rows", counting)
        config = ConfidenceConfig(priors=Priors(*[BetaPrior(1e308, 1.0)] * 5))
        report = build_analysis_report(table8, methods=("bayes-diff", "bayes-ratio"),
                                       config=config)
        assert len(calls) == 1
        errors = [row.interval_errors.get(method) for row in report.rows
                  for method in ("bayes-diff", "bayes-ratio")]
        assert len(errors) == 2 * (len(DEFAULT_C_GRID) + 1)
        assert len(set(errors)) == 1 and "landed on 0 or 1" in errors[0]


class TestStatisticsMemory:
    CEILING_KIB = 2000

    def test_one_report_stays_under_the_ceiling(self, table8):
        """tracemalloc peak of one build_analysis_report on the worked table, after a warm-up.

        Measured: 1688-1690 KiB (Python 3.11.7, 2-vCPU host), so the 2000 KiB
        ceiling leaves 310 KiB of headroom. Holding the previous statistics
        pair while the next one is built read 2302-2304 KiB, and coefficient
        columns kept as lists read 3398 KiB: either fails here.
        """
        build_analysis_report(table8)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            build_analysis_report(table8)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < self.CEILING_KIB * 1024, peak / 1024


YOUDEN_ZERO = PairedCounts(3, 2, 4, 1, 2, 3, 1, 4)  # Se1 = Sp1 = 0.5
CLOSED_FORM = (wald_diff_ci, wald_ratio_ci, log_ratio_ci, fieller_ratio_ci, bloch_test)


class TestSharedAnalysis:
    @pytest.fixture
    def covariance_calls(self, monkeypatch):
        # the analysis's one float covariance step: (accuracy, kappa1, kappa2, c, n)
        calls = []
        covariance = inference._covariance

        def counted(*args):
            calls.append(args)
            return covariance(*args)

        monkeypatch.setattr(inference, "_covariance", counted)
        return calls

    def test_closed_form_coverage_computes_one_covariance_per_replicate(self, covariance_calls,
                                                                         monkeypatch):
        plans = []  # _multinomial_plan calls: one per range, one per bootstrap set
        plan = numerics._multinomial_plan

        def counted(*args):
            plans.append(args)
            return plan(*args)

        # the range and the bootstrap tables call the names they imported
        monkeypatch.setattr(simulation, "_multinomial_plan", counted)
        monkeypatch.setattr(inference, "_multinomial_plan", counted)
        sc = build_scenario_from_kappas(0.3, 0.6, 0.8, 0.8, 0.25, 0.5, 0.5)
        coverage_study(sc, 200, 100, ["wald-diff", "wald-ratio", "log-ratio", "fieller-ratio"],
                       ConfidenceConfig(seed=2))
        assert (len(covariance_calls), len(plans)) == (100, 1)
        # the resampling methods read the same table; the closed-form bounds
        # read its one analysis, and boot-diff's point needs only the kappas
        coverage_study(sc, 200, 100, ["wald-diff", "boot-diff", "bayes-ratio", "wald-ratio"],
                       ConfidenceConfig(seed=2, bootstrap_b=100, bayes_m=1000))
        assert (len(covariance_calls), len(plans)) == (100 + 100, 1 + 1 + 100)

    def test_each_closed_form_call_computes_one_analysis(self, table8, covariance_calls):
        results = []
        for calls, f in enumerate(CLOSED_FORM, 1):
            results.append(f(table8, 0.5))
            assert len(covariance_calls) == calls
        bootstrap_ci(table8, 0.5, "ratio", SHARED_CONFIG)  # its point needs only the kappas
        assert len(covariance_calls) == len(CLOSED_FORM)
        # nothing is kept between calls: a second round gives the same bits
        again = [f(table8, 0.5) for f in CLOSED_FORM]
        assert len(covariance_calls) == 2 * len(CLOSED_FORM)
        assert repr(again) == repr(results)

    def test_equal_but_distinct_table_or_another_c_recomputes(self, table8, covariance_calls):
        wald_diff_ci(table8, 0.5)
        equal = PairedCounts(*table8.cells())
        assert equal == table8 and equal is not table8
        assert wald_diff_ci(equal, 0.5) == wald_diff_ci(table8, 0.5)
        assert len(covariance_calls) == 3
        wald_diff_ci(table8, 0.6)
        wald_diff_ci(table8, 0.5)
        assert [args[3] for args in covariance_calls] == [0.5, 0.5, 0.5, 0.6, 0.5]

    def test_float_analysis_matches_the_public_objects(self):
        # bit for bit, or the same error and message, on tiny, sparse and
        # corrected tables; c = 1.5 gives the DomainError
        rng = np.random.RandomState(31)
        tables = [PairedCounts(*rng.randint(0, high, size=8))
                  for high in (2, 4, 30, 400) for _ in range(40)]
        tables += [apply_continuity_correction(t) for t in tables[:40]]
        tables.append(YOUDEN_ZERO)

        def outcome(call):
            try:
                return tuple(x.hex() for x in call())
            except (DomainError, NonEstimableError, DegenerateKappaError) as exc:
                return type(exc), str(exc)

        def public(counts, c):
            acc = accuracy_from_counts(counts)
            kp = kappa_pair(acc, c)
            cov = kappa_covariance(acc, kp, counts.n)
            return kp.kappa1, kp.kappa2, cov.var1, cov.var2, cov.cov12

        kinds = set()
        for counts in tables:
            for c in (0.0, 0.3, 1.0, 1.5):
                expected = outcome(lambda: public(counts, c))
                assert outcome(lambda: inference._analysis(counts.cells(), c)) == expected
                kinds.add(expected[0] if isinstance(expected[0], type) else "ok")
        assert kinds == {"ok", DomainError, NonEstimableError, DegenerateKappaError}

    def test_analysis_reads_any_sequence_of_the_cells(self):
        # a tuple, a list and integer cells give the same bits, or the same
        # error and message, as the table's float cells; the last table has
        # the largest size a multinomial draw takes
        rng = np.random.RandomState(32)
        tables = [rng.randint(0, high, size=8).tolist() for high in (2, 4, 30, 400)
                  for _ in range(40)]
        tables.append([2**24, 3, 5, 2**24 - 7, 2**24 + 1, 11, 13, 2**24 - 26])
        assert sum(tables[-1]) == numerics._MAX_SIZE

        def outcome(cells, c):
            try:
                return tuple(x.hex() for x in inference._analysis(cells, c))
            except (DomainError, NonEstimableError, DegenerateKappaError) as exc:
                return type(exc), str(exc)

        kinds = set()
        for cells in tables:
            floats = PairedCounts(*cells).cells()
            for c in (0.0, 0.3, 1.0, 1.5):
                expected = outcome(floats, c)
                assert outcome(list(floats), c) == outcome(cells, c) == expected
                assert outcome(tuple(cells), c) == expected
                kinds.add(expected[0] if isinstance(expected[0], type) else "ok")
        assert kinds == {"ok", DomainError, NonEstimableError, DegenerateKappaError}

    def test_failed_analysis_raises_from_every_closed_form_method(self, table8, covariance_calls):
        wald_diff_ci(table8, 0.5)
        for _ in range(2):
            for f in CLOSED_FORM:
                with pytest.raises(DegenerateKappaError):
                    f(YOUDEN_ZERO, 0.5)
        assert len(covariance_calls) == 1 + 2 * len(CLOSED_FORM)

    def test_bootstrap_point_needs_only_the_kappas(self, covariance_calls):
        # Y1 = 0: kappa1 = 0 has no delta-method variance, yet its resamples
        # give both bootstrap intervals around the plug-in kappas
        counts = PairedCounts(50, 0, 50, 0, 0, 50, 0, 50)
        with pytest.raises(DegenerateKappaError, match="Youden indices"):
            wald_diff_ci(counts, 0.5)
        difference = bootstrap_ci(counts, 0.5, "difference", SHARED_CONFIG)
        ratio = bootstrap_ci(counts, 0.5, "ratio", SHARED_CONFIG)
        assert (difference.point, ratio.point) == (-1.0, 0.0)
        assert difference.lower < -1.0 < difference.upper and ratio.lower < 0.0 < ratio.upper
        assert len(covariance_calls) == 1


class TestInversion:
    def test_wald_scaled_inversion(self, table8):
        # the Wald interval of kappa2/kappa1 is the Wald ratio of the swapped
        # table: the original bounds divided by theta^2, around 1/theta
        ci = wald_ratio_ci(table8, 0.9)
        theta = ci.point
        inv = wald_ratio_ci(table8.swap_tests(), 0.9)
        scaled = (ci.lower / theta ** 2, ci.upper / theta ** 2, 1.0 / theta)
        for got, want in zip((inv.lower, inv.upper, inv.point), scaled):
            assert got == pytest.approx(want, rel=1e-12)
        assert round(inv.lower, 2) == 1.60
        assert round(inv.upper, 2) == 2.73

    def test_wald_plain_reciprocal_variant(self, table8):
        # the labeled alternative: reciprocals of the Wald bounds
        acc = accuracy_from_counts(table8)
        theta = kappa_pair(acc, 0.9).theta
        rec = reciprocal_ratio_ci(wald_ratio_ci(table8, 0.9), theta)
        # 1/0.58 = 1.72 and 1/0.34 = 2.94 when the bounds are first rounded
        assert rec.lower == pytest.approx(1.72, abs=0.01)
        assert rec.upper == pytest.approx(2.94, abs=0.02)

    def test_fieller_reciprocal(self, table8):
        acc = accuracy_from_counts(table8)
        theta = kappa_pair(acc, 0.9).theta
        inv = reciprocal_ratio_ci(fieller_ratio_ci(table8, 0.9), theta)
        # direct reciprocal arithmetic on the published bounds
        assert inv.lower == pytest.approx(1 / 0.584, abs=4e-3)
        assert inv.upper == pytest.approx(1 / 0.342, abs=4e-3)

    def test_symmetric_log_interval_maps_to_itself(self):
        ci = ConfidenceInterval(target="ratio", method="logarithmic",
                                lower=1 / 1.6, upper=1.6, point=1.0)
        inv = reciprocal_ratio_ci(ci, 1.0)
        assert inv.lower == pytest.approx(ci.lower, abs=1e-15)
        assert inv.upper == pytest.approx(ci.upper, abs=1e-15)

    def test_straddling_zero_rejected(self):
        ci = ConfidenceInterval(target="ratio", method="fieller",
                                lower=-0.2, upper=0.4, point=0.1)
        with pytest.raises(InversionUndefinedError):
            reciprocal_ratio_ci(ci, 0.1)

    def test_only_ratio_targets(self, table8):
        ci = wald_diff_ci(table8, 0.5)
        with pytest.raises(DomainError):
            reciprocal_ratio_ci(ci, 1.0)


class TestConfig:
    def test_z_matches_quantile(self):
        config = ConfidenceConfig(conf=0.95)
        assert config.z == pytest.approx(Z975, abs=1e-12)
        assert ConfidenceConfig(conf=0.90).z == pytest.approx(1.6448536269514722, abs=1e-12)

    def test_validation(self):
        with pytest.raises(DomainError):
            ConfidenceConfig(conf=1.0)
        with pytest.raises(DomainError):
            ConfidenceConfig(bootstrap_b=50)
        with pytest.raises(DomainError):
            ConfidenceConfig(bayes_m=10)
        # B and M count draws: a float, however large, is rejected up front
        for options in ({"bootstrap_b": 150.5}, {"bootstrap_b": 2000.0},
                        {"bayes_m": math.inf}, {"bayes_m": 10000.0}):
            with pytest.raises(DomainError):
                ConfidenceConfig(**options)
        assert ConfidenceConfig(bootstrap_b=np.int64(150), bayes_m=np.int64(1000)).bayes_m == 1000
        for alpha, beta in ((0.0, 1.0), (math.nan, 1.0), (1.0, math.nan),
                            (math.inf, 1.0), (1.0, math.inf)):
            with pytest.raises(DomainError):
                BetaPrior(alpha, beta)

    @pytest.mark.parametrize("seed", [1.5, 3.0, "3", None])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(DomainError, match="seed must be an integer"):
            ConfidenceConfig(seed=seed, bootstrap_b=100)

    def test_any_integer_seed_is_taken_modulo_2_64(self, table8):
        def lower(seed):
            config = ConfidenceConfig(seed=seed, bootstrap_b=100)
            return bootstrap_ci(table8, 0.5, "difference", config).lower

        assert lower(-3) == lower(2**64 - 3)
        assert lower(2**64 + 5) == lower(np.int64(5)) == lower(5)
        assert type(ConfidenceConfig(seed=np.int64(5)).seed) is int
