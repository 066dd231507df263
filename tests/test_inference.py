import hashlib
import math
import warnings

import numpy as np
import pytest

import kappacmp.inference as inference
from conftest import random_accuracies, random_counts
from kappacmp.cli import DEFAULT_C_GRID
from kappacmp.data_model import PairedCounts, apply_continuity_correction
from kappacmp.errors import (
    BootstrapFailedError,
    DegenerateKappaError,
    DomainError,
    FiellerInvalidError,
    InversionUndefinedError,
    LogIntervalError,
    NonEstimableError,
)
from kappacmp.inference import (
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
    invert_ratio_ci,
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
    empirical_quantile,
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
                test = bloch_test(counts, 0.3, config)
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
    skipped, as _target_stats skips them.
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


class _HandBuiltTables:
    """Stands in for BootstrapTables with fixed coefficient rows (A1, B1, N1, A2, B2, N2)."""

    def __init__(self, counts, rows):
        self.counts = counts
        self.columns = tuple(zip(*rows))

    def coefficients(self, count):
        return self.columns


class _HandBuiltDraws:
    """Stands in for PosteriorDraws with fixed coefficient rows (A1, B1, N1, A2, B2, N2)."""

    def __init__(self, counts, config, rows):
        self.counts, self.priors, self.m = counts, config.priors, config.bayes_m
        self.columns = tuple(zip(*rows))

    def coefficients(self):
        return self.columns


class TestSharedDraws:
    @pytest.mark.parametrize("name, counts", [("table8", PairedCounts(41, 0, 40, 8, 5, 1, 24, 181)),
                                              ("sparse", SPARSE)])
    def test_shared_objects_match_fresh_calls_and_recorded_digest(self, name, counts):
        tables = BootstrapTables(counts, RandomStream(SHARED_CONFIG.seed, inference.BOOTSTRAP_STREAM))
        draws = PosteriorDraws(counts, SHARED_CONFIG.priors, SHARED_CONFIG.bayes_m,
                               RandomStream(SHARED_CONFIG.seed, inference.BAYES_STREAM))
        shared = _interval_lines(counts, tables, draws)
        assert shared == _interval_lines(counts)
        assert hashlib.sha256(shared.encode()).hexdigest() == RECORDED_DIGESTS[name]

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
        tables = _HandBuiltTables(table8, [(1.0, 1.0, k1, 1.0, 1.0, 0.0) for k1 in stats])
        assert inference._target_stats(tables.columns, 0.5, False) == stats
        ci = bootstrap_ci(table8, 0.5, "difference", config, tables)
        assert stats.count(point) == 40

        def bounds(a_count):
            z0 = normal_quantile(a_count / 100)
            return (empirical_quantile(stats, normal_cdf(2.0 * z0 - config.z)),
                    empirical_quantile(stats, normal_cdf(2.0 * z0 + config.z)))

        assert (ci.lower, ci.upper) == bounds(30)
        assert (ci.lower, ci.upper) != bounds(70)  # ties counted as below

    def test_corrected_table_resamples_n_plus_4_from_corrected_proportions(self):
        raw = PairedCounts(3, 1, 2, 4, 0, 5, 1, 24)  # n = 40
        corrected = apply_continuity_correction(raw)
        tables = BootstrapTables(corrected, RandomStream(8, 1))
        assert tables.size == 44
        assert tables.probs == [(cell + 0.5) / 44 for cell in raw.cells()]
        stream = RandomStream(8, 1)
        accuracies = []
        for _ in range(50):
            sample = sample_multinomial([(cell + 0.5) / 44 for cell in raw.cells()], 44, stream)
            assert sum(sample) == 44
            accuracies.append(accuracy_from_counts(PairedCounts(*sample)))
        for ratio in (False, True):
            expected = _reference_stats(accuracies, 0.3, ratio)
            assert len(expected) > 40
            got = inference._target_stats(tables.coefficients(50), 0.3, ratio, 0, 50)
            assert _bits(got) == _bits(expected)
        assert tables._stream._state == stream._state

    @pytest.mark.parametrize("counts", [PairedCounts(41, 0, 40, 8, 5, 1, 24, 181), SPARSE,
                                        PairedCounts(1, 0, 0, 0, 0, 0, 2, 1)])
    def test_coefficients_match_those_of_accuracy_estimates(self, counts):
        # the old route: a PairedCounts and an AccuracyEstimates per resample
        tables = BootstrapTables(counts, RandomStream(4, 1))
        stream = RandomStream(4, 1)
        probs = [cell / counts.n for cell in counts.cells()]
        drawn = []
        for _ in range(500):
            table = PairedCounts(*sample_multinomial(probs, int(round(counts.n)), stream))
            if table.s <= 0 or table.r <= 0:
                drawn.append(None)
            else:
                acc = accuracy_from_counts(table)
                drawn.append((acc.se1, acc.sp1, acc.se2, acc.sp2, acc.p))
        expected = inference._coefficient_columns()
        inference._add_coefficients(expected, drawn)
        assert tables.coefficients(500) == expected
        assert tables._stream._state == stream._state

    def test_empty_table_cannot_be_resampled(self):
        with pytest.raises(NonEstimableError):
            BootstrapTables(PairedCounts(0, 0, 0, 0, 0, 0, 0, 0), RandomStream(0, 1))

    def test_tables_of_another_table_rejected(self, table8):
        tables = BootstrapTables(SPARSE, RandomStream(0, 1))
        with pytest.raises(DomainError):
            bootstrap_ci(table8, 0.5, "difference", SHARED_CONFIG, tables)

    def test_draws_of_another_configuration_rejected(self, table8):
        draws = PosteriorDraws(table8, SHARED_CONFIG.priors, 2000, RandomStream(0, 2))
        with pytest.raises(DomainError):
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
        stream = RandomStream(SHARED_CONFIG.seed, inference.BAYES_STREAM)
        params = inference._posterior_params(counts, priors)
        accuracies = [AccuracyEstimates(*(sample_beta(a, b, stream) for a, b in params))
                      for _ in range(m)]
        draws = PosteriorDraws(counts, priors, m,
                               RandomStream(SHARED_CONFIG.seed, inference.BAYES_STREAM))
        for c in (0.0, 0.25, 0.5, 0.9, 1.0):
            for ratio in (False, True):
                expected = _reference_stats(accuracies, c, ratio)
                assert len(expected) == m
                got = inference._target_stats(draws.coefficients(), c, ratio)
                assert _bits(got) == _bits(expected)
        assert (draws._stream._state, draws._stream._spare_gauss) == (stream._state,
                                                                      stream._spare_gauss)

    def test_bayesian_rejects_weighting_index_outside_unit_interval(self, table8):
        with pytest.raises(DomainError):
            bayesian_ci(table8, 1.5, "difference", SHARED_CONFIG)

    def test_bayesian_warns_with_the_excluded_draw_count(self, table8):
        config = ConfidenceConfig(bayes_m=1000)
        clean = [(0.2, 0.3, 0.1 + i / 2000, 0.25, 0.35, 0.05 + i / 4000) for i in range(998)]
        zero_denominator = (0.0, 0.0, 0.1, 0.25, 0.35, 0.05)
        zero_kappa2 = (0.2, 0.3, 0.1, 0.25, 0.35, 0.0)
        draws = _HandBuiltDraws(table8, config, [zero_denominator, zero_kappa2] + clean)
        with pytest.warns(UserWarning, match="^1 of 1000 posterior draws"):
            bayesian_ci(table8, 0.5, "difference", config, draws)
        with pytest.warns(UserWarning, match="^2 of 1000 posterior draws"):
            bayesian_ci(table8, 0.5, "ratio", config, draws)
        draws = _HandBuiltDraws(table8, config, clean + clean[:2])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for target in ("difference", "ratio"):
                bayesian_ci(table8, 0.5, target, config, draws)


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

    def test_closed_form_coverage_computes_one_covariance_per_replicate(self, covariance_calls):
        sc = build_scenario_from_kappas(0.3, 0.6, 0.8, 0.8, 0.25, 0.5, 0.5)
        coverage_study(sc, 200, 100, ["wald-diff", "wald-ratio", "log-ratio", "fieller-ratio"],
                       ConfidenceConfig(seed=2))
        assert len(covariance_calls) == 100

    def test_one_table_at_one_c_shares_the_analysis(self, table8, covariance_calls):
        results = [f(table8, 0.5) for f in CLOSED_FORM]
        bootstrap_ci(table8, 0.5, "ratio", SHARED_CONFIG)
        assert len(covariance_calls) == 1
        assert results == [f(table8, 0.5) for f in CLOSED_FORM]
        assert len(covariance_calls) == 1

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
        # bit for bit, or the same error and message, on tiny, sparse,
        # corrected and non-finite tables
        rng = np.random.RandomState(31)
        tables = [PairedCounts(*rng.randint(0, high, size=8))
                  for high in (2, 4, 30, 400) for _ in range(40)]
        tables += [apply_continuity_correction(t) for t in tables[:40]]
        tables += [YOUDEN_ZERO, PairedCounts(math.inf, 1, 1, 1, 1, 1, 1, 1),
                   PairedCounts(1, 1, 1, 1, 1, 1, 1, math.inf),
                   PairedCounts(1e300, 1e300, 1, 1, 1, 1, 1, 1)]

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
                assert outcome(lambda: inference._analysis(counts, c)) == expected
                kinds.add(expected[0] if isinstance(expected[0], type) else "ok")
        assert kinds == {"ok", DomainError, NonEstimableError, DegenerateKappaError}

    def test_failed_analysis_raises_from_every_closed_form_method(self, table8, covariance_calls):
        wald_diff_ci(table8, 0.5)
        for _ in range(2):
            for f in CLOSED_FORM:
                with pytest.raises(DegenerateKappaError):
                    f(YOUDEN_ZERO, 0.5)
        assert len(covariance_calls) == 1 + 2 * len(CLOSED_FORM)


class TestInversion:
    def test_wald_scaled_inversion(self, table8):
        acc = accuracy_from_counts(table8)
        theta = kappa_pair(acc, 0.9).theta
        ci = wald_ratio_ci(table8, 0.9)
        inv = invert_ratio_ci(ci, theta)
        assert inv.target == "inverse-ratio"
        assert inv.lower == pytest.approx(ci.lower / theta ** 2, abs=1e-15)
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
        inv = invert_ratio_ci(fieller_ratio_ci(table8, 0.9), theta)
        # direct reciprocal arithmetic on the published bounds
        assert inv.lower == pytest.approx(1 / 0.584, abs=4e-3)
        assert inv.upper == pytest.approx(1 / 0.342, abs=4e-3)

    def test_symmetric_log_interval_maps_to_itself(self):
        ci = ConfidenceInterval(target="ratio", method="logarithmic",
                                lower=1 / 1.6, upper=1.6, point=1.0)
        inv = invert_ratio_ci(ci, 1.0)
        assert inv.lower == pytest.approx(ci.lower, abs=1e-15)
        assert inv.upper == pytest.approx(ci.upper, abs=1e-15)

    def test_straddling_zero_rejected(self):
        ci = ConfidenceInterval(target="ratio", method="fieller",
                                lower=-0.2, upper=0.4, point=0.1)
        with pytest.raises(InversionUndefinedError):
            invert_ratio_ci(ci, 0.1)

    def test_only_ratio_targets(self, table8):
        ci = wald_diff_ci(table8, 0.5)
        with pytest.raises(DomainError):
            invert_ratio_ci(ci, 1.0)

    @pytest.mark.parametrize("method", ["logarithmic", "fieller", "bootstrap-bc",
                                        "bayesian-quantile"])
    def test_non_wald_inversion_is_the_plain_reciprocal(self, method):
        ci = ConfidenceInterval(target="ratio", method=method, lower=0.3, upper=0.7,
                                point=0.5)
        assert invert_ratio_ci(ci, 0.5) == reciprocal_ratio_ci(ci, 0.5)
        assert invert_ratio_ci(ci, 0.0) == reciprocal_ratio_ci(ci, 0.0)
        straddling = ConfidenceInterval(target="ratio", method=method, lower=-0.1,
                                        upper=0.7, point=0.5)
        with pytest.raises(InversionUndefinedError):
            invert_ratio_ci(straddling, 0.5)


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
        with pytest.raises(DomainError):
            BetaPrior(0.0, 1.0)
