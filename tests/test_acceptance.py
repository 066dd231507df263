"""Acceptance suite: golden values, stochastic tolerances, property checks.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see them
on passing runs).
"""

import numpy as np

import kappacmp as kc
from conftest import random_accuracies
from kappacmp.data_model import PairedCounts
from kappacmp.errors import DegenerateKappaError
from kappacmp.inference import ConfidenceConfig
from kappacmp.kappa_core import AccuracyEstimates
from kappacmp.numerics import RandomStream

TABLE8 = PairedCounts(41, 0, 40, 8, 5, 1, 24, 181)

# c, kappa1, kappa2, delta, theta
POINT_ROWS = [
    (0.1, 0.726, 0.642, 0.084, 1.131),
    (0.1902, 0.659, 0.659, 0.0, 1.0),
    (0.2, 0.653, 0.661, -0.008, 0.988),
    (0.3, 0.593, 0.681, -0.088, 0.871),
    (0.4, 0.543, 0.701, -0.158, 0.775),
    (0.5, 0.501, 0.723, -0.222, 0.693),
    (0.6, 0.464, 0.747, -0.283, 0.621),
    (0.7, 0.433, 0.772, -0.339, 0.561),
    (0.8, 0.406, 0.799, -0.393, 0.508),
    (0.9, 0.382, 0.827, -0.445, 0.462),
]

# c -> (wald_diff, wald_ratio, log_ratio, fieller_ratio)
DETERMINISTIC_CIS = {
    0.1: ((-0.041, 0.208), (0.925, 1.335), (0.943, 1.355), (0.940, 1.357)),
    0.1902: ((-0.125, 0.125), (0.811, 1.189), (0.828, 1.208), (0.823, 1.206)),
    0.2: ((-0.133, 0.116), (0.800, 1.174), (0.817, 1.194), (0.812, 1.192)),
    0.3: ((-0.213, 0.037), (0.695, 1.046), (0.711, 1.065), (0.704, 1.059)),
    0.4: ((-0.283, -0.034), (0.609, 0.939), (0.625, 0.958), (0.615, 0.948)),
    0.5: ((-0.345, -0.100), (0.537, 0.847), (0.553, 0.866), (0.541, 0.854)),
    0.6: ((-0.402, -0.163), (0.476, 0.768), (0.492, 0.786), (0.479, 0.772)),
    0.7: ((-0.455, -0.223), (0.425, 0.698), (0.440, 0.716), (0.426, 0.701)),
    0.8: ((-0.506, -0.280), (0.380, 0.637), (0.395, 0.654), (0.381, 0.639)),
    0.9: ((-0.557, -0.333), (0.341, 0.582), (0.356, 0.599), (0.342, 0.584)),
}

# c -> (boot_diff, bayes_diff, boot_ratio, bayes_ratio); None = not checked.
# The c=0.1 bootstrap rows are excluded: with B=2000 the bias-corrected
# quantiles of the long right tail of theta have a per-run standard error of
# about 0.013, so two independent runs (ours and the published one) differ by
# more than 0.02 about a third of the time regardless of implementation.
STOCHASTIC_CIS = {
    0.1: (None, (-0.080, 0.219), None, (0.883, 1.393)),
    0.5: ((-0.347, -0.100), (-0.357, -0.081), (0.541, 0.857), (0.525, 0.877)),
    0.9: ((-0.557, -0.329), (-0.561, -0.296), (0.347, 0.594), (0.339, 0.611)),
}

# published coverage rows: (scenario args, n, method, cp, al)
SCENARIO_1 = (0.21, 0.14, 0.81, 0.72, 0.5, 0.1, 0.5)   # kappas 0.2 / 0.8 at c=0.1
SCENARIO_4 = (0.3, 0.6, 0.8, 0.8, 0.25, 0.5, 0.5)      # kappas 0.4 / 0.8 at c=0.5
COVERAGE_ROWS = [
    (SCENARIO_1, 500, "wald-diff", 0.955, 0.214),
    (SCENARIO_1, 1000, "wald-ratio", 0.945, 0.175),
    (SCENARIO_4, 500, "wald-diff", 0.948, 0.171),
    (SCENARIO_4, 1000, "wald-diff", 0.945, 0.120),
    (SCENARIO_4, 500, "wald-ratio", 0.954, 0.196),
    (SCENARIO_4, 1000, "wald-ratio", 0.944, 0.137),
]
COVERAGE_SEED = 11


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status}{suffix}")
    assert ok, f"{criterion} failed{suffix}"


def test_criterion_1_point_estimates():
    """Table golden data: point estimates at every listed c, +-0.001.

    The published delta and theta columns are derived from the 3-decimal
    kappa columns (e.g. 0.543/0.701 = 0.7746 prints as 0.775 while the
    full-precision ratio is 0.7738), so they are checked against the
    differences/ratios of the printed kappas, which is how the table
    computed them; the kappa columns themselves are checked directly.
    """
    acc = kc.accuracy_from_counts(TABLE8)
    worst = 0.0
    for c, k1, k2, delta, theta in POINT_ROWS:
        # the printed derived columns are the rounded derived values
        assert round(k1 - k2, 3) == round(delta, 3)
        assert abs(round(k1 / k2, 3) - theta) <= 1e-3
        kp = kc.kappa_pair(acc, c)
        for got, want in ((kp.kappa1, k1), (kp.kappa2, k2),
                          (kp.delta, k1 - k2), (kp.theta, k1 / k2)):
            worst = max(worst, abs(got - want))
    report("criterion 1 (point estimates)", worst <= 1e-3, f"max |err| = {worst:.2e}")


def test_criterion_2_deterministic_intervals():
    """Wald diff, Wald ratio, logarithmic and Fieller bounds, +-0.001 each."""
    worst = 0.0
    for c, (wd, wr, lr, fr) in DETERMINISTIC_CIS.items():
        for want, ci in ((wd, kc.wald_diff_ci(TABLE8, c)),
                         (wr, kc.wald_ratio_ci(TABLE8, c)),
                         (lr, kc.log_ratio_ci(TABLE8, c)),
                         (fr, kc.fieller_ratio_ci(TABLE8, c))):
            worst = max(worst, abs(ci.lower - want[0]), abs(ci.upper - want[1]))
    report("criterion 2 (deterministic intervals)", worst <= 1e-3,
           f"max |err| = {worst:.2e}")


def test_criterion_3_stochastic_intervals():
    """Bootstrap (B=2000) and Bayesian (M=10000) bounds, +-0.02, 10 seeds."""
    worst = 0.0
    for seed in range(41, 51):  # fixed decade of independent seeds
        config = ConfidenceConfig(seed=seed)
        # one bootstrap set and one posterior per seed, as analyze draws them
        tables, draws = kc.analysis_draws(TABLE8, config)
        for c, (boot_d, bayes_d, boot_r, bayes_r) in STOCHASTIC_CIS.items():
            intervals = (
                (boot_d, lambda: kc.bootstrap_ci(TABLE8, c, "difference", config, tables)),
                (boot_r, lambda: kc.bootstrap_ci(TABLE8, c, "ratio", config, tables)),
                (bayes_d, lambda: kc.bayesian_ci(TABLE8, c, "difference", config, draws)),
                (bayes_r, lambda: kc.bayesian_ci(TABLE8, c, "ratio", config, draws)),
            )
            for want, build in intervals:
                if want is None:
                    continue
                ci = build()
                worst = max(worst, abs(ci.lower - want[0]), abs(ci.upper - want[1]))
    report("criterion 3 (stochastic intervals, 10 seeds)", worst <= 0.02,
           f"max |err| = {worst:.3f}")


def test_criterion_4_worked_values():
    """Accuracies, accuracy ratios and the crossover index at display precision."""
    acc = kc.accuracy_from_counts(TABLE8)
    checks = [
        (round(acc.se1 * 100, 2), 46.07),
        (round(acc.sp1 * 100, 2), 97.16),
        (round(acc.se2 * 100, 2), 91.01),
        (round(acc.sp2 * 100, 2), 86.26),
        (round(acc.rtpf, 3), 0.506),
        (round(acc.rfpf, 3), 0.207),
        (round(kc.crossover_index(acc), 4), 0.1902),
    ]
    ok = all(got == want for got, want in checks)
    report("criterion 4 (worked accuracy values)", ok, str(checks))


def test_criterion_5_sample_sizes():
    """n = 435 exactly; planning-scenario sizes 3066 and 767 within +-1."""
    acc = kc.accuracy_from_counts(TABLE8)
    n_worked = kc.required_sample_size(acc, kc.kappa_pair(acc, 0.9), 0.10, 0.95)
    scenario = kc.build_scenario_from_kappas(*SCENARIO_1)
    acc_true = AccuracyEstimates(se1=scenario.se1, sp1=scenario.sp1,
                                 se2=scenario.se2, sp2=scenario.sp2, p=scenario.p,
                                 eps1=scenario.eps1, eps0=scenario.eps0)
    kp_true = kc.kappa_pair(acc_true, 0.1)
    n_05 = kc.required_sample_size(acc_true, kp_true, 0.05)
    n_10 = kc.required_sample_size(acc_true, kp_true, 0.10)
    ok = n_worked == 435 and abs(n_05 - 3066) <= 1 and abs(n_10 - 767) <= 1
    report("criterion 5 (sample sizes)", ok, f"n = {n_worked}, {n_05}, {n_10}")


def test_criterion_6_coverage_desk_scale():
    """Published coverage/length rows reproduced at N=2000 (+-0.015 / +-0.01)."""
    config = ConfidenceConfig(seed=COVERAGE_SEED)
    details = []
    ok = True
    for args, n, method, pub_cp, pub_al in COVERAGE_ROWS:
        scenario = kc.build_scenario_from_kappas(*args)
        res, = kc.coverage_study(scenario, n, 2000, [method], config)
        good = abs(res.cp - pub_cp) <= 0.015 and abs(res.al - pub_al) <= 0.01
        ok = ok and good
        details.append(f"n={n} {method}: cp {res.cp:.3f}/{pub_cp}, al {res.al:.3f}/{pub_al}")
    report("criterion 6 (coverage at desk scale)", ok, "; ".join(details))


class TestCriterion7Properties:
    def test_weighted_average_identity_and_round_trip(self):
        # kappa(c) equals the weighted average of kappa(0) and kappa(1), and
        # inverting (kappa(0), kappa(1)) returns the accuracies, both to 1e-10
        rng = np.random.RandomState(71)
        rows = random_accuracies(rng, 10_000)
        cs = rng.uniform(0.0, 1.0, size=10_000)
        worst = 0.0
        for (se, sp, _, _, p), c in zip(rows, cs):
            q = 1 - p
            big_q = p * se + q * (1 - sp)
            k0 = (sp - (1 - big_q)) / big_q
            k1 = (se - big_q) / (1 - big_q)
            w1 = p * c * (1 - big_q)
            w0 = q * (1 - c) * big_q
            expected = (w1 * k1 + w0 * k0) / (w1 + w0)
            worst = max(worst, abs(kc.weighted_kappa(se, sp, p, c) - expected))
            if 0 < k0 <= 1 and 0 < k1 <= 1:
                se_back, sp_back = kc.accuracy_from_kappa_pair(k0, k1, p)
                worst = max(worst, abs(se_back - se), abs(sp_back - sp))
        report("criterion 7a (kappa identity + inversion round trip)",
               worst <= 1e-10, f"max |err| = {worst:.2e}")

    def test_ordering_verdict_against_grid_oracle(self):
        # brute-force evaluation of kappa1(c) - kappa2(c) on a 0.001 grid
        rng = np.random.RandomState(72)
        rows = random_accuracies(rng, 10_000)
        grid = np.arange(0.0, 1.0001, 0.001)
        disagreements = 0
        for se1, sp1, se2, sp2, p in rows:
            q = 1 - p
            q1 = p * se1 + q * (1 - sp1)
            q2 = p * se2 + q * (1 - sp2)
            kap1 = p * q * (se1 + sp1 - 1) / (p * (1 - q1) * grid + q * q1 * (1 - grid))
            kap2 = p * q * (se2 + sp2 - 1) / (p * (1 - q2) * grid + q * q2 * (1 - grid))
            diff = kap1 - kap2
            verdict = kc.compare_over_range(AccuracyEstimates(
                se1=se1, sp1=sp1, se2=se2, sp2=sp2, p=p))
            nu = (1 - grid) * verdict.nu0 + grid * verdict.nu1
            strict = np.abs(diff) > 1e-9
            disagreements += int(np.sum(np.sign(nu[strict]) != np.sign(diff[strict])))
        report("criterion 7b (ordering vs grid oracle)", disagreements == 0,
               f"{disagreements} disagreements on 10^4 scenarios")

    def test_gradients_against_finite_differences(self):
        rng = np.random.RandomState(73)
        rows = random_accuracies(rng, 1000)
        cs = rng.uniform(0.05, 0.95, size=1000)
        h = 1e-6
        worst = 0.0
        for (se, sp, _, _, p), c in zip(rows, cs):
            acc = AccuracyEstimates(se1=se, sp1=sp, se2=se, sp2=sp, p=p)
            kp = kc.kappa_pair(acc, c)
            cov = kc.kappa_covariance(acc, kp, 1.0)
            scale = kp.kappa1 / (p * (1 - p) * acc.y1)
            grads = (scale * cov.a[0][0], scale * cov.a[0][1], scale * cov.a[0][2])
            diffs = (
                (kc.weighted_kappa(se + h, sp, p, c) - kc.weighted_kappa(se - h, sp, p, c)) / (2 * h),
                (kc.weighted_kappa(se, sp + h, p, c) - kc.weighted_kappa(se, sp - h, p, c)) / (2 * h),
                (kc.weighted_kappa(se, sp, p + h, c) - kc.weighted_kappa(se, sp, p - h, c)) / (2 * h),
            )
            worst = max(worst, max(abs(g - d) for g, d in zip(grads, diffs)))
        report("criterion 7c (delta-method gradients)", worst <= 1e-5,
               f"max |err| = {worst:.2e}")

    def test_wald_bloch_duality(self):
        rng = np.random.RandomState(74)
        config = ConfidenceConfig()
        checked = 0
        holds = True
        while checked < 1000:
            probs = rng.dirichlet(np.ones(8))
            counts = PairedCounts(*rng.multinomial(150, probs))
            try:
                ci = kc.wald_diff_ci(counts, 0.4, config)
                test = kc.bloch_test(counts, 0.4)
            except (kc.NonEstimableError, DegenerateKappaError):
                continue
            holds = holds and (ci.contains(0.0) == (test.p_value >= config.alpha))
            checked += 1
        report("criterion 7d (Wald/Bloch duality)", holds, "1000 datasets")

    def test_scenario_two_route_consistency(self):
        rng = np.random.RandomState(75)
        rows = random_accuracies(rng, 10_000)
        worst_kappa = 0.0
        worst_sum = 0.0
        for se1, sp1, se2, sp2, p in rows:
            f = rng.uniform(0.0, 1.0)
            eps1_max, eps0_max = kc.dependence_bounds(se1, se2, sp1, sp2)
            sc = kc.scenario_probabilities(se1, sp1, se2, sp2, p,
                                           f * eps1_max, f * eps0_max, c=0.3)
            worst_sum = max(worst_sum, abs(sum(sc.pi) - 1.0))
            p11, p10, p01, p00, q11, q10, q01, q00 = sc.pi
            num1 = (p11 + p10) * (q01 + q00) - (p01 + p00) * (q10 + q11)
            den1 = (p * 0.3 * (p01 + p00 + q01 + q00)
                    + (1 - p) * 0.7 * (p11 + p10 + q11 + q10))
            num2 = (p11 + p01) * (q10 + q00) - (p10 + p00) * (q01 + q11)
            den2 = (p * 0.3 * (p10 + p00 + q10 + q00)
                    + (1 - p) * 0.7 * (p11 + p01 + q11 + q01))
            worst_kappa = max(worst_kappa, abs(sc.kappa1 - num1 / den1),
                              abs(sc.kappa2 - num2 / den2))
        ok = worst_kappa <= 1e-12 and worst_sum <= 1e-12
        report("criterion 7e (scenario two-route kappas)", ok,
               f"max kappa err {worst_kappa:.2e}, max sum err {worst_sum:.2e}")

    def test_sampler_determinism(self):
        streams = [RandomStream(123, 45) for _ in range(2)]
        seq = [[s.uniform() for _ in range(2000)] for s in streams]
        same_stream = seq[0] == seq[1]

        scenario = kc.build_scenario_from_kappas(*SCENARIO_4)
        config = ConfidenceConfig(seed=9)
        reports = []
        for jobs in (1, 3):
            res = kc.coverage_study(scenario, 60, 120, ["wald-diff", "wald-ratio"],
                                    config, jobs=jobs)
            reports.append(kc.render_coverage_report(res).encode())
        ok = same_stream and reports[0] == reports[1]
        report("criterion 7f (sampler determinism across runs and workers)", ok)


def test_criterion_8_failure_rule():
    """The quoted coverage entries classify exactly as bold (fail) or plain."""
    quoted = [(0.912, True), (0.937, False), (0.930, True),
              (0.955, False), (0.957, False)]
    ok = all(kc.evaluate_failure(cp, 0.95) is want for cp, want in quoted)
    try:
        kc.evaluate_failure(0.95, 0.90)
        ok = False
    except kc.UnsupportedNominalError:
        pass
    report("criterion 8 (failure rule)", ok)
