import math
import statistics

import numpy as np
import pytest

from kappacmp.data_model import PairedCounts, apply_continuity_correction
from kappacmp.errors import DomainError, NonEstimableError
from kappacmp.inference import ConfidenceConfig, ConfidenceInterval, wald_ratio_ci
from kappacmp.kappa_core import AccuracyEstimates, accuracy_from_counts, kappa_pair
from kappacmp.numerics import RandomStream
from kappacmp.sample_size import plan_iteration, precision_reached, required_sample_size
import kappacmp.simulation as simulation
from kappacmp.simulation import build_scenario_from_kappas, sample_counts


def table7_scenario_accuracy():
    """True parameters of the kappas 0.2/0.8 (c=0.1, p=50%) planning scenario."""
    sc = build_scenario_from_kappas(0.21, 0.14, 0.81, 0.72, 0.5, 0.1, 0.5)
    acc = AccuracyEstimates(se1=sc.se1, sp1=sc.sp1, se2=sc.se2, sp2=sc.sp2,
                            p=sc.p, eps1=sc.eps1, eps0=sc.eps0)
    return sc, acc


class TestRequiredSampleSize:
    def test_worked_example_435(self, table8):
        acc = accuracy_from_counts(table8)
        kp = kappa_pair(acc, 0.9)
        assert required_sample_size(acc, kp, 0.10, 0.95) == 435

    def test_planning_scenario_published_sizes(self):
        _, acc = table7_scenario_accuracy()
        kp = kappa_pair(acc, 0.1)
        assert abs(required_sample_size(acc, kp, 0.05) - 3066) <= 1
        assert abs(required_sample_size(acc, kp, 0.10) - 767) <= 1

    def test_nonincreasing_in_phi(self, table8):
        acc = accuracy_from_counts(table8)
        kp = kappa_pair(acc, 0.9)
        sizes = [required_sample_size(acc, kp, phi) for phi in
                 (0.02, 0.05, 0.10, 0.20, 0.50)]
        assert sizes == sorted(sizes, reverse=True)

    def test_planned_n_delivers_its_precision(self):
        # 4000 seeded samples at the planned n = 767 (c = 0.1, phi = 0.10):
        # the Wald-ratio half-width is below phi about half the time, so its
        # median lies within 2% of phi (0.0999 at seed 0), and the interval
        # keeps its 95% coverage to within 4 standard errors
        sc, acc = table7_scenario_accuracy()
        phi, replicates = 0.10, 4000
        n = required_sample_size(acc, kappa_pair(acc, sc.c), phi)
        assert (n, sc.c) == (767, 0.1)
        redraws, covered, lengths = simulation._run_range(
            (sc, n, ("wald-ratio",), ConfidenceConfig(seed=0), 0, replicates, False))
        assert redraws == 0 and len(lengths[0]) == replicates
        assert statistics.median(lengths[0]) / 2 == pytest.approx(phi, rel=0.02)
        cp = covered[0] / replicates
        assert abs(cp - 0.95) <= 4 * math.sqrt(0.95 * 0.05 / replicates)

    def test_inverse_square_scaling(self, table8):
        acc = accuracy_from_counts(table8)
        kp = kappa_pair(acc, 0.9)
        n1 = required_sample_size(acc, kp, 0.05)
        n2 = required_sample_size(acc, kp, 0.10)
        assert n1 == pytest.approx(4 * n2, abs=4)

    def test_identity_with_variance(self, table8):
        # z^2 * Var(theta_hat at the returned n) / phi^2 must give back ~n
        acc = accuracy_from_counts(table8)
        kp = kappa_pair(acc, 0.9)
        from kappacmp.inference import kappa_covariance
        phi = 0.08
        n = required_sample_size(acc, kp, phi)
        var_at_n = kappa_covariance(acc, kp, n).var_theta
        z = ConfidenceConfig().z
        assert z * z * var_at_n * n / (phi * phi) == pytest.approx(n, abs=1.0)

    def test_domain(self, table8):
        acc = accuracy_from_counts(table8)
        kp = kappa_pair(acc, 0.9)
        with pytest.raises(DomainError):
            required_sample_size(acc, kp, 0.0)

    def test_nan_precision_rejected(self, table8):
        acc = accuracy_from_counts(table8)
        for phi in (math.nan, math.inf):
            with pytest.raises(DomainError,
                               match=f"precision must be positive and finite, got {phi!r}"):
                required_sample_size(acc, kappa_pair(acc, 0.9), phi)

    @pytest.mark.parametrize("phi", [1e-200, 1e-160, 5e-324])
    def test_precision_too_small_to_size_rejected(self, table8, phi):
        # phi^2 underflows to 0 (1e-200) or the quotient overflows to inf (1e-160)
        acc = accuracy_from_counts(table8)
        with pytest.raises(DomainError, match=f"precision {phi!r} is too small"):
            required_sample_size(acc, kappa_pair(acc, 0.9), phi)
        with pytest.raises(DomainError, match=f"precision {phi!r} is too small"):
            plan_iteration(table8, 0.9, phi)

    def test_smallest_sizable_precision_gives_a_finite_size(self, table8):
        acc = accuracy_from_counts(table8)
        n = required_sample_size(acc, kappa_pair(acc, 0.9), 1e-150)
        assert isinstance(n, int) and 10 ** 299 < n < 10 ** 303


class TestPrecisionReached:
    def test_published_interval_misses_010(self):
        ci = ConfidenceInterval(target="ratio", method="wald",
                                lower=0.341, upper=0.582, point=0.462)
        assert ci.half_width == pytest.approx(0.1205, abs=1e-10)
        assert not precision_reached(ci, 0.10)

    def test_looser_target_reached(self):
        ci = ConfidenceInterval(target="ratio", method="wald",
                                lower=0.341, upper=0.582, point=0.462)
        assert precision_reached(ci, 0.13)

    def test_zero_width(self):
        ci = ConfidenceInterval(target="ratio", method="wald",
                                lower=0.5, upper=0.5, point=0.5)
        assert precision_reached(ci, 1e-9)

    def test_domain(self):
        ci = ConfidenceInterval(target="ratio", method="wald",
                                lower=0.3, upper=0.5, point=0.4)
        with pytest.raises(DomainError):
            precision_reached(ci, 0.0)

    def test_nan_precision_rejected(self):
        ci = ConfidenceInterval(target="ratio", method="wald",
                                lower=0.3, upper=0.5, point=0.4)
        for phi in (math.nan, math.inf):
            with pytest.raises(DomainError,
                               match=f"precision must be positive and finite, got {phi!r}"):
                precision_reached(ci, phi)


class TestPlanIteration:
    def test_worked_example_add_135(self, table8):
        plan = plan_iteration(table8, 0.9, 0.10)
        assert not plan.achieved
        assert plan.n_required == 435
        assert plan.pilot_n == 300
        assert plan.additional_needed == 135
        assert plan.warnings == ()  # interval excludes 1, planning is sensible

    def test_worked_example_achieved_at_013(self, table8):
        plan = plan_iteration(table8, 0.9, 0.13)
        assert plan.achieved
        assert plan.n_required == 300
        assert plan.additional_needed == 0

    def test_required_exceeds_pilot_when_not_achieved(self, table8):
        for phi in (0.02, 0.06, 0.11):
            plan = plan_iteration(table8, 0.9, phi)
            if not plan.achieved:
                assert plan.n_required > plan.pilot_n

    def test_small_pilot_gets_correction(self):
        counts = PairedCounts(10, 2, 6, 4, 2, 1, 8, 30)  # n = 63 < 100
        plan = plan_iteration(counts, 0.5, 0.05)
        assert plan.corrected
        manual = wald_ratio_ci(apply_continuity_correction(counts), 0.5)
        assert plan.ci.lower == pytest.approx(manual.lower, abs=1e-15)
        uncorrected = plan_iteration(counts, 0.5, 0.05, correct=False)
        assert not uncorrected.corrected

    def test_auto_leaves_an_empty_stratum_uncorrected(self):
        counts = PairedCounts(5, 3, 2, 1, 0, 0, 0, 0)  # n = 11, no healthy subjects
        with pytest.raises(NonEstimableError):
            plan_iteration(counts, 0.5, 0.1)
        assert plan_iteration(counts, 0.5, 0.1, correct=True).corrected

    def test_conf_comes_from_the_config(self, table8):
        plan = plan_iteration(table8, 0.9, 0.10, config=ConfidenceConfig(conf=0.9))
        assert plan.conf == 0.9
        assert plan.ci == wald_ratio_ci(table8, 0.9, ConfidenceConfig(conf=0.9))
        with pytest.raises(TypeError):
            plan_iteration(table8, 0.9, 0.10, 0.9)

    def test_interval_containing_one_warns(self, table8):
        plan = plan_iteration(table8, 0.2, 0.05)  # ratio CI straddles 1 at c = 0.2
        assert plan.ci.contains(1.0)
        assert plan.warnings
        assert plan.n_required > 0  # computation still returned

    def test_swap_transformation_equivalence(self, table8):
        # planning for theta > 1 with precision phi' equals planning on the
        # swapped table with phi = theta_swapped^2 * phi'
        swapped = table8.swap_tests()
        acc = accuracy_from_counts(table8)
        acc_sw = accuracy_from_counts(swapped)
        kp = kappa_pair(acc, 0.9)
        kp_sw = kappa_pair(acc_sw, 0.9)
        assert kp_sw.theta > 1.0
        phi_prime = 0.47  # precision wanted for the >1 ratio
        direct = required_sample_size(acc_sw, kp_sw, phi_prime)
        transformed = required_sample_size(acc, kp, kp.theta ** 2 * phi_prime)
        assert abs(direct - transformed) <= 1

    def test_achieving_probability_reasonable(self):
        # drawing samples of the planned size reaches the precision in at
        # least ~half the draws (expected-width calibration, weak bound)
        scenario, acc = table7_scenario_accuracy()
        kp = kappa_pair(acc, 0.1)
        phi = 0.10
        n = required_sample_size(acc, kp, phi)
        stream = RandomStream(2024, 0)
        hits = 0
        rounds = 200
        for _ in range(rounds):
            counts = sample_counts(scenario, n, stream)
            ci = wald_ratio_ci(counts, 0.1)
            hits += precision_reached(ci, phi)
        assert hits / rounds >= 0.30

    def test_pilot_choice_has_small_effect(self):
        # recomputing the sample size from pilots of the planned size is
        # nearly unbiased (published relative bias is far below 3%)
        scenario, acc = table7_scenario_accuracy()
        kp = kappa_pair(acc, 0.1)
        n = required_sample_size(acc, kp, 0.10)
        assert abs(n - 767) <= 1
        stream = RandomStream(501, 0)
        sizes = []
        for _ in range(2000):
            counts = sample_counts(scenario, n, stream)
            est = accuracy_from_counts(counts)
            sizes.append(required_sample_size(est, kappa_pair(est, 0.1), 0.10))
        relative_bias = (np.mean(sizes) - n) / n
        assert abs(relative_bias) < 0.03
