import numpy as np
import pytest

from conftest import random_accuracies
from kappacmp.data_model import PairedCounts
from kappacmp.errors import (
    DegenerateKappaError,
    DomainError,
    InfeasibleScenarioError,
    NonEstimableError,
)
from kappacmp.kappa_core import (
    AccuracyEstimates,
    accuracy_from_counts,
    accuracy_from_kappa_pair,
    accuracy_values,
    compare_over_range,
    crossover_index,
    kappa_curve,
    kappa_pair,
    render_curve,
    weighted_kappa,
)

FIG1 = dict(se1=0.80, sp1=0.95, se2=0.90, sp2=0.85)


def chance_corrected_pair(se, sp, p):
    """Independent route to (kappa(0), kappa(1)) from the closed forms."""
    q = 1.0 - p
    big_q = p * se + q * (1 - sp)
    return (sp - (1 - big_q)) / big_q, (se - big_q) / (1 - big_q)


class TestAccuracyFromCounts:
    def test_table8_estimates(self, table8):
        acc = accuracy_from_counts(table8)
        assert round(acc.se1, 4) == 0.4607
        assert round(acc.sp1, 4) == 0.9716
        assert round(acc.se2, 4) == 0.9101
        assert round(acc.sp2, 4) == 0.8626

    def test_table8_prevalence(self, table8):
        assert accuracy_from_counts(table8).p == pytest.approx(89 / 300, abs=1e-15)

    def test_perfectly_dependent_tests(self):
        counts = PairedCounts(5, 0, 0, 5, 1, 1, 1, 1)
        acc = accuracy_from_counts(counts)
        assert acc.se1 == 0.5
        assert acc.eps1 == pytest.approx(acc.se1 * (1 - acc.se1), abs=1e-15)
        assert acc.eps1 == 0.25

    def test_table8_rtpf_rfpf(self, table8):
        acc = accuracy_from_counts(table8)
        assert round(acc.rtpf, 3) == 0.506
        assert round(acc.rfpf, 3) == 0.207

    def test_relative_true_positive_fraction_of_two_zero_sensitivities_is_one(self):
        assert AccuracyEstimates(0, 0.5, 0, 0.5, 0.5).rtpf == 1.0

    def test_non_estimable(self):
        with pytest.raises(NonEstimableError):
            accuracy_from_counts(PairedCounts(1, 2, 3, 4, 0, 0, 0, 0))
        with pytest.raises(NonEstimableError):
            accuracy_from_counts(PairedCounts(0, 0, 0, 0, 1, 2, 3, 4))

    def test_accuracy_values_refuses_a_proportion_out_of_range(self):
        # a negative cell puts se1 = 2.0 and se2 = -1.0 while p stays in (0, 1)
        with pytest.raises(DomainError, match=r"^se1 must be in \[0, 1\], got 2.0$"):
            accuracy_values(1, 3, -3, 1, 1, 0, 0, 1)
        with pytest.raises(DomainError, match=r"^sp2 must be in \[0, 1\], got -0.5$"):
            accuracy_values(1, 0, 0, 1, 2, -1, 1, 0)

    def test_eps_flags(self, table8):
        acc = accuracy_from_counts(table8)
        assert acc.eps_within_bounds
        negative = accuracy_from_counts(PairedCounts(1, 5, 5, 1, 1, 5, 5, 1))
        assert negative.eps1 < 0
        assert not negative.eps_within_bounds


class TestWeightedKappa:
    def test_published_scenario_value(self):
        assert weighted_kappa(0.484, 0.684, 0.50, 0.1) == pytest.approx(0.200, abs=5e-4)

    def test_zero_youden_gives_zero(self):
        for p in (0.1, 0.5, 0.9):
            for c in (0.0, 0.3, 1.0):
                assert weighted_kappa(0.6, 0.4, p, c) == pytest.approx(0.0, abs=1e-15)

    def test_table8_value_at_c09(self):
        assert weighted_kappa(0.4607, 0.9716, 0.2967, 0.9) == pytest.approx(0.382, abs=5e-4)

    def test_cohen_case_from_counts(self, table8):
        acc = accuracy_from_counts(table8)
        kp = kappa_pair(acc, 0.5)
        assert round(kp.kappa1, 3) == 0.501
        assert round(kp.kappa2, 3) == 0.723

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            weighted_kappa(0.8, 0.9, 0.0, 0.5)
        with pytest.raises(DomainError):
            weighted_kappa(0.8, 0.9, 0.5, 1.5)
        with pytest.raises(DomainError):
            weighted_kappa(1.2, 0.9, 0.5, 0.5)

    def test_degenerate_denominator(self):
        # every subject tests positive: Q = 1, so kappa(1) is undefined
        with pytest.raises(DegenerateKappaError):
            weighted_kappa(1.0, 0.0, 0.5, 1.0)

    def test_weighted_average_identity(self):
        # kappa(c) must be the Q-weighted average of kappa(0) and kappa(1)
        rng = np.random.RandomState(11)
        for se, sp, p in random_accuracies(rng, 200)[:, [0, 1, 4]]:
            k0, k1 = chance_corrected_pair(se, sp, p)
            q = 1 - p
            big_q = p * se + q * (1 - sp)
            for c in (0.0, 0.1, 0.37, 0.5, 0.9, 1.0):
                w1 = p * c * (1 - big_q)
                w0 = q * (1 - c) * big_q
                expected = (w1 * k1 + w0 * k0) / (w1 + w0)
                assert weighted_kappa(se, sp, p, c) == pytest.approx(expected, abs=1e-12)

    def test_prevalence_monotonicity_at_endpoints(self):
        # kappa(0) = 1 - (1-Sp)/Q is increasing in p whenever Y > 0;
        # kappa(1) = 1 - (1-Se)/(1-Q) is decreasing. For interior c the
        # coefficient is unimodal in p, so only the endpoint laws are global.
        rng = np.random.RandomState(12)
        grid = np.arange(0.01, 1.0, 0.01)
        for se, sp in random_accuracies(rng, 50)[:, [0, 1]]:
            at0 = [weighted_kappa(se, sp, p, 0.0) for p in grid]
            at1 = [weighted_kappa(se, sp, p, 1.0) for p in grid]
            assert all(b >= a - 1e-12 for a, b in zip(at0, at0[1:]))
            assert all(b <= a + 1e-12 for a, b in zip(at1, at1[1:]))

    def test_prevalence_monotonicity_fails_for_interior_c(self):
        # regression documenting why the stronger "always increasing in p"
        # reading is not asserted: a symmetric mediocre test peaks at p = 0.5
        values = [weighted_kappa(0.55, 0.55, p, 0.5) for p in (0.2, 0.5, 0.9)]
        assert values[0] < values[1]
        assert values[2] < values[1]


class TestAccuracyFromKappaPair:
    def test_known_inversion(self):
        # oracle: forward kappa(0), kappa(1) from the published accuracies
        k0, k1 = chance_corrected_pair(0.484, 0.684, 0.5)
        assert k0 == pytest.approx(0.21, abs=1e-12)
        assert k1 == pytest.approx(0.14, abs=1e-12)
        se, sp = accuracy_from_kappa_pair(0.21, 0.14, 0.5)
        assert se == pytest.approx(0.484, abs=1e-12)
        assert sp == pytest.approx(0.684, abs=1e-12)

    def test_perfect_test_fixed_point(self):
        for p in (0.1, 0.5, 0.77):
            assert accuracy_from_kappa_pair(1.0, 1.0, p) == pytest.approx((1.0, 1.0))

    def test_round_trip(self):
        rng = np.random.RandomState(13)
        for se, sp, p in random_accuracies(rng, 500)[:, [0, 1, 4]]:
            k0, k1 = chance_corrected_pair(se, sp, p)
            if not (0 < k0 <= 1 and 0 < k1 <= 1):
                continue
            se2, sp2 = accuracy_from_kappa_pair(k0, k1, p)
            assert se2 == pytest.approx(se, abs=1e-12)
            assert sp2 == pytest.approx(sp, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            accuracy_from_kappa_pair(0.0, 0.5, 0.5)
        with pytest.raises(DomainError):
            accuracy_from_kappa_pair(0.5, 1.2, 0.5)

    def test_vanishing_youden_rejected(self):
        with pytest.raises(InfeasibleScenarioError):
            accuracy_from_kappa_pair(1e-12, 1e-12, 0.5)


class TestCrossoverIndex:
    def test_table8(self, table8):
        acc = accuracy_from_counts(table8)
        assert round(crossover_index(acc), 4) == 0.1902

    @pytest.mark.parametrize("p,expected", [(0.05, 0.95), (0.25, 0.75),
                                            (0.50, 0.50), (0.75, 0.25)])
    def test_prevalence_sweep(self, p, expected):
        acc = AccuracyEstimates(p=p, **FIG1)
        assert crossover_index(acc) == pytest.approx(expected, abs=1e-12)

    def test_undefined_when_denominator_vanishes(self):
        # identical tests: D1 = D2 = 0
        acc = AccuracyEstimates(se1=0.8, sp1=0.9, se2=0.8, sp2=0.9, p=0.3)
        assert crossover_index(acc) is None

    def test_requires_informative_tests(self):
        acc = AccuracyEstimates(se1=0.5, sp1=0.5, se2=0.8, sp2=0.9, p=0.3)
        with pytest.raises(DegenerateKappaError):
            crossover_index(acc)


def oracle_relations(acc, grid, atol=1e-9):
    """Brute-force ordering of the two kappa curves on a c grid (numpy route)."""
    q = 1 - acc.p
    se = np.array([acc.se1, acc.se2])
    sp = np.array([acc.sp1, acc.sp2])
    y = se + sp - 1
    big_q = acc.p * se + q * (1 - sp)
    c = grid[:, None]
    kappa = acc.p * q * y / (acc.p * (1 - big_q) * c + q * big_q * (1 - c))
    diff = kappa[:, 0] - kappa[:, 1]
    out = np.where(diff > atol, ">", np.where(diff < -atol, "<", "="))
    return out, diff


class TestCompareOverRange:
    def test_table8_rule_c_with_crossover(self, table8):
        acc = accuracy_from_counts(table8)
        verdict = compare_over_range(acc)
        assert verdict.rule == "c3"
        assert round(verdict.c_prime, 4) == 0.1902
        assert verdict.relation(0.1) == ">"
        assert verdict.relation(0.1902) in (">", "<", "=")  # knife-edge at rounding
        assert verdict.relation(0.19021) == "<"
        assert verdict.relation(1.0) == "<"
        assert not verdict.boundary

    def test_identical_tests_equal_everywhere(self):
        acc = AccuracyEstimates(se1=0.8, sp1=0.9, se2=0.8, sp2=0.9, p=0.3)
        verdict = compare_over_range(acc)
        assert verdict.rule == "equal-everywhere"
        for c in (0.0, 0.33, 1.0):
            assert verdict.relation(c) == "="
            assert verdict.nu(c) == 0.0

    def test_rule_a_dominance(self):
        acc = AccuracyEstimates(se1=0.9, sp1=0.9, se2=0.7, sp2=0.85, p=0.4)
        verdict = compare_over_range(acc)
        assert verdict.rule == "a"
        for c in np.linspace(0, 1, 11):
            assert verdict.relation(c) == ">"

    def test_against_grid_oracle(self):
        grid = np.arange(0, 1.0001, 0.001)
        acc = AccuracyEstimates(se1=0.9, sp1=0.9, se2=0.7, sp2=0.95, p=0.37)
        verdict = compare_over_range(acc)
        relations, diff = oracle_relations(acc, grid)
        for c, rel, d in zip(grid, relations, diff):
            if rel == "=":
                assert abs(verdict.nu(c)) < 1e-6 or abs(d) < 1e-9
            else:
                assert verdict.relation(c) == rel

    def test_random_scenarios_against_oracle(self):
        rng = np.random.RandomState(14)
        grid = np.arange(0, 1.0001, 0.001)
        for row in random_accuracies(rng, 500):
            acc = AccuracyEstimates(se1=row[0], sp1=row[1], se2=row[2],
                                    sp2=row[3], p=row[4])
            verdict = compare_over_range(acc)
            relations, diff = oracle_relations(acc, grid)
            strict = relations != "="
            for c, rel in zip(grid[strict], relations[strict]):
                assert verdict.relation(c) == rel, (row, c)


class TestKappaCurve:
    def test_crossing_at_half_for_balanced_prevalence(self):
        acc = AccuracyEstimates(p=0.5, **FIG1)
        rows = kappa_curve(acc, [0.25, 0.5, 0.75])
        assert rows[0][1] > rows[0][2]
        assert rows[1][1] == pytest.approx(rows[1][2], abs=1e-12)
        assert rows[2][1] < rows[2][2]

    def test_single_point_at_crossover(self, table8):
        acc = accuracy_from_counts(table8)
        c_prime = crossover_index(acc)
        ((_, k1, k2),) = kappa_curve(acc, [c_prime])
        assert k1 == pytest.approx(k2, abs=1e-10)

    def test_empty_grid(self, table8):
        assert kappa_curve(accuracy_from_counts(table8), []) == []

    def test_render_full_precision(self):
        acc = AccuracyEstimates(p=0.5, **FIG1)
        text = render_curve(kappa_curve(acc, [0.0, 1 / 3, 1.0]))
        lines = text.strip().split("\n")
        assert lines[0] == "c,kappa1,kappa2"
        assert len(lines) == 4
        c, k1, _ = lines[2].split(",")
        assert float(c) == pytest.approx(1 / 3, abs=1e-16)
        assert float(k1) == pytest.approx(weighted_kappa(0.8, 0.95, 0.5, 1 / 3), abs=1e-16)
