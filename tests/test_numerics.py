import math

import numpy as np
import pytest

from kappacmp.errors import DomainError
from kappacmp.numerics import (
    _GOLDEN,
    _INV_2_53,
    _MASK64,
    RandomStream,
    _mix64,
    empirical_quantile,
    normal_cdf,
    normal_quantile,
    sample_beta,
    sample_multinomial,
)


# -- independent oracle: normal CDF from the error-function Maclaurin series --

def erf_series(z: float) -> float:
    # erf(z) = 2/sqrt(pi) * sum (-1)^k z^(2k+1) / (k! (2k+1)); fine for |z| <= 3
    terms = []
    term = z
    k = 0
    while abs(term) > 1e-22 and k < 200:
        terms.append(term / (2 * k + 1))
        k += 1
        term *= -z * z / k
    return 2.0 / math.sqrt(math.pi) * math.fsum(terms)


def cdf_oracle(x: float) -> float:
    return 0.5 + 0.5 * erf_series(x / math.sqrt(2.0))


def quantile_oracle(q: float) -> float:
    lo, hi = -4.0, 4.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if cdf_oracle(mid) < q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestNormal:
    def test_quantile_at_0975_matches_series_oracle(self):
        expected = quantile_oracle(0.975)
        assert normal_quantile(0.975) == pytest.approx(expected, abs=1e-9)
        assert round(normal_quantile(0.975), 6) == 1.959964

    def test_quantile_median_is_zero(self):
        assert normal_quantile(0.5) == 0.0

    @pytest.mark.parametrize("q", [0.005, 0.025, 0.1, 0.3, 0.77, 0.95, 0.999])
    def test_quantile_matches_series_oracle(self, q):
        assert normal_quantile(q) == pytest.approx(quantile_oracle(q), abs=1e-10)

    def test_cdf_quantile_round_trip(self):
        for q in np.linspace(1e-8, 1 - 1e-8, 2001):
            assert abs(normal_cdf(normal_quantile(q)) - q) < 1e-12

    def test_cdf_symmetry(self):
        for x in np.linspace(-8, 8, 401):
            assert normal_cdf(-x) + normal_cdf(x) == pytest.approx(1.0, abs=1e-15)

    def test_cdf_matches_series_oracle(self):
        for x in np.linspace(-3, 3, 61):
            assert normal_cdf(x) == pytest.approx(cdf_oracle(x), abs=1e-12)

    def test_quantile_strictly_increasing(self):
        grid = np.linspace(1e-6, 1 - 1e-6, 10_000)
        values = [normal_quantile(q) for q in grid]
        assert all(a < b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("q", [0.0, 1.0, -0.2, 1.7])
    def test_quantile_domain(self, q):
        with pytest.raises(DomainError):
            normal_quantile(q)


class TestBeta:
    def test_uniform_mean(self):
        stream = RandomStream(12, 0)
        draws = [sample_beta(1.0, 1.0, stream) for _ in range(100_000)]
        assert np.mean(draws) == pytest.approx(0.5, abs=0.005)

    def test_concentration_at_huge_parameters(self):
        stream = RandomStream(13, 0)
        for _ in range(1000):
            assert abs(sample_beta(1e6, 1e6, stream) - 0.5) < 0.002

    def test_moments_beta_2_5(self):
        stream = RandomStream(14, 0)
        draws = np.array([sample_beta(2.0, 5.0, stream) for _ in range(100_000)])
        assert draws.mean() == pytest.approx(2 / 7, abs=0.005)
        assert draws.var() == pytest.approx(10 / 392, rel=0.10)

    def test_open_interval(self):
        stream = RandomStream(15, 0)
        for _ in range(2000):
            assert 0.0 < sample_beta(0.4, 0.7, stream) < 1.0

    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (1.0, 0.0), (-1.0, 2.0)])
    def test_domain(self, a, b):
        with pytest.raises(DomainError):
            sample_beta(a, b, RandomStream(0))


class TestMultinomial:
    def test_point_mass(self):
        stream = RandomStream(1, 0)
        pi = [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        assert sample_multinomial(pi, 17, stream) == [17, 0, 0, 0, 0, 0, 0, 0]

    def test_counts_sum_to_n(self):
        stream = RandomStream(2, 0)
        pi = [0.1, 0.2, 0.05, 0.15, 0.1, 0.1, 0.05, 0.25]
        for n in (0, 1, 7, 300, 4096):
            assert sum(sample_multinomial(pi, n, stream)) == n

    def test_cell_frequencies_match_probabilities(self):
        # binomial oracle: each empirical rate within 4 standard errors
        pi = [0.121, 0.009, 0.17, 0.2, 0.05, 0.15, 0.15, 0.15]
        n, draws = 300, 100_000
        stream = RandomStream(3, 0)
        totals = np.zeros(8)
        for _ in range(draws):
            totals += sample_multinomial(pi, n, stream)
        rates = totals / (n * draws)
        for rate, p in zip(rates, pi):
            se = math.sqrt(p * (1 - p) / (n * draws))
            assert abs(rate - p) < 4 * se

    def test_large_n_and_extreme_p(self):
        # exercises the complement flip and the chunked inversion
        stream = RandomStream(4, 0)
        pi = [0.97, 0.01, 0.005, 0.005, 0.004, 0.003, 0.002, 0.001]
        counts = sample_multinomial(pi, 50_000, stream)
        assert sum(counts) == 50_000
        assert abs(counts[0] / 50_000 - 0.97) < 0.01

    def test_domain(self):
        stream = RandomStream(0)
        with pytest.raises(DomainError):
            sample_multinomial([], 5, stream)
        with pytest.raises(DomainError):
            sample_multinomial([0.5, 0.4], 5, stream)
        with pytest.raises(DomainError):
            sample_multinomial([0.5, 0.5], -1, stream)
        with pytest.raises(DomainError):
            sample_multinomial([1.2, -0.2], 5, stream)


class TestEmpiricalQuantile:
    def test_median(self):
        assert empirical_quantile([1, 2, 3, 4, 5], 0.5) == 3

    def test_extremes(self):
        assert empirical_quantile([1, 2, 3, 4, 5], 0.0) == 1
        assert empirical_quantile([1, 2, 3, 4, 5], 1.0) == 5

    def test_interpolation(self):
        # one-based index q*(m-1)+1 = 1.25 -> 10 + 0.25*(20-10) = 12.5
        assert empirical_quantile([10, 20], 0.25) == 12.5

    def test_unsorted_input(self):
        assert empirical_quantile([5, 1, 4, 2, 3], 0.5) == 3

    def test_matches_numpy_linear(self):
        rng = np.random.RandomState(5)
        values = rng.normal(size=101)
        for q in (0.013, 0.25, 0.5, 0.9, 0.977):
            assert empirical_quantile(values, q) == pytest.approx(
                np.quantile(values, q), abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            empirical_quantile([], 0.5)
        with pytest.raises(DomainError):
            empirical_quantile([1.0], 1.5)


class TestStreams:
    def test_reproducible(self):
        a = [RandomStream(42, 7).uniform() for _ in range(1)]
        run1 = RandomStream(42, 7)
        run2 = RandomStream(42, 7)
        assert [run1.uniform() for _ in range(1000)] == [run2.uniform() for _ in range(1000)]
        assert a[0] == RandomStream(42, 7).uniform()

    @pytest.mark.parametrize("seed, tag", [(0, 0), (1, 101), (2**63 + 5, 102), (-7, 3 * 999 + 2)])
    def test_inlined_step_matches_mix64(self, seed, tag):
        # reference generator: counter advanced by the golden gamma, then _mix64
        state = _mix64((seed & _MASK64) ^ _mix64(((tag & _MASK64) + 1) * _GOLDEN))
        stream = RandomStream(seed, tag)
        for i in range(4000):
            state = (state + _GOLDEN) & _MASK64
            word = _mix64(state)
            if i % 2:
                assert stream.uniform() == (word >> 11) * _INV_2_53
            else:
                assert stream.next_u64() == word

    def test_distinct_streams_differ(self):
        base = [RandomStream(42, 0).uniform() for _ in range(8)]
        other = [RandomStream(42, 1).uniform() for _ in range(8)]
        third = [RandomStream(43, 0).uniform() for _ in range(8)]
        assert base != other
        assert base != third

    def test_uniform_range(self):
        stream = RandomStream(9, 9)
        for _ in range(10_000):
            assert 0.0 <= stream.uniform() < 1.0

    def test_gauss_moments(self):
        stream = RandomStream(10, 0)
        draws = np.array([stream.gauss() for _ in range(100_000)])
        assert draws.mean() == pytest.approx(0.0, abs=0.02)
        assert draws.std() == pytest.approx(1.0, abs=0.02)
