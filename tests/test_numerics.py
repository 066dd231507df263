import math
import subprocess
import sys
from itertools import chain, islice

import numpy as np
import pytest

from kappacmp.errors import DomainError
from kappacmp.numerics import (
    _BINOM_CHUNK,
    _BLOCK,
    _GOLDEN,
    _INV_2_53,
    _MASK64,
    RandomStream,
    _binomial_chunk,
    _BlockUniforms,
    _mix64,
    empirical_quantile,
    normal_cdf,
    normal_quantile,
    sample_beta,
    sample_beta_rows,
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
        with pytest.raises(DomainError):
            sample_beta_rows([(1.0, 1.0), (a, b)], 3, RandomStream(0))


def _stream_state(stream):
    return stream._state, stream._spare_gauss


class TestBetaRows:
    """sample_beta_rows against its reference, one sample_beta call per draw."""

    # shapes below 1 (boosted), near 1, posterior-sized and huge
    PARAMS = [(0.4, 0.7), (1.0, 1.0), (42.0, 40.0), (0.3, 250.5), (1e6, 1e6)]

    @pytest.mark.parametrize("seed, tag", [(0, 0), (3, 102), (2**63 + 11, 7), (-5, 3 * 17 + 2)])
    def test_rows_and_final_state_match_scalar_draws(self, seed, tag):
        scalar, batch = RandomStream(seed, tag), RandomStream(seed, tag)
        m = 700  # several blocks of uniforms
        expected = [sample_beta(a, b, scalar) for _ in range(m) for a, b in self.PARAMS]
        assert sample_beta_rows(self.PARAMS, m, batch).tolist() == expected
        assert _stream_state(batch) == _stream_state(scalar)

    @pytest.mark.parametrize("spare", [-0.61, 2.75])
    def test_pending_spare_normal_is_used_first(self, spare):
        scalar, batch = RandomStream(21, 4), RandomStream(21, 4)
        for stream in (scalar, batch):
            stream._spare_gauss = spare
        expected = [sample_beta(a, b, scalar) for _ in range(50) for a, b in self.PARAMS]
        assert sample_beta_rows(self.PARAMS, 50, batch).tolist() == expected
        assert _stream_state(batch) == _stream_state(scalar)

    def test_continues_the_stream(self):
        # scalar draws, rows, then scalar draws again: the stream stays in step
        scalar, mixed = RandomStream(8, 8), RandomStream(8, 8)
        expected = [scalar.gauss() for _ in range(3)]
        expected += [sample_beta(a, b, scalar) for _ in range(40) for a, b in self.PARAMS]
        expected += [scalar.uniform() for _ in range(5)]
        got = [mixed.gauss() for _ in range(3)]
        got += sample_beta_rows(self.PARAMS, 40, mixed).tolist()
        got += [mixed.uniform() for _ in range(5)]
        assert got == expected

    def test_no_rows(self):
        stream = RandomStream(1, 1)
        assert len(sample_beta_rows(self.PARAMS, 0, stream)) == 0
        assert _stream_state(stream) == _stream_state(RandomStream(1, 1))


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

    def test_shared_dict_validates_every_other_vector(self):
        # the dict remembers only the vector it saw validated
        stream = RandomStream(0)
        cdfs = {}
        pi = [0.5, 0.5]
        assert sum(sample_multinomial(pi, 5, stream, cdfs)) == 5
        for invalid in ([0.5, 0.4], [1.2, -0.2], []):
            with pytest.raises(DomainError):
                sample_multinomial(invalid, 5, stream, cdfs)
        pi[1] = 0.6  # the same list, changed since it was validated
        with pytest.raises(DomainError):
            sample_multinomial(pi, 5, stream, cdfs)
        assert sum(sample_multinomial((0.5, 0.5), 5, stream, cdfs)) == 5
        with pytest.raises(DomainError):
            sample_multinomial((0.5, 0.5), -1, stream, cdfs)  # the size, on every draw


# -- reference sampler: the walk up the binomial CDF from k = 0 on every draw --

def walk_binomial_chunk(n, p, stream):
    u = stream.uniform()
    ratio = p / (1.0 - p)
    pmf = (1.0 - p) ** n
    cdf = pmf
    k = 0
    while u >= cdf and k < n:
        pmf *= ratio * (n - k) / (k + 1)
        k += 1
        cdf += pmf
    return k


def walk_binomial(n, p, stream):
    if n <= 0:
        return 0
    if p <= 0.0:
        return 0
    if p >= 1.0:
        return n
    if p > 0.5:
        return n - walk_binomial(n, 1.0 - p, stream)
    total = 0
    while n > _BINOM_CHUNK:
        total += walk_binomial_chunk(_BINOM_CHUNK, p, stream)
        n -= _BINOM_CHUNK
    return total + walk_binomial_chunk(n, p, stream)


def walk_multinomial(pi, n, stream):
    probs = [float(x) for x in pi]
    counts = []
    remaining = int(n)
    mass = 1.0
    for pj in probs[:-1]:
        if remaining == 0 or mass <= 0.0:
            counts.append(0)
        else:
            cond = min(max(pj / mass, 0.0), 1.0)
            k = walk_binomial(remaining, cond, stream)
            counts.append(k)
            remaining -= k
        mass -= pj
    counts.append(remaining)
    return counts


class _TopUniform:
    """A stream whose every uniform is the largest below 1."""

    def uniform(self):
        return 1.0 - 2.0 ** -53


class TestMultinomialMatchesWalk:
    SIZES = (0, 1, 17, 300, 1000, 1001, 2500)
    PIS = (
        [0.121, 0.009, 0.17, 0.2, 0.05, 0.15, 0.15, 0.15],
        # zero cells, and conditional probabilities above 0.5 (the reflection)
        [0.0, 0.62, 0.0, 0.03, 0.2, 0.0, 0.15, 0.0],
        [0.97, 0.01, 0.005, 0.005, 0.004, 0.003, 0.002, 0.001],
        [0.25, 0.25, 0.25, 0.25],
    )

    @pytest.mark.parametrize("shared", [False, True])
    def test_counts_and_stream_state(self, shared):
        for pi in self.PIS:
            cdfs = {} if shared else None
            stream, reference = RandomStream(9, 4), RandomStream(9, 4)
            for n in self.SIZES:
                for _ in range(40):
                    assert sample_multinomial(pi, n, stream, cdfs) == walk_multinomial(pi, n, reference)
            assert stream._state == reference._state
            assert not shared or cdfs

    def test_shared_cdfs_serve_another_probability_vector(self):
        # the key is (size, conditional p), so vectors may share one dict
        cdfs = {}
        stream, reference = RandomStream(3, 3), RandomStream(3, 3)
        for _ in range(200):
            for pi in self.PIS:
                assert sample_multinomial(pi, 300, stream, cdfs) == walk_multinomial(pi, 300, reference)
        assert stream._state == reference._state

    @pytest.mark.parametrize("n, p", [(1, 0.3), (17, 0.3), (300, 0.5), (1000, 0.01)])
    def test_uniform_beyond_the_final_cdf_value_gives_n(self, n, p):
        assert walk_binomial_chunk(n, p, _TopUniform()) == n
        cdfs = {}
        assert _binomial_chunk(n, p, _TopUniform(), cdfs) == n  # extends the CDF to k = n
        assert len(cdfs[n, p][0]) == n + 1
        assert _binomial_chunk(n, p, _TopUniform(), cdfs) == n  # the complete CDF

    def test_top_uniform_multinomial_matches_walk(self):
        for pi in self.PIS:
            for n in self.SIZES:
                cdfs = {}
                for _ in range(2):
                    assert (sample_multinomial(pi, n, _TopUniform(), cdfs)
                            == walk_multinomial(pi, n, _TopUniform()))


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

    @pytest.mark.parametrize("seed, tag", [(0, 0), (1, 101), (2**63 + 5, 102), (2**64 - 1, 3 * 999 + 2)])
    @pytest.mark.parametrize("read", [0, 1, 2 * _BLOCK + 37])
    def test_block_uniforms_match_scalar_uniforms(self, seed, tag, read):
        scalar, batch = RandomStream(seed, tag), RandomStream(seed, tag)
        source = _BlockUniforms(batch)
        got = list(islice(chain.from_iterable(source.blocks()), read))
        assert got == [scalar.uniform() for _ in range(read)]
        source.rewind()
        assert batch._state == scalar._state
        assert batch.uniform() == scalar.uniform()

    def test_block_constants_are_built_on_first_use(self):
        code = ("import kappacmp, kappacmp.numerics as n; "
                "assert n._lanes.cache_info().currsize == 0")
        subprocess.run([sys.executable, "-c", code], check=True)

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
