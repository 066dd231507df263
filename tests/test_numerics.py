import itertools
import math
import random
import re
import subprocess
import sys
from array import array
from pathlib import Path

import numpy as np
import pytest

from conftest import ReferenceStream, empirical_quantile, reference_uniforms, stream_state
from kappacmp import numerics
from kappacmp.errors import DenormalsAreZeroError, DomainError, KappaCmpError
from kappacmp.numerics import (
    _BINOM_CHUNK,
    _BLOCK,
    _FIRST_BLOCK,
    _HEAD_LANES,
    _RAW_SCALE,
    RandomStream,
    _binomial_chunk,
    _head_streams,
    _multinomial_draw,
    _multinomial_plan,
    _multinomial_reads,
    normal_cdf,
    normal_quantile,
    sample_beta,
    sample_beta_rows,
    sample_multinomial,
    select_quantile,
    select_quantiles,
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

    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (1.0, 0.0), (-1.0, 2.0), (math.nan, 1.0)])
    def test_domain(self, a, b):
        with pytest.raises(DomainError):
            sample_beta(a, b, RandomStream(0))
        with pytest.raises(DomainError):
            sample_beta_rows([(1.0, 1.0), (a, b)], 3, RandomStream(0))

    @pytest.mark.parametrize("a,b", [(math.inf, 1.0), (1.0, math.inf), (1e308, 1.0),
                                     (1e18, 1.0)])
    def test_draws_stuck_on_zero_or_one_raise(self, a, b):
        # every draw rounds to 0 or 1 (or is NaN): a bounded run of them
        # raises instead of retrying forever
        message = re.escape(f"Beta({a}, {b}) draws landed on 0 or 1")
        with pytest.raises(DomainError, match=message):
            sample_beta(a, b, RandomStream(0))
        with pytest.raises(DomainError, match=message):
            sample_beta_rows([(1.0, 1.0), (a, b)], 3, RandomStream(0))

    def test_only_a_run_of_rejections_raises(self):
        # about half the draws of Beta(0.001, 1) underflow to 0: far more than
        # _BETA_MAX_REJECTS rejections in all, but never that many in a row
        rows = sample_beta_rows([(0.001, 1.0)], 25_000, RandomStream(2))
        assert len(rows) == 25_000 and min(rows) > 0.0


class TestBetaRows:
    """sample_beta_rows against its reference, one sample_beta call per draw."""

    # shapes below 1 (boosted), near 1, posterior-sized and huge
    PARAMS = [(0.4, 0.7), (1.0, 1.0), (42.0, 40.0), (0.3, 250.5), (1e6, 1e6)]

    @pytest.mark.parametrize("seed, tag", [(0, 0), (3, 102), (2**63 + 11, 7), (-5, 3 * 17 + 2)])
    def test_rows_and_final_state_match_scalar_draws(self, seed, tag):
        scalar, batch = ReferenceStream(seed, tag), RandomStream(seed, tag)
        m = 700  # several blocks of uniforms
        expected = [sample_beta(a, b, scalar) for _ in range(m) for a, b in self.PARAMS]
        assert sample_beta_rows(self.PARAMS, m, batch).tolist() == expected
        assert stream_state(batch) == stream_state(scalar)

    @pytest.mark.parametrize("spare", [-0.61, 2.75])
    def test_pending_spare_normal_is_used_first(self, spare):
        scalar, batch = ReferenceStream(21, 4), RandomStream(21, 4)
        for stream in (scalar, batch):
            stream._spare_gauss = spare
        expected = [sample_beta(a, b, scalar) for _ in range(50) for a, b in self.PARAMS]
        assert sample_beta_rows(self.PARAMS, 50, batch).tolist() == expected
        assert stream_state(batch) == stream_state(scalar)

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

    def test_rows_then_draws_match_the_reference(self):
        # the kernel, then scalar draws on the same stream, against the stream's definition
        reference, stream = ReferenceStream(8, 9), RandomStream(8, 9)
        expected = [sample_beta(a, b, reference) for _ in range(300) for a, b in self.PARAMS]
        expected += [reference.gauss(), reference.gamma(0.5), reference.uniform()]
        got = sample_beta_rows(self.PARAMS, 300, stream).tolist()
        got += [stream.gauss(), stream.gamma(0.5), stream.uniform()]
        assert got == expected

    def test_a_refused_read_leaves_the_stream_as_scalar_draws_do(self, monkeypatch):
        # a pending normal, then denormals-are-zero on once the first block is
        # mixed: both routes read that block's rest and are refused on the next
        scalar, batch = RandomStream(5, 5), RandomStream(5, 5)
        assert scalar.gauss() == batch.gauss()
        monkeypatch.setattr(numerics, "_PROBE", 0.0)
        with pytest.raises(DenormalsAreZeroError):
            [sample_beta(a, b, scalar) for _ in range(50) for a, b in self.PARAMS]
        with pytest.raises(DenormalsAreZeroError):
            sample_beta_rows(self.PARAMS, 50, batch)
        monkeypatch.undo()
        assert scalar._spare_gauss is not None
        assert stream_state(batch) == stream_state(scalar)

    def test_no_rows(self):
        stream = RandomStream(1, 1)
        assert len(sample_beta_rows(self.PARAMS, 0, stream)) == 0
        assert stream_state(stream) == stream_state(ReferenceStream(1, 1))


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
        for pi in ([math.nan, 0.5, 0.5], [0.5, 0.5, math.nan], [math.inf, 0.5, 0.5]):
            with pytest.raises(DomainError):
                sample_multinomial(pi, 5, stream)
        # the plan checks every vector and size it is given
        for pi, size in (([0.5, 0.4], 5), ([1.2, -0.2], 5), ([], 5), ((0.5, 0.5), -1),
                         ((0.5, 0.5), 5.5), ((0.5, 0.5), 2**26 + 1)):
            with pytest.raises(DomainError):
                _multinomial_plan(pi, size)
        assert _multinomial_plan((0.5, 0.5), 5.0)[1] == 5
        assert stream_state(stream) == stream_state(RandomStream(0))  # nothing was drawn

    def test_shared_dict_validates_every_other_vector(self):
        # no memo of a validated vector: each draw checks the vector it is given
        stream = RandomStream(0)
        pi = [0.5, 0.5]
        assert sum(planned_multinomial(pi, 5, stream)) == 5
        for invalid in ([0.5, 0.4], [1.2, -0.2], []):
            with pytest.raises(DomainError):
                planned_multinomial(invalid, 5, stream)
        pi[1] = 0.6  # the same list, changed since it was validated
        with pytest.raises(DomainError):
            planned_multinomial(pi, 5, stream)
        assert sum(planned_multinomial((0.5, 0.5), 5, stream)) == 5
        for size in (-1, 2**26 + 1):  # the size, on every draw
            with pytest.raises(DomainError):
                planned_multinomial((0.5, 0.5), size, stream)


def planned_multinomial(pi, n, stream, plan=None):
    """One draw through _multinomial_plan, then _multinomial_draw over ``plan``
    when one is given (a plan of ``pi`` kept across draws), else a fresh one."""
    fresh, n = _multinomial_plan(pi, n)
    return _multinomial_draw(fresh if plan is None else plan, n, stream.uniform)


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
        # the second conditional is exactly 1, and the mass left is then 0
        [0.2, 0.8, 0.0, 0.0],
        # the mass left falls to -2.8e-17 before the end: the third
        # conditional, 0.1 / 0.09999999999999998, is clamped to 1
        [0.3, 0.6, 0.1, 0.0, 0.0],
    )

    # sample_multinomial, one plan of each vector kept across draws and
    # sizes, or a fresh plan for every planned draw
    @pytest.mark.parametrize("shared", [False, True, "cold"])
    def test_counts_and_stream_state(self, shared):
        for pi in self.PIS:
            kept, _ = _multinomial_plan(pi, 0)
            stream, reference = RandomStream(9, 4), ReferenceStream(9, 4)
            for n in self.SIZES:
                for _ in range(40):
                    if shared is False:
                        draw = sample_multinomial(pi, n, stream)
                    else:
                        draw = planned_multinomial(pi, n, stream, kept if shared is True else None)
                    assert draw == walk_multinomial(pi, n, reference)
                assert stream_state(stream) == stream_state(reference)
            # the kept plan's steps hold the CDFs its draws built, and only its draws build them
            built = [step[2] for step in kept if isinstance(step, tuple)]
            assert any(built) is (shared is True)

    def test_plan_takes_each_kind_of_step(self):
        plan, n = _multinomial_plan([0.2, 0.8, 0.0, 0.0], 7)
        assert (plan, n) == ([(0.2, False, {}), True, None], 7)
        # a conditional above 0.5 is drawn as its complement, and flipped
        (p, flip, tables), = _multinomial_plan([0.7, 0.3], 0)[0]
        assert (p, flip, tables) == (1.0 - 0.7, True, {})
        plan, _ = _multinomial_plan([0.3, 0.6, 0.1, 0.0, 0.0], 0)
        *_, take_all, zero = plan
        assert take_all is True and zero is None  # a clamped conditional, then no mass left
        # each step has its own fresh tables, even for an equal conditional
        # p, in one plan or in two plans of one vector
        first, second = _multinomial_plan([0.5, 0.25, 0.25], 0)[0]
        assert first[:2] == second[:2] == (0.5, False)
        assert first[2] == second[2] == {} and first[2] is not second[2]
        again = _multinomial_plan([0.5, 0.25, 0.25], 0)[0][0]
        assert again[2] is not first[2]

    @pytest.mark.parametrize("n, p", [(1, 0.3), (17, 0.3), (300, 0.5), (1000, 0.01)])
    def test_uniform_beyond_the_final_cdf_value_gives_n(self, n, p):
        assert walk_binomial_chunk(n, p, _TopUniform()) == n
        u = _TopUniform().uniform()
        tables = {}
        assert _binomial_chunk(tables, n, p, u) == n  # extends the CDF to k = n
        assert len(tables[n][0]) == n + 1
        assert _binomial_chunk(tables, n, p, u) == n  # the complete CDF
        assert _binomial_chunk(tables, n, p, 0.0) == 0  # a stored CDF is read, not extended
        assert len(tables[n][0]) == n + 1

    def test_top_uniform_multinomial_matches_walk(self):
        for pi in self.PIS:
            for n in self.SIZES:
                plan, _ = _multinomial_plan(pi, n)
                for _ in range(2):
                    assert (planned_multinomial(pi, n, _TopUniform(), plan)
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
    @pytest.mark.parametrize("shape", [0.0, -1.0, math.nan])
    def test_gamma_shape_must_be_positive(self, shape):
        with pytest.raises(DomainError, match="gamma shape must be positive"):
            RandomStream(0).gamma(shape)

    def test_reproducible(self):
        a = [RandomStream(42, 7).uniform() for _ in range(1)]
        run1 = RandomStream(42, 7)
        run2 = RandomStream(42, 7)
        assert [run1.uniform() for _ in range(1000)] == [run2.uniform() for _ in range(1000)]
        assert a[0] == RandomStream(42, 7).uniform()

    @pytest.mark.parametrize("seed, tag", [(0, 0), (1, 101), (2**63 + 5, 102), (-7, 3 * 999 + 2)])
    def test_inlined_step_matches_mix64(self, seed, tag):
        stream = RandomStream(seed, tag)
        assert [stream.uniform() for _ in range(4000)] == list(
            itertools.islice(reference_uniforms(seed, tag), 4000))

    @pytest.mark.parametrize("seed, tag", [(0, 0), (1, 101), (2**63 + 5, 102), (2**64 - 1, 3 * 999 + 2)])
    # across the ramp of block sizes (8, 16, ..., 512: 1016 counters) into full blocks
    @pytest.mark.parametrize("read", [0, 1, _FIRST_BLOCK, _FIRST_BLOCK + 1, 1016, 1017,
                                      2 * _BLOCK + 37, 3 * _BLOCK + 37])
    def test_block_uniforms_match_scalar_uniforms(self, seed, tag, read):
        stream, reference = RandomStream(seed, tag), reference_uniforms(seed, tag)
        assert [stream.uniform() for _ in range(read)] == list(itertools.islice(reference, read))
        # raw and uniform read the one sequence
        assert stream.raw() * _RAW_SCALE == next(reference)
        assert stream.uniform() == next(reference)

    @pytest.mark.parametrize("seed", [0, 1, 2**63 + 5, -7, 2**64 - 1])
    @pytest.mark.parametrize("k", [_multinomial_reads(8, 25), _multinomial_reads(8, 1500)])
    def test_head_streams_match_scalar_streams(self, seed, k):
        ids = [0, 3 * 999, 2**64 - 1]
        for read in (0, k, k + 1, k + 37, k + 1016 + 37):
            for s, uniform in zip(ids, _head_streams(seed, ids, k), strict=True):
                expected = list(itertools.islice(reference_uniforms(seed, s), read))
                assert [uniform() for _ in range(read)] == expected
        assert list(_head_streams(seed, [], k)) == []

    @pytest.mark.parametrize("count, k", [(2 * _BLOCK + 3, 1), (7, _HEAD_LANES // 3)])
    def test_head_streams_span_several_batches(self, count, k):
        ids = range(5, 5 + count)
        heads = [[uniform() for _ in range(k + 1)] for uniform in _head_streams(11, ids, k)]
        assert heads == [list(itertools.islice(reference_uniforms(11, s), k + 1)) for s in ids]

    def test_denormals_are_zero_is_refused(self, monkeypatch):
        # with denormals-are-zero on, the probe reads as 0, as would about
        # half of all stream uniforms
        expected = list(itertools.islice(reference_uniforms(1, 2), 2 * _FIRST_BLOCK))
        stream, head, fresh = RandomStream(1, 2), next(_head_streams(1, [2], 3)), RandomStream(1, 2)
        assert [stream.uniform() for _ in range(_FIRST_BLOCK)] == expected[:_FIRST_BLOCK]
        assert [head() for _ in range(3)] == expected[:3]
        monkeypatch.setattr(numerics, "_PROBE", 0.0)
        # a refused read raises again on every later read; it never ends the stream
        for _ in range(3):
            with pytest.raises(DenormalsAreZeroError, match="denormals-are-zero"):
                sample_beta_rows([(2.0, 3.0)], 5, fresh)
            with pytest.raises(DenormalsAreZeroError):
                stream.uniform()
            with pytest.raises(DenormalsAreZeroError):
                stream.raw()
            with pytest.raises(DenormalsAreZeroError):
                head()  # past its head, in its own blocks
            with pytest.raises(DenormalsAreZeroError):
                next(_head_streams(1, [2], 7))
        assert issubclass(DenormalsAreZeroError, KappaCmpError)
        # with gradual underflow back, each stream goes on from the counter it stopped at
        monkeypatch.undo()
        assert [stream.uniform() for _ in range(_FIRST_BLOCK)] == expected[_FIRST_BLOCK:]
        assert [head() for _ in range(_FIRST_BLOCK)] == expected[3:3 + _FIRST_BLOCK]
        assert stream_state(fresh) == (None, expected[0])

    @pytest.mark.parametrize("seed, tag", [(1.5, 0), (1, None), ("1", 2), (1, 2.0), (None, 0)])
    def test_seed_and_stream_must_be_integers(self, seed, tag):
        with pytest.raises(DomainError, match="seed and stream must be integers"):
            RandomStream(seed, tag)

    def test_any_integers_are_taken_modulo_2_64(self):
        reference = RandomStream(2**64 - 1, 3)
        expected = [reference.uniform() for _ in range(20)]
        for seed, tag in [(-1, 2**64 + 3), (np.int64(-1), np.uint64(3)), (2**128 - 1, 3)]:
            stream = RandomStream(seed, tag)
            assert (stream.seed, stream.stream) == (2**64 - 1, 3)
            assert [stream.uniform() for _ in range(20)] == expected

    def test_block_constants_are_built_on_first_use(self):
        code = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "import kappacmp, kappacmp.numerics as n; "
                "assert n._lanes.cache_info().currsize == 0")
        src = str(Path(numerics.__file__).parents[1])
        subprocess.run([sys.executable, "-c", code, src], check=True)

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


def _quantile_levels(m):
    """0, the 95% tails, the median, 1, and bias-corrected levels far from the tails."""
    levels = [0.0, 0.025, 0.5, 0.975, 1.0]
    z = normal_quantile(0.975)
    for z0 in (-1.4, -0.6, 0.45, 1.7):
        levels += [normal_cdf(2.0 * z0 - z), normal_cdf(2.0 * z0 + z)]
    levels.append((m // 3) / max(m - 1, 1))  # an exact index: no interpolation
    return levels


def _level_pairs(m, rng):
    """(q_low, q_high) pairs: each level of _quantile_levels alone, the 95% ends,
    both levels in one tail, the bias-corrected pairs, one pair given high
    level first, and seeded random pairs."""
    levels = _quantile_levels(m)
    pairs = [(q, q) for q in levels]
    pairs += [(0.025, 0.975), (0.0, 1.0), (0.01, 0.3), (0.7, 0.99), (0.49, 0.51), (0.9, 0.1)]
    pairs += list(zip(levels[5:13:2], levels[6:13:2]))
    pairs += [tuple(sorted((rng.random(), rng.random()))) for _ in range(10)]
    return pairs


def _selection_cases():
    rng = random.Random(20260)
    for m in (1, 2, 3, 2000, 10_000):
        yield f"normal-{m}", [rng.gauss(0.0, 1.0) for _ in range(m)]
    values = [rng.uniform(-1.0, 1.0) for _ in range(2000)]
    yield "ascending", sorted(values)
    yield "descending", sorted(values, reverse=True)
    yield "all-tied", [0.37] * 2000
    yield "every-16th-smallest", [-5.0 if i % 16 == 0 else v for i, v in enumerate(values)]
    yield "coarse-ties", [float(rng.randrange(7)) for _ in range(2000)]
    yield "signed-zeros", [rng.choice((-0.0, 0.0, 1.0, -1.0)) for _ in range(2000)]
    with_inf = [rng.gauss(0.0, 1.0) for _ in range(2000)]
    for i in rng.sample(range(2000), 120):
        with_inf[i] = rng.choice((math.inf, -math.inf))
    yield "infinities", with_inf
    yield "inf-only", [math.inf, -math.inf, math.inf]
    yield "array", array("d", (rng.expovariate(1.0) for _ in range(3001)))


def _count_sorts(monkeypatch):
    """The length of each list numerics sorts from now on, in call order."""
    sizes = []

    def counting_sorted(items):
        items = list(items)
        sizes.append(len(items))
        return sorted(items)

    monkeypatch.setattr(numerics, "sorted", counting_sorted, raising=False)
    return sizes


class TestSelectQuantile:
    """select_quantile against the sort oracle, bit for bit."""

    @pytest.mark.parametrize("name, values", list(_selection_cases()))
    def test_matches_the_sort_oracle(self, name, values):
        for q in _quantile_levels(len(values)):
            assert select_quantile(values, q).hex() == empirical_quantile(values, q).hex(), q

    def test_threshold_short_of_the_rank_sorts_everything(self, monkeypatch):
        # every 16th value is the smallest, so the sample is all minima and
        # the lower threshold keeps only those 125: too few for the ranks of
        # the 10% and 30% quantiles of 2000 values, so all the values are sorted
        rng = random.Random(7)
        values = [0.0 if i % numerics._SAMPLE_STRIDE == 0 else rng.uniform(1.0, 2.0)
                  for i in range(2000)]
        sizes = _count_sorts(monkeypatch)
        for q in (0.1, 0.3):
            sizes.clear()
            assert select_quantile(values, q).hex() == empirical_quantile(values, q).hex()
            assert sizes == [125, 125, 2000]

    def test_tail_sorts_only_the_kept_values(self, monkeypatch):
        rng = random.Random(8)
        values = [rng.gauss(0.0, 1.0) for _ in range(10_000)]
        sizes = _count_sorts(monkeypatch)
        for q in (0.025, 0.975):
            sizes.clear()
            assert select_quantile(values, q).hex() == empirical_quantile(values, q).hex()
            assert sizes[0] == 625 and sizes[1] < 1000 and len(sizes) == 2

    def test_domain(self):
        with pytest.raises(DomainError):
            select_quantile([], 0.5)
        with pytest.raises(DomainError):
            select_quantile([1.0], 1.5)
        with pytest.raises(DomainError):
            select_quantile([1.0], -0.1)


class TestSelectQuantiles:
    """Both levels of select_quantiles against the sort oracle, bit for bit."""

    @pytest.mark.parametrize("name, values", list(_selection_cases()))
    def test_matches_the_sort_oracle(self, name, values):
        rng = random.Random(len(values))
        for q_low, q_high in _level_pairs(len(values), rng):
            got = select_quantiles(values, q_low, q_high)
            expected = (empirical_quantile(values, q_low), empirical_quantile(values, q_high))
            assert [x.hex() for x in got] == [x.hex() for x in expected], (q_low, q_high)

    def test_both_tails_come_from_one_sample_and_one_kept_sort(self, monkeypatch):
        rng = random.Random(8)
        values = [rng.gauss(0.0, 1.0) for _ in range(10_000)]
        expected = (empirical_quantile(values, 0.025), empirical_quantile(values, 0.975))
        sizes = _count_sorts(monkeypatch)
        assert select_quantiles(values, 0.025, 0.975) == expected
        assert sizes[0] == 625 and sizes[1] < 2000 and len(sizes) == 2

    def test_domain(self):
        with pytest.raises(DomainError):
            select_quantiles([], 0.025, 0.975)
        for levels in ((-0.1, 0.5), (0.5, 1.5)):
            with pytest.raises(DomainError):
                select_quantiles([1.0, 2.0], *levels)
