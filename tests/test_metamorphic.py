"""Relabellings with exact answers, checked on seeded random tables.

Swapping the two tests (PairedCounts.swap_tests) negates the difference
kappa1 - kappa2 and inverts the ratio kappa1 / kappa2, so every closed-form
interval and the z test of the swapped table follow from the original's.
Flipping the disease labels and both tests' results (s_ij <-> r_(1-i)(1-j))
and replacing c by 1 - c swaps Se with Sp and p with q, and leaves each
weighted kappa, every closed-form interval and the z test unchanged.
The resampled methods agree only in distribution and are left out.
"""

import math
import random

import pytest

from kappacmp.data_model import PairedCounts, apply_continuity_correction
from kappacmp.errors import InversionUndefinedError, KappaCmpError
from kappacmp.inference import (
    bloch_test,
    fieller_ratio_ci,
    kappa_covariance,
    log_ratio_ci,
    reciprocal_ratio_ci,
    wald_diff_ci,
    wald_ratio_ci,
)
from kappacmp.kappa_core import accuracy_from_counts, kappa_pair

REL = 1e-12
C_VALUES = (0.0, 0.1, 0.3, 0.5, 0.9, 1.0)


def random_tables(seed: int, count: int) -> list:
    """The worked table and ``count`` tiny, sparse or moderate tables, 30% +0.5-corrected."""
    rng = random.Random(seed)
    tables = [PairedCounts(41, 0, 40, 8, 5, 1, 24, 181)]
    for _ in range(count):
        kind = rng.choice(("tiny", "sparse", "moderate"))
        if kind == "tiny":
            cells = [rng.randint(0, 3) for _ in range(8)]
        elif kind == "sparse":
            cells = [0 if rng.random() < 0.5 else rng.randint(1, 20) for _ in range(8)]
        else:
            cells = [rng.randint(0, 60) for _ in range(8)]
        counts = PairedCounts(*cells)
        if rng.random() < 0.3:
            counts = apply_continuity_correction(counts)
        tables.append(counts)
    return tables


TABLES = random_tables(seed=11, count=300)


def outcome(call, *args):
    """``call(*args)``, or the class of the KappaCmpError it raised."""
    try:
        return call(*args)
    except KappaCmpError as exc:
        return type(exc)


def bounds(ci) -> tuple:
    return ci.lower, ci.upper, ci.point


def assert_same_interval(got: tuple, want: tuple, scale: float = 0.0):
    """Equal midpoints, points and squared half-widths, relative to the largest magnitude.

    A bound is midpoint +- half-width, and a Fieller half-width is the root
    of a discriminant that can cancel to rounding: near a double root the
    bounds themselves agree only to about the square root of REL. ``scale``
    is a magnitude the values were computed from, when it is larger.
    """
    scale = max(scale, *(abs(v) for v in got + want))
    mid = [(lower + upper) / 2.0 for lower, upper, _ in (got, want)]
    half2 = [((upper - lower) / 2.0) ** 2 for lower, upper, _ in (got, want)]
    assert abs(mid[0] - mid[1]) <= REL * scale, (got, want)
    assert abs(got[2] - want[2]) <= REL * scale, (got, want)
    assert abs(half2[0] - half2[1]) <= REL * scale * scale, (got, want)


@pytest.mark.parametrize("c", C_VALUES)
def test_swapping_the_tests_negates_the_difference_and_the_z_statistic(c):
    computed = 0
    for counts in TABLES:
        swapped = counts.swap_tests()
        ci, swapped_ci = outcome(wald_diff_ci, counts, c), outcome(wald_diff_ci, swapped, c)
        test, swapped_test = outcome(bloch_test, counts, c), outcome(bloch_test, swapped, c)
        if isinstance(ci, type) or isinstance(swapped_ci, type):
            assert swapped_ci is ci, counts
        else:
            assert_same_interval(bounds(swapped_ci), (-ci.upper, -ci.lower, -ci.point))
        if isinstance(test, type) or isinstance(swapped_test, type):
            assert swapped_test is test, counts
        else:
            assert abs(swapped_test.z_stat + test.z_stat) <= REL * abs(test.z_stat), counts
            assert abs(swapped_test.p_value - test.p_value) <= REL * test.p_value, counts
            computed += 1
    assert computed > 0


@pytest.mark.parametrize("c", C_VALUES)
@pytest.mark.parametrize("method", [wald_ratio_ci, log_ratio_ci, fieller_ratio_ci],
                         ids=lambda method: method.__name__)
def test_swapping_the_tests_inverts_the_ratio(method, c):
    computed = 0
    for counts in TABLES:
        ci, swapped_ci = outcome(method, counts, c), outcome(method, counts.swap_tests(), c)
        if isinstance(ci, type) or isinstance(swapped_ci, type):
            assert swapped_ci is ci, counts  # the same error on both sides
            continue
        if method is wald_ratio_ci:
            # the delta-method Wald interval of 1/theta: bounds divided by theta^2
            scale = ci.point * ci.point
            want = ci.lower / scale, ci.upper / scale, 1.0 / ci.point
        else:
            inverse = outcome(reciprocal_ratio_ci, ci, ci.point)
            if inverse is InversionUndefinedError and method is fieller_ratio_ci:
                # a Fieller interval that straddles zero has an unbounded reciprocal;
                # test_fieller_interval_contains_its_point records what is built instead
                continue
            want = bounds(inverse)
        assert_same_interval(bounds(swapped_ci), want)
        computed += 1
    assert computed > 0


@pytest.mark.xfail(strict=True, reason=(
    "when w22 = kappa2^2 - var2*z^2 < 0 the Fieller set is the two rays outside "
    "the roots, but fieller_interval returns the gap between them"))
@pytest.mark.parametrize("c", C_VALUES)
def test_fieller_interval_contains_its_point(c):
    for counts in TABLES:
        ci = outcome(fieller_ratio_ci, counts, c)
        assert isinstance(ci, type) or ci.lower <= ci.point <= ci.upper, (counts, ci)


def flip_labels(counts: PairedCounts) -> PairedCounts:
    """s_ij <-> r_(1-i)(1-j): the cells in reverse order."""
    return PairedCounts(*reversed(counts.cells()))


def kappas(counts: PairedCounts, c: float) -> tuple:
    pair = kappa_pair(accuracy_from_counts(counts), c)
    return pair.kappa1, pair.kappa2


@pytest.mark.parametrize("c", C_VALUES)
@pytest.mark.parametrize("method", [kappas, wald_diff_ci, wald_ratio_ci, log_ratio_ci,
                                    fieller_ratio_ci], ids=lambda method: method.__name__)
def test_flipping_the_labels_keeps_the_kappas_and_the_intervals(method, c):
    computed = 0
    for counts in TABLES:
        got, flipped = outcome(method, counts, c), outcome(method, flip_labels(counts), 1.0 - c)
        if isinstance(got, type) or isinstance(flipped, type):
            assert flipped is got, counts  # the same error on both sides
            continue
        if method is kappas:
            scale = max(abs(kappa) for kappa in got)
            assert all(abs(a - b) <= REL * scale for a, b in zip(got, flipped)), counts
        else:
            # a difference of kappas that cancels is exact only to the kappas' rounding
            assert_same_interval(bounds(flipped), bounds(got),
                                 scale=max(abs(kappa) for kappa in kappas(counts, c)))
        computed += 1
    assert computed > 0


def z_scale(counts: PairedCounts, c: float) -> float:
    """The largest kappa over the standard error of their difference: z's rounding scale.

    z divides kappa1 - kappa2 by that standard error, so rounding the kappas
    moves z by about REL times this, however small z is.
    """
    acc = accuracy_from_counts(counts)
    pair = kappa_pair(acc, c)
    se = kappa_covariance(acc, pair, counts.n).se_delta
    return max(abs(pair.kappa1), abs(pair.kappa2)) / se if se > 0.0 else math.inf


@pytest.mark.parametrize("c", C_VALUES)
def test_flipping_the_labels_keeps_the_z_test(c):
    computed = 0
    for counts in TABLES:
        flipped = flip_labels(counts)
        test, flipped_test = outcome(bloch_test, counts, c), outcome(bloch_test, flipped, 1.0 - c)
        if isinstance(test, type) and isinstance(flipped_test, type):
            assert flipped_test is test, counts
            continue
        if isinstance(test, type) or isinstance(flipped_test, type):
            # a standard error of zero on one side only, which
            # test_flipping_the_labels_keeps_a_zero_standard_error rules out
            continue
        scale = max(z_scale(counts, c), z_scale(flipped, 1.0 - c), abs(test.z_stat))
        assert abs(flipped_test.z_stat - test.z_stat) <= REL * scale, counts
        assert abs(flipped_test.p_value - test.p_value) <= REL * scale, counts
        computed += 1
    assert computed > 0


def test_flipping_the_labels_keeps_a_zero_standard_error():
    for c in C_VALUES:
        for counts in TABLES:
            test = outcome(bloch_test, counts, c)
            flipped_test = outcome(bloch_test, flip_labels(counts), 1.0 - c)
            assert isinstance(test, type) is isinstance(flipped_test, type), (counts, c)
