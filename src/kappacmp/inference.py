"""Hypothesis test and confidence intervals for comparing two weighted kappas.

Inference targets the difference delta = kappa1(c) - kappa2(c) and the
ratio theta = kappa1(c) / kappa2(c) under the paired design. Variances and
the covariance come from the delta method applied to the multinomial cell
probabilities; the paired covariances Cov(Se1_hat, Se2_hat) = eps1/(n*p)
and Cov(Sp1_hat, Sp2_hat) = eps0/(n*q) carry the conditional dependence
between the tests into the kappa covariance.
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from array import array
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from numbers import Integral

from .data_model import PairedCounts
from .errors import (
    BootstrapFailedError,
    DegenerateKappaError,
    DenormalsAreZeroError,
    DomainError,
    FiellerInvalidError,
    InversionUndefinedError,
    LogIntervalError,
    NonEstimableError,
)
from .kappa_core import (
    TOL_YOUDEN,
    AccuracyEstimates,
    KappaPair,
    accuracy_from_counts,
    accuracy_values,
    kappa_pair,
    kappa_ratio,
    weighted_kappa,
)
from .numerics import (
    RandomStream,
    _multinomial_draw,
    _multinomial_plan,
    normal_cdf,
    normal_quantile,
    sample_beta,  # noqa: F401 - perfbench/run.py traces inference.sample_beta
    sample_beta_rows,
    sample_multinomial,  # noqa: F401 - perfbench/run.py traces inference.sample_multinomial
    select_quantiles,
)

__all__ = [
    "BetaPrior",
    "Priors",
    "ConfidenceConfig",
    "ConfidenceInterval",
    "KappaCovariance",
    "TestResult",
    "kappa_covariance",
    "bloch_test",
    "wald_diff_ci",
    "wald_ratio_ci",
    "log_ratio_ci",
    "fieller_ratio_ci",
    "fieller_interval",
    "BootstrapTables",
    "PosteriorDraws",
    "analysis_draws",
    "bootstrap_ci",
    "bayesian_ci",
    "METHODS",
    "check_methods",
    "reciprocal_ratio_ci",
]

# Stream tags of analyze's bootstrap tables and posterior draws
# (analysis_draws). They are not apart from a coverage study's streams:
# replicate i reads streams 3i to 3i + 2, so 101 is replicate 33's posterior
# stream and 102 replicate 34's sample stream. Results stay independent
# because no computation reads both an analyze store and a coverage replicate.
BOOTSTRAP_STREAM = 101
BAYES_STREAM = 102

_BOOTSTRAP_DRAW_FACTOR = 10  # total draw budget = factor * B before giving up


@dataclass(frozen=True)
class BetaPrior:
    """Parameters of a conjugate Beta prior."""

    alpha: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.alpha < math.inf and 0.0 < self.beta < math.inf):
            raise DomainError(f"Beta prior parameters must be positive and finite, got {self}")


@dataclass(frozen=True)
class Priors:
    """One Beta prior per estimated proportion (flat Beta(1,1) by default)."""

    se1: BetaPrior = BetaPrior()
    sp1: BetaPrior = BetaPrior()
    se2: BetaPrior = BetaPrior()
    sp2: BetaPrior = BetaPrior()
    p: BetaPrior = BetaPrior()


@dataclass(frozen=True)
class ConfidenceConfig:
    """Shared knobs for every interval construction."""

    conf: float = 0.95
    bootstrap_b: int = 2000
    bayes_m: int = 10000
    priors: Priors = Priors()
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.conf < 1.0:
            raise DomainError(f"confidence level must be in (0, 1), got {self.conf!r}")
        if 1.0 - self.alpha / 2.0 == 1.0:
            raise DomainError(f"confidence level {self.conf!r} is too close to 1: "
                              "1 - alpha/2 rounds to 1, so its critical value is infinite")
        if not (isinstance(self.bootstrap_b, Integral) and self.bootstrap_b >= 100):
            raise DomainError(f"bootstrap needs integer B >= 100, got {self.bootstrap_b!r}")
        if not (isinstance(self.bayes_m, Integral) and self.bayes_m >= 1000):
            raise DomainError(f"posterior sampling needs integer M >= 1000, got {self.bayes_m!r}")
        # any integer: the streams take it modulo 2**64, as a plain int
        if not isinstance(self.seed, Integral):
            raise DomainError(f"seed must be an integer, got {self.seed!r}")
        object.__setattr__(self, "seed", int(self.seed))

    @property
    def alpha(self) -> float:
        return 1.0 - self.conf

    @cached_property
    def z(self) -> float:
        """Two-sided critical value z_{1-alpha/2} (computed once per config)."""
        return normal_quantile(1.0 - self.alpha / 2.0)


# The config of every call given none; one instance, so its z is computed once.
DEFAULT_CONFIG = ConfidenceConfig()


@dataclass(frozen=True)
class ConfidenceInterval:
    target: str          # "difference", "ratio" or "inverse-ratio"
    method: str          # "wald", "logarithmic", "fieller", "bootstrap-bc", "bayesian-quantile"
    lower: float
    upper: float
    point: float

    def __post_init__(self):
        require_ordered(self.lower, self.upper)

    @property
    def half_width(self) -> float:
        return (self.upper - self.lower) / 2.0

    def contains(self, value: float) -> bool:
        return self.lower <= value <= self.upper

    @property
    def length(self) -> float:
        return self.upper - self.lower


def require_ordered(lower: float, upper: float) -> None:
    """DomainError when an interval's bounds are out of order."""
    if lower > upper:
        raise DomainError(f"interval bounds out of order: ({lower}, {upper})")


@dataclass(frozen=True)
class TestResult:
    z_stat: float
    p_value: float


@dataclass(frozen=True)
class KappaCovariance:
    """Delta-method variances and covariance of the two kappa estimates.

    ``a`` holds the 2x3 coefficient array (a_h1, a_h2, a_h3) that maps the
    variances of (Se_h, Sp_h, p) onto Var[kappa_h(c)]. var_theta and
    var_log_theta are None when kappa2 (or the product kappa1*kappa2) is
    zero, in which case the ratio-based intervals raise at point of use.
    """

    var1: float
    var2: float
    cov12: float
    a: tuple[tuple[float, float, float], tuple[float, float, float]]
    var_theta: float | None
    var_log_theta: float | None

    @property
    def se_delta(self) -> float:
        return _se_delta(self.var1, self.var2, self.cov12)


def _se_delta(var1: float, var2: float, cov12: float) -> float:
    """Standard error of kappa1 - kappa2."""
    var = var1 + var2 - 2.0 * cov12
    # max(var, 0.0), NaN and -0.0 included, without the builtin call: the
    # closed-form bounds clip their variances so once per coverage replicate
    return math.sqrt(0.0 if 0.0 > var else var)


def _var_theta(k1: float, k2: float, var1: float, var2: float, cov12: float) -> float:
    """Delta-method Var[theta]; kappa2 must not be zero."""
    return (k2 * k2 * var1 + k1 * k1 * var2 - 2.0 * k1 * k2 * cov12) / k2 ** 4


def _var_log_theta(k1: float, k2: float, var1: float, var2: float, cov12: float) -> float:
    """Delta-method Var[ln theta]; neither kappa may be zero."""
    return var1 / (k1 * k1) + var2 / (k2 * k2) - 2.0 * cov12 / (k1 * k2)


def _covariance(accuracy: tuple, kappa1: float, kappa2: float, c: float, n: float):
    """(var1, var2, cov12, a1, a2) of the kappas at sample size ``n``, as plain floats.

    ``accuracy`` is (se1, sp1, se2, sp2, p, eps1, eps0) (accuracy_values)
    and ``n`` must be positive. The delta-method step of kappa_covariance,
    which wraps it; DegenerateKappaError when a Youden index is zero. a_h
    is the (a_h1, a_h2, a_h3) that maps the variances of (Se_h, Sp_h, p)
    onto Var[kappa_h(c)].
    """
    se1, sp1, se2, sp2, p, eps1, eps0 = accuracy
    y1 = se1 + sp1 - 1.0
    y2 = se2 + sp2 - 1.0
    # the algebra divides by Y_h; anti-informative estimates (negative Y)
    # still have well-defined variances and occur routinely in small samples
    if abs(y1) <= TOL_YOUDEN or abs(y2) <= TOL_YOUDEN:
        raise DegenerateKappaError(
            f"variance is degenerate at Youden indices ({y1:g}, {y2:g})")
    q = 1.0 - p
    n_p = n * p
    n_q = n * q
    var_se1 = se1 * (1.0 - se1) / n_p
    var_se2 = se2 * (1.0 - se2) / n_p
    var_sp1 = sp1 * (1.0 - sp1) / n_q
    var_sp2 = sp2 * (1.0 - sp2) / n_q
    pq = p * q
    var_p = pq / n
    cov_se = eps1 / n_p
    cov_sp = eps0 / n_q

    # a_h1 = pq - p(q - c)kappa_h, a_h2 = a_h1 + (q - c)kappa_h and
    # a_h3 = (1 - 2p)Y_h - ((1 - c - 2p)Y_h + Sp_h + c - 1)kappa_h
    qc = q - c
    p_qc = p * qc
    one_2p = 1.0 - 2.0 * p
    c_2p = 1.0 - c - 2.0 * p
    a11 = pq - p_qc * kappa1
    a12 = a11 + qc * kappa1
    a13 = one_2p * y1 - (c_2p * y1 + sp1 + c - 1.0) * kappa1
    a21 = pq - p_qc * kappa2
    a22 = a21 + qc * kappa2
    a23 = one_2p * y2 - (c_2p * y2 + sp2 + c - 1.0) * kappa2

    scale1 = (kappa1 / (pq * y1)) ** 2
    scale2 = (kappa2 / (pq * y2)) ** 2
    var1 = scale1 * (a11 ** 2 * var_se1 + a12 ** 2 * var_sp1 + a13 ** 2 * var_p)
    var2 = scale2 * (a21 ** 2 * var_se2 + a22 ** 2 * var_sp2 + a23 ** 2 * var_p)
    cov_scale = kappa1 * kappa2 / (p * p * q * q * y1 * y2)
    cov12 = cov_scale * (a11 * a21 * cov_se + a12 * a22 * cov_sp + a13 * a23 * var_p)
    return var1, var2, cov12, (a11, a12, a13), (a21, a22, a23)


def kappa_covariance(acc: AccuracyEstimates, kp: KappaPair, n: float) -> KappaCovariance:
    """Variances and covariance of the kappa estimates at sample size ``n``.

    Evaluating at n=1 gives the scale-free quantities n*Var and n*Cov,
    which is what the sample-size formula needs.
    """
    if n <= 0:
        raise DomainError(f"sample size must be positive, got {n!r}")
    k1, k2 = kp.kappa1, kp.kappa2
    var1, var2, cov12, a1, a2 = _covariance(
        (acc.se1, acc.sp1, acc.se2, acc.sp2, acc.p, acc.eps1, acc.eps0), k1, k2, kp.c, n)
    var_theta = None
    var_log_theta = None
    if k2 != 0.0:
        var_theta = _var_theta(k1, k2, var1, var2, cov12)
        if k1 != 0.0:
            var_log_theta = _var_log_theta(k1, k2, var1, var2, cov12)
    return KappaCovariance(var1=var1, var2=var2, cov12=cov12, a=(a1, a2),
                           var_theta=var_theta, var_log_theta=var_log_theta)


def _analysis(cells, c: float) -> tuple:
    """(kappa1, kappa2, var1, var2, cov12) of a table at ``c``, as plain floats.

    ``cells`` are the eight cells in table order (PairedCounts.cells()),
    as any sequence. One inline pass from the cells: the arithmetic of
    accuracy_values and of weighted_kappa for both tests, in their order,
    then one _covariance call, so the floats are those of
    accuracy_from_counts, kappa_pair and kappa_covariance, and no objects
    are built. Where a check of theirs fails, the function that owns it
    runs and raises its error, so the errors and messages are theirs too,
    in the same order. Integer cells up to numerics._MAX_SIZE give the
    floats of the same cells as floats: their sums and products stay below
    2**53, so both are exact.
    """
    s11, s10, s01, s00, r11, r10, r01, r00 = cells
    s = s11 + s10 + s01 + s00
    r = r11 + r10 + r01 + r00
    if s <= 0 or r <= 0:
        accuracy_values(*cells)  # raises its NonEstimableError
    se1 = (s11 + s10) / s
    sp1 = (r01 + r00) / r
    se2 = (s11 + s01) / s
    sp2 = (r10 + r00) / r
    n = s + r  # PairedCounts.n
    p = s / n
    accuracy = (se1, sp1, se2, sp2, p, (s11 * s00 - s10 * s01) / (s * s),
                (r11 * r00 - r10 * r01) / (r * r))
    if not 0.0 < p < 1.0:  # an infinite or overflowing cell
        AccuracyEstimates(*accuracy)  # raises the DomainError that names the field
    q = 1.0 - p
    big_q1 = p * se1 + q * (1.0 - sp1)
    big_q2 = p * se2 + q * (1.0 - sp2)
    den1 = p * (1.0 - big_q1) * c + q * big_q1 * (1.0 - c)
    den2 = p * (1.0 - big_q2) * c + q * big_q2 * (1.0 - c)
    if not (den1 > 0.0 and den2 > 0.0 and 0.0 <= c <= 1.0 and 0.0 <= se1 <= 1.0
            and 0.0 <= sp1 <= 1.0 and 0.0 <= se2 <= 1.0 and 0.0 <= sp2 <= 1.0):
        weighted_kappa(se1, sp1, p, c)  # raises the first error of the two kappas
        weighted_kappa(se2, sp2, p, c)
    kappa1 = p * q * (se1 + sp1 - 1.0) / den1
    kappa2 = p * q * (se2 + sp2 - 1.0) / den2
    var1, var2, cov12, _, _ = _covariance(accuracy, kappa1, kappa2, c, n)
    return kappa1, kappa2, var1, var2, cov12


def bloch_test(counts: PairedCounts, c: float) -> TestResult:
    """Asymptotic z test of equal weighted kappas (two-sided)."""
    kappa1, kappa2, var1, var2, cov12 = _analysis(counts.cells(), c)
    delta = kappa1 - kappa2
    se = _se_delta(var1, var2, cov12)
    # se and delta at rounding level count as 0: an exact 0 can compute as residue
    scale = max(abs(kappa1), abs(kappa2))
    if se * se <= 1e-12 * (var1 + var2) or se <= 1e-9 * scale:
        if abs(delta) <= 1e-9 * scale:
            # identical test columns: no evidence either way
            return TestResult(z_stat=0.0, p_value=1.0)
        raise DegenerateKappaError("zero standard error; the test statistic is undefined")
    z = delta / se
    return TestResult(z_stat=z, p_value=2.0 * normal_cdf(-abs(z)))


# The closed-form bounds, held by their METHODS entries: each returns
# (lower, upper, point) from the table's analysis, the tuple (kappa1,
# kappa2, var1, var2, cov12) of _analysis, and the critical value z, and
# clips a variance below 0 as _se_delta does.

def _wald_diff(analysis: tuple, z: float) -> tuple:
    kappa1, kappa2, var1, var2, cov12 = analysis
    delta = kappa1 - kappa2
    half = z * _se_delta(var1, var2, cov12)
    return delta - half, delta + half, delta


def _wald_ratio(analysis: tuple, z: float) -> tuple:
    kappa1, kappa2, var1, var2, cov12 = analysis
    theta = kappa_ratio(kappa1, kappa2)
    var_theta = _var_theta(kappa1, kappa2, var1, var2, cov12)
    half = z * math.sqrt(0.0 if 0.0 > var_theta else var_theta)
    return theta - half, theta + half, theta


def _log_ratio(analysis: tuple, z: float) -> tuple:
    kappa1, kappa2, var1, var2, cov12 = analysis
    if kappa1 <= 0.0 or kappa2 <= 0.0:
        raise LogIntervalError(
            f"logarithmic interval needs positive kappas, got ({kappa1:g}, {kappa2:g})")
    theta = kappa_ratio(kappa1, kappa2)
    var_log_theta = _var_log_theta(kappa1, kappa2, var1, var2, cov12)
    log_spread = z * math.sqrt(0.0 if 0.0 > var_log_theta else var_log_theta)
    try:
        spread = math.exp(log_spread)
    except OverflowError:
        spread = math.inf
    upper = theta * spread
    if not math.isfinite(upper):
        # kappa1 or kappa2 just above 0 makes Var[ln theta] explode
        raise LogIntervalError(
            f"logarithmic interval is unbounded: z*sqrt(Var[ln theta]) = {log_spread:g}")
    return theta / spread, upper, theta


def _fieller(analysis: tuple, z: float) -> tuple:
    lower, upper = fieller_interval(*analysis, z)
    return lower, upper, kappa_ratio(analysis[0], analysis[1])


def wald_diff_ci(counts: PairedCounts, c: float,
                 config: ConfidenceConfig | None = None) -> ConfidenceInterval:
    """Wald interval for the difference, inverting the z test."""
    return METHODS["wald-diff"].interval(counts, c, config)


def wald_ratio_ci(counts: PairedCounts, c: float,
                  config: ConfidenceConfig | None = None) -> ConfidenceInterval:
    """Wald interval for the ratio from the delta-method variance of theta."""
    return METHODS["wald-ratio"].interval(counts, c, config)


def log_ratio_ci(counts: PairedCounts, c: float,
                 config: ConfidenceConfig | None = None) -> ConfidenceInterval:
    """Interval for the ratio through the normal approximation of ln(theta)."""
    return METHODS["log-ratio"].interval(counts, c, config)


def fieller_interval(kappa1: float, kappa2: float, var1: float, var2: float,
                     cov12: float, z: float) -> tuple[float, float]:
    """Roots of the Fieller quadratic, lower root first.

    Its coefficients are w_ij = kappa_i*kappa_j - sigma_ij * z^2. Invalid
    (raises) when the discriminant is negative or w22 is zero; a
    discriminant that is zero up to rounding yields the degenerate point
    interval.
    """
    w11 = kappa1 * kappa1 - var1 * z * z
    w12 = kappa1 * kappa2 - cov12 * z * z
    w22 = kappa2 * kappa2 - var2 * z * z
    discriminant = w12 * w12 - w11 * w22
    if discriminant < 0.0 and discriminant >= -1e-12 * max(w12 * w12, abs(w11 * w22)):
        discriminant = 0.0
    if not (w22 != 0.0 and discriminant >= 0.0):
        raise FiellerInvalidError(
            f"Fieller condition fails (w12^2 - w11*w22 = {discriminant:g}, "
            f"w22 = {w22:g})")
    root = math.sqrt(discriminant)
    lo = (w12 - root) / w22
    hi = (w12 + root) / w22
    return (lo, hi) if lo <= hi else (hi, lo)


def fieller_ratio_ci(counts: PairedCounts, c: float,
                     config: ConfidenceConfig | None = None) -> ConfidenceInterval:
    """Fieller interval for the ratio of the two kappas."""
    return METHODS["fieller-ratio"].interval(counts, c, config)


def _add_coefficients(columns, accuracies) -> None:
    """Append the c-free kappa coefficients of each (se1, sp1, se2, sp2, p) to ``columns``.

    kappa_h(c) = N_h / (A_h * c + B_h * (1 - c)) with A_h = p * (1 - Q_h),
    B_h = q * Q_h and N_h = p * q * Y_h: the factors weighted_kappa
    computes before it uses c, in the same order, so the kappas are
    bit-identical to kappa_pair. ``columns`` holds (A1, B1, N1, A2, B2, N2)
    as six arrays. A None entry (a table that is not estimable) gets zeros,
    so both its denominators are 0 at every c.
    """
    a1s, b1s, n1s, a2s, b2s, n2s = columns
    for acc in accuracies:
        if acc is None:
            for column in columns:
                column.append(0.0)
            continue
        se1, sp1, se2, sp2, p = acc
        q = 1.0 - p
        q1 = p * se1 + q * (1.0 - sp1)
        q2 = p * se2 + q * (1.0 - sp2)
        a1s.append(p * (1.0 - q1))
        b1s.append(q * q1)
        n1s.append(p * q * (se1 + sp1 - 1.0))
        a2s.append(p * (1.0 - q2))
        b2s.append(q * q2)
        n2s.append(p * q * (se2 + sp2 - 1.0))


def _kappa_stats(columns, c: float, start: int, stop: int) -> tuple:
    """(differences, ratios) at ``c`` of rows ``start`` to ``stop`` - 1, as two lists.

    ``columns`` are c-free coefficients (see _add_coefficients). The
    differences are kappa1 - kappa2 and the ratios kappa1 / kappa2, of one
    pass over the rows. A row whose denominator is not positive at ``c``
    (where kappa_pair raises DegenerateKappaError) is skipped by both, and a
    row with kappa2 = 0 by the ratios. The kappas are divided as kappa_pair
    divides them, so the statistics are bit-identical to those of
    kappa_pair. Lists, not arrays: each row stores the float it has built,
    and the quantiles, means and counts that read them unbox nothing.
    _Resamples.statistics is its one caller.
    """
    d = 1.0 - c
    differences = []
    ratios = []
    add_difference = differences.append
    add_ratio = ratios.append
    for a1, b1, n1, a2, b2, n2 in islice(zip(*columns), start, stop):
        den1 = a1 * c + b1 * d
        den2 = a2 * c + b2 * d
        if den1 <= 0.0 or den2 <= 0.0:
            continue
        k1 = n1 / den1
        k2 = n2 / den2
        add_difference(k1 - k2)
        if k2 != 0.0:
            add_ratio(k1 / k2)
    return differences, ratios


class _Resamples:
    """Resampled rows of one table, kept as c-free coefficients and shared by every c and target.

    A subclass defines ``_draw(k)``, which draws the next ``k`` rows from
    the stream and returns one (se1, sp1, se2, sp2, p) tuple, or None, per
    row. ``coefficients(count)`` draws only the rows still missing, in
    stream order, so rows grown in several calls are those of one call. A
    draw that raises DomainError, or whose stream refuses a read
    (DenormalsAreZeroError), is not tried again: its rows are dropped but
    their uniforms are spent, so every later call that needs rows past
    those already drawn raises it. The statistics at the latest c are kept
    too (``statistics``), so the difference and the ratio at one c share
    them, and each row is scanned once at that c.
    """

    __slots__ = ("counts", "_stream", "_coefficients", "_error", "_c", "_kept")

    def __init__(self, counts: PairedCounts, stream: RandomStream):
        self.counts = counts
        self._stream = stream
        self._coefficients = tuple(array("d") for _ in range(6))
        self._error: DomainError | DenormalsAreZeroError | None = None
        self._c: float | None = None  # the c of _kept
        self._kept: tuple = (0, ([], []))  # (rows scanned, _kappa_stats of those rows)

    def coefficients(self, count: int) -> tuple:
        """The coefficient columns of at least the first ``count`` rows."""
        columns = self._coefficients
        missing = count - len(columns[0])
        if missing > 0:
            if self._error is not None:
                raise self._error.with_traceback(None)
            try:
                _add_coefficients(columns, self._draw(missing))
            except (DomainError, DenormalsAreZeroError) as error:
                self._error = error
                raise
        return columns

    def statistics(self, c: float, which: int, k: int, limit: int) -> list:
        """The first ``k`` statistics at ``c`` within the first ``limit`` rows.

        ``which`` picks the differences (0) or the ratios (1) of
        _kappa_stats; fewer than ``k`` come back when the first ``limit``
        rows hold fewer. At the latest c the store keeps the statistics of
        the rows scanned so far, and scans on only while the target is
        short of ``k``: first to row ``k``, then as far as its share
        accepted suggests, never past ``limit``. A ``limit`` below the rows
        kept gets a pass of its own, and another c starts again from the
        first row. Kept lists are replaced, never extended, so a list that
        a caller holds never changes.
        """
        if c != self._c:
            self._c, self._kept = c, (0, ([], []))
        rows, stats = self._kept
        if limit < rows:
            return _kappa_stats(self.coefficients(limit), c, 0, limit)[which][:k]
        while len(stats[which]) < k and rows < limit:
            stop = min(k if rows < k else math.ceil(rows * k / max(len(stats[which]), 1)), limit)
            differences, ratios = _kappa_stats(self.coefficients(stop), c, rows, stop)
            rows, stats = stop, (stats[0] + differences, stats[1] + ratios)
            self._kept = rows, stats
        return stats[which] if len(stats[which]) <= k else stats[which][:k]


class BootstrapTables(_Resamples):
    """Bootstrap resamples of one table (_Resamples).

    Resamples the 8-cell table from a multinomial with the observed
    proportions (distributionally identical to resampling subjects), at
    size round(n): n + 4 on a continuity-corrected table. A resample with
    an empty stratum is not estimable, and its coefficients are zeros.
    """

    __slots__ = ("size", "probs", "_plan")

    def __init__(self, counts: PairedCounts, stream: RandomStream):
        if counts.n <= 0:
            raise NonEstimableError("cannot resample an empty table")
        if counts.n == math.inf:
            raise DomainError("cannot resample a table of infinite size")
        super().__init__(counts, stream)
        self.size = int(round(counts.n))
        self.probs = [cell / counts.n for cell in counts.cells()]
        self._plan: tuple | None = None  # (plan, size) of the first draw, shared by every resample

    def _draw(self, k: int) -> list:
        if self._plan is None:
            self._plan = _multinomial_plan(self.probs, self.size)
        plan, size = self._plan
        uniform = self._stream.uniform
        drawn = []
        for _ in range(k):
            s11, s10, s01, s00, r11, r10, r01, r00 = _multinomial_draw(plan, size, uniform)
            # accuracy_from_counts on the integer cells: sums below 2**53
            # are exact, so the quotients are those of the float cells
            s = s11 + s10 + s01 + s00
            r = r11 + r10 + r01 + r00
            if s <= 0 or r <= 0:
                drawn.append(None)
            else:
                drawn.append(((s11 + s10) / s, (r01 + r00) / r, (s11 + s01) / s,
                              (r10 + r00) / r, s / (s + r)))
        return drawn


def bootstrap_ci(counts: PairedCounts, c: float, target: str,
                 config: ConfidenceConfig | None = None,
                 tables: BootstrapTables | None = None) -> ConfidenceInterval:
    """Bias-corrected bootstrap interval for the difference or the ratio.

    ``tables`` are the resamples of ``counts``; by default fresh ones are
    drawn from (config.seed, BOOTSTRAP_STREAM). The bootstrap walks them
    from the first, skips those not estimable at ``c`` and, for the ratio,
    those with kappa2 = 0, and stops once B are accepted; it fails when
    _BOOTSTRAP_DRAW_FACTOR * B tables give fewer. One BootstrapTables can
    serve every c and target of a table, with the same intervals as fresh
    tables for each call.

    The bias correction shifts the percentile levels by z0 = Phi^-1(A/B)
    where A counts replicate statistics below the plug-in estimate; A is
    clamped to [1, B-1] so z0 stays finite on degenerate data. ``point``
    is the plug-in estimate, which a strongly bias-corrected interval may
    legitimately exclude.
    """
    return METHODS[_tag("boot", target)].interval(counts, c, config, tables=tables)


def _bootstrap(counts: PairedCounts, c: float, target: str, config: ConfidenceConfig,
               tables: BootstrapTables | None) -> tuple:
    pair = kappa_pair(accuracy_from_counts(counts), c)
    ratio = target == "ratio"
    point = pair.theta if ratio else pair.delta
    if tables is None:
        tables = analysis_draws(counts, config)[0]
    elif tables.counts != counts:
        raise DomainError("the bootstrap tables were drawn from another table")
    b = config.bootstrap_b
    budget = _BOOTSTRAP_DRAW_FACTOR * b  # read per call, so a patched factor applies
    stats = tables.statistics(c, ratio, b, budget)
    if len(stats) < b:
        raise BootstrapFailedError(
            f"only {len(stats)} of {b} replicates were estimable within {budget} draws")
    lower, upper = _bias_corrected_bounds(stats, point, config.z)
    return lower, upper, point


def _bias_corrected_bounds(stats, point: float, z: float) -> tuple[float, float]:
    """BC percentile bounds from replicate statistics, in any order.

    A counts the statistics strictly below ``point``: ties are not counted.
    """
    b = len(stats)
    a_count = min(max(len([x for x in stats if x < point]), 1), b - 1)
    z0 = normal_quantile(a_count / b)
    return select_quantiles(stats, normal_cdf(2.0 * z0 - z), normal_cdf(2.0 * z0 + z))


def _posterior_params(counts: PairedCounts, priors: Priors):
    s, r, n = counts.s, counts.r, counts.n
    return (
        (counts.s11 + counts.s10 + priors.se1.alpha, s - counts.s11 - counts.s10 + priors.se1.beta),
        (counts.r01 + counts.r00 + priors.sp1.alpha, r - counts.r01 - counts.r00 + priors.sp1.beta),
        (counts.s11 + counts.s01 + priors.se2.alpha, s - counts.s11 - counts.s01 + priors.se2.beta),
        (counts.r10 + counts.r00 + priors.sp2.alpha, r - counts.r10 - counts.r00 + priors.sp2.beta),
        (s + priors.p.alpha, n - s + priors.p.beta),
    )


class PosteriorDraws(_Resamples):
    """Posterior draws of (Se1, Sp1, Se2, Sp2, p) of one table (_Resamples).

    The five proportions have independent conjugate Beta posteriors, drawn
    by sample_beta_rows. It leaves the stream, pending normal included,
    where one longer call would, so one set grows to any M with the draws
    of a fresh one.
    """

    __slots__ = ("priors", "_params")

    def __init__(self, counts: PairedCounts, priors: Priors, stream: RandomStream):
        super().__init__(counts, stream)
        self.priors = priors
        self._params = _posterior_params(counts, priors)

    def _draw(self, k: int):
        draws = iter(sample_beta_rows(self._params, k, self._stream))
        return zip(draws, draws, draws, draws, draws)


def analysis_draws(counts: PairedCounts, config: ConfidenceConfig | None = None) -> tuple:
    """(BootstrapTables, PosteriorDraws) of ``counts`` from (config.seed,
    BOOTSTRAP_STREAM) and (config.seed, BAYES_STREAM), at config.priors.

    One pair serves every c and target of the table; both draw nothing
    until an interval asks. These are the draws of bootstrap_ci and
    bayesian_ci when the caller passes none.
    """
    config = config or DEFAULT_CONFIG
    return (BootstrapTables(counts, RandomStream(config.seed, BOOTSTRAP_STREAM)),
            PosteriorDraws(counts, config.priors, RandomStream(config.seed, BAYES_STREAM)))


def bayesian_ci(counts: PairedCounts, c: float, target: str,
                config: ConfidenceConfig | None = None,
                draws: PosteriorDraws | None = None) -> ConfidenceInterval:
    """Equal-tail posterior quantile interval from conjugate Beta posteriors.

    The interval reads the first M posterior tuples (Se1, Sp1, Se2, Sp2, p)
    of ``draws``, which must be those of ``counts`` and config.priors; by
    default fresh ones are drawn from (config.seed, BAYES_STREAM). One
    PosteriorDraws can serve every c, target and M of a table, with the
    same intervals as fresh draws for each call. Each tuple is
    pushed through the kappa formula; the reported point is the posterior
    mean of the target statistic. Draws with a non-positive Youden index
    are kept (the posterior ranges over all parameter values); ratio draws
    with kappa2 exactly zero are excluded. DegenerateKappaError when no
    draw is left.
    """
    return METHODS[_tag("bayes", target)].interval(counts, c, config, draws=draws)


def _bayesian(counts: PairedCounts, c: float, target: str, config: ConfidenceConfig,
              draws: PosteriorDraws | None) -> tuple:
    if not 0.0 <= c <= 1.0:
        raise DomainError(f"weighting index must be in [0, 1], got {c!r}")
    if counts.s <= 0 or counts.r <= 0:
        accuracy_from_counts(counts)  # raises NonEstimableError with details
    if draws is None:
        draws = analysis_draws(counts, config)[1]
    elif (draws.counts, draws.priors) != (counts, config.priors):
        raise DomainError("the posterior draws were made for another table or prior")
    stats = draws.statistics(c, target == "ratio", config.bayes_m, config.bayes_m)
    if not stats:
        raise DegenerateKappaError(f"no posterior draw has a defined {target} "
                                   "(kappa2 exactly 0, or a zero kappa denominator)")
    excluded = config.bayes_m - len(stats)  # measure-zero events; excluded but counted
    if excluded:
        warnings.warn(f"{excluded} of {config.bayes_m} posterior draws had an undefined "
                      f"{target} (kappa2 exactly 0, or a zero kappa denominator) and "
                      "were excluded from its quantiles", stacklevel=_caller_stacklevel())
    alpha = config.alpha
    lower, upper = select_quantiles(stats, alpha / 2.0, 1.0 - alpha / 2.0)
    return lower, upper, math.fsum(stats) / len(stats)


_PACKAGE_PREFIX = os.path.dirname(os.path.abspath(__file__)) + os.sep


def _caller_stacklevel() -> int:
    """The warnings.warn stacklevel, for the function that calls this one,
    that names the first frame outside the package: the user's call."""
    frame, level = sys._getframe(1), 1
    while frame.f_back is not None and frame.f_code.co_filename.startswith(_PACKAGE_PREFIX):
        frame, level = frame.f_back, level + 1
    return level


@dataclass(frozen=True, slots=True)
class Method:
    """An interval: its target, the shared draw it reads (None, "tables" or
    "draws"), its ConfidenceInterval.method label and, when closed form, its
    ``bound(analysis, z)``: (lower, upper, point) from the table's _analysis,
    in any order. The resampled ones have None; interval runs _bootstrap or _bayesian."""

    target: str
    draw: str | None
    label: str
    bound: Callable[[tuple, float], tuple[float, float, float]] | None = None

    def interval(self, counts: PairedCounts, c: float, config: ConfidenceConfig | None = None,
                 tables: BootstrapTables | None = None,
                 draws: PosteriorDraws | None = None) -> ConfidenceInterval:
        """The interval on ``counts`` at ``c``, by default at DEFAULT_CONFIG."""
        config = config or DEFAULT_CONFIG
        if self.draw == "tables":
            lower, upper, point = _bootstrap(counts, c, self.target, config, tables)
        elif self.draw == "draws":
            lower, upper, point = _bayesian(counts, c, self.target, config, draws)
        else:
            lower, upper, point = self.bound(_analysis(counts.cells(), c), config.z)
        return ConfidenceInterval(self.target, self.label, lower, upper, point)


def _tag(kind: str, target: str) -> str:
    """The tag of the ``kind`` ("boot" or "bayes") interval for ``target``."""
    if target not in ("difference", "ratio"):
        raise DomainError(f"target must be 'difference' or 'ratio', got {target!r}")
    return f"{kind}-diff" if target == "difference" else f"{kind}-ratio"


# every interval by tag, in report order: analyze, the public *_ci functions
# and the coverage scorer all reach a closed-form interval through its bound
METHODS = {
    "wald-diff": Method("difference", None, "wald", _wald_diff),
    "boot-diff": Method("difference", "tables", "bootstrap-bc"),
    "bayes-diff": Method("difference", "draws", "bayesian-quantile"),
    "wald-ratio": Method("ratio", None, "wald", _wald_ratio),
    "log-ratio": Method("ratio", None, "logarithmic", _log_ratio),
    "fieller-ratio": Method("ratio", None, "fieller", _fieller),
    "boot-ratio": Method("ratio", "tables", "bootstrap-bc"),
    "bayes-ratio": Method("ratio", "draws", "bayesian-quantile"),
}


def check_methods(methods) -> tuple:
    """``methods`` as a tuple of distinct tags of METHODS.

    DomainError refuses an empty list and names the first tag not in
    METHODS or the first repeated one, whichever comes first.
    """
    methods = tuple(methods)
    choices = ", ".join(sorted(METHODS))
    if not methods:
        raise DomainError(f"the method list is empty; choose from {choices}")
    for k, method in enumerate(methods):
        if method not in METHODS:
            raise DomainError(f"unknown method {method!r}; choose from {choices}")
        if method in methods[:k]:
            raise DomainError(f"the method list names {method!r} twice")
    return methods


def reciprocal_ratio_ci(ci: ConfidenceInterval, theta_hat: float) -> ConfidenceInterval:
    """Plain reciprocal of both bounds, for any method; they must not straddle zero."""
    if ci.target != "ratio":
        raise DomainError(f"can only invert a ratio interval, got target {ci.target!r}")
    if ci.lower <= 0.0 <= ci.upper:
        raise InversionUndefinedError(
            f"interval ({ci.lower:g}, {ci.upper:g}) straddles zero; reciprocal undefined")
    return ConfidenceInterval(target="inverse-ratio", method=ci.method,
                              lower=1.0 / ci.upper, upper=1.0 / ci.lower,
                              point=1.0 / theta_hat if theta_hat != 0.0 else math.inf)
