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
import warnings
from array import array
from bisect import bisect_left
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

from .data_model import PairedCounts
from .errors import (
    BootstrapFailedError,
    DegenerateKappaError,
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
    kappa_pair,  # noqa: F401 - perfbench/run.py traces inference.kappa_pair
    kappa_ratio,
    weighted_kappa,
)
from .numerics import (
    RandomStream,
    normal_cdf,
    normal_quantile,
    sample_beta,  # noqa: F401 - perfbench/run.py traces inference.sample_beta
    sample_beta_rows,
    sample_multinomial,
    sorted_quantile,
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
    "bootstrap_ci",
    "bayesian_ci",
    "METHODS",
    "check_methods",
    "invert_ratio_ci",
    "reciprocal_ratio_ci",
]

# Substream tags so that analysis-level bootstrap and posterior draws never
# collide with the per-replicate streams used by coverage studies.
BOOTSTRAP_STREAM = 101
BAYES_STREAM = 102

_BOOTSTRAP_DRAW_FACTOR = 10  # total draw budget = factor * B before giving up


@dataclass(frozen=True)
class BetaPrior:
    """Parameters of a conjugate Beta prior."""

    alpha: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        if self.alpha <= 0.0 or self.beta <= 0.0:
            raise DomainError(f"Beta prior parameters must be positive, got {self}")


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
        if self.bootstrap_b < 100:
            raise DomainError(f"bootstrap needs B >= 100, got {self.bootstrap_b}")
        if self.bayes_m < 1000:
            raise DomainError(f"posterior sampling needs M >= 1000, got {self.bayes_m}")

    @property
    def alpha(self) -> float:
        return 1.0 - self.conf

    @cached_property
    def z(self) -> float:
        """Two-sided critical value z_{1-alpha/2} (computed once per config)."""
        return normal_quantile(1.0 - self.alpha / 2.0)


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
    return math.sqrt(max(var1 + var2 - 2.0 * cov12, 0.0))


def _var_theta(k1: float, k2: float, var1: float, var2: float, cov12: float) -> float:
    """Delta-method Var[theta]; kappa2 must not be zero."""
    return (k2 * k2 * var1 + k1 * k1 * var2 - 2.0 * k1 * k2 * cov12) / k2 ** 4


def _var_log_theta(k1: float, k2: float, var1: float, var2: float, cov12: float) -> float:
    """Delta-method Var[ln theta]; neither kappa may be zero."""
    return var1 / (k1 * k1) + var2 / (k2 * k2) - 2.0 * cov12 / (k1 * k2)


def _a_coefficients(p: float, q: float, kappa: float, y: float, sp: float, c: float):
    a1 = p * q - p * (q - c) * kappa
    a2 = a1 + (q - c) * kappa
    a3 = (1.0 - 2.0 * p) * y - ((1.0 - c - 2.0 * p) * y + sp + c - 1.0) * kappa
    return a1, a2, a3


def _covariance(accuracy: tuple, kappa1: float, kappa2: float, c: float, n: float):
    """(var1, var2, cov12, a1, a2) of the kappas at sample size ``n``, as plain floats.

    ``accuracy`` is (se1, sp1, se2, sp2, p, eps1, eps0) (accuracy_values)
    and ``n`` must be positive. The delta-method step of kappa_covariance,
    which wraps it; DegenerateKappaError when a Youden index is zero.
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
    var_se1 = se1 * (1.0 - se1) / (n * p)
    var_se2 = se2 * (1.0 - se2) / (n * p)
    var_sp1 = sp1 * (1.0 - sp1) / (n * q)
    var_sp2 = sp2 * (1.0 - sp2) / (n * q)
    var_p = p * q / n
    cov_se = eps1 / (n * p)
    cov_sp = eps0 / (n * q)

    a1 = _a_coefficients(p, q, kappa1, y1, sp1, c)
    a2 = _a_coefficients(p, q, kappa2, y2, sp2, c)

    scale1 = (kappa1 / (p * q * y1)) ** 2
    scale2 = (kappa2 / (p * q * y2)) ** 2
    var1 = scale1 * (a1[0] ** 2 * var_se1 + a1[1] ** 2 * var_sp1 + a1[2] ** 2 * var_p)
    var2 = scale2 * (a2[0] ** 2 * var_se2 + a2[1] ** 2 * var_sp2 + a2[2] ** 2 * var_p)
    cov_scale = kappa1 * kappa2 / (p * p * q * q * y1 * y2)
    cov12 = cov_scale * (a1[0] * a2[0] * cov_se + a1[1] * a2[1] * cov_sp
                         + a1[2] * a2[2] * var_p)
    return var1, var2, cov12, a1, a2


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


# (counts, c, analysis) of the latest _analysis; replaced as one tuple
_last_analysis: tuple = (None, None, None)


def _analysis(counts: PairedCounts, c: float) -> tuple:
    """(kappa1, kappa2, var1, var2, cov12) of ``counts`` at ``c``, as plain floats.

    One pass from the eight cells through accuracy_values, weighted_kappa
    and _covariance: the arithmetic of accuracy_from_counts, kappa_pair and
    kappa_covariance, with their errors, and no objects built. The latest
    result is memoised, keyed on the identity of ``counts`` and on ``c``,
    so the intervals and the test of one table at one c share one
    covariance. The memo holds ``counts``, so its id cannot be reused while
    it is memoised; a failed analysis is not stored, so it raises again.
    """
    global _last_analysis
    last_counts, last_c, result = _last_analysis
    if counts is last_counts and c == last_c:
        return result
    accuracy = accuracy_values(*counts.cells())
    se1, sp1, se2, sp2, p, _, _ = accuracy
    kappa1 = weighted_kappa(se1, sp1, p, c)
    kappa2 = weighted_kappa(se2, sp2, p, c)
    var1, var2, cov12, _, _ = _covariance(accuracy, kappa1, kappa2, c, counts.n)
    result = kappa1, kappa2, var1, var2, cov12
    _last_analysis = (counts, c, result)
    return result


def bloch_test(counts: PairedCounts, c: float,
               config: ConfidenceConfig | None = None) -> TestResult:
    """Asymptotic z test of equal weighted kappas (two-sided)."""
    kappa1, kappa2, var1, var2, cov12 = _analysis(counts, c)
    delta = kappa1 - kappa2
    se = _se_delta(var1, var2, cov12)
    if se == 0.0:
        if delta == 0.0:
            # identical test columns: no evidence either way
            return TestResult(z_stat=0.0, p_value=1.0)
        raise DegenerateKappaError("zero standard error; the test statistic is undefined")
    z = delta / se
    return TestResult(z_stat=z, p_value=2.0 * normal_cdf(-abs(z)))


# The interval bounds: each returns (lower, upper, point) and needs a
# config. METHODS calls them; the public *_ci functions wrap them in a
# ConfidenceInterval through METHODS.

def _wald_diff(counts: PairedCounts, c: float, config: ConfidenceConfig) -> tuple:
    kappa1, kappa2, var1, var2, cov12 = _analysis(counts, c)
    delta = kappa1 - kappa2
    half = config.z * _se_delta(var1, var2, cov12)
    return delta - half, delta + half, delta


def _wald_ratio(counts: PairedCounts, c: float, config: ConfidenceConfig) -> tuple:
    kappa1, kappa2, var1, var2, cov12 = _analysis(counts, c)
    theta = kappa_ratio(kappa1, kappa2)
    half = config.z * math.sqrt(max(_var_theta(kappa1, kappa2, var1, var2, cov12), 0.0))
    return theta - half, theta + half, theta


def _log_ratio(counts: PairedCounts, c: float, config: ConfidenceConfig) -> tuple:
    kappa1, kappa2, var1, var2, cov12 = _analysis(counts, c)
    if kappa1 <= 0.0 or kappa2 <= 0.0:
        raise LogIntervalError(
            f"logarithmic interval needs positive kappas, got ({kappa1:g}, {kappa2:g})")
    theta = kappa_ratio(kappa1, kappa2)
    log_spread = config.z * math.sqrt(max(_var_log_theta(kappa1, kappa2, var1, var2, cov12),
                                          0.0))
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


def _fieller(counts: PairedCounts, c: float, config: ConfidenceConfig) -> tuple:
    kappa1, kappa2, var1, var2, cov12 = _analysis(counts, c)
    lower, upper = fieller_interval(kappa1, kappa2, var1, var2, cov12, config.z)
    return lower, upper, kappa_ratio(kappa1, kappa2)


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


def _target_stats(columns, c: float, ratio: bool, start: int = 0,
                  stop: int | None = None) -> list:
    """kappa1 - kappa2 (or, with ``ratio``, kappa1 / kappa2) at ``c`` of rows start:stop.

    ``columns`` are c-free coefficients (see _add_coefficients). A row whose
    denominator is not positive at ``c`` (where kappa_pair raises
    DegenerateKappaError) is skipped, and so, for the ratio, is a row with
    kappa2 = 0. The kappas are divided as kappa_pair divides them, so the
    statistics are bit-identical to those of kappa_pair.
    """
    d = 1.0 - c
    stats = []
    for a1, b1, n1, a2, b2, n2 in zip(*(column[start:stop] for column in columns)):
        den1 = a1 * c + b1 * d
        den2 = a2 * c + b2 * d
        if den1 <= 0.0 or den2 <= 0.0:
            continue
        if not ratio:
            stats.append(n1 / den1 - n2 / den2)
        elif (k2 := n2 / den2) != 0.0:
            stats.append(n1 / den1 / k2)
    return stats


def _coefficient_columns() -> tuple:
    return tuple(array("d") for _ in range(6))


class BootstrapTables:
    """Bootstrap resamples of one table, shared by every c and target.

    Resamples the 8-cell table from a multinomial with the observed
    proportions (distributionally identical to resampling subjects), at
    size round(n): n + 4 on a continuity-corrected table. Tables are drawn
    from ``stream`` only when first asked for, in stream order, and each
    keeps only the six c-free coefficients of its kappas (zeros when a
    stratum is empty).
    """

    __slots__ = ("counts", "size", "probs", "_stream", "_cdfs", "_coefficients")

    def __init__(self, counts: PairedCounts, stream: RandomStream):
        if counts.n <= 0:
            raise NonEstimableError("cannot resample an empty table")
        self.counts = counts
        self.size = int(round(counts.n))
        self.probs = [cell / counts.n for cell in counts.cells()]
        self._stream = stream
        self._cdfs: dict = {}  # binomial CDFs shared by every resample (sample_multinomial)
        self._coefficients = _coefficient_columns()

    def coefficients(self, count: int) -> tuple:
        """The coefficient columns of at least the first ``count`` tables."""
        columns = self._coefficients
        drawn = []
        for _ in range(count - len(columns[0])):
            s11, s10, s01, s00, r11, r10, r01, r00 = sample_multinomial(
                self.probs, self.size, self._stream, self._cdfs)
            # accuracy_from_counts on the integer cells: sums below 2**53 are
            # exact, so the quotients are those of the float cells
            s = s11 + s10 + s01 + s00
            r = r11 + r10 + r01 + r00
            if s <= 0 or r <= 0:
                drawn.append(None)
            else:
                drawn.append(((s11 + s10) / s, (r01 + r00) / r, (s11 + s01) / s,
                              (r10 + r00) / r, s / (s + r)))
        _add_coefficients(columns, drawn)
        return columns


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
    kappa1, kappa2, _, _, _ = _analysis(counts, c)
    need_ratio = target == "ratio"
    point = kappa_ratio(kappa1, kappa2) if need_ratio else kappa1 - kappa2
    if tables is None:
        tables = BootstrapTables(counts, RandomStream(config.seed, BOOTSTRAP_STREAM))
    elif tables.counts != counts:
        raise DomainError("the bootstrap tables were drawn from another table")
    b = config.bootstrap_b
    budget = _BOOTSTRAP_DRAW_FACTOR * b  # read per call, so a patched factor applies
    stats: list[float] = []
    scanned = 0
    while len(stats) < b and scanned < budget:
        end = min(scanned + b - len(stats), budget)
        stats += _target_stats(tables.coefficients(end), c, need_ratio, scanned, end)
        scanned = end
    if len(stats) < b:
        raise BootstrapFailedError(
            f"only {len(stats)} of {b} replicates were estimable within {budget} draws")
    stats.sort()
    lower, upper = _bias_corrected_bounds(stats, point, config.z)
    return lower, upper, point


def _bias_corrected_bounds(stats: list[float], point: float, z: float) -> tuple[float, float]:
    """BC percentile bounds from replicate statistics in ascending order.

    A counts the statistics strictly below ``point``: ties are not counted.
    """
    b = len(stats)
    a_count = min(max(bisect_left(stats, point), 1), b - 1)
    z0 = normal_quantile(a_count / b)
    return (sorted_quantile(stats, normal_cdf(2.0 * z0 - z)),
            sorted_quantile(stats, normal_cdf(2.0 * z0 + z)))


def _posterior_params(counts: PairedCounts, priors: Priors):
    s, r, n = counts.s, counts.r, counts.n
    return (
        (counts.s11 + counts.s10 + priors.se1.alpha, s - counts.s11 - counts.s10 + priors.se1.beta),
        (counts.r01 + counts.r00 + priors.sp1.alpha, r - counts.r01 - counts.r00 + priors.sp1.beta),
        (counts.s11 + counts.s01 + priors.se2.alpha, s - counts.s11 - counts.s01 + priors.se2.beta),
        (counts.r10 + counts.r00 + priors.sp2.alpha, r - counts.r10 - counts.r00 + priors.sp2.beta),
        (s + priors.p.alpha, n - s + priors.p.beta),
    )


class PosteriorDraws:
    """M posterior draws of (Se1, Sp1, Se2, Sp2, p), shared by every c and target.

    The five proportions have independent conjugate Beta posteriors. The M
    tuples are drawn from ``stream`` on first use (sample_beta_rows) and
    kept only as the six c-free coefficients of their kappas.
    """

    __slots__ = ("counts", "priors", "m", "_stream", "_coefficients")

    def __init__(self, counts: PairedCounts, priors: Priors, m: int, stream: RandomStream):
        self.counts = counts
        self.priors = priors
        self.m = m
        self._stream = stream
        self._coefficients: tuple | None = None

    def coefficients(self) -> tuple:
        """The coefficient columns of the M draws."""
        if self._coefficients is None:
            params = _posterior_params(self.counts, self.priors)
            draws = iter(sample_beta_rows(params, self.m, self._stream))
            self._coefficients = _coefficient_columns()
            _add_coefficients(self._coefficients, zip(draws, draws, draws, draws, draws))
        return self._coefficients


def bayesian_ci(counts: PairedCounts, c: float, target: str,
                config: ConfidenceConfig | None = None,
                draws: PosteriorDraws | None = None) -> ConfidenceInterval:
    """Equal-tail posterior quantile interval from conjugate Beta posteriors.

    ``draws`` are M posterior tuples (Se1, Sp1, Se2, Sp2, p) of ``counts``;
    by default fresh ones are drawn from (config.seed, BAYES_STREAM). One
    PosteriorDraws can serve every c and target of a table. Each tuple is
    pushed through the kappa formula; the reported point is the posterior
    mean of the target statistic. Draws with a non-positive Youden index
    are kept (the posterior ranges over all parameter values); ratio draws
    with kappa2 exactly zero are excluded.
    """
    return METHODS[_tag("bayes", target)].interval(counts, c, config, draws=draws)


def _bayesian(counts: PairedCounts, c: float, target: str, config: ConfidenceConfig,
              draws: PosteriorDraws | None) -> tuple:
    if not 0.0 <= c <= 1.0:
        raise DomainError(f"weighting index must be in [0, 1], got {c!r}")
    if counts.s <= 0 or counts.r <= 0:
        accuracy_from_counts(counts)  # raises NonEstimableError with details
    if draws is None:
        draws = PosteriorDraws(counts, config.priors, config.bayes_m,
                               RandomStream(config.seed, BAYES_STREAM))
    elif (draws.counts, draws.priors, draws.m) != (counts, config.priors, config.bayes_m):
        raise DomainError("the posterior draws were made for another table, prior or M")
    stats = _target_stats(draws.coefficients(), c, target == "ratio")
    excluded = config.bayes_m - len(stats)  # measure-zero events; excluded but counted
    if excluded:
        warnings.warn(f"{excluded} of {config.bayes_m} posterior draws had an undefined "
                      f"{target} (kappa2 exactly 0, or a zero kappa denominator) and "
                      "were excluded from its quantiles", stacklevel=2)
    stats.sort()
    alpha = config.alpha
    return (sorted_quantile(stats, alpha / 2.0), sorted_quantile(stats, 1.0 - alpha / 2.0),
            math.fsum(stats) / len(stats))


@dataclass(frozen=True, slots=True)
class Method:
    """An interval: its target, the shared draw it reads (None, "tables" or
    "draws"), its ConfidenceInterval.method label and its
    ``call(counts, c, config, tables, draws)``, which returns the bounds as
    (lower, upper, point) without checking their order."""

    target: str
    draw: str | None
    label: str
    call: Callable[..., tuple[float, float, float]]

    def interval(self, counts: PairedCounts, c: float, config: ConfidenceConfig | None = None,
                 tables: BootstrapTables | None = None,
                 draws: PosteriorDraws | None = None) -> ConfidenceInterval:
        """The call's bounds as a ConfidenceInterval, by default at ConfidenceConfig()."""
        lower, upper, point = self.call(counts, c, config or ConfidenceConfig(), tables, draws)
        return ConfidenceInterval(self.target, self.label, lower, upper, point)


def _tag(kind: str, target: str) -> str:
    """The tag of the ``kind`` ("boot" or "bayes") interval for ``target``."""
    if target not in ("difference", "ratio"):
        raise DomainError(f"target must be 'difference' or 'ratio', got {target!r}")
    return f"{kind}-diff" if target == "difference" else f"{kind}-ratio"


# every interval by tag, in report order; the calls look up this module's
# bound functions when they run
METHODS = {
    "wald-diff": Method("difference", None, "wald", lambda counts, c, config, tables, draws: _wald_diff(counts, c, config)),
    "boot-diff": Method("difference", "tables", "bootstrap-bc", lambda counts, c, config, tables, draws: _bootstrap(counts, c, "difference", config, tables)),
    "bayes-diff": Method("difference", "draws", "bayesian-quantile", lambda counts, c, config, tables, draws: _bayesian(counts, c, "difference", config, draws)),
    "wald-ratio": Method("ratio", None, "wald", lambda counts, c, config, tables, draws: _wald_ratio(counts, c, config)),
    "log-ratio": Method("ratio", None, "logarithmic", lambda counts, c, config, tables, draws: _log_ratio(counts, c, config)),
    "fieller-ratio": Method("ratio", None, "fieller", lambda counts, c, config, tables, draws: _fieller(counts, c, config)),
    "boot-ratio": Method("ratio", "tables", "bootstrap-bc", lambda counts, c, config, tables, draws: _bootstrap(counts, c, "ratio", config, tables)),
    "bayes-ratio": Method("ratio", "draws", "bayesian-quantile", lambda counts, c, config, tables, draws: _bayesian(counts, c, "ratio", config, draws)),
}


def check_methods(methods) -> tuple:
    """``methods`` as a tuple; DomainError names the first tag not in METHODS."""
    methods = tuple(methods)
    for method in methods:
        if method not in METHODS:
            raise DomainError(
                f"unknown method {method!r}; choose from {', '.join(sorted(METHODS))}")
    return methods


def invert_ratio_ci(ci: ConfidenceInterval, theta_hat: float) -> ConfidenceInterval:
    """Interval for the reciprocal ratio theta' = 1/theta.

    Wald bounds are divided by theta_hat^2; every other method takes the
    reciprocal of each bound (reciprocal_ratio_ci).
    """
    if ci.method != "wald":
        return reciprocal_ratio_ci(ci, theta_hat)
    if ci.target != "ratio":
        raise DomainError(f"can only invert a ratio interval, got target {ci.target!r}")
    if theta_hat == 0.0:
        raise InversionUndefinedError("theta_hat is zero; the Wald inversion is undefined")
    scale = theta_hat * theta_hat
    return ConfidenceInterval(target="inverse-ratio", method=ci.method,
                              lower=ci.lower / scale, upper=ci.upper / scale,
                              point=1.0 / theta_hat)


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
