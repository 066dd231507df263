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
from dataclasses import dataclass, replace
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
    UndefinedRatioError,
)
from .kappa_core import (
    TOL_YOUDEN,
    AccuracyEstimates,
    KappaPair,
    accuracy_from_counts,
    kappa_pair,
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
    "FiellerCoefficients",
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
    corrected: bool = False

    def __post_init__(self):
        if self.lower > self.upper:
            raise DomainError(f"interval bounds out of order: ({self.lower}, {self.upper})")

    @property
    def half_width(self) -> float:
        return (self.upper - self.lower) / 2.0

    def contains(self, value: float) -> bool:
        return self.lower <= value <= self.upper

    @property
    def length(self) -> float:
        return self.upper - self.lower


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
        return math.sqrt(max(self.var1 + self.var2 - 2.0 * self.cov12, 0.0))


@dataclass(frozen=True)
class FiellerCoefficients:
    """Quadratic coefficients w_ij = kappa_i*kappa_j - sigma_ij * z^2.

    A discriminant that is zero up to rounding still yields the degenerate
    point interval; only a genuinely negative one invalidates the method.
    """

    w11: float
    w12: float
    w22: float

    @property
    def discriminant(self) -> float:
        raw = self.w12 * self.w12 - self.w11 * self.w22
        if raw < 0.0 and raw >= -1e-12 * max(self.w12 * self.w12,
                                             abs(self.w11 * self.w22)):
            return 0.0
        return raw

    @property
    def valid(self) -> bool:
        return self.w22 != 0.0 and self.discriminant >= 0.0


def _a_coefficients(acc: AccuracyEstimates, kappa: float, y: float, sp: float, c: float):
    p, q = acc.p, acc.q
    a1 = p * q - p * (q - c) * kappa
    a2 = a1 + (q - c) * kappa
    a3 = (1.0 - 2.0 * p) * y - ((1.0 - c - 2.0 * p) * y + sp + c - 1.0) * kappa
    return a1, a2, a3


def kappa_covariance(acc: AccuracyEstimates, kp: KappaPair, n: float) -> KappaCovariance:
    """Variances and covariance of the kappa estimates at sample size ``n``.

    Evaluating at n=1 gives the scale-free quantities n*Var and n*Cov,
    which is what the sample-size formula needs.
    """
    if n <= 0:
        raise DomainError(f"sample size must be positive, got {n!r}")
    # the algebra divides by Y_h; anti-informative estimates (negative Y)
    # still have well-defined variances and occur routinely in small samples
    if abs(acc.y1) <= TOL_YOUDEN or abs(acc.y2) <= TOL_YOUDEN:
        raise DegenerateKappaError(
            f"variance is degenerate at Youden indices ({acc.y1:g}, {acc.y2:g})")
    p, q, c = acc.p, acc.q, kp.c
    var_se1 = acc.se1 * (1.0 - acc.se1) / (n * p)
    var_se2 = acc.se2 * (1.0 - acc.se2) / (n * p)
    var_sp1 = acc.sp1 * (1.0 - acc.sp1) / (n * q)
    var_sp2 = acc.sp2 * (1.0 - acc.sp2) / (n * q)
    var_p = p * q / n
    cov_se = acc.eps1 / (n * p)
    cov_sp = acc.eps0 / (n * q)

    a1 = _a_coefficients(acc, kp.kappa1, acc.y1, acc.sp1, c)
    a2 = _a_coefficients(acc, kp.kappa2, acc.y2, acc.sp2, c)

    scale1 = (kp.kappa1 / (p * q * acc.y1)) ** 2
    scale2 = (kp.kappa2 / (p * q * acc.y2)) ** 2
    var1 = scale1 * (a1[0] ** 2 * var_se1 + a1[1] ** 2 * var_sp1 + a1[2] ** 2 * var_p)
    var2 = scale2 * (a2[0] ** 2 * var_se2 + a2[1] ** 2 * var_sp2 + a2[2] ** 2 * var_p)
    cov_scale = kp.kappa1 * kp.kappa2 / (p * p * q * q * acc.y1 * acc.y2)
    cov12 = cov_scale * (a1[0] * a2[0] * cov_se + a1[1] * a2[1] * cov_sp
                         + a1[2] * a2[2] * var_p)

    var_theta = None
    var_log_theta = None
    if kp.kappa2 != 0.0:
        k1, k2 = kp.kappa1, kp.kappa2
        var_theta = (k2 * k2 * var1 + k1 * k1 * var2 - 2.0 * k1 * k2 * cov12) / k2 ** 4
        if k1 != 0.0:
            var_log_theta = (var1 / (k1 * k1) + var2 / (k2 * k2)
                             - 2.0 * cov12 / (k1 * k2))
    return KappaCovariance(var1=var1, var2=var2, cov12=cov12, a=(a1, a2),
                           var_theta=var_theta, var_log_theta=var_log_theta)


# (counts, c, (acc, kp, cov)) of the latest _analysis; replaced as one tuple
_last_analysis: tuple = (None, None, None)


def _analysis(counts: PairedCounts, c: float):
    """Accuracy, kappas and covariance of ``counts`` at ``c``.

    The latest result is memoised, keyed on the identity of ``counts`` and
    on ``c``, so the intervals and the test of one table at one c share one
    covariance. The memo holds ``counts``, so its id cannot be reused while
    it is memoised; a failed analysis is not stored, so it raises again.
    """
    global _last_analysis
    last_counts, last_c, result = _last_analysis
    if counts is last_counts and c == last_c:
        return result
    acc = accuracy_from_counts(counts)
    kp = kappa_pair(acc, c)
    cov = kappa_covariance(acc, kp, counts.n)
    result = acc, kp, cov
    _last_analysis = (counts, c, result)
    return result


def bloch_test(counts: PairedCounts, c: float,
               config: ConfidenceConfig | None = None) -> TestResult:
    """Asymptotic z test of equal weighted kappas (two-sided)."""
    _, kp, cov = _analysis(counts, c)
    se = cov.se_delta
    if se == 0.0:
        if kp.delta == 0.0:
            # identical test columns: no evidence either way
            return TestResult(z_stat=0.0, p_value=1.0)
        raise DegenerateKappaError("zero standard error; the test statistic is undefined")
    z = kp.delta / se
    return TestResult(z_stat=z, p_value=2.0 * normal_cdf(-abs(z)))


def wald_diff_ci(counts: PairedCounts, c: float,
                 config: ConfidenceConfig | None = None) -> ConfidenceInterval:
    """Wald interval for the difference, inverting the z test."""
    config = config or ConfidenceConfig()
    _, kp, cov = _analysis(counts, c)
    half = config.z * cov.se_delta
    return ConfidenceInterval(target="difference", method="wald",
                              lower=kp.delta - half, upper=kp.delta + half,
                              point=kp.delta)


def wald_ratio_ci(counts: PairedCounts, c: float,
                  config: ConfidenceConfig | None = None) -> ConfidenceInterval:
    """Wald interval for the ratio from the delta-method variance of theta."""
    config = config or ConfidenceConfig()
    _, kp, cov = _analysis(counts, c)
    if cov.var_theta is None:
        raise UndefinedRatioError("kappa2 is zero; the ratio is undefined")
    theta = kp.theta
    half = config.z * math.sqrt(max(cov.var_theta, 0.0))
    return ConfidenceInterval(target="ratio", method="wald",
                              lower=theta - half, upper=theta + half, point=theta)


def log_ratio_ci(counts: PairedCounts, c: float,
                 config: ConfidenceConfig | None = None) -> ConfidenceInterval:
    """Interval for the ratio through the normal approximation of ln(theta)."""
    config = config or ConfidenceConfig()
    _, kp, cov = _analysis(counts, c)
    if kp.kappa1 <= 0.0 or kp.kappa2 <= 0.0:
        raise LogIntervalError(
            f"logarithmic interval needs positive kappas, got ({kp.kappa1:g}, {kp.kappa2:g})")
    theta = kp.theta
    log_spread = config.z * math.sqrt(max(cov.var_log_theta, 0.0))
    try:
        spread = math.exp(log_spread)
    except OverflowError:
        spread = math.inf
    upper = theta * spread
    if not math.isfinite(upper):
        # kappa1 or kappa2 just above 0 makes Var[ln theta] explode
        raise LogIntervalError(
            f"logarithmic interval is unbounded: z*sqrt(Var[ln theta]) = {log_spread:g}")
    return ConfidenceInterval(target="ratio", method="logarithmic",
                              lower=theta / spread, upper=upper, point=theta)


def fieller_interval(kappa1: float, kappa2: float, var1: float, var2: float,
                     cov12: float, z: float) -> tuple[float, float]:
    """Roots of the Fieller quadratic, lower root first.

    Invalid (raises) when the discriminant is negative or w22 is zero; a
    zero discriminant yields the degenerate point interval.
    """
    coeffs = FiellerCoefficients(
        w11=kappa1 * kappa1 - var1 * z * z,
        w12=kappa1 * kappa2 - cov12 * z * z,
        w22=kappa2 * kappa2 - var2 * z * z,
    )
    if not coeffs.valid:
        raise FiellerInvalidError(
            f"Fieller condition fails (w12^2 - w11*w22 = {coeffs.discriminant:g}, "
            f"w22 = {coeffs.w22:g})")
    root = math.sqrt(coeffs.discriminant)
    lo = (coeffs.w12 - root) / coeffs.w22
    hi = (coeffs.w12 + root) / coeffs.w22
    return (lo, hi) if lo <= hi else (hi, lo)


def fieller_ratio_ci(counts: PairedCounts, c: float,
                     config: ConfidenceConfig | None = None) -> ConfidenceInterval:
    """Fieller interval for the ratio of the two kappas."""
    config = config or ConfidenceConfig()
    _, kp, cov = _analysis(counts, c)
    lo, hi = fieller_interval(kp.kappa1, kp.kappa2, cov.var1, cov.var2,
                              cov.cov12, config.z)
    return ConfidenceInterval(target="ratio", method="fieller",
                              lower=lo, upper=hi, point=kp.theta)


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


def _kappa_pairs(columns, c: float) -> list:
    """(kappa1, kappa2) at ``c`` of each row of c-free coefficients (see _add_coefficients).

    A row whose denominator is not positive at ``c`` (where kappa_pair
    raises DegenerateKappaError) gives None.
    """
    d = 1.0 - c
    pairs = []
    for a1, b1, n1, a2, b2, n2 in zip(*columns):
        den1 = a1 * c + b1 * d
        den2 = a2 * c + b2 * d
        if den1 <= 0.0 or den2 <= 0.0:
            pairs.append(None)
        else:
            pairs.append((n1 / den1, n2 / den2))
    return pairs


def _coefficient_columns() -> tuple:
    return tuple(array("d") for _ in range(6))


class BootstrapTables:
    """Bootstrap resamples of one table, shared by every c and target.

    Resamples the 8-cell table from a multinomial with the observed
    proportions (distributionally identical to resampling subjects), at
    size round(n): n + 4 on a continuity-corrected table. Tables are drawn
    from ``stream`` only when first asked for, in stream order, and each
    keeps only the six c-free coefficients of its kappas (zeros when a
    stratum is empty). The kappa pairs of the latest c are memoised, so
    the difference and the ratio at one c share a pass.
    """

    __slots__ = ("counts", "size", "probs", "_stream", "_cdfs", "_coefficients", "_c", "_pairs")

    def __init__(self, counts: PairedCounts, stream: RandomStream):
        if counts.n <= 0:
            raise NonEstimableError("cannot resample an empty table")
        self.counts = counts
        self.size = int(round(counts.n))
        self.probs = [cell / counts.n for cell in counts.cells()]
        self._stream = stream
        self._cdfs: dict = {}  # binomial CDFs shared by every resample (sample_multinomial)
        self._coefficients = _coefficient_columns()
        self._c: float | None = None
        self._pairs: list = []

    def kappa_pairs(self, c: float, count: int) -> list:
        """Kappa pairs at ``c`` of at least the first ``count`` tables (None: not estimable)."""
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
        if c != self._c:
            self._c, self._pairs = c, []
        pairs = self._pairs
        if len(pairs) < count:
            start = len(pairs)
            pairs.extend(_kappa_pairs([column[start:count] for column in columns], c))
        return pairs


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
    config = config or ConfidenceConfig()
    if target not in ("difference", "ratio"):
        raise DomainError(f"target must be 'difference' or 'ratio', got {target!r}")
    _, kp, _ = _analysis(counts, c)
    need_ratio = target == "ratio"
    point = kp.theta if need_ratio else kp.delta
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
        for pair in tables.kappa_pairs(c, end)[scanned:end]:
            if pair is None:
                continue
            k1, k2 = pair
            if not need_ratio:
                stats.append(k1 - k2)
            elif k2 != 0.0:
                stats.append(k1 / k2)
        scanned = end
    if len(stats) < b:
        raise BootstrapFailedError(
            f"only {len(stats)} of {b} replicates were estimable within {budget} draws")
    stats.sort()
    lower, upper = _bias_corrected_bounds(stats, point, config.z)
    return ConfidenceInterval(target=target, method="bootstrap-bc",
                              lower=lower, upper=upper, point=point)


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
    kept only as the six c-free coefficients of their kappas; the kappa
    pairs of the latest c are memoised, so the difference and the ratio at
    one c share a pass.
    """

    __slots__ = ("counts", "priors", "m", "_stream", "_coefficients", "_c", "_pairs")

    def __init__(self, counts: PairedCounts, priors: Priors, m: int, stream: RandomStream):
        self.counts = counts
        self.priors = priors
        self.m = m
        self._stream = stream
        self._coefficients: tuple | None = None
        self._c: float | None = None
        self._pairs: list = []

    def kappa_pairs(self, c: float) -> list:
        """Kappa pairs at ``c`` of the M draws (None: a denominator is not positive)."""
        if self._coefficients is None:
            params = _posterior_params(self.counts, self.priors)
            draws = iter(sample_beta_rows(params, self.m, self._stream))
            self._coefficients = _coefficient_columns()
            _add_coefficients(self._coefficients, zip(draws, draws, draws, draws, draws))
        if c != self._c:
            self._c, self._pairs = c, _kappa_pairs(self._coefficients, c)
        return self._pairs


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
    config = config or ConfidenceConfig()
    if target not in ("difference", "ratio"):
        raise DomainError(f"target must be 'difference' or 'ratio', got {target!r}")
    if not 0.0 <= c <= 1.0:
        raise DomainError(f"weighting index must be in [0, 1], got {c!r}")
    if counts.s <= 0 or counts.r <= 0:
        accuracy_from_counts(counts)  # raises NonEstimableError with details
    if draws is None:
        draws = PosteriorDraws(counts, config.priors, config.bayes_m,
                               RandomStream(config.seed, BAYES_STREAM))
    elif (draws.counts, draws.priors, draws.m) != (counts, config.priors, config.bayes_m):
        raise DomainError("the posterior draws were made for another table, prior or M")
    need_ratio = target == "ratio"
    stats = []
    excluded = 0
    for pair in draws.kappa_pairs(c):
        if pair is None or (need_ratio and pair[1] == 0.0):
            excluded += 1  # measure-zero events; excluded but counted
            continue
        k1, k2 = pair
        stats.append(k1 / k2 if need_ratio else k1 - k2)
    if excluded:
        warnings.warn(f"{excluded} of {config.bayes_m} posterior draws had an undefined "
                      f"{target} (kappa2 exactly 0, or a zero kappa denominator) and "
                      "were excluded from its quantiles", stacklevel=2)
    stats.sort()
    alpha = config.alpha
    return ConfidenceInterval(target=target, method="bayesian-quantile",
                              lower=sorted_quantile(stats, alpha / 2.0),
                              upper=sorted_quantile(stats, 1.0 - alpha / 2.0),
                              point=math.fsum(stats) / len(stats))


@dataclass(frozen=True, slots=True)
class Method:
    """An interval: its target, the shared draw it reads (None, "tables" or
    "draws") and its ``call(counts, c, config, tables, draws)``."""

    target: str
    draw: str | None
    call: Callable[..., ConfidenceInterval]


# every interval by tag, in report order; the calls look up this module's
# interval functions when they run
METHODS = {
    "wald-diff": Method("difference", None, lambda counts, c, config, tables, draws: wald_diff_ci(counts, c, config)),
    "boot-diff": Method("difference", "tables", lambda counts, c, config, tables, draws: bootstrap_ci(counts, c, "difference", config, tables)),
    "bayes-diff": Method("difference", "draws", lambda counts, c, config, tables, draws: bayesian_ci(counts, c, "difference", config, draws)),
    "wald-ratio": Method("ratio", None, lambda counts, c, config, tables, draws: wald_ratio_ci(counts, c, config)),
    "log-ratio": Method("ratio", None, lambda counts, c, config, tables, draws: log_ratio_ci(counts, c, config)),
    "fieller-ratio": Method("ratio", None, lambda counts, c, config, tables, draws: fieller_ratio_ci(counts, c, config)),
    "boot-ratio": Method("ratio", "tables", lambda counts, c, config, tables, draws: bootstrap_ci(counts, c, "ratio", config, tables)),
    "bayes-ratio": Method("ratio", "draws", lambda counts, c, config, tables, draws: bayesian_ci(counts, c, "ratio", config, draws)),
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
                              point=1.0 / theta_hat, corrected=ci.corrected)


def reciprocal_ratio_ci(ci: ConfidenceInterval, theta_hat: float) -> ConfidenceInterval:
    """Plain reciprocal of both bounds, for any method; they must not straddle zero."""
    if ci.target != "ratio":
        raise DomainError(f"can only invert a ratio interval, got target {ci.target!r}")
    if ci.lower <= 0.0 <= ci.upper:
        raise InversionUndefinedError(
            f"interval ({ci.lower:g}, {ci.upper:g}) straddles zero; reciprocal undefined")
    return ConfidenceInterval(target="inverse-ratio", method=ci.method,
                              lower=1.0 / ci.upper, upper=1.0 / ci.lower,
                              point=1.0 / theta_hat if theta_hat != 0.0 else math.inf,
                              corrected=ci.corrected)


def mark_corrected(ci: ConfidenceInterval) -> ConfidenceInterval:
    """Flag an interval as computed from continuity-corrected counts."""
    return replace(ci, corrected=True)
