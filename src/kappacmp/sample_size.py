"""Precision-based sample size for estimating the kappa ratio.

The target is the half-width phi of the Wald interval for
theta = kappa1(c)/kappa2(c): setting phi = z*sqrt(Var(theta_hat)) and
solving for n gives the required size, since Var(theta_hat) scales as 1/n.
Planning is iterative: a pilot sample supplies the parameter estimates, the
formula says how many subjects to add, and the cycle repeats on the
enlarged sample until the interval is narrow enough.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .data_model import SMALL_SAMPLE, PairedCounts, correct_counts
from .errors import DomainError
from .inference import (
    DEFAULT_CONFIG,
    ConfidenceConfig,
    ConfidenceInterval,
    kappa_covariance,
    wald_ratio_ci,
)
from .kappa_core import (
    TOL_YOUDEN,
    AccuracyEstimates,
    KappaPair,
    accuracy_from_counts,
    kappa_pair,
)

__all__ = [
    "SampleSizePlan",
    "required_sample_size",
    "precision_reached",
    "plan_iteration",
]

@dataclass(frozen=True)
class SampleSizePlan:
    """Outcome of one planning round; ``corrected`` when the pilot got the +0.5 correction."""

    phi: float
    conf: float
    n_required: int
    achieved: bool
    pilot_n: int
    ci: ConfidenceInterval
    corrected: bool
    warnings: tuple[str, ...] = ()

    @property
    def additional_needed(self) -> int:
        return max(self.n_required - self.pilot_n, 0)


def _check_precision(phi: float) -> None:
    """DomainError unless the target half-width ``phi`` is positive and finite."""
    if not 0.0 < phi < math.inf:  # rejects NaN as well
        raise DomainError(f"precision must be positive and finite, got {phi!r}")


def required_sample_size(acc: AccuracyEstimates, kp: KappaPair, phi: float,
                         conf: float = 0.95) -> int:
    """Sample size so the Wald ratio interval at ``kp.c`` has half-width at most ``phi``.

    Computed as ceil(z^2 * Var(theta_hat)|_{n=1} / phi^2); evaluating the
    delta-method variance at n=1 yields the scale-free n*Var(theta_hat),
    so z^2 * Var_hat(theta_hat) / phi^2 = n holds identically. DomainError
    when that n is not finite, as for a ``phi`` so small that phi^2 or the
    quotient leaves double range.
    """
    _check_precision(phi)
    z = ConfidenceConfig(conf=conf).z  # raises on a confidence level outside (0, 1)
    if acc.y1 <= TOL_YOUDEN or acc.y2 <= TOL_YOUDEN or kp.kappa2 <= 0.0:
        raise DomainError("sizing a ratio study needs informative tests "
                          f"(Y1={acc.y1:g}, Y2={acc.y2:g}, kappa2={kp.kappa2:g})")
    cov = kappa_covariance(acc, kp, n=1.0)
    phi2 = phi * phi  # 0 once phi is below about 1e-162
    n_real = z * z * max(cov.var_theta, 0.0) / phi2 if phi2 else math.inf
    if not math.isfinite(n_real):
        raise DomainError(f"precision {phi!r} is too small: the required sample size "
                          "is not finite")
    return int(math.ceil(n_real - 1e-9))


def precision_reached(ci: ConfidenceInterval, phi: float) -> bool:
    """True when the interval half-width is at most ``phi``."""
    _check_precision(phi)
    return ci.half_width <= phi


def plan_iteration(counts: PairedCounts, c: float, phi: float, *,
                   config: ConfidenceConfig | None = None,
                   correct: bool | str = "auto") -> SampleSizePlan:
    """One planning round at ``config.conf``: check the pilot's precision, else size the sample.

    data_model.correct_counts applies ``correct``; the working counts feed
    both the interval and the sample-size formula. The loop over successive
    samples is driven by the caller acquiring data; this never blocks.
    """
    config = config or DEFAULT_CONFIG
    pilot_n = int(round(counts.n))
    working, apply = correct_counts(counts, correct)

    ci = wald_ratio_ci(working, c, config)
    warnings = []
    if ci.contains(1.0) and counts.n >= SMALL_SAMPLE:
        warnings.append(
            "the ratio interval contains 1 on a non-small pilot; the kappas are "
            "not distinguishable, so sizing the sample for their ratio may be moot")

    if precision_reached(ci, phi):
        n_required = pilot_n
        achieved = True
    else:
        acc = accuracy_from_counts(working)
        n_required = required_sample_size(acc, kappa_pair(acc, c), phi, config.conf)
        achieved = False
    return SampleSizePlan(phi=phi, conf=config.conf, n_required=n_required,
                          achieved=achieved, pilot_n=pilot_n, ci=ci,
                          corrected=apply, warnings=tuple(warnings))
