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
from dataclasses import dataclass, replace

from .data_model import PairedCounts, apply_continuity_correction
from .errors import DomainError
from .inference import (
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
    "SMALL_PILOT",
    "SampleSizePlan",
    "required_sample_size",
    "precision_reached",
    "plan_iteration",
]

# Pilot sizes below this get the +0.5 continuity correction before planning.
SMALL_PILOT = 100


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


def required_sample_size(acc: AccuracyEstimates, kp: KappaPair, phi: float,
                         conf: float = 0.95) -> int:
    """Sample size so the Wald ratio interval at ``kp.c`` has half-width at most ``phi``.

    Computed as ceil(z^2 * Var(theta_hat)|_{n=1} / phi^2); evaluating the
    delta-method variance at n=1 yields the scale-free n*Var(theta_hat),
    so z^2 * Var_hat(theta_hat) / phi^2 = n holds identically.
    """
    if phi <= 0.0:
        raise DomainError(f"precision must be positive, got {phi!r}")
    if not 0.0 < conf < 1.0:
        raise DomainError(f"confidence level must be in (0, 1), got {conf!r}")
    if acc.y1 <= TOL_YOUDEN or acc.y2 <= TOL_YOUDEN or kp.kappa2 <= 0.0:
        raise DomainError("sizing a ratio study needs informative tests "
                          f"(Y1={acc.y1:g}, Y2={acc.y2:g}, kappa2={kp.kappa2:g})")
    cov = kappa_covariance(acc, kp, n=1.0)
    if cov.var_theta is None:
        raise DomainError("kappa2 is zero; the ratio is undefined")
    z = ConfidenceConfig(conf=conf).z
    n_real = z * z * cov.var_theta / (phi * phi)
    return int(math.ceil(n_real - 1e-9))


def precision_reached(ci: ConfidenceInterval, phi: float) -> bool:
    """True when the interval half-width is at most ``phi``."""
    if phi <= 0.0:
        raise DomainError(f"precision must be positive, got {phi!r}")
    return ci.half_width <= phi


def plan_iteration(counts: PairedCounts, c: float, phi: float, conf: float = 0.95,
                   config: ConfidenceConfig | None = None,
                   correct: bool | str = "auto") -> SampleSizePlan:
    """One planning round: check the pilot's precision, else size the sample.

    With ``correct="auto"`` the +0.5 correction is applied to pilots smaller
    than 100 subjects, and the corrected counts feed both the interval and
    the sample-size formula. The loop over successive samples is driven by
    the caller acquiring data; this never blocks.
    """
    config = replace(config, conf=conf) if config is not None else ConfidenceConfig(conf=conf)
    pilot_n = int(round(counts.n))
    if correct == "auto":
        apply = counts.n < SMALL_PILOT
    else:
        apply = bool(correct)
    working = apply_continuity_correction(counts) if apply else counts

    ci = wald_ratio_ci(working, c, config)
    warnings = []
    if ci.contains(1.0) and counts.n >= SMALL_PILOT:
        warnings.append(
            "the ratio interval contains 1 on a non-small pilot; the kappas are "
            "not distinguishable, so sizing the sample for their ratio may be moot")

    if precision_reached(ci, phi):
        n_required = pilot_n
        achieved = True
    else:
        acc = accuracy_from_counts(working)
        n_required = required_sample_size(acc, kappa_pair(acc, c), phi, conf)
        achieved = False
    return SampleSizePlan(phi=phi, conf=conf, n_required=n_required,
                          achieved=achieved, pilot_n=pilot_n, ci=ci,
                          corrected=apply, warnings=tuple(warnings))
