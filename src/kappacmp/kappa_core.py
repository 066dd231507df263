"""Point estimation of test accuracy and weighted kappa coefficients.

The weighted kappa coefficient of a binary test against a gold standard is

    kappa(c) = p*q*Y / (p*(1-Q)*c + q*Q*(1-c))

with Y = Se + Sp - 1 the Youden index, Q = p*Se + q*(1-Sp) the probability
of a positive result, and c in [0, 1] the weighting index balancing the
relative importance of false positives (c -> 0) against false negatives
(c -> 1). kappa(0) is chance-corrected specificity, kappa(1) chance-
corrected sensitivity, and kappa(0.5) the Cohen kappa.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .data_model import PairedCounts
from .errors import (
    DegenerateKappaError,
    DomainError,
    InfeasibleScenarioError,
    NonEstimableError,
    UndefinedRatioError,
)

__all__ = [
    "TOL_YOUDEN",
    "AccuracyEstimates",
    "KappaPair",
    "ComparisonVerdict",
    "accuracy_from_counts",
    "accuracy_values",
    "dependence_bounds",
    "weighted_kappa",
    "kappa_ratio",
    "kappa_pair",
    "accuracy_from_kappa_pair",
    "crossover_index",
    "compare_over_range",
    "kappa_curve",
    "render_curve",
]

# Below this the test carries no information: kappa -> 0 and the delta-method
# variances (which divide by Y) blow up.
TOL_YOUDEN = 1e-10

_CPRIME_TOL = 1e-12
_BOUNDARY_TOL = 1e-10


@dataclass(frozen=True)
class AccuracyEstimates:
    """Sensitivities, specificities, prevalence and dependence factors.

    Holds either sample estimates or theoretical scenario values. eps1 and
    eps0 are the covariances between the two tests within the diseased and
    healthy strata (conditional-dependence model); sample values may fall
    outside the theoretical bounds and are flagged, not rejected.
    """

    se1: float
    sp1: float
    se2: float
    sp2: float
    p: float
    eps1: float = 0.0
    eps0: float = 0.0

    def __post_init__(self):
        for name in ("se1", "sp1", "se2", "sp2"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise DomainError(f"{name} must be in [0, 1], got {value!r}")
        if not 0.0 < self.p < 1.0:
            raise DomainError(f"prevalence must be in (0, 1), got {self.p!r}")

    @property
    def q(self) -> float:
        return 1.0 - self.p

    @property
    def y1(self) -> float:
        return self.se1 + self.sp1 - 1.0

    @property
    def y2(self) -> float:
        return self.se2 + self.sp2 - 1.0

    @property
    def rtpf(self) -> float:
        """Ratio of sensitivities Se1/Se2 (inf when Se2=0<Se1, 1 for 0/0)."""
        return _safe_ratio(self.se1, self.se2)

    @property
    def rfpf(self) -> float:
        """Ratio of false positive fractions (1-Sp1)/(1-Sp2)."""
        return _safe_ratio(1.0 - self.sp1, 1.0 - self.sp2)

    @property
    def eps1_max(self) -> float:
        return dependence_bounds(self.se1, self.se2, self.sp1, self.sp2)[0]

    @property
    def eps0_max(self) -> float:
        return dependence_bounds(self.se1, self.se2, self.sp1, self.sp2)[1]

    @property
    def eps_within_bounds(self) -> bool:
        """True when both dependence factors lie in their theoretical ranges."""
        tol = 1e-12
        return (-tol <= self.eps1 <= self.eps1_max + tol
                and -tol <= self.eps0 <= self.eps0_max + tol)


def dependence_bounds(se1: float, se2: float, sp1: float, sp2: float) -> tuple[float, float]:
    """Upper bounds of the two dependence factors (lower bound is 0)."""
    for name, value in (("se1", se1), ("se2", se2), ("sp1", sp1), ("sp2", sp2)):
        if not 0.0 <= value <= 1.0:
            raise DomainError(f"{name} must be in [0, 1], got {value!r}")
    return (min(se1 * (1.0 - se2), se2 * (1.0 - se1)),
            min(sp1 * (1.0 - sp2), sp2 * (1.0 - sp1)))


def _safe_ratio(num: float, den: float) -> float:
    if den == 0.0:
        return 1.0 if num == 0.0 else math.inf
    return num / den


@dataclass(frozen=True)
class KappaPair:
    """The two weighted kappa estimates at a common weighting index."""

    c: float
    kappa1: float
    kappa2: float

    @property
    def delta(self) -> float:
        return self.kappa1 - self.kappa2

    @property
    def theta(self) -> float:
        return kappa_ratio(self.kappa1, self.kappa2)


@dataclass(frozen=True)
class ComparisonVerdict:
    """How kappa1(c) and kappa2(c) are ordered over the whole range of c.

    The sign of nu(c) = (1-c)*nu0 + c*nu1 (affine in c) carries the
    ordering; rule is the scenario tag, c_prime the crossover index when
    the sign changes, and boundary flags a crossover within tolerance of
    c = 0 or c = 1.
    """

    rule: str
    c_prime: float | None
    boundary: bool
    nu0: float
    nu1: float

    def nu(self, c: float) -> float:
        return (1.0 - c) * self.nu0 + c * self.nu1

    def relation(self, c: float) -> str:
        """One of '>', '<', '=' for kappa1(c) versus kappa2(c)."""
        value = self.nu(c)
        if value > 0.0:
            return ">"
        if value < 0.0:
            return "<"
        return "="

    def describe(self) -> str:
        if self.rule == "equal-everywhere":
            return "kappa1(c) = kappa2(c) for every c in [0, 1]"
        if self.c_prime is not None and 0.0 < self.c_prime < 1.0:
            lo = self.relation(0.0)
            hi = self.relation(1.0)
            return (f"kappa1(c) {lo} kappa2(c) for c < {self.c_prime:.4f}, "
                    f"kappa1(c) {hi} kappa2(c) for c > {self.c_prime:.4f}")
        rel = self.relation(0.5)
        return f"kappa1(c) {rel} kappa2(c) for every c in [0, 1]"


def accuracy_from_counts(counts: PairedCounts) -> AccuracyEstimates:
    """Maximum-likelihood accuracy estimates from the eight cell counts."""
    return AccuracyEstimates(*accuracy_values(*counts.cells()))


def accuracy_values(s11: float, s10: float, s01: float, s00: float,
                    r11: float, r10: float, r01: float, r00: float) -> tuple:
    """(se1, sp1, se2, sp2, p, eps1, eps0) of the eight cells, as plain floats.

    The fields of accuracy_from_counts, without building the object: it
    raises NonEstimableError on an empty stratum and the DomainError of
    AccuracyEstimates when a proportion is out of range, p on an infinite
    or overflowing cell and a sensitivity or specificity on a negative one.
    """
    s = s11 + s10 + s01 + s00
    r = r11 + r10 + r01 + r00
    if s <= 0 or r <= 0:
        raise NonEstimableError(
            f"need both strata non-empty to estimate (s={s:g}, r={r:g})")
    values = ((s11 + s10) / s, (r01 + r00) / r, (s11 + s01) / s, (r10 + r00) / r,
              s / (s + r), (s11 * s00 - s10 * s01) / (s * s),
              (r11 * r00 - r10 * r01) / (r * r))
    se1, sp1, se2, sp2, p = values[:5]
    if not (0.0 <= se1 <= 1.0 and 0.0 <= sp1 <= 1.0 and 0.0 <= se2 <= 1.0
            and 0.0 <= sp2 <= 1.0 and 0.0 < p < 1.0):
        AccuracyEstimates(*values)  # raises the DomainError that names the field
    return values


def weighted_kappa(se: float, sp: float, p: float, c: float) -> float:
    """Weighted kappa coefficient of one test at weighting index ``c``."""
    if not 0.0 <= se <= 1.0 or not 0.0 <= sp <= 1.0:
        raise DomainError("sensitivity and specificity must be in [0, 1]")
    if not 0.0 < p < 1.0:
        raise DomainError(f"prevalence must be in (0, 1), got {p!r}")
    if not 0.0 <= c <= 1.0:
        raise DomainError(f"weighting index must be in [0, 1], got {c!r}")
    q = 1.0 - p
    y = se + sp - 1.0
    big_q = p * se + q * (1.0 - sp)
    denom = p * (1.0 - big_q) * c + q * big_q * (1.0 - c)
    if denom <= 0.0:
        raise DegenerateKappaError(
            f"kappa denominator is zero at c={c} (degenerate positive-result probability)")
    return p * q * y / denom


def kappa_pair(acc: AccuracyEstimates, c: float) -> KappaPair:
    """Both weighted kappas at a common weighting index."""
    return KappaPair(
        c=c,
        kappa1=weighted_kappa(acc.se1, acc.sp1, acc.p, c),
        kappa2=weighted_kappa(acc.se2, acc.sp2, acc.p, c),
    )


def kappa_ratio(kappa1: float, kappa2: float) -> float:
    """theta = kappa1 / kappa2; UndefinedRatioError when kappa2 is zero."""
    if kappa2 == 0.0:
        raise UndefinedRatioError("kappa2 is zero; the ratio is undefined")
    return kappa1 / kappa2


def accuracy_from_kappa_pair(k0: float, k1: float, p: float) -> tuple[float, float]:
    """Invert (kappa(0), kappa(1)) back to (Se, Sp) at prevalence ``p``.

    Used to build simulation scenarios from target kappa values; only
    combinations with a strictly positive Youden index are admitted.
    """
    if not 0.0 < k0 <= 1.0 or not 0.0 < k1 <= 1.0:
        raise DomainError(f"kappa(0) and kappa(1) must be in (0, 1], got ({k0}, {k1})")
    if not 0.0 < p < 1.0:
        raise DomainError(f"prevalence must be in (0, 1), got {p!r}")
    q = 1.0 - p
    denom = q * k0 + p * k1
    if denom <= 0.0:
        raise DomainError("q*kappa(0) + p*kappa(1) must be positive")
    se = (q * k0 + p) * k1 / denom
    sp = (p * k1 + q) * k0 / denom
    if se + sp - 1.0 <= TOL_YOUDEN:
        raise InfeasibleScenarioError(
            f"implied Youden index {se + sp - 1.0:g} is not positive")
    return se, sp


def _deltas(acc: AccuracyEstimates) -> tuple[float, float]:
    d1 = acc.se1 * (1.0 - acc.sp2) - acc.se2 * (1.0 - acc.sp1)
    d2 = acc.y1 - acc.y2
    return d1, d2


def _require_informative(acc: AccuracyEstimates) -> None:
    if acc.y1 <= TOL_YOUDEN or acc.y2 <= TOL_YOUDEN:
        raise DegenerateKappaError(
            f"both Youden indices must be positive (Y1={acc.y1:g}, Y2={acc.y2:g})")


def crossover_index(acc: AccuracyEstimates) -> float | None:
    """The weighting index where kappa1(c) = kappa2(c), or None.

    c' = q*D1 / (D1 - p*D2) with D1 = Se1(1-Sp2) - Se2(1-Sp1) and
    D2 = Y1 - Y2; returns None when the denominator vanishes (the
    difference is then sign-constant in c).
    """
    _require_informative(acc)
    d1, d2 = _deltas(acc)
    denom = d1 - acc.p * d2
    if abs(denom) <= _CPRIME_TOL:
        return None
    return acc.q * d1 / denom


def compare_over_range(acc: AccuracyEstimates) -> ComparisonVerdict:
    """Classify how the two kappa curves are ordered over c in [0, 1].

    kappa1(c) - kappa2(c) has the sign of nu(c) = q*D1 - c*(D1 - p*D2),
    an affine function of c, so the ordering either is constant or
    switches once at the crossover index.
    """
    _require_informative(acc)
    d1, d2 = _deltas(acc)
    d3 = d2 - d1
    nu0 = acc.q * d1   # sign of kappa1 - kappa2 at c = 0
    nu1 = acc.p * d3   # sign at c = 1
    c_prime = crossover_index(acc)
    boundary = c_prime is not None and (
        abs(c_prime) < _BOUNDARY_TOL or abs(c_prime - 1.0) < _BOUNDARY_TOL)

    equal_tests = acc.se1 == acc.se2 and acc.sp1 == acc.sp2
    crosses = (nu0 > 0.0 > nu1) or (nu0 < 0.0 < nu1)
    rtpf, rfpf = acc.rtpf, acc.rfpf

    if equal_tests or (nu0 == 0.0 and nu1 == 0.0):
        rule = "equal-everywhere"
    elif rtpf > 1.0 and rfpf > 1.0:
        if crosses:
            rule = "b3"
        else:
            rule = "b4" if nu0 + nu1 > 0.0 else "b5"
    elif rtpf < 1.0 and rfpf < 1.0:
        # mirror of rule b with the test labels exchanged
        if crosses:
            rule = "c3"
        else:
            rule = "c4" if nu0 + nu1 < 0.0 else "c5"
    else:
        rule = "a"
    return ComparisonVerdict(rule=rule, c_prime=c_prime, boundary=boundary,
                             nu0=nu0, nu1=nu1)


def kappa_curve(acc: AccuracyEstimates, c_grid) -> list[tuple[float, float, float]]:
    """Rows (c, kappa1(c), kappa2(c)) for every grid point."""
    rows = []
    for c in c_grid:
        pair = kappa_pair(acc, c)
        rows.append((c, pair.kappa1, pair.kappa2))
    return rows


def render_curve(rows) -> str:
    """Delimited-text form of a kappa curve at full (17 significant digit) precision."""
    lines = ["c,kappa1,kappa2"]
    for c, k1, k2 in rows:
        lines.append(f"{c:.17g},{k1:.17g},{k2:.17g}")
    return "\n".join(lines) + "\n"
