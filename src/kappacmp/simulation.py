"""Monte Carlo machinery: scenario construction and coverage studies.

A scenario is a multinomial model over the eight cells of the paired
design. Cell probabilities follow the conditional-dependence model

    p_ij = p * [Se1^i (1-Se1)^(1-i) * Se2^j (1-Se2)^(1-j) + d_ij * eps1]
    q_ij = q * [Sp1^(1-i) (1-Sp1)^i * Sp2^(1-j) (1-Sp2)^j + d_ij * eps0]

with d_ij = +1 when i = j and -1 otherwise. Coverage studies draw N
multinomial samples, build the requested intervals on each, and report the
fraction containing the true difference/ratio together with the average
interval length. An interval construction "fails" at the 95% nominal level
when its coverage probability is 93% or less.
"""

from __future__ import annotations

import io
import math
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from .data_model import PairedCounts, apply_continuity_correction
from .errors import (
    BootstrapFailedError,
    DegenerateKappaError,
    DomainError,
    FiellerInvalidError,
    InfeasibleScenarioError,
    LogIntervalError,
    NonEstimableError,
    UndefinedRatioError,
    UnsupportedNominalError,
)
from .inference import (
    METHODS,
    BootstrapTables,
    ConfidenceConfig,
    PosteriorDraws,
    _analysis,
    # the interval functions run through METHODS; perfbench/run.py traces them here
    bayesian_ci,  # noqa: F401
    bootstrap_ci,  # noqa: F401
    check_methods,
    fieller_ratio_ci,  # noqa: F401
    log_ratio_ci,  # noqa: F401
    require_ordered,
    wald_diff_ci,  # noqa: F401
    wald_ratio_ci,  # noqa: F401
)
from .kappa_core import (
    accuracy_from_counts,  # noqa: F401 - perfbench/run.py::trace_targets wraps it here
    accuracy_from_kappa_pair,
    weighted_kappa,
)
from .numerics import RandomStream, sample_multinomial

__all__ = [
    "Scenario",
    "CoverageResult",
    "MethodRecommendation",
    "dependence_bounds",
    "scenario_probabilities",
    "build_scenario_from_kappas",
    "sample_counts",
    "coverage_study",
    "evaluate_failure",
    "recommend_method",
    "read_scenario_batch",
    "render_coverage_report",
]

_CELL_TOL = 1e-12

# Errors that mean "this interval cannot be computed on this sample"; they are
# scored as non-coverage and counted, never raised out of a coverage study.
_INTERVAL_ERRORS = (DegenerateKappaError, UndefinedRatioError, LogIntervalError,
                    FiellerInvalidError, BootstrapFailedError, NonEstimableError)


@dataclass(frozen=True)
class Scenario:
    """A fully specified multinomial model with its true kappa values."""

    se1: float
    sp1: float
    se2: float
    sp2: float
    p: float
    eps1: float
    eps0: float
    c: float
    pi: tuple[float, float, float, float, float, float, float, float]
    kappa1: float
    kappa2: float

    @property
    def delta(self) -> float:
        return self.kappa1 - self.kappa2

    @property
    def theta(self) -> float:
        if self.kappa2 == 0.0:
            raise UndefinedRatioError("true kappa2 is zero; the true ratio is undefined")
        return self.kappa1 / self.kappa2


@dataclass(frozen=True)
class CoverageResult:
    """Coverage probability and average length of one method on one scenario.

    cp scores replicates whose interval could not be computed as
    non-coverage; cp_valid excludes them. failures counts redrawn
    (non-estimable) samples, invalid the per-method uncomputable intervals.
    """

    method: str
    target: str
    n: int
    n_replicates: int
    cp: float
    al: float
    failures: int
    invalid: int
    cp_valid: float
    failed: bool | None


@dataclass(frozen=True)
class MethodRecommendation:
    method: str
    corrected: bool
    note: str


def dependence_bounds(se1: float, se2: float, sp1: float, sp2: float) -> tuple[float, float]:
    """Upper bounds of the two dependence factors (lower bound is 0)."""
    for name, value in (("se1", se1), ("se2", se2), ("sp1", sp1), ("sp2", sp2)):
        if not 0.0 <= value <= 1.0:
            raise DomainError(f"{name} must be in [0, 1], got {value!r}")
    return (min(se1 * (1.0 - se2), se2 * (1.0 - se1)),
            min(sp1 * (1.0 - sp2), sp2 * (1.0 - sp1)))


def scenario_probabilities(se1: float, sp1: float, se2: float, sp2: float,
                           p: float, eps1: float, eps0: float,
                           c: float = 0.5) -> Scenario:
    """Cell probabilities and true kappas for given accuracies and dependence."""
    q = 1.0 - p
    raw = (
        p * (se1 * se2 + eps1),
        p * (se1 * (1.0 - se2) - eps1),
        p * ((1.0 - se1) * se2 - eps1),
        p * ((1.0 - se1) * (1.0 - se2) + eps1),
        q * ((1.0 - sp1) * (1.0 - sp2) + eps0),
        q * ((1.0 - sp1) * sp2 - eps0),
        q * (sp1 * (1.0 - sp2) - eps0),
        q * (sp1 * sp2 + eps0),
    )
    cells = []
    for value in raw:
        if value < -_CELL_TOL:
            raise InfeasibleScenarioError(
                f"dependence factors ({eps1:g}, {eps0:g}) give a negative cell ({value:g})")
        cells.append(max(value, 0.0))
    return Scenario(
        se1=se1, sp1=sp1, se2=se2, sp2=sp2, p=p, eps1=eps1, eps0=eps0, c=c,
        pi=tuple(cells),
        kappa1=weighted_kappa(se1, sp1, p, c),
        kappa2=weighted_kappa(se2, sp2, p, c),
    )


def build_scenario_from_kappas(k0_1: float, k1_1: float, k0_2: float, k1_2: float,
                               p: float, c: float, f: float) -> Scenario:
    """Scenario from target chance-corrected specificities/sensitivities.

    (k0_h, k1_h) = (kappa_h(0), kappa_h(1)) are inverted to (Se_h, Sp_h);
    the dependence factors are set to the fraction ``f`` of their maxima.
    """
    if not 0.0 <= f <= 1.0:
        raise DomainError(f"dependence fraction must be in [0, 1], got {f!r}")
    se1, sp1 = accuracy_from_kappa_pair(k0_1, k1_1, p)
    se2, sp2 = accuracy_from_kappa_pair(k0_2, k1_2, p)
    eps1_max, eps0_max = dependence_bounds(se1, se2, sp1, sp2)
    return scenario_probabilities(se1, sp1, se2, sp2, p,
                                  f * eps1_max, f * eps0_max, c=c)


def sample_counts(scenario: Scenario, n: int, stream: RandomStream,
                  cdfs: dict | None = None) -> PairedCounts:
    """One multinomial sample of size ``n`` from the scenario.

    ``cdfs`` is passed on to sample_multinomial: one dict shared by the
    samples of a scenario reuses their binomial CDFs.
    """
    if n < 1:
        raise DomainError(f"sample size must be at least 1, got {n!r}")
    return PairedCounts(*sample_multinomial(scenario.pi, n, stream, cdfs))


# substream roles per replicate index i: 3i sample, 3i+1 bootstrap, 3i+2 posterior
_STREAMS_PER_REPLICATE = 3
_MAX_SAMPLE_ATTEMPTS = 10_000


def _run_replicate(scenario: Scenario, n: int, entries: tuple, shared: set,
                   config: ConfidenceConfig, index: int, correct: bool, cdfs: dict):
    """All per-replicate work; depends only on (scenario, n, config, index).

    ``entries`` are the methods' (tag, true value, call) (_entries).
    ``cdfs`` caches the binomial CDFs of the scenario's samples (sample_counts).
    """
    base = _STREAMS_PER_REPLICATE * index
    sample_stream = RandomStream(config.seed, base)
    redraws = 0
    while True:
        counts = sample_counts(scenario, n, sample_stream, cdfs)
        if correct:
            counts = apply_continuity_correction(counts)
        # redraw when the kappas or their variances cannot be estimated at
        # all: an empty stratum, or a Youden estimate of zero (the variance
        # divides by Y). Negative-Y samples keep their slot: their intervals
        # are well defined and the small-sample coverage collapse depends on
        # them. The analysis stays memoised, so the closed-form bounds read it.
        try:
            _analysis(counts, scenario.c)
        except (NonEstimableError, DegenerateKappaError):
            redraws += 1
        else:
            break
        if redraws >= _MAX_SAMPLE_ATTEMPTS:
            raise InfeasibleScenarioError(
                f"no estimable sample of size {n} after {redraws} draws; "
                "the scenario is too degenerate to study")
    # one bootstrap set and one posterior per replicate, shared by the
    # difference and the ratio; built only when a method needs them
    tables = draws = None
    if "tables" in shared:
        tables = BootstrapTables(counts, RandomStream(config.seed, base + 1))
    if "draws" in shared:
        draws = PosteriorDraws(counts, config.priors, config.bayes_m,
                               RandomStream(config.seed, base + 2))
    return redraws, _score(entries, counts, scenario.c, config, tables, draws)


def _entries(scenario: Scenario, methods) -> tuple:
    """(tag, true value, call) of each method, resolved once per range."""
    return tuple((method, scenario.delta if METHODS[method].target == "difference"
                  else scenario.theta, METHODS[method].call) for method in methods)


def _score(entries: tuple, counts: PairedCounts, c: float, config: ConfidenceConfig,
           tables: BootstrapTables | None, draws: PosteriorDraws | None) -> dict:
    """tag -> (covered, length) of each method's interval, or (False, None) when invalid.

    Scores the bounds as ConfidenceInterval.contains and .length score them,
    and raises its DomainError when they are out of order.
    """
    outcomes = {}
    for method, true_value, call in entries:
        try:
            lower, upper, _ = call(counts, c, config, tables, draws)
        except _INTERVAL_ERRORS:
            outcomes[method] = (False, None)
        else:
            require_ordered(lower, upper)
            outcomes[method] = (lower <= true_value <= upper, upper - lower)
    return outcomes


def _run_range(args):
    scenario, n, methods, config, lo, hi, correct = args
    entries = _entries(scenario, methods)
    shared = {METHODS[method].draw for method in methods}  # the shared draws they read
    cdfs: dict = {}  # binomial CDFs of the scenario, shared by the range's samples
    return [_run_replicate(scenario, n, entries, shared, config, i, correct, cdfs)
            for i in range(lo, hi)]


# The process's worker pool, shared by every parallel coverage_study call:
# built on the first one, replaced when a call needs another worker count or
# when the pool broke (a worker died). Workers are forked, so they run the
# code as it stood when the pool was built.
_pool: ProcessPoolExecutor | None = None
_pool_workers = 0
_pool_lock = threading.RLock()  # one caller at a time builds, uses or drops the pool


def _drop_pool() -> None:
    """Shut the shared pool down; the next parallel call builds a new one."""
    global _pool
    with _pool_lock:
        if _pool is not None:
            _pool.shutdown()
            _pool = None


def _map_ranges(ranges) -> list:
    """``_run_range`` of every range on the shared pool, in order."""
    global _pool, _pool_workers
    with _pool_lock:
        if _pool is not None and _pool_workers != len(ranges):
            _drop_pool()
        reused = _pool is not None
        if _pool is None:
            _pool, _pool_workers = ProcessPoolExecutor(max_workers=len(ranges)), len(ranges)
        try:
            return list(_pool.map(_run_range, ranges))
        except BrokenProcessPool:
            _drop_pool()
            if not reused:
                raise
        # a worker of the reused pool died after an earlier call: once more
        # on a fresh pool, which raises if it breaks too
        return _map_ranges(ranges)


def coverage_study(scenario: Scenario, n: int, n_replicates: int, methods,
                   config: ConfidenceConfig | None = None,
                   jobs: int = 1, correct: bool = False) -> list[CoverageResult]:
    """Coverage probability and average length of each method on a scenario.

    Every replicate derives its random streams from (seed, replicate
    index) and results are aggregated in index order, so the output is
    bitwise identical for any ``jobs`` count. With ``correct=True`` the
    +0.5 continuity correction is applied to every sampled table before
    the intervals are built (the small-sample variant of the experiment).

    With ``jobs > 1`` the replicates are split into at most ``jobs``
    ranges and run on one worker pool per process, with a worker per
    range. The first parallel call builds the pool and later calls reuse
    it. It is replaced when a call needs another worker count or when a
    worker has died, and it lives until the process exits. Its workers
    are forked when it is built and run the code as it was then: a test
    that monkeypatches ``simulation`` or ``inference`` and uses
    ``jobs > 1`` must call ``_drop_pool()`` first.
    """
    config = config or ConfidenceConfig()
    if n_replicates < 100:
        raise DomainError(f"need at least 100 replicates, got {n_replicates}")
    methods = check_methods(methods)
    if any(METHODS[m].target == "ratio" for m in methods):
        _ = scenario.theta  # raises when the true ratio is undefined

    if jobs <= 1:
        per_replicate = _run_range((scenario, n, methods, config, 0, n_replicates, correct))
    else:
        chunk = max(1, math.ceil(n_replicates / jobs))
        ranges = [(scenario, n, methods, config, lo, min(lo + chunk, n_replicates), correct)
                  for lo in range(0, n_replicates, chunk)]
        per_replicate = [replicate for part in _map_ranges(ranges) for replicate in part]

    total_redraws = sum(redraws for redraws, _ in per_replicate)
    results = []
    nominal_95 = abs(config.conf - 0.95) <= 1e-12
    for method in methods:
        covered = 0
        invalid = 0
        lengths = []
        for _, outcomes in per_replicate:
            hit, length = outcomes[method]
            if length is None:
                invalid += 1
            else:
                lengths.append(length)
                if hit:
                    covered += 1
        cp = covered / n_replicates
        al = math.fsum(lengths) / len(lengths) if lengths else math.nan
        cp_valid = covered / len(lengths) if lengths else math.nan
        results.append(CoverageResult(
            method=method, target=METHODS[method].target, n=n,
            n_replicates=n_replicates, cp=cp, al=al, failures=total_redraws,
            invalid=invalid, cp_valid=cp_valid,
            failed=evaluate_failure(cp, config.conf) if nominal_95 else None,
        ))
    return results


def evaluate_failure(cp: float, nominal: float = 0.95) -> bool:
    """Failure rule at the 95% nominal level: coverage of 93% or less."""
    if abs(nominal - 0.95) > 1e-12:
        raise UnsupportedNominalError(
            f"the failure rule is calibrated only for nominal 0.95, got {nominal!r}")
    if not 0.0 <= cp <= 1.0:
        raise DomainError(f"coverage probability must be in [0, 1], got {cp!r}")
    return cp <= 0.93


def recommend_method(n: float) -> MethodRecommendation:
    """Interval to prefer at a given sample size."""
    if n < 1:
        raise DomainError(f"sample size must be at least 1, got {n!r}")
    if n < 100:
        return MethodRecommendation(
            method="wald-ratio", corrected=True,
            note="small sample: Wald interval for the ratio on +0.5-corrected counts")
    if n < 500:
        return MethodRecommendation(
            method="wald-ratio", corrected=False,
            note="moderate sample: Wald interval for the ratio, uncorrected")
    return MethodRecommendation(
        method="any", corrected=False,
        note="large sample: any of the difference or ratio intervals")


@dataclass(frozen=True)
class BatchRow:
    """One scenario/run specification from a batch file."""

    k0_1: float
    k1_1: float
    k0_2: float
    k1_2: float
    p: float
    c: float
    f: float
    n: int
    n_replicates: int


BATCH_HEADER = "k0_1,k1_1,k0_2,k1_2,p,c,f,n,N"
REPORT_HEADER = "method,target,n,N,cp,al,failed,redraws,invalid,cp_valid"


def read_scenario_batch(path_or_file) -> list[BatchRow]:
    """Parse a scenario batch file; errors carry the offending line number."""
    if isinstance(path_or_file, (str, os.PathLike)):
        with io.open(path_or_file, "r", encoding="utf-8") as fh:
            return _parse_batch(fh, str(path_or_file))
    return _parse_batch(path_or_file, "<stream>")


def _parse_batch(lines, source: str) -> list[BatchRow]:
    rows = []
    header_seen = False
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not header_seen:
            if line != BATCH_HEADER:
                raise DomainError(
                    f"{source}:{lineno}: expected header {BATCH_HEADER!r}, got {line!r}")
            header_seen = True
            continue
        parts = line.split(",")
        if len(parts) != 9:
            raise DomainError(f"{source}:{lineno}: expected 9 comma-separated values")
        try:
            floats = [float(x) for x in parts]
        except ValueError as exc:
            raise DomainError(f"{source}:{lineno}: {exc}") from None
        n, n_rep = floats[7], floats[8]
        if n != int(n) or n < 1:
            raise DomainError(f"{source}:{lineno}: n must be a positive integer, got {parts[7]}")
        if n_rep != int(n_rep) or n_rep < 1:
            raise DomainError(f"{source}:{lineno}: N must be a positive integer, got {parts[8]}")
        rows.append(BatchRow(*floats[:7], int(n), int(n_rep)))
    if not header_seen:
        raise DomainError(f"{source}: empty batch file, expected header {BATCH_HEADER!r}")
    return rows


def render_coverage_report(results) -> str:
    """Delimited-text coverage report, one row per (scenario, method)."""
    lines = [REPORT_HEADER]
    for res in results:
        failed = "" if res.failed is None else str(int(res.failed))
        lines.append(
            f"{res.method},{res.target},{res.n},{res.n_replicates},"
            f"{res.cp:.17g},{res.al:.17g},{failed},{res.failures},"
            f"{res.invalid},{res.cp_valid:.17g}")
    return "\n".join(lines) + "\n"
