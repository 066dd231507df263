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

import math
import os
import threading
from array import array
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from numbers import Integral

from .data_model import PairedCounts, read_table
from .errors import (
    BootstrapFailedError,
    DegenerateKappaError,
    DomainError,
    FiellerInvalidError,
    InfeasibleScenarioError,
    IngestionError,
    KappaCmpError,
    LogIntervalError,
    NonEstimableError,
    UndefinedRatioError,
    UnsupportedNominalError,
)
from .inference import (
    METHODS,
    DEFAULT_CONFIG,
    ConfidenceConfig,
    _analysis,
    analysis_draws,
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
    dependence_bounds,
    kappa_ratio,
    weighted_kappa,
)
from .numerics import (
    _MAX_SIZE,
    RandomStream,
    _head_streams,
    _integral,
    _multinomial_draw,
    _multinomial_plan,
    _multinomial_reads,
    sample_multinomial,
)

__all__ = [
    "Scenario",
    "CoverageResult",
    "scenario_probabilities",
    "build_scenario_from_kappas",
    "sample_counts",
    "coverage_grid",
    "coverage_study",
    "evaluate_failure",
    "read_scenario_batch",
    "render_coverage_report",
]

_CELL_TOL = 1e-12
_KAPPA_TIE = 1e-12  # kappas this close are equal up to rounding: a null scenario

# Errors that mean "this interval cannot be computed on this sample"; they are
# scored as non-coverage and counted, never raised out of a coverage study.
_INTERVAL_ERRORS = (DegenerateKappaError, UndefinedRatioError, LogIntervalError,
                    FiellerInvalidError, BootstrapFailedError, NonEstimableError)

# The redraw rule: a table is redrawn when its kappas or their variances
# cannot be estimated at all, an empty stratum or a Youden estimate of zero
# (the variance divides by Y). Negative-Y tables keep their slot: their
# intervals are well defined and the small-sample coverage collapse depends
# on them.
_REDRAW_ERRORS = (NonEstimableError, DegenerateKappaError)


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
        """kappa1 - kappa2; exactly 0 when they agree to _KAPPA_TIE relative."""
        k1, k2 = self.kappa1, self.kappa2
        return 0.0 if math.isclose(k1, k2, rel_tol=_KAPPA_TIE) else k1 - k2

    @property
    def theta(self) -> float:
        """kappa1 / kappa2; exactly 1 when delta is 0 and kappa2 is not."""
        if self.delta == 0.0 and self.kappa2 != 0.0:
            return 1.0
        return kappa_ratio(self.kappa1, self.kappa2)


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


def sample_counts(scenario: Scenario, n: int, stream: RandomStream) -> PairedCounts:
    """One multinomial sample of size ``n`` from the scenario."""
    _check_size(n)
    return PairedCounts(*sample_multinomial(scenario.pi, n, stream))


def _check_size(n) -> None:
    """DomainError when a sample of ``n`` subjects cannot be drawn."""
    if n < 1:
        raise DomainError(f"sample size must be at least 1, got {n!r}")


_MIN_REPLICATES = 100


def _check_cell(n, n_replicates) -> tuple[int, int]:
    """A coverage cell's sample size and replicate count as ints; DomainError when it cannot run.

    An integer or an integral float (50.0) is taken as an int.
    """
    for value, name in ((n, "sample size"), (n_replicates, "replicate count")):
        if not _integral(value):
            raise DomainError(f"{name} must be an integer, got {value!r}")
    size, n_replicates = int(n), int(n_replicates)
    _check_size(size)
    if size > _MAX_SIZE:
        raise DomainError(f"sample size must be at most 2**26 = {_MAX_SIZE}, got {n!r}")
    if n_replicates < _MIN_REPLICATES:
        raise DomainError(f"need at least {_MIN_REPLICATES} replicates, got {n_replicates}")
    return size, n_replicates


# replicate i samples from stream 3i and passes 3i to analysis_draws as its base
_STREAMS_PER_REPLICATE = 3
_MAX_SAMPLE_ATTEMPTS = 10_000


def _entries(scenario: Scenario, methods) -> tuple:
    """(true value, bound, method) of each tag's inference.Method, resolved once per range."""
    return tuple((scenario.delta if METHODS[tag].target == "difference" else scenario.theta,
                  METHODS[tag].bound, METHODS[tag]) for tag in methods)


def _sampled_tables(scenario: Scenario, n: int, config: ConfidenceConfig, lo: int, hi: int,
                    correct: bool):
    """The tables of replicates lo..hi-1: ``(1, cells, analysis, stream base, redraws)`` each.

    Replicate i depends only on (scenario, n, config, i). Its table holds
    the cells sampled from ``RandomStream(config.seed, 3 * i)``
    (numerics._head_streams), +0.5 each when ``correct``, as a list;
    ``analysis`` is its _analysis at the scenario's c, the stream base is
    3i and ``redraws`` counts the tables drawn before it and rejected. The
    scenario's probabilities and ``n`` are checked, and its plan made, once
    per range (numerics._multinomial_plan).
    """
    plan, n = _multinomial_plan(scenario.pi, n)
    c = scenario.c
    bases = range(_STREAMS_PER_REPLICATE * lo, _STREAMS_PER_REPLICATE * hi,
                  _STREAMS_PER_REPLICATE)
    streams = _head_streams(config.seed, bases, _multinomial_reads(len(scenario.pi), n))
    for base, uniform in zip(bases, streams):
        for attempt in range(_MAX_SAMPLE_ATTEMPTS):
            cells = _multinomial_draw(plan, n, uniform)
            if correct:
                cells = [cell + 0.5 for cell in cells]
            try:
                analysis = _analysis(cells, c)
            except _REDRAW_ERRORS:
                continue
            break
        else:
            raise InfeasibleScenarioError(
                f"no estimable sample of size {n} after {_MAX_SAMPLE_ATTEMPTS} draws; "
                "the scenario is too degenerate to study")
        yield 1, cells, analysis, base, attempt


def _tally(entries: tuple, tables, c: float, config: ConfidenceConfig) -> tuple:
    """(redraws, total weight, covered, lengths) of every entry over ``tables``.

    ``tables`` yields ``(weight, cells, analysis, stream base, redraws)``:
    the replicates of _sampled_tables, each of weight 1, or listed tables
    weighted by their probability. ``analysis`` is the table's _analysis at
    ``c``, which a closed-form entry's bound reads at config.z; any other
    entry builds its interval on a PairedCounts of the cells with the
    table's analysis_draws at the stream base, shared by the difference and
    the ratio. The base is read only when an entry has no bound.

    ``covered[k]`` sums the weights of the tables whose interval of
    ``entries[k]`` contains its true value, and ``lengths[k]`` holds the
    lengths of its valid intervals, unweighted and in table order; an
    interval that cannot be built (_INTERVAL_ERRORS) adds to neither.
    Scores the bounds as ConfidenceInterval.contains and .length score
    them, and raises its DomainError when they are out of order.
    """
    resampled = any(bound is None for _, bound, _ in entries)
    z = config.z
    redraws = total = 0
    covered = [0] * len(entries)
    lengths = [array("d") for _ in entries]
    for weight, cells, analysis, base, redrawn in tables:
        redraws += redrawn
        total += weight
        # the table and its resample draws, built only when a method resamples
        if resampled:
            counts = PairedCounts(*cells)
            draws = analysis_draws(counts, config, base)
        k = 0
        for true_value, bound, method in entries:
            try:
                if bound is None:
                    ci = method.interval(counts, c, config, *draws)
                    lower, upper = ci.lower, ci.upper
                else:
                    lower, upper, _ = bound(analysis, z)
            except _INTERVAL_ERRORS:
                pass
            else:
                if lower > upper:
                    require_ordered(lower, upper)  # raises
                if lower <= true_value <= upper:
                    covered[k] += weight
                lengths[k].append(upper - lower)
            k += 1
    return redraws, total, covered, lengths


def _run_range(args):
    """(redraws, covered, lengths) of replicates lo..hi-1: the _tally of the
    range's _sampled_tables, with ``covered[k]`` and ``lengths[k]`` those of
    ``methods[k]``."""
    scenario, n, methods, config, lo, hi, correct = args
    redraws, _, covered, lengths = _tally(
        _entries(scenario, methods), _sampled_tables(scenario, n, config, lo, hi, correct),
        scenario.c, config)
    return redraws, covered, lengths


# The process's worker pool, shared by every parallel coverage_grid cell:
# built on the first one, replaced when a cell needs another worker count or
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


def coverage_grid(cells, methods, config: ConfidenceConfig | None = None,
                  jobs: int = 1, correct: bool = False):
    """Coverage of each method on an ordered grid of cells, one cell at a time.

    ``cells`` is an iterable of ``(scenario, n, n_replicates)``. Every cell
    is checked when the call is made, before the first replicate of any
    cell runs, and integral float sizes are taken as ints; the returned
    generator then yields each cell's CoverageResult list, in order, as
    the cell finishes.

    A cell's replicates run in ranges, each the _tally of its
    _sampled_tables (_run_range). Every replicate derives its random
    streams from (seed, replicate index) and the ranges' tallies are
    aggregated in index order, so the output is bitwise identical for any
    ``jobs`` count and any grouping of cells.
    With ``correct=True`` the +0.5 continuity correction is applied to
    every sampled table before the intervals are built (the small-sample
    variant of the experiment).

    ``jobs`` must be an integer of at least 1. With ``jobs > 1`` each
    cell's replicates are split into at most ``jobs`` ranges, and ``jobs``
    is at most the CPU count. The ranges run on one worker pool per
    process, with a worker per range. The first parallel cell builds the
    pool and later cells and calls reuse it. It is replaced when a cell
    needs another worker count or when a worker has died, and it lives
    until the process exits. Its workers are
    forked when it is built and run the code as it was then: a test that
    monkeypatches ``simulation`` or ``inference`` and uses ``jobs > 1``
    must call ``_drop_pool()`` first.
    """
    config = config or DEFAULT_CONFIG
    methods = check_methods(methods)
    if not (isinstance(jobs, Integral) and jobs >= 1):
        raise DomainError(f"jobs must be an integer >= 1, got {jobs!r}")
    ratio = any(METHODS[m].target == "ratio" for m in methods)
    checked = []
    for scenario, n, n_replicates in cells:
        n, n_replicates = _check_cell(n, n_replicates)
        if ratio:
            _ = scenario.theta  # raises when the true ratio is undefined
        checked.append((scenario, n, n_replicates))
    return _run_cells(checked, methods, config, min(jobs, os.cpu_count() or 1), correct)


def _run_cells(cells, methods, config: ConfidenceConfig, jobs: int, correct: bool):
    """The generator of coverage_grid, on cells it has checked."""
    nominal_95 = abs(config.conf - 0.95) <= 1e-12
    for scenario, n, n_replicates in cells:
        if jobs <= 1:
            parts = [_run_range((scenario, n, methods, config, 0, n_replicates, correct))]
        else:
            chunk = max(1, math.ceil(n_replicates / jobs))
            ranges = [(scenario, n, methods, config, lo, min(lo + chunk, n_replicates), correct)
                      for lo in range(0, n_replicates, chunk)]
            parts = _map_ranges(ranges)

        total_redraws = sum(redraws for redraws, _, _ in parts)
        results = []
        for k, method in enumerate(methods):
            covered = sum(part_covered[k] for _, part_covered, _ in parts)
            lengths = [length for _, _, part_lengths in parts for length in part_lengths[k]]
            cp = covered / n_replicates
            al = math.fsum(lengths) / len(lengths) if lengths else math.nan
            cp_valid = covered / len(lengths) if lengths else math.nan
            results.append(CoverageResult(
                method=method, target=METHODS[method].target, n=n,
                n_replicates=n_replicates, cp=cp, al=al, failures=total_redraws,
                invalid=n_replicates - len(lengths), cp_valid=cp_valid,
                failed=evaluate_failure(cp, config.conf) if nominal_95 else None,
            ))
        yield results


def coverage_study(scenario: Scenario, n: int, n_replicates: int, methods,
                   config: ConfidenceConfig | None = None,
                   jobs: int = 1, correct: bool = False) -> list[CoverageResult]:
    """Coverage probability and average length of each method on a scenario:
    the one-cell case of coverage_grid."""
    return next(coverage_grid([(scenario, n, n_replicates)], methods, config, jobs, correct))


def evaluate_failure(cp: float, nominal: float = 0.95) -> bool:
    """Failure rule at the 95% nominal level: coverage of 93% or less."""
    if abs(nominal - 0.95) > 1e-12:
        raise UnsupportedNominalError(
            f"the failure rule is calibrated only for nominal 0.95, got {nominal!r}")
    if not 0.0 <= cp <= 1.0:
        raise DomainError(f"coverage probability must be in [0, 1], got {cp!r}")
    return cp <= 0.93


BATCH_HEADER = "k0_1,k1_1,k0_2,k1_2,p,c,f,n,N"
REPORT_HEADER = "method,target,n,N,cp,al,failed,redraws,invalid,cp_valid"


def read_scenario_batch(path_or_file) -> list[tuple[Scenario, int, int]]:
    """The ``(scenario, n, n_replicates)`` cells of a batch file, in file order.

    Each row ``k0_1,k1_1,k0_2,k1_2,p,c,f,n,N`` goes through
    build_scenario_from_kappas, and its n and N through coverage_grid's
    checks; the cells are what coverage_grid takes. Any error in a row is
    raised with its ``"<file>:<line>: "`` prefix.
    """
    cells = []
    for where, fields in read_table(path_or_file, BATCH_HEADER):
        try:
            values = [float(field) for field in fields]
            n, n_replicates = _check_cell(values[7], values[8])
            cells.append((build_scenario_from_kappas(*values[:7]), n, n_replicates))
        except KappaCmpError as exc:
            raise type(exc)(f"{where}: {exc}") from None
        except ValueError as exc:  # float() of a field that is not a number
            raise IngestionError(f"{where}: {exc}") from None
    return cells


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
