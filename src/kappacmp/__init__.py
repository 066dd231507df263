"""Estimation and comparison of the weighted kappa coefficients of two
binary diagnostic tests applied to the same subjects (paired design).

The library covers point estimation, a hypothesis test and eight
confidence-interval constructions for the difference and the ratio of the
two coefficients, precision-based sample-size planning, and a seeded
Monte Carlo harness for coverage-probability studies.
"""

__version__ = "0.1.0"

import importlib
from types import ModuleType as _ModuleType

from .data_model import (
    MethodRecommendation,
    PairedCounts,
    apply_continuity_correction,
    counts_from_records,
    read_records,
    recommend_method,
)
from .errors import (
    BootstrapFailedError,
    DegenerateKappaError,
    DenormalsAreZeroError,
    DomainError,
    FiellerInvalidError,
    InfeasibleScenarioError,
    IngestionError,
    InversionUndefinedError,
    KappaCmpError,
    LogIntervalError,
    NonEstimableError,
    UndefinedRatioError,
    UnsupportedNominalError,
)
from .inference import (
    BetaPrior,
    BootstrapTables,
    ConfidenceConfig,
    ConfidenceInterval,
    KappaCovariance,
    PosteriorDraws,
    Priors,
    TestResult,
    bayesian_ci,
    bloch_test,
    bootstrap_ci,
    fieller_interval,
    fieller_ratio_ci,
    kappa_covariance,
    log_ratio_ci,
    reciprocal_ratio_ci,
    wald_diff_ci,
    wald_ratio_ci,
)
from .kappa_core import (
    AccuracyEstimates,
    ComparisonVerdict,
    KappaPair,
    accuracy_from_counts,
    accuracy_from_kappa_pair,
    compare_over_range,
    crossover_index,
    dependence_bounds,
    kappa_curve,
    kappa_pair,
    render_curve,
    weighted_kappa,
)
from .numerics import (
    RandomStream,
    normal_cdf,
    normal_quantile,
    sample_beta,
    sample_multinomial,
)
from .sample_size import (
    SampleSizePlan,
    plan_iteration,
    precision_reached,
    required_sample_size,
)

# simulate's names load on first access (PEP 562), so importing the package,
# or running any other command, loads neither simulation nor the
# process-pool modules it imports
_LAZY = dict.fromkeys((
    "CoverageResult",
    "Scenario",
    "build_scenario_from_kappas",
    "coverage_grid",
    "coverage_study",
    "evaluate_failure",
    "read_scenario_batch",
    "render_coverage_report",
    "sample_counts",
    "scenario_probabilities",
), "simulation")

# the names imported above (not the submodules bound with them) and the lazy ones
__all__ = sorted([name for name, value in globals().items()
                  if not name.startswith("_") and not isinstance(value, _ModuleType)]
                 + list(_LAZY))


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
