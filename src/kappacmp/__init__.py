"""Estimation and comparison of the weighted kappa coefficients of two
binary diagnostic tests applied to the same subjects (paired design).

The library covers point estimation, a hypothesis test and eight
confidence-interval constructions for the difference and the ratio of the
two coefficients, precision-based sample-size planning, and a seeded
Monte Carlo harness for coverage-probability studies.
"""

__version__ = "0.1.0"

from .data_model import (
    CountsValidation,
    PairedCounts,
    SubjectRecord,
    apply_continuity_correction,
    counts_from_records,
    read_records,
    validate_counts,
)
from .errors import (
    BootstrapFailedError,
    DegenerateKappaError,
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
    invert_ratio_ci,
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
    kappa_curve,
    kappa_pair,
    render_curve,
    weighted_kappa,
)
from .numerics import (
    RandomStream,
    empirical_quantile,
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
from .simulation import (
    CoverageResult,
    MethodRecommendation,
    Scenario,
    build_scenario_from_kappas,
    coverage_study,
    dependence_bounds,
    evaluate_failure,
    read_scenario_batch,
    recommend_method,
    render_coverage_report,
    sample_counts,
    scenario_probabilities,
)
