"""Exception types shared across the package."""

__all__ = [
    "KappaCmpError",
    "DomainError",
    "IngestionError",
    "NonEstimableError",
    "DegenerateKappaError",
    "UndefinedRatioError",
    "LogIntervalError",
    "FiellerInvalidError",
    "BootstrapFailedError",
    "InversionUndefinedError",
    "InfeasibleScenarioError",
    "UnsupportedNominalError",
    "DenormalsAreZeroError",
]


class KappaCmpError(Exception):
    """Base class for all package errors."""


class DomainError(KappaCmpError, ValueError):
    """An argument is outside the domain of the operation."""


class IngestionError(DomainError):
    """An input file could not be parsed."""


class NonEstimableError(KappaCmpError, ValueError):
    """Kappa coefficients are not estimable (empty diseased or healthy stratum)."""


class DegenerateKappaError(KappaCmpError, ValueError):
    """Kappa or its variance is undefined (zero denominator, zero Youden index, zero SE)."""


class UndefinedRatioError(KappaCmpError, ValueError):
    """The kappa ratio is undefined because the denominator kappa is zero."""


class LogIntervalError(KappaCmpError, ValueError):
    """The logarithmic interval needs strictly positive kappa estimates."""


class FiellerInvalidError(KappaCmpError, ValueError):
    """The Fieller interval's validity condition does not hold."""


class BootstrapFailedError(KappaCmpError, RuntimeError):
    """Too many bootstrap resamples were non-estimable."""


class InversionUndefinedError(KappaCmpError, ValueError):
    """A reciprocal interval is undefined because the original interval straddles zero."""


class InfeasibleScenarioError(KappaCmpError, ValueError):
    """The requested parameter combination does not define a valid probability model."""


class UnsupportedNominalError(KappaCmpError, ValueError):
    """The failure rule is calibrated only for a 95% nominal confidence level."""


class DenormalsAreZeroError(KappaCmpError, ArithmeticError):
    """Subnormal doubles read as zero (denormals-are-zero is on), so block uniforms would be wrong."""
