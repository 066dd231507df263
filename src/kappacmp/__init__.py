"""Estimation and comparison of the weighted kappa coefficients of two
binary diagnostic tests applied to the same subjects (paired design).

The library covers point estimation, a hypothesis test and eight
confidence-interval constructions for the difference and the ratio of the
two coefficients, precision-based sample-size planning, and a seeded
Monte Carlo harness for coverage-probability studies.
"""

__version__ = "0.1.0"

import importlib

from . import data_model, errors, inference, kappa_core, numerics, sample_size
from .data_model import *
from .errors import *
from .inference import *
from .kappa_core import *
from .numerics import *
from .sample_size import *

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

# each eager module's __all__, imported above, and the lazy names
__all__ = sorted({name for module in (data_model, errors, inference, kappa_core, numerics,
                                      sample_size) for name in module.__all__} | set(_LAZY))


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
