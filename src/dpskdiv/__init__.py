"""Performance analysis of binary DPSK with diversity over nonidentical
Rayleigh fading branches: exact closed-form BEP, Chernoff bounds, Doppler-
spectrum-derived fading correlation, and a Monte Carlo link simulator.

The simulator needs numpy and nothing else does, so its names load on first
use (PEP 562) and the closed-form path never imports numpy."""

import importlib

from .bep import (
    ChernoffResult,
    DecisionStatistics,
    chernoff_optimum,
    chernoff_suboptimum,
    exact_bep,
    optimum_weights,
    power_split,
)
from .channel import (
    BranchParams,
    Detector,
    DiversityConfig,
    DopplerSpec,
    SpectrumKind,
    rho_from_doppler,
    validate_config,
)
from .errors import ConfigError, ConvergenceError
from .special import bessel_j0

__version__ = "0.1.0"

__all__ = [
    "BepEstimate",
    "BranchParams",
    "ChernoffResult",
    "ConfigError",
    "ConvergenceError",
    "DecisionStatistics",
    "Detector",
    "DiversityConfig",
    "DopplerSpec",
    "FadingPair",
    "Observation",
    "SimScale",
    "SpectrumKind",
    "bessel_j0",
    "chernoff_optimum",
    "chernoff_suboptimum",
    "decide",
    "decision_statistics",
    "estimate_bep",
    "exact_bep",
    "loglik_metric",
    "make_observation",
    "optimum_weights",
    "power_split",
    "rho_from_doppler",
    "sample_fading_pair",
    "validate_config",
]


def __getattr__(name):
    # The names in __all__ that the imports above leave unbound are the
    # simulator's.  import_module, not `from . import simulate`: the import
    # machinery probes hasattr(package, "simulate"), which would recurse.
    if name == "simulate" or name in __all__:
        simulate = importlib.import_module(".simulate", __name__)
        return simulate if name == "simulate" else getattr(simulate, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
