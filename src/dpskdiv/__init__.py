"""Performance analysis of binary DPSK with diversity over nonidentical
Rayleigh fading branches: exact closed-form BEP, Chernoff bounds, Doppler-
spectrum-derived fading correlation, and a Monte Carlo link simulator."""

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
from .simulate import (
    BepEstimate,
    FadingPair,
    Observation,
    SimScale,
    decide,
    decision_statistics,
    estimate_bep,
    loglik_metric,
    make_observation,
    sample_fading_pair,
)
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
