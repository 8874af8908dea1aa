"""Performance analysis of binary DPSK with diversity over nonidentical
Rayleigh fading branches: exact closed-form BEP, Chernoff bounds, Doppler-
spectrum-derived fading correlation, and a Monte Carlo link simulator.

Only the simulator needs numpy, and it imports numpy when it first runs, so
importing the package and the closed-form path load no numpy."""

from .bep import (
    ChernoffResult,
    chernoff_optimum,
    chernoff_suboptimum,
    exact_bep,
    power_split,
)
from .channel import (
    BranchParams,
    Detector,
    DiversityConfig,
    DopplerSpec,
    SpectrumKind,
    rho_from_doppler,
)
from .errors import ConfigError, ConvergenceError
from .simulate import BepEstimate, estimate_bep

__version__ = "0.1.0"

__all__ = [
    "BepEstimate",
    "BranchParams",
    "ChernoffResult",
    "ConfigError",
    "ConvergenceError",
    "Detector",
    "DiversityConfig",
    "DopplerSpec",
    "SpectrumKind",
    "chernoff_optimum",
    "chernoff_suboptimum",
    "estimate_bep",
    "exact_bep",
    "power_split",
    "rho_from_doppler",
]
