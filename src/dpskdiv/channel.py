"""Diversity-branch parameterization and Doppler-derived fading correlation.

The detectors and all closed-form results depend on the channel only through
the per-branch pair (rho_i, gamma_i).  This module holds those types, their
validation, and the map from a Doppler spectrum to rho: the normalized
covariance r(tau) of the fading process, averaged by the rectangular
matched filter over two bit windows offset by j bits,

    R(j) = int_0^1 int_0^1 r(u - v + j) du dv,    rho = R(1) / R(0),

with all lags expressed in bit durations.  u - v has the triangular density
1 - |t| on [-1, 1], so R(j) = int (1 - |s - j|) r(|s|) ds over s in
[j - 1, j + 1], a 1-D integral.  Its integrand creases only at s = 0, at
s = j and at the knots of a tabulated covariance; rho_from_doppler splits the
range there and runs a Gauss-Legendre rule, in pure Python, on each piece.
"""

import bisect
import enum
import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .errors import ConfigError, ConvergenceError
from .special import bessel_j0

_LN2 = math.log(2.0)

RHO_QUAD_TOL = 1e-10
RHO_ORDER_CAP = 512
DEFAULT_QUAD_ORDER = 16


class Detector(enum.Enum):
    OPTIMUM = "optimum"
    SUBOPTIMUM = "suboptimum"


class SpectrumKind(enum.Enum):
    JAKES = "jakes"
    GAUSSIAN = "gaussian"
    RECTANGULAR = "rectangular"
    TABULATED = "tabulated"


@dataclass(frozen=True)
class BranchParams:
    """One diversity branch: fading correlation rho and mean SNR per bit gamma.

    gamma is linear, not dB.
    """

    rho: float
    gamma: float


@dataclass(frozen=True)
class DiversityConfig:
    """Ordered branches plus the detector that combines them."""

    branches: Tuple[BranchParams, ...]
    detector: Detector

    def __post_init__(self):
        object.__setattr__(self, "branches", tuple(self.branches))


@dataclass(frozen=True)
class DopplerSpec:
    """Doppler spectrum family plus normalized bandwidth fdT.

    table: for TABULATED only, (lag, covariance) pairs with lags in bit
    durations, starting at 0 and reaching at least 2; linear interpolation
    between entries; the covariance is treated as even in the lag.
    """

    kind: SpectrumKind
    fdt: float
    table: Optional[Tuple[Tuple[float, float], ...]] = None


def validate_branches(branches: Sequence[BranchParams]) -> Tuple[BranchParams, ...]:
    branches = tuple(branches)
    if len(branches) == 0:
        raise ConfigError("L >= 1 required: branch list is empty")
    for i, br in enumerate(branches):
        rho = br.rho
        gamma = br.gamma
        if not (math.isfinite(rho) and math.isfinite(gamma)):
            raise ConfigError(f"branch {i}: non-finite parameter (rho={rho}, gamma={gamma})")
        if not 0.0 <= rho <= 1.0:
            raise ConfigError(f"branch {i}: rho={rho} outside [0, 1]")
        if gamma < 0.0:
            raise ConfigError(f"branch {i}: gamma={gamma} is negative")
    return branches


def validate_config(cfg: DiversityConfig) -> DiversityConfig:
    """Return cfg unchanged if every invariant holds, else raise ConfigError."""
    validate_branches(cfg.branches)
    if not isinstance(cfg.detector, Detector):
        raise ConfigError(f"unknown detector {cfg.detector!r}")
    return cfg


def _validate_spec(spec: DopplerSpec) -> None:
    if not isinstance(spec.kind, SpectrumKind):
        raise ConfigError(f"unknown spectrum kind {spec.kind!r}")
    if not math.isfinite(spec.fdt) or spec.fdt < 0.0:
        raise ConfigError(f"fdT={spec.fdt} must be finite and >= 0")
    if (spec.kind is SpectrumKind.TABULATED) != (spec.table is not None):
        raise ConfigError("a covariance table is required for (and only for) the tabulated spectrum")
    if spec.table is None:
        return
    if len(spec.table) < 2:
        raise ConfigError("tabulated covariance needs at least two points")
    lags = [float(p[0]) for p in spec.table]
    vals = [float(p[1]) for p in spec.table]
    if any(not (math.isfinite(l) and math.isfinite(v)) for l, v in zip(lags, vals)):
        raise ConfigError("tabulated covariance contains non-finite entries")
    if any(b <= a for a, b in zip(lags, lags[1:])):
        raise ConfigError("tabulated lags must be strictly increasing")
    if lags[0] != 0.0 or lags[-1] < 2.0:
        raise ConfigError("tabulated lags must cover [0, 2] starting at lag 0")
    if abs(vals[0] - 1.0) > 1e-12:
        raise ConfigError(f"tabulated covariance must have r(0) = 1, got {vals[0]}")
    if max(abs(v) for v in vals) > 1.0 + 1e-12:
        raise ConfigError("tabulated covariance must satisfy |r| <= 1")


def _covariance(spec: DopplerSpec):
    """Normalized covariance r(s) as a scalar callable of the lag s >= 0 in
    bits, and the edges that split [0, 2] into pieces on which the integrands
    of _rho_at are smooth: 0, 1, 2 and every table knot below 2."""
    fdt = spec.fdt
    edges = (0.0, 1.0, 2.0)
    if spec.kind is SpectrumKind.JAKES:
        return (lambda s: bessel_j0(2.0 * math.pi * fdt * s)), edges
    if spec.kind is SpectrumKind.GAUSSIAN:
        # Gaussian spectrum with fdT read as the half-power half-width, so
        # r(tau) = exp(-(pi*fdT*tau)^2 / ln 2).
        c = (math.pi * fdt) ** 2 / _LN2
        return (lambda s: math.exp(-c * s * s)), edges
    if spec.kind is SpectrumKind.RECTANGULAR:
        w = 2.0 * math.pi * fdt

        def sinc(s):
            # r(tau) = sin(2 pi fdT tau) / (2 pi fdT tau)
            x = w * s
            return math.sin(x) / x if x else 1.0

        return sinc, edges
    lags = [float(p[0]) for p in spec.table]
    vals = [float(p[1]) for p in spec.table]

    def interp(s):
        # the pieces end at the knots, so 0 < s < 2 <= lags[-1] and i + 1 exists
        i = bisect.bisect_right(lags, s) - 1
        return vals[i] + (vals[i + 1] - vals[i]) * (s - lags[i]) / (lags[i + 1] - lags[i])

    return interp, tuple(sorted(set(edges).union(l for l in lags if l < 2.0)))


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> Tuple[Tuple[float, float], ...]:
    """(node, weight) pairs of the n-point Gauss-Legendre rule on [-1, 1].

    Each root of P_n in (0, 1) comes from Newton's method on the three-term
    recurrence, started at Tricomi's estimate; the weight is
    2 / ((1 - x^2) P_n'(x)^2).  The negative roots mirror the positive ones.
    n never exceeds RHO_ORDER_CAP, so the cache stays small.
    """
    half = []
    for i in range(1, (n + 1) // 2 + 1):
        x = (1.0 - (n - 1) / (8.0 * n ** 3)) * math.cos(math.pi * (i - 0.25) / (n + 0.5))
        for _ in range(100):
            p_prev, p = 1.0, x
            for k in range(2, n + 1):
                p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
            dp = n * (x * p - p_prev) / (x * x - 1.0)
            step = p / dp
            x -= step
            if abs(step) < 1e-15:
                break
        half.append((x, 2.0 / ((1.0 - x * x) * dp * dp)))
    # for odd n the last root is the middle node 0, which has no mirror
    return tuple(half + [(-x, w) for x, w in half[: n // 2]])


def _rho_at(cov, edges, n: int) -> float:
    """R(1)/R(0) with the n-point Gauss-Legendre rule on each piece of edges.

    With r even, R(0) = int_0^2 2 max(0, 1 - s) r(s) ds and
    R(1) = int_0^2 (1 - |s - 1|) r(s) ds, so one pass over the nodes gives
    both.
    """
    rule = _gauss_legendre(n)
    r0, r1 = [], []
    for a, b in zip(edges, edges[1:]):
        half, mid = 0.5 * (b - a), 0.5 * (a + b)
        for x, w in rule:
            s = mid + half * x
            c = half * w * cov(s)
            r0.append(2.0 * max(0.0, 1.0 - s) * c)
            r1.append((1.0 - abs(s - 1.0)) * c)
    return math.fsum(r1) / math.fsum(r0)


def rho_from_doppler(spec: DopplerSpec, quad_order: int = DEFAULT_QUAD_ORDER) -> float:
    """Fading correlation coefficient rho = R(1)/R(0) for a Doppler spectrum.

    Each R(j) is a 1-D integral over the lag s in [0, 2], split at 0, 1, 2
    and every table knot so that each piece is smooth.  An n-point
    Gauss-Legendre rule runs on every piece, starting at n = quad_order and
    doubling n until successive estimates differ by less than 1e-10, capped
    at 512 nodes per piece.  A piecewise-linear table makes each piece a
    quadratic, so it converges at the first doubling.

    Parameters
    ----------
    spec : DopplerSpec
    quad_order : int
        Starting Gauss-Legendre nodes per smooth piece, >= 2 and <= 512.

    Returns
    -------
    float
        rho, clipped to [-1, 1].

    Raises
    ------
    ConfigError
        Invalid spectrum description or quad_order out of range.
    ConvergenceError
        Tolerance not reached by the cap, which takes fdT in the hundreds;
        carries the last two estimates as .last and .previous.
    """
    _validate_spec(spec)
    quad_order = int(quad_order)
    if quad_order < 2:
        raise ConfigError(f"quad_order={quad_order} must be >= 2")
    if quad_order > RHO_ORDER_CAP:
        raise ConfigError(f"quad_order={quad_order} exceeds the order cap {RHO_ORDER_CAP}")
    cov, edges = _covariance(spec)
    n = quad_order
    previous, last = None, _rho_at(cov, edges, n)
    while 2 * n <= RHO_ORDER_CAP:
        n *= 2
        previous, last = last, _rho_at(cov, edges, n)
        if abs(last - previous) < RHO_QUAD_TOL:
            return min(1.0, max(-1.0, last))
    raise ConvergenceError(
        f"rho quadrature not converged to {RHO_QUAD_TOL} by {RHO_ORDER_CAP} nodes per piece",
        last=last,
        previous=previous,
    )
