"""Diversity-branch parameterization and Doppler-derived fading correlation.

The detectors and all closed-form results depend on the channel only through
the per-branch pair (rho_i, gamma_i).  This module holds those types, which
check themselves when built, and the map from a Doppler spectrum to rho: the
normalized covariance r(tau) of the fading process, averaged by the
rectangular matched filter over two bit windows offset by j bits,

    R(j) = int_0^1 int_0^1 r(u - v + j) du dv,    rho = R(1) / R(0),

with all lags expressed in bit durations.  u - v has the triangular density
1 - |t| on [-1, 1], so R(j) = int (1 - |s - j|) r(|s|) ds over s in
[j - 1, j + 1], a 1-D integral.  Its integrand creases only at s = 0, at
s = j and at the knots of a tabulated covariance; rho_from_doppler splits the
range there, and at 2/fdT under a narrow Gaussian peak, and runs a
Gauss-Legendre rule, in pure Python, on each piece.

The Jakes covariance J0(w s), w = 2 pi fdT, is the m-interval trapezoid rule
on J0(x) = (2/pi) int_0^{pi/2} cos(x sin t) dt (Abramowitz & Stegun 9.1.18).
The integrand is periodic and analytic, so the rule converges geometrically
(Trefethen & Weideman, SIAM Rev. 56(3), 2014): its aliasing error is about
2 J_4m(x), below rounding once 4m exceeds the largest argument, 2w, by ~24.
m is capped so that the cost stays bounded; the rule is exact to w = 2048,
beyond what RHO_ORDER_CAP Gauss-Legendre nodes can resolve anyway.
"""

import bisect
import enum
import functools
import math
from dataclasses import dataclass
from typing import Optional, Tuple

from .errors import ConfigError, ConvergenceError

_LN2 = math.log(2.0)

RHO_QUAD_TOL = 1e-13  # relative to the scale of the R(1) sum: see rho_from_doppler
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
    """Ordered branches plus the detector that combines them, checked when built.

    Each branch needs 0 <= rho <= 1 and gamma >= 0 with 4*gamma finite, that
    is gamma <= sys.float_info.max / 4 (~4.49e307): the poles and the
    simulator's coefficients are sums of up to ~2 gamma.
    """

    branches: Tuple[BranchParams, ...]
    detector: Detector

    def __post_init__(self):
        branches = tuple(self.branches)
        if not branches:
            raise ConfigError("L >= 1 required: branch list is empty")
        for i, br in enumerate(branches):
            if not (math.isfinite(br.rho) and math.isfinite(br.gamma)):
                raise ConfigError(f"branch {i}: non-finite parameter (rho={br.rho}, gamma={br.gamma})")
            if not 0.0 <= br.rho <= 1.0:
                raise ConfigError(f"branch {i}: rho={br.rho} outside [0, 1]")
            if br.gamma < 0.0:
                raise ConfigError(f"branch {i}: gamma={br.gamma} is negative")
            if not math.isfinite(4.0 * br.gamma):
                raise ConfigError(f"branch {i}: gamma={br.gamma} too large, 4*gamma must be finite")
        object.__setattr__(self, "branches", branches)
        if not isinstance(self.detector, Detector):
            raise ConfigError(f"unknown detector {self.detector!r}")


@dataclass(frozen=True)
class DopplerSpec:
    """Doppler spectrum family plus normalized bandwidth fdT.

    table: for TABULATED only, (lag, covariance) pairs, kept as a tuple of
    float pairs, with lags in bit durations from 0 to at least 2, linearly
    interpolated and even in the lag.  The table fixes the covariance, so
    fdT must be 0 with it.  Checked when built.
    """

    kind: SpectrumKind
    fdt: float
    table: Optional[Tuple[Tuple[float, float], ...]] = None

    def __post_init__(self):
        if not isinstance(self.kind, SpectrumKind):
            raise ConfigError(f"unknown spectrum kind {self.kind!r}")
        if not (self.fdt >= 0.0 and math.isfinite(2.0 * math.pi * self.fdt)):
            raise ConfigError(f"fdT={self.fdt} must be >= 0, with 2*pi*fdT finite")
        if (self.kind is SpectrumKind.TABULATED) != (self.table is not None):
            raise ConfigError("a covariance table is required for (and only for) the tabulated spectrum")
        if self.table is None:
            return
        object.__setattr__(self, "table", tuple((float(l), float(v)) for l, v in self.table))
        if len(self.table) < 2:
            raise ConfigError("tabulated covariance needs at least two points")
        lags, vals = zip(*self.table)
        if any(not (math.isfinite(l) and math.isfinite(v)) for l, v in self.table):
            raise ConfigError("tabulated covariance contains non-finite entries")
        if any(b <= a for a, b in zip(lags, lags[1:])):
            raise ConfigError("tabulated lags must be strictly increasing")
        if lags[0] != 0.0 or lags[-1] < 2.0:
            raise ConfigError("tabulated lags must cover [0, 2] starting at lag 0")
        if abs(vals[0] - 1.0) > 1e-12:
            raise ConfigError(f"tabulated covariance must have r(0) = 1, got {vals[0]}")
        if max(abs(v) for v in vals) > 1.0 + 1e-12:
            raise ConfigError("tabulated covariance must satisfy |r| <= 1")
        if self.fdt != 0.0:
            raise ConfigError(f"fdT={self.fdt} must be 0 for the tabulated spectrum")


def _covariance(spec: DopplerSpec):
    """Normalized covariance r(s) as a scalar callable of the lag s >= 0 in
    bits, and the edges that split [0, 2] into pieces on which the integrands
    of _rho_at are smooth: 0, 1, 2, every table knot below 2, and 2/fdT for
    a Gaussian with fdT > 2."""
    fdt = spec.fdt
    edges = (0.0, 1.0, 2.0)
    if spec.kind is SpectrumKind.JAKES:
        w = 2.0 * math.pi * fdt
        m = int(min(w, 4 * RHO_ORDER_CAP)) + 6
        a = [w * math.sin(math.pi * k / (2 * m)) for k in range(1, m)]
        return (lambda s: (1.0 + math.cos(w * s) + 2.0 * sum([math.cos(ak * s) for ak in a]))
                / (2 * m)), edges
    if spec.kind is SpectrumKind.GAUSSIAN:
        # Gaussian spectrum with fdT read as the half-power half-width, so
        # r(tau) = exp(-(pi*fdT*tau)^2 / ln 2).
        # a product: ** 2 raises OverflowError from fdT ~ 4e153
        c = (math.pi * fdt) * (math.pi * fdt) / _LN2
        # above fdT = 2 the peak at lag 0 is narrower than the piece [0, 1];
        # an edge at 2/fdT, where r = exp(-4 pi^2 / ln 2) ~ 1e-25, gives it a
        # piece of its own
        return (lambda s: math.exp(-c * s * s)), ((0.0, 2.0 / fdt) + edges[1:]
                                                  if fdt > 2.0 else edges)
    if spec.kind is SpectrumKind.RECTANGULAR:
        w = 2.0 * math.pi * fdt

        def sinc(s):
            # r(tau) = sin(2 pi fdT tau) / (2 pi fdT tau)
            x = w * s
            return math.sin(x) / x if x else 1.0

        return sinc, edges
    lags, vals = zip(*spec.table)

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
    2 / ((1 - x^2) P_n'(x)^2), with P_n' taken again at the final node,
    since the last Newton step moved it.  The negative roots mirror the
    positive ones.  n never exceeds RHO_ORDER_CAP, so the cache stays small.
    """
    def legendre(x):
        # P_n(x) and P_n'(x)
        p_prev, p = 1.0, x
        for k in range(2, n + 1):
            p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
        return p, n * (x * p - p_prev) / (x * x - 1.0)

    half = []
    for i in range(1, (n + 1) // 2 + 1):
        x = (1.0 - (n - 1) / (8.0 * n ** 3)) * math.cos(math.pi * (i - 0.25) / (n + 0.5))
        for _ in range(100):
            p, dp = legendre(x)
            step = p / dp
            x -= step
            if abs(step) < 1e-15:
                break
        dp = legendre(x)[1]
        half.append((x, 2.0 / ((1.0 - x * x) * dp * dp)))
    # for odd n the last root is the middle node 0, which has no mirror
    return tuple(half + [(-x, w) for x, w in half[: n // 2]])


def _rho_at(cov, edges, n: int) -> Tuple[float, float]:
    """R(1)/R(0) with the n-point Gauss-Legendre rule on each piece of edges,
    and its scale: the sum of |R(1) terms| over R(0).

    With r even, R(0) = int_0^2 2 max(0, 1 - s) r(s) ds and
    R(1) = int_0^2 (1 - |s - 1|) r(s) ds, so one pass over the nodes gives
    both.  The R(1) weight is formed as min(s, 2 - s), exact in floating
    point: 1 - |s - 1| loses the small s on which a narrow peak sits.  The
    scale bounds the rounding error of the R(1) sum, which cancels where r
    oscillates, relative to R(0).
    """
    rule = _gauss_legendre(n)
    r0, r1 = [], []
    for a, b in zip(edges, edges[1:]):
        half, mid = 0.5 * (b - a), 0.5 * (a + b)
        for x, w in rule:
            s = mid + half * x
            c = half * w * cov(s)
            r0.append(2.0 * max(0.0, 1.0 - s) * c)
            r1.append(min(s, 2.0 - s) * c)
    # R(0) is 0 where the covariance underflows at every node (a Gaussian
    # whose (pi fdT)^2 / ln 2 overflows): nan never converges
    r0 = math.fsum(r0)
    if not r0:
        return math.nan, math.nan
    return math.fsum(r1) / r0, math.fsum(map(abs, r1)) / r0


def rho_from_doppler(spec: DopplerSpec, quad_order: int = DEFAULT_QUAD_ORDER) -> float:
    """Fading correlation coefficient rho = R(1)/R(0) for a Doppler spectrum.

    Each R(j) is a 1-D integral over the lag s in [0, 2], split at 0, 1, 2,
    every table knot and, for a Gaussian with fdT > 2, at 2/fdT, so that
    each piece is smooth.  An n-point Gauss-Legendre rule runs on every
    piece, starting at n = quad_order and doubling n until successive
    estimates differ by at most RHO_QUAD_TOL = 1e-13 times the scale of the
    R(1) sum, the sum of its terms' magnitudes over R(0), capped at 512
    nodes per piece.  The test is relative, so a tiny rho converges to
    working precision whatever quad_order, and the scale allows for the
    cancellation in R(1) where the covariance oscillates.  A
    piecewise-linear table makes each piece a quadratic, so it converges at
    the first doubling.

    Parameters
    ----------
    spec : DopplerSpec
    quad_order : int
        Starting Gauss-Legendre nodes per smooth piece, >= 2 and <= 256, so
        that it can double at least once below the cap.

    Returns
    -------
    float
        rho, clipped to [-1, 1].

    Raises
    ------
    ConfigError
        quad_order out of range.
    ConvergenceError
        Tolerance not reached by the cap: Jakes and rectangular from fdT
        ~150, whose covariance oscillates too fast for 512 nodes per piece,
        and a Gaussian from fdT ~3.6e153, whose (pi fdT)^2 / ln 2 overflows,
        so that r is 0 at every node and R(0) = 0.  The message gives the
        last two estimates.
    """
    quad_order = int(quad_order)
    if quad_order < 2:
        raise ConfigError(f"quad_order={quad_order} must be >= 2")
    if 2 * quad_order > RHO_ORDER_CAP:
        raise ConfigError(f"quad_order={quad_order} must be <= {RHO_ORDER_CAP // 2}, leaving room "
                          f"for one doubling below the order cap {RHO_ORDER_CAP}")
    cov, edges = _covariance(spec)
    n = quad_order
    previous, (last, _) = None, _rho_at(cov, edges, n)
    while 2 * n <= RHO_ORDER_CAP:
        n *= 2
        previous, (last, scale) = last, _rho_at(cov, edges, n)
        if abs(last - previous) <= RHO_QUAD_TOL * scale:
            return min(1.0, max(-1.0, last))
    raise ConvergenceError(
        f"rho quadrature not converged to {RHO_QUAD_TOL} of its scale by {RHO_ORDER_CAP} "
        f"nodes per piece: last estimate {last!r}, previous {previous!r}")
