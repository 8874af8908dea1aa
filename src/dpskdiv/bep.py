"""Closed-form error probability and Chernoff bounds for DPSK diversity.

Everything here works in units with N0 = 1 and the bit energy absorbed into
the per-branch mean SNR gamma_i; the published error-probability formulas
depend only on (rho_i, gamma_i), so nothing is lost.

The decision variable splits as X - Y with X, Y independent weighted sums of
squared complex Gaussians, i.e. sums of independent exponentials, X with
means proportional to alpha_i and Y with means proportional to beta_j.  Under
optimum combining alpha_i = rho_i gamma_i / (1 + gamma_i - rho_i gamma_i) and
beta_i = rho_i gamma_i / (1 + gamma_i + rho_i gamma_i), while unit-weight
(suboptimum) combining has alpha_i = 1 + gamma_i + rho_i gamma_i and
beta_i = 1 + gamma_i - rho_i gamma_i.  These poles are formed once, by
_poles, and exact_bep and both Chernoff bounds read them from there.

The paper writes P_b = P(X < Y) as the partial-fraction double sum
sum_i sum_j A_i B_j beta_j / (alpha_i + beta_j) with
A_i = prod_{m != i} alpha_i / (alpha_i - alpha_m).  That form is not used at
runtime: the weights A_i B_j grow without bound and cancel as poles crowd
together, and they do not exist for repeated poles.  exact_bep runs the phase
race instead.  X and Y pass through their exponential phases one after
another; by memorylessness, in phase state (i, j) X completes its phase first
with probability beta_j / (alpha_i + beta_j).  P_b is the chance that X
completes all L phases before Y does, an O(L^2) recursion whose terms are all
positive, so nothing cancels and repeated poles need no special case.  The
test suite checks it against the partial-fraction form evaluated in high
precision.
"""

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .channel import Detector, DiversityConfig
from .errors import ConfigError


@dataclass(frozen=True)
class ChernoffResult:
    bound: float
    s_opt: float


def _poles(cfg: DiversityConfig) -> Tuple[List[float], List[float]]:
    """Phase means (alpha_i, beta_i) of X and Y, in branch order; the optimum
    detector drops branches whose alpha_i is 0 (see exact_bep)."""
    alphas: List[float] = []
    betas: List[float] = []
    for br in cfg.branches:
        g = br.gamma
        rg = br.rho * g
        diff = 1.0 + g * (1.0 - br.rho)  # 1 + gamma - rho gamma, free of cancellation as rho -> 1
        if cfg.detector is Detector.SUBOPTIMUM:
            alphas.append(1.0 + g + rg)
            betas.append(diff)
        elif (a := rg / diff) > 0.0:
            alphas.append(a)
            betas.append(rg / (1.0 + g + rg))
    return alphas, betas


def _phase_race(alphas: Sequence[float], betas: Sequence[float]) -> float:
    """P(X < Y) for X, Y sums of independent exponentials with the given means.

    f(i, j), the chance that X wins from phase state (i, j), obeys
    f = f(i, j+1) + beta_j [f(i+1, j) - f(i, j+1)] / (alpha_i + beta_j), with
    f(L, j) = 1 for j < L and f(i, L) = 0; no product of tiny numbers to
    underflow.  row holds f(i+1, .) and is overwritten with f(i, .) from the
    right, f carrying f(i, j+1).
    """
    n = len(alphas)
    row = [1.0] * n
    for a in reversed(alphas):
        f = 0.0
        for j in range(n - 1, -1, -1):
            b = betas[j]
            f = row[j] = f + b / (a + b) * (row[j] - f)
    return row[0]


def exact_bep(cfg: DiversityConfig) -> float:
    """Exact bit error probability of the configured combiner.

    Under the optimum detector, branches whose alpha_i is 0 are dropped.  At
    rho*gamma = 0 the weight is zero and the branch contributes nothing to
    the statistic.  Otherwise alpha_i has underflowed, and beta_i <= alpha_i
    with it: the branch adds a symmetric term below 5e-324 in scale to X - Y,
    which moves the result by far less than a rounding, while its zero poles
    would divide the phase race by zero.  If every branch is dropped the
    result is a coin flip, 0.5.
    """
    alphas, betas = _poles(cfg)
    if not alphas:
        return 0.5
    # sorted, so that the result does not depend on the order of the branches
    return _phase_race(sorted(alphas), sorted(betas))


def db_to_linear(db: float) -> float:
    """10^(db/10), the one dB-to-linear conversion of the package.

    A value whose linear form overflows a float is a ConfigError.
    """
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        raise ConfigError(f"{db} dB overflows a float") from None


def power_split(gamma_b_db: float, eta: float) -> Tuple[float, float]:
    """Split a total SNR per bit (in dB) across two branches.

    Returns linear (gamma1, gamma2) = (eta, 1-eta) * 10^(gamma_b_db/10).
    """
    if not (math.isfinite(eta) and 0.0 < eta < 1.0):
        raise ConfigError(f"eta={eta} must lie strictly inside (0, 1)")
    if not math.isfinite(gamma_b_db):
        raise ConfigError(f"gamma_b_db={gamma_b_db} must be finite")
    total = db_to_linear(gamma_b_db)
    return eta * total, (1.0 - eta) * total


def _chernoff(alphas: Sequence[float], betas: Sequence[float], t: float, s: float,
              improved: bool) -> ChernoffResult:
    """prod_i 1 / [(1 + t alpha_i)(1 - t beta_i)], halved when improved,
    evaluated through its log, -sum_i [log1p(t alpha_i) + log1p(-t beta_i)].

    t = 4 s for the poles as _poles forms them, or 4 s c for poles scaled by
    1/c; the result reports s."""
    bound = math.exp(-math.fsum(math.log1p(t * a) + math.log1p(-t * b)
                                for a, b in zip(alphas, betas)))
    if improved:
        bound *= 0.5
    return ChernoffResult(bound=bound, s_opt=s)


def chernoff_optimum(cfg: DiversityConfig, improved: bool = True) -> ChernoffResult:
    """Chernoff bound for the optimum detector.

    The bound prod_i 1 / [(1 + 4 s alpha_i)(1 - 4 s beta_i)] on the optimum
    poles is minimized at s = 1/4 (with N0 = 1) for every branch, because
    alpha_i / (1 + alpha_i) = beta_i / (1 - beta_i) = rho_i gamma_i / (1 + gamma_i)
    makes each branch's derivative vanish there.  The bound is then
    prod_i [1 - (rho_i gamma_i / (1 + gamma_i))^2], halved when improved.
    """
    if cfg.detector is not Detector.OPTIMUM:
        raise ConfigError("chernoff_optimum requires an optimum-detector config")
    alphas, betas = _poles(cfg)
    return _chernoff(alphas, betas, 1.0, 0.25, improved)


def chernoff_suboptimum(cfg: DiversityConfig, improved: bool = True) -> ChernoffResult:
    """Numerically optimized Chernoff bound for the unit-weight detector.

    Minimizes prod_i 1 / [(1 + 4 s alpha_i)(1 - 4 s beta_i)] over
    s in (0, 1/(4 max_i beta_i)) with alpha_i = 1 + gamma_i + rho_i gamma_i
    and beta_i = 1 + gamma_i - rho_i gamma_i.  The log objective is convex,
    so its analytic derivative is strictly increasing and a bisection on it
    locates the unique minimizer to full precision; when every
    rho_i gamma_i = 0 the derivative is positive throughout and the bisection
    ends at the lower end of the interval, where the bound is 1.

    The bisection runs on t = 4 s c, with the poles scaled to alpha_i / c and
    beta_i / c, where c is the power of two just above max_i beta_i: s itself
    is subnormal once max_i beta_i exceeds ~1e295, where a bisection on s
    stalls, but t and every term 4 s alpha_i = t alpha_i / c stay normal
    floats.  Scaling by a power of two is exact, so wherever s is normal the
    steps and the bound are those of a bisection on s.
    """
    if cfg.detector is not Detector.SUBOPTIMUM:
        raise ConfigError("chernoff_suboptimum requires a suboptimum-detector config")
    alphas, betas = _poles(cfg)
    c = math.ldexp(1.0, math.frexp(max(betas))[1])
    alphas, betas = [a / c for a in alphas], [b / c for b in betas]
    t_hi = 1.0 / max(betas)
    lo, hi = 1e-12 * t_hi, (1.0 - 1e-12) * t_hi

    def dlog_bound(t):
        return sum(b / (1.0 - t * b) - a / (1.0 + t * a) for a, b in zip(alphas, betas))

    while hi - lo > 1e-15 * hi:
        mid = 0.5 * (lo + hi)
        if dlog_bound(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    t = 0.5 * (lo + hi)
    return _chernoff(alphas, betas, t, 0.25 * t / c, improved)
