"""Reference values computed apart from dpskdiv, in mpmath.

BEP: the decision variable is X - Y with X and Y independent sums of
exponentials, X with means proportional to alpha_i and Y to beta_j (the pole
formulas of the paper, written out again below).  P(X < Y) is the chance that
X runs through all of its exponential phases before Y does.  In phase state
(i, j) X finishes its next phase first with probability
lambda_i / (lambda_i + mu_j), lambda_i = 1/alpha_i, mu_j = 1/beta_j, so

    f(i, j) = p_ij f(i+1, j) + (1 - p_ij) f(i, j+1),
    f(L, j) = 1 for j < L,  f(i, L) = 0,

and P_b = f(0, 0).  Every term is positive: nothing cancels, and repeated
poles need no special case.  Nothing here uses the partial-fraction weights of
dpskdiv.bep.

rho: the matched-filter-averaged covariance at bit lag j is the 1-D integral
R(j) = int (1 - |s - j|) r(|s|) ds over [j - 1, j + 1], split at its kinks
and integrated by tanh-sinh quadrature; rho = R(1) / R(0).  dpskdiv.channel
uses a 2-D Gauss-Legendre rule instead.

Importing this module does not import dpskdiv, numpy or scipy.
"""

import math

import mpmath

DPS = 40


def poles(branches, detector):
    """(alphas, betas) as mpf for branches [(rho, gamma_linear), ...].

    Under the optimum detector branches with rho*gamma = 0 carry zero weight
    and are dropped; the caller treats an empty list as a coin flip.
    """
    alphas, betas = [], []
    for rho, gamma in branches:
        rho = mpmath.mpf(rho)
        g = mpmath.mpf(gamma)
        rg = rho * g
        if detector == "optimum":
            if rg == 0:
                continue
            alphas.append(rg / (1 + g - rg))
            betas.append(rg / (1 + g + rg))
        else:
            alphas.append(1 + g + rg)
            betas.append(1 + g - rg)
    return alphas, betas


def phase_race(alphas, betas):
    """P(X < Y) by the phase-race recursion over states (i, j)."""
    n = len(alphas)
    if n == 0:
        return mpmath.mpf(1) / 2
    # row[j] holds f(i + 1, j) while row i is being built, right to left.
    # lambda_i / (lambda_i + mu_j) = beta_j / (alpha_i + beta_j).
    row = [mpmath.mpf(1)] * n + [mpmath.mpf(0)]
    for a in reversed(alphas):
        new = [mpmath.mpf(0)] * (n + 1)
        for j in range(n - 1, -1, -1):
            p = betas[j] / (a + betas[j])
            new[j] = p * row[j] + (1 - p) * new[j + 1]
        row = new
    return row[0]


def bep(branches, detector):
    """Exact BEP of [(rho, gamma_linear), ...] under 'optimum' or 'suboptimum'."""
    with mpmath.workdps(DPS):
        return phase_race(*poles(branches, detector))


def bep_identical(rho, gamma, n, detector):
    """Negative-binomial closed form for n identical branches.

    X ~ Gamma(n, alpha) and Y ~ Gamma(n, beta): X wins n phases before Y wins
    n, each phase going to X with probability q = beta / (alpha + beta).
    """
    with mpmath.workdps(DPS):
        (alpha,), (beta,) = poles([(rho, gamma)], detector)
        q = beta / (alpha + beta)
        return mpmath.fsum(mpmath.binomial(n - 1 + k, k) * q ** n * (1 - q) ** k
                           for k in range(n))


def db_to_linear(db):
    with mpmath.workdps(DPS):
        return mpmath.power(10, mpmath.mpf(db) / 10)


def power_split(gamma_b_db, eta):
    """(eta, 1 - eta) times the total SNR per bit, as mpf."""
    with mpmath.workdps(DPS):
        total = db_to_linear(gamma_b_db)
        eta = mpmath.mpf(eta)
        return eta * total, (1 - eta) * total


def _covariance(kind, fdt):
    fdt = mpmath.mpf(fdt)
    if kind == "jakes":
        return lambda s: mpmath.besselj(0, 2 * mpmath.pi * fdt * s)
    if kind == "gaussian":
        c = (mpmath.pi * fdt) ** 2 / mpmath.log(2)
        return lambda s: mpmath.exp(-c * s * s)
    if kind == "rectangular":
        w = 2 * mpmath.pi * fdt
        return lambda s: mpmath.sinc(w * s)
    raise ValueError(f"no oracle for spectrum {kind!r}")


def rho(kind, fdt):
    """rho = R(1) / R(0) for a Jakes, Gaussian or rectangular spectrum."""
    with mpmath.workdps(25):
        r = _covariance(kind, fdt)
        # R(0): the triangle 1 - |s| is even, so twice the half over [0, 1].
        r0 = 2 * mpmath.quad(lambda s: (1 - s) * r(s), [0, 1])
        # R(1): the triangle has its kink at s = 1.
        r1 = mpmath.quad(lambda s: (1 - abs(s - 1)) * r(s), [0, 1, 2])
        return r1 / r0


def rel_err(value, ref):
    """|value - ref| / |ref| as a float; inf for a non-finite value."""
    if not math.isfinite(value):
        return math.inf
    return float(abs(mpmath.mpf(value) - ref) / abs(ref))
