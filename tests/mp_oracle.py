"""Reference values in mpmath for the tests, computed apart from dpskdiv.

Imports the standard library and mpmath only, never dpskdiv or numpy, so no
reference can borrow a routine from the code it checks.

rho(spec): channel.rho_from_doppler integrates the covariance r(tau), J0 by a
trapezoid rule for Jakes, over the matched filter's triangular lag window.
rho() integrates the spectrum S instead, with nu in units of 1/T and
sinc^2(pi nu) the transform of the window,
R(j) = int S(nu) sinc^2(pi nu) cos(2 pi nu j) dnu, so it also checks each
covariance against its spectrum.  Jakes: nu = fd sin t makes S dnu = dt / pi.
Rectangular: S is flat on |nu| < fd.  Gaussian: S ~ exp(-ln2 (nu / fd)^2), so
fd is the half-power point, cut off at 10 fd, where S is 2^-100 of its peak.
Each analytic integrand is cut into pieces of at most fd or 1 + fd // 16 units
of nu for mpmath's Gauss-Legendre rule at 20 digits.  Those pieces grow with
fd, and past some fd the rule's error estimate misses what they hold: the
Gaussian at fd = 2000 read 8.6e-4, where rho is 3.7382e-5.  So for fd >= 1
the Gaussian is summed over unit pieces of nu instead: with nu = k + x,
sin^2(pi nu) and cos(2 pi nu) depend on x alone, so one fixed 24-node
Gauss-Legendre rule in x on [0, 1] weights G(x) = sum_k S(k + x) / (k + x)^2,
at one exp per node and unit of nu, ~4.5 ms per unit of fd.  At 32 digits
with half-width pieces it gives the same floats, and for fd >= 2 it matches
the lag-domain closed form 1 / (2 (sqrt(pi c) - 1)), c = (pi fd)^2 / ln2, to
the last bit up to fd = 2000.  Valid range: Jakes and rectangular checked to
fd = 128, the Gaussian to fd = 2000.  A table fixes the covariance, so for
it rho() keeps the lag integral, by tanh-sinh at 30 digits.

poles(cfg) takes the poles from the link model, not from formulas in
(rho, gamma).  Per branch, z = (z_prev, z_curr) has covariance
Sigma0 = [[1+gamma, rho gamma], [rho gamma, 1+gamma]] under bit 0, Sigma1
with -rho gamma under bit 1, and the detector decides on D = sum z^H A z,
with A = [[0, 1/2], [1/2, 0]] for unit weights and A = (Sigma1^-1 -
Sigma0^-1)/2, half the log-likelihood ratio of bit 0 to bit 1, for the
optimum detector.  So D = X - Y with an exponential of mean alpha in X and
one of mean beta in Y for the eigenvalues alpha and -beta of each A Sigma0
(Turin, Biometrika 1960); the unit-weight ones are half of dpskdiv's, which
changes no probability.  chernoff(cfg) minimizes E[exp(-theta D)] =
prod det(I + theta A Sigma0)^-1 over theta > 0, the unimproved Chernoff
bound; theta* is 4 s* (optimum) or 8 s* (unit weights) in dpskdiv's s.

bep(cfg) sums the paper's partial-fraction form over these poles, where
exact_bep runs a phase race.  With
M(s) = E[exp(s (X - Y))] = 1 / (prod_i (1 - alpha_i s) prod_j (1 + beta_j s)),
P(X < Y) = -sum_j Res_{s = -1/beta_j} M(s) / s; a beta of multiplicity m gives
a residue of order m, read off a Taylor series.  The weights cancel as the
betas crowd together, so the precision grows with their closest relative gap,
and the sum is repeated 20 digits higher to confirm it.  Two routes check it:
negative_binomial for L identical branches (X wins L phase races, each with
probability beta / (alpha + beta)), and inversion, the Gil-Pelaez integral of
M along a vertical line through the saddle point of M(s) / s, which uses no
partial fractions but takes ~0.1 s a call.

JAKES_FDT005_DENSE_GRID is rho from a 2-D grid, frozen before channel.py
existed.  bep_l1 is the one-branch BEP, a shared closed form.
"""

import functools
import math

import mpmath

# Frozen before the main implementation existed: 4096^2 trapezoidal grid over
# the unit square (8192^2 agrees to 4.5e-12).
JAKES_FDT005_DENSE_GRID = 0.975528133401303


def rho(spec):
    """rho of a DopplerSpec as a float; the analytic spectra need fdT > 0."""
    kind = spec.kind.value
    if kind == "tabulated":
        return _lag_rho(spec.table)
    if kind == "gaussian" and spec.fdt >= 1:
        return _gaussian_rho(spec.fdt)
    with mpmath.workdps(20):
        fd = mpmath.mpf(spec.fdt)
        width = min(fd, 1 + int(fd) // 16)
        top = 10 * fd if kind == "gaussian" else fd
        nus = [k * width for k in range(int(mpmath.ceil(top / width)))] + [top]
        ln2 = mpmath.log(2)

        def big_r(j):
            def at(nu):
                s = mpmath.exp(-ln2 * (nu / fd) ** 2) if kind == "gaussian" else 1
                return s * mpmath.sincpi(nu) ** 2 * mpmath.cospi(2 * j * nu)

            if kind == "jakes":
                ts = [mpmath.asin(nu / fd) for nu in nus]
                return mpmath.quad(lambda t: at(fd * mpmath.sin(t)), ts, method="gauss-legendre")
            return mpmath.quad(at, nus, method="gauss-legendre")

        return float(big_r(1) / big_r(0))


def _gaussian_rho(fd, dps=20, splits=1):
    """Gaussian rho for fd >= 1 on unit pieces of nu, each x in [0, 1] cut
    into `splits` pieces (more digits and splits give the self-check)."""
    with mpmath.workdps(dps):
        fd = mpmath.mpf(fd)
        a = mpmath.log(2) / fd ** 2
        ks = range(int(mpmath.ceil(10 * fd)))
        rule = mpmath.calculus.quadrature.GaussLegendre(mpmath.mp).calc_nodes(4, mpmath.mp.prec)
        r0 = r1 = 0
        for p in range(splits):
            for t, w in rule:
                x = (p + (t + 1) / 2) / splits
                g = mpmath.fsum(mpmath.exp(-a * u) / u for u in ((k + x) ** 2 for k in ks))
                v = w * mpmath.sinpi(x) ** 2 * g
                r0 += v
                r1 += v * mpmath.cospi(2 * x)
        return float(r1 / r0)


def _lag_rho(table):
    """rho from R(j) = int_{-1}^{1} (1 - |t|) r(|t + j|) dt, r linear between knots."""
    with mpmath.workdps(30):
        lags = [mpmath.mpf(a) for a, _ in table]
        vals = [mpmath.mpf(b) for _, b in table]

        def cov(x):
            i = max(k for k in range(len(lags) - 1) if lags[k] <= x)
            return vals[i] + (vals[i + 1] - vals[i]) * (x - lags[i]) / (lags[i + 1] - lags[i])

        def big_r(j):
            # the integrand creases at t = 0, t = -j and t = +-knot - j
            cuts = {t for k in lags for t in (k - j, -k - j) if -1 < t < 1}
            points = sorted({mpmath.mpf(-1), mpmath.mpf(0), mpmath.mpf(-j), mpmath.mpf(1)} | cuts)
            return mpmath.quad(lambda t: (1 - abs(t)) * cov(abs(t + j)), points)

        return float(big_r(1) / big_r(0))


def _dps(cfg):
    # 50 digits, plus the decades of gamma that cancellation can cost
    return 50 + max(0, math.ceil(math.log10(max(1.0, *(br.gamma for br in cfg.branches)))))


def _inverse(m):
    # the adjugate over the determinant: mpmath's own inverse reuses a cached
    # LU factor, and two inverses of one matrix can differ in the last digit
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    return mpmath.matrix([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]]) / det


@functools.lru_cache(maxsize=None)
def _eigenvalues(rho, gamma, optimum, dps):
    """(alpha, beta) of one branch from the eigenvalues of A Sigma0; None if A = 0."""
    with mpmath.workdps(dps):
        g, rg = mpmath.mpf(gamma), mpmath.mpf(rho) * gamma
        sigma0, sigma1 = (mpmath.matrix([[1 + g, c], [c, 1 + g]]) for c in (rg, -rg))
        form = ((_inverse(sigma1) - _inverse(sigma0)) / 2 if optimum
                else mpmath.matrix([[0, 0.5], [0.5, 0]]))
        if not any(form):
            return None
        b = form * sigma0
        half_trace = (b[0, 0] + b[1, 1]) / 2
        root = mpmath.sqrt(((b[0, 0] - b[1, 1]) / 2) ** 2 + b[0, 1] * b[1, 0])
        return half_trace + root, root - half_trace


def poles(cfg, dps=None):
    """(alphas, betas) as mpf, without branches where A = 0; a beta within 1e-40
    relative of an earlier one is snapped to it, as partial_fractions needs.
    dps, the working digits, defaults to _dps(cfg)."""
    alphas, betas = [], []
    dps = dps or _dps(cfg)
    with mpmath.workdps(dps):
        for br in cfg.branches:
            if pair := _eigenvalues(br.rho, br.gamma, cfg.detector.value == "optimum", dps):
                alphas.append(pair[0])
                betas.append(next((b for b in betas if abs(b - pair[1]) <= 1e-40 * b), pair[1]))
    return alphas, betas


def mgf(cfg, theta):
    """E[exp(-theta D)] = prod 1 / (1 + theta lambda) over the eigenvalues."""
    alphas, betas = poles(cfg)
    with mpmath.workdps(_dps(cfg)):
        return mpmath.fprod(1 / (1 + theta * lam) for lam in alphas + [-b for b in betas])


def chernoff(cfg):
    """(min, argmin) of mgf(cfg, theta), log-convex on (0, 1 / max beta):
    bisection (1 if no beta is left)."""
    alphas, betas = poles(cfg)
    dps = _dps(cfg)
    with mpmath.workdps(dps):
        lams = alphas + [-b for b in betas]
        lo, hi = mpmath.mpf(0), 1 / max(betas, default=1)
        for _ in range(4 * dps):
            mid = (lo + hi) / 2
            lo, hi = (lo, mid) if mpmath.fsum(x / (1 + mid * x) for x in lams) < 0 else (mid, hi)
        theta = (lo + hi) / 2
        return mgf(cfg, theta), theta


def _residue_sum(alphas, betas):
    total = mpmath.mpf(0)
    for q in set(betas):
        m = betas.count(q)
        x = -1 / q
        # Taylor series in (s - x), to degree m - 1, of (s - x)^m M(s) / s:
        # the product of 1 / (a + b s) = (1/d) sum_n (-b/d)^n (s - x)^n,
        # d = a + b x, over s, the alpha factors and the other beta factors
        series = [q ** -m] + [mpmath.mpf(0)] * (m - 1)
        factors = [(0, 1)] + [(1, -a) for a in alphas] + [(1, b) for b in betas if b != q]
        for a, b in factors:
            d = a + b * x
            term = [(-b / d) ** n / d for n in range(m)]
            series = [mpmath.fsum(series[k] * term[n - k] for k in range(n + 1)) for n in range(m)]
        total -= series[m - 1]
    return total


def partial_fractions(alphas, betas):
    """P(X < Y) as the sum of residues at the poles -1/beta_j."""
    distinct = sorted(set(betas))
    # above the 50 digits of the poles, so that distinct betas have a gap > 0
    with mpmath.workdps(60):
        gap = min((1 - lo / hi for lo, hi in zip(distinct, distinct[1:])), default=1)
    # each weight B_j can reach gap^-(L-1)
    dps = 40 + len(betas) * (int(-mpmath.log10(gap)) + 1)
    with mpmath.workdps(dps):
        p = _residue_sum(alphas, betas)
    with mpmath.workdps(dps + 20):
        check = _residue_sum(alphas, betas)
        assert abs(p - check) <= mpmath.mpf(10) ** -35 * abs(check), "precision too low"
    return p


def negative_binomial(alpha, beta, n):
    """P(X < Y) with X ~ Gamma(n, alpha), Y ~ Gamma(n, beta)."""
    with mpmath.workdps(40):
        q = beta / (alpha + beta)
        return mpmath.fsum(mpmath.binomial(n - 1 + k, k) * q ** n * (1 - q) ** k
                           for k in range(n))


def inversion(alphas, betas):
    """P(X < Y) by Gil-Pelaez inversion through the saddle point."""
    with mpmath.workdps(30):
        def dlog(c):
            # derivative of log(M(c) / -c), increasing on (-1/max beta, 0)
            return (mpmath.fsum(a / (1 - a * c) for a in alphas)
                    - mpmath.fsum(b / (1 + b * c) for b in betas) - 1 / c)

        lo, hi = -1 / max(betas), mpmath.mpf(0)
        for _ in range(60):
            mid = (lo + hi) / 2
            if dlog(mid) > 0:
                hi = mid
            else:
                lo = mid
        c = (lo + hi) / 2

        def integrand(u):
            s = mpmath.mpc(c, u)
            den = s
            for a in alphas:
                den *= 1 - a * s
            for b in betas:
                den *= 1 + b * s
            return -(1 / den).real

        p, err = mpmath.quad(integrand, [0, mpmath.inf], error=True)
        assert err < mpmath.mpf(10) ** -10 * p, "quadrature did not converge"
        return p / mpmath.pi


def bep(cfg):
    """Exact BEP of a DiversityConfig as an mpf."""
    alphas, betas = poles(cfg)
    if not alphas:
        return mpmath.mpf(1) / 2
    return partial_fractions(alphas, betas)


def rel_err(value, ref):
    """|value - ref| / ref as a float, formed at 40 digits."""
    with mpmath.workdps(40):
        return float(abs(mpmath.mpf(value) - ref) / ref)


def bep_l1(rho, gamma):
    """Single-branch BEP, the same for both detectors."""
    return (1.0 + gamma * (1.0 - rho)) / (2.0 * (1.0 + gamma))
