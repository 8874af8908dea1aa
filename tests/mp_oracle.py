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
of nu for mpmath's Gauss-Legendre rule at 20 digits.  A table fixes the
covariance, so for it rho() keeps the lag integral, by tanh-sinh at 30 digits.

bep(cfg) sums the paper's partial-fraction form, where exact_bep runs a phase
race over the poles alpha_i (the X phases) and beta_j (the Y phases).  With
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
existed.  bep_l1 (one-branch BEP), sub_s_l1 (one-branch suboptimum Chernoff s*)
and sub_product (the suboptimum Chernoff product) are shared closed forms.
"""

import mpmath

# Frozen before the main implementation existed: 4096^2 trapezoidal grid over
# the unit square (8192^2 agrees to 4.5e-12).
JAKES_FDT005_DENSE_GRID = 0.975528133401303


def rho(spec):
    """rho of a DopplerSpec as a float; the analytic spectra need fdT > 0."""
    kind = spec.kind.value
    if kind == "tabulated":
        return _lag_rho(spec.table)
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


def poles(cfg):
    """(alphas, betas) as mpf at 50 digits; zero-weight optimum branches are dropped."""
    alphas, betas = [], []
    with mpmath.workdps(50):
        for br in cfg.branches:
            g = mpmath.mpf(br.gamma)
            rg = mpmath.mpf(br.rho) * g
            if cfg.detector.value == "optimum":
                if rg == 0:
                    continue
                alphas.append(rg / (1 + g - rg))
                betas.append(rg / (1 + g + rg))
            else:
                alphas.append(1 + g + rg)
                betas.append(1 + g - rg)
    return alphas, betas


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
    with mpmath.workdps(30):
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


def sub_s_l1(rho, gamma):
    """The suboptimum Chernoff parameter s* of a single branch."""
    rg = rho * gamma
    return rg / (4.0 * ((1.0 + gamma) ** 2 - rg ** 2))


def sub_product(pairs, s):
    """The suboptimum Chernoff product before its factor 1/2, in the arithmetic
    of the arguments: floats for a finite difference, mpf for a reference."""
    total = 1
    for r, g in pairs:
        total /= (1 + 4 * s * (1 + g + r * g)) * (1 - 4 * s * (1 + g - r * g))
    return total
