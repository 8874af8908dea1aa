"""Reference BEP values in mpmath, computed apart from dpskdiv.bep.

exact_bep runs a phase-race recursion over the poles alpha_i (the X phases)
and beta_j (the Y phases).  Nothing here uses it.

bep(cfg) evaluates the paper's partial-fraction form.  With
M(s) = E[exp(s (X - Y))] = 1 / (prod_i (1 - alpha_i s) prod_j (1 + beta_j s)),
P(X < Y) = -sum_j Res_{s = -1/beta_j} M(s) / s.  For distinct betas this is
sum_j B_j prod_i beta_j / (alpha_i + beta_j), the paper's double sum
sum_i sum_j A_i B_j beta_j / (alpha_i + beta_j) with the sum over i done in
closed form; a beta of multiplicity m contributes a residue of order m, read
off a Taylor series.  The weights B_j cancel as the betas crowd together, so
the working precision grows with their closest relative gap and the sum is
repeated 20 digits higher to confirm it.

Two more routes check that one:

- negative_binomial: L identical branches.  X and Y are Gamma(L) variables
  with scales alpha and beta; X wins L phase races before Y does, each won
  with probability q = beta / (alpha + beta).
- inversion: the semi-analytic Gil-Pelaez inversion of M along a vertical
  line through the saddle point c < 0 of M(s) / s,
  P(X < Y) = -(1/pi) int_0^inf Re[M(c + iu) / (c + iu)] du, by quadrature.
  It uses no partial fractions, but takes ~0.1 s a call.
"""

import mpmath

from dpskdiv import Detector


def poles(cfg):
    """(alphas, betas) as mpf at 50 digits; zero-weight optimum branches are dropped."""
    alphas, betas = [], []
    with mpmath.workdps(50):
        for br in cfg.branches:
            g = mpmath.mpf(br.gamma)
            rg = mpmath.mpf(br.rho) * g
            if cfg.detector is Detector.OPTIMUM:
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
