import mpmath
import numpy as np
import pytest
from scipy.special import j0 as scipy_j0

from dpskdiv import ConfigError, ConvergenceError, DopplerSpec, SpectrumKind, rho_from_doppler
from dpskdiv.channel import _covariance, _rho_at

# Frozen before the main implementation existed: 4096^2 trapezoidal grid over
# the unit square (8192^2 agrees to 4.5e-12).
JAKES_FDT005_DENSE_GRID = 0.975528133401303

CONSTANT_TABLE = ((0.0, 1.0), (2.5, 1.0))
RAMP_TABLE = ((0.0, 1.0), (2.0, 0.6))
KINKED_TABLE = ((0.0, 1.0), (0.5, 1.0), (0.6, 0.2), (2.0, 0.2))
SEVEN_KNOT_TABLE = ((0.0, 1.0), (0.3, 0.95), (0.7, 0.8), (1.2, 0.5), (1.9, 0.2),
                    (2.5, -0.1), (4.0, 0.0))


def trapezoid_rho(fdt, n=2048):
    """Independent brute-force oracle on an n^2 grid using scipy's J0."""
    u = np.linspace(0.0, 1.0, n)
    w = np.full(n, 1.0 / (n - 1))
    w[0] *= 0.5
    w[-1] *= 0.5
    d = u[:, None] - u[None, :]
    r0 = w @ scipy_j0(2 * np.pi * fdt * np.abs(d)) @ w
    r1 = w @ scipy_j0(2 * np.pi * fdt * np.abs(d + 1.0)) @ w
    return r1 / r0


def test_jakes_reference_point():
    rho = rho_from_doppler(DopplerSpec(SpectrumKind.JAKES, 0.05))
    assert abs(rho - JAKES_FDT005_DENSE_GRID) < 1e-8


def test_jakes_against_live_oracle():
    rho = rho_from_doppler(DopplerSpec(SpectrumKind.JAKES, 0.05))
    assert abs(rho - trapezoid_rho(0.05)) < 1e-8


@pytest.mark.parametrize("spec", [
    DopplerSpec(SpectrumKind.JAKES, 0.0),
    DopplerSpec(SpectrumKind.GAUSSIAN, 0.0),
    DopplerSpec(SpectrumKind.RECTANGULAR, 0.0),
    DopplerSpec(SpectrumKind.TABULATED, 0.0, CONSTANT_TABLE),
])
def test_zero_bandwidth_gives_unity(spec):
    assert abs(rho_from_doppler(spec) - 1.0) < 1e-10


def test_jakes_monotone_in_fdt():
    values = [rho_from_doppler(DopplerSpec(SpectrumKind.JAKES, f))
              for f in np.arange(0.0, 0.3 + 1e-12, 0.01)]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("kind", [SpectrumKind.JAKES, SpectrumKind.GAUSSIAN])
@pytest.mark.parametrize("fdt", [0.05, 0.1, 0.2])
def test_order_doubling_converges(kind, fdt):
    cov, edges = _covariance(DopplerSpec(kind, fdt))
    estimates = [_rho_at(cov, edges, n) for n in (4, 8, 16, 32)]
    diffs = [abs(b - a) for a, b in zip(estimates, estimates[1:])]
    # spectral convergence: each doubling shrinks the change (down to noise)
    assert all(d2 <= d1 + 1e-14 for d1, d2 in zip(diffs, diffs[1:]))
    assert diffs[-1] < 1e-10


def mpmath_rho(spec):
    """rho at 30 digits from R(j) = int_{-1}^{1} (1 - |t|) r(|t + j|) dt.

    tanh-sinh quadrature over the whole window, with breakpoints where the
    integrand creases: t = 0, t = -j and every table knot at t = +-knot - j.
    """
    with mpmath.workdps(30):
        f = mpmath.mpf(spec.fdt)
        if spec.kind is SpectrumKind.JAKES:
            cov = lambda x: mpmath.besselj(0, 2 * mpmath.pi * f * x)
        elif spec.kind is SpectrumKind.GAUSSIAN:
            cov = lambda x: mpmath.exp(-(mpmath.pi * f * x) ** 2 / mpmath.log(2))
        elif spec.kind is SpectrumKind.RECTANGULAR:
            cov = lambda x: mpmath.sinc(2 * mpmath.pi * f * x)
        else:
            lags = [mpmath.mpf(a) for a, _ in spec.table]
            vals = [mpmath.mpf(b) for _, b in spec.table]

            def cov(x):
                i = max(k for k in range(len(lags) - 1) if lags[k] <= x)
                return vals[i] + (vals[i + 1] - vals[i]) * (x - lags[i]) / (lags[i + 1] - lags[i])

        knots = [mpmath.mpf(a) for a, _ in spec.table or ()]

        def window(j):
            cuts = {t for k in knots for t in (k - j, -k - j) if -1 < t < 1}
            points = sorted({mpmath.mpf(-1), mpmath.mpf(0), mpmath.mpf(-j), mpmath.mpf(1)} | cuts)
            return mpmath.quad(lambda t: (1 - abs(t)) * cov(abs(t + j)), points)

        return float(window(1) / window(0))


# fdT = 50 takes 256 nodes per piece for Jakes and rectangular, near the cap
@pytest.mark.parametrize("spec", [
    *(pytest.param(DopplerSpec(kind, fdt), id=f"{kind.value}-{fdt}")
      for kind in (SpectrumKind.JAKES, SpectrumKind.GAUSSIAN, SpectrumKind.RECTANGULAR)
      for fdt in (0.001, 0.01, 0.05, 0.1, 0.3, 1.0, 50.0)),
    *(pytest.param(DopplerSpec(SpectrumKind.TABULATED, 0.0, table), id=name)
      for name, table in (("ramp", RAMP_TABLE), ("kinked", KINKED_TABLE),
                          ("seven-knot", SEVEN_KNOT_TABLE))),
])
def test_matches_mpmath_oracle(spec):
    assert abs(rho_from_doppler(spec) - mpmath_rho(spec)) <= 1e-13


def test_result_stays_in_range():
    for fdt in (0.3, 0.5, 0.8):
        rho = rho_from_doppler(DopplerSpec(SpectrumKind.JAKES, fdt))
        assert -1.0 <= rho <= 1.0


def test_rectangular_matches_its_own_oracle():
    fdt = 0.1

    def cov(x):
        return np.sinc(2 * fdt * np.abs(x))

    n = 2048
    u = np.linspace(0.0, 1.0, n)
    w = np.full(n, 1.0 / (n - 1))
    w[0] *= 0.5
    w[-1] *= 0.5
    d = u[:, None] - u[None, :]
    expected = (w @ cov(d + 1.0) @ w) / (w @ cov(d) @ w)
    got = rho_from_doppler(DopplerSpec(SpectrumKind.RECTANGULAR, fdt))
    assert abs(got - expected) < 1e-8


def test_tabulated_ramp_interpolated_linearly():
    # r(tau) = 1 - 0.2|tau| gives R(0) = 14/15, R(1) = 4/5 by hand, so
    # rho = 6/7.  Each piece of the split rule integrates a quadratic, so the
    # value is exact to rounding.
    rho = rho_from_doppler(DopplerSpec(SpectrumKind.TABULATED, 0.0, RAMP_TABLE))
    assert abs(rho - 6.0 / 7.0) <= 1e-14 * (6.0 / 7.0)


@pytest.mark.parametrize("table,msg", [
    (((0.0, 1.0),), "two points"),
    (((0.0, 1.0), (1.0, 0.9)), "cover"),
    (((0.5, 1.0), (2.5, 0.9)), "cover"),
    (((0.0, 1.0), (1.0, 0.9), (0.9, 0.8)), "increasing"),
    (((0.0, 0.7), (2.0, 0.5)), "r\\(0\\)"),
    (((0.0, 1.0), (1.0, 1.4), (2.0, 0.2)), "<= 1"),
])
def test_bad_tables_rejected(table, msg):
    with pytest.raises(ConfigError, match=msg):
        rho_from_doppler(DopplerSpec(SpectrumKind.TABULATED, 0.0, table))


def test_table_only_for_tabulated():
    with pytest.raises(ConfigError):
        rho_from_doppler(DopplerSpec(SpectrumKind.JAKES, 0.1, CONSTANT_TABLE))
    with pytest.raises(ConfigError):
        rho_from_doppler(DopplerSpec(SpectrumKind.TABULATED, 0.1, None))


def test_bad_quad_order():
    with pytest.raises(ConfigError):
        rho_from_doppler(DopplerSpec(SpectrumKind.JAKES, 0.05), quad_order=1)
    with pytest.raises(ConfigError):
        rho_from_doppler(DopplerSpec(SpectrumKind.JAKES, 0.05), quad_order=1024)


def test_negative_fdt_rejected():
    with pytest.raises(ConfigError):
        rho_from_doppler(DopplerSpec(SpectrumKind.JAKES, -0.1))


def test_kinked_table_exact_value():
    # r = 1 up to lag 0.5, a drop to 0.2 by lag 0.6, then flat: the interior
    # kinks are piece edges, and exact rational integration gives 241/628
    rho = rho_from_doppler(DopplerSpec(SpectrumKind.TABULATED, 0.0, KINKED_TABLE))
    assert abs(rho - 241.0 / 628.0) <= 1e-14


def test_extreme_fdt_raises_convergence_error():
    # sinc with 400 periods over the window needs more than 512 nodes per
    # piece; the doubling loop gives up and reports its last two estimates
    with pytest.raises(ConvergenceError) as info:
        rho_from_doppler(DopplerSpec(SpectrumKind.RECTANGULAR, 200.0))
    err = info.value
    assert err.last is not None and err.previous is not None
    assert abs(err.last - err.previous) >= 1e-10
