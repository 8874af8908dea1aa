import math
import os
import re
import subprocess
import sys

import mpmath
import numpy as np
import pytest

import mp_oracle
from dpskdiv import ConfigError, ConvergenceError, DopplerSpec, SpectrumKind, rho_from_doppler
from dpskdiv.channel import _covariance, _gauss_legendre, _rho_at

CONSTANT_TABLE = ((0.0, 1.0), (2.5, 1.0))
RAMP_TABLE = ((0.0, 1.0), (2.0, 0.6))
KINKED_TABLE = ((0.0, 1.0), (0.5, 1.0), (0.6, 0.2), (2.0, 0.2))
SEVEN_KNOT_TABLE = ((0.0, 1.0), (0.3, 0.95), (0.7, 0.8), (1.2, 0.5), (1.9, 0.2),
                    (2.5, -0.1), (4.0, 0.0))


def test_jakes_reference_point():
    rho = rho_from_doppler(DopplerSpec(SpectrumKind.JAKES, 0.05))
    assert abs(rho - mp_oracle.JAKES_FDT005_DENSE_GRID) < 1e-8


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
    estimates = [_rho_at(cov, edges, n)[0] for n in (4, 8, 16, 32)]
    diffs = [abs(b - a) for a, b in zip(estimates, estimates[1:])]
    # spectral convergence: each doubling shrinks the change (down to noise)
    assert all(d2 <= d1 + 1e-14 for d1, d2 in zip(diffs, diffs[1:]))
    assert diffs[-1] < 1e-10


# Jakes and rectangular take 256 nodes per piece at fdT = 50 and 512, the cap,
# at 128 (150 fails).  Jakes reads 1.55e-14 off the oracle at 128, every other
# case <= 1.5e-15.  The Gaussian at fdT = 500 has its lag-0 peak on a piece of
# its own.
@pytest.mark.parametrize("spec", [
    *(pytest.param(DopplerSpec(kind, fdt), id=f"{kind.value}-{fdt}")
      for kind in (SpectrumKind.JAKES, SpectrumKind.GAUSSIAN, SpectrumKind.RECTANGULAR)
      for fdt in (0.001, 0.01, 0.05, 0.1, 0.3, 1.0, 50.0)),
    *(pytest.param(DopplerSpec(SpectrumKind.JAKES, fdt), id=f"jakes-{fdt}")
      for fdt in (2.0, 3.0, 5.0)),
    pytest.param(DopplerSpec(SpectrumKind.GAUSSIAN, 500.0), id="gaussian-500.0"),
    *(pytest.param(DopplerSpec(kind, 128.0), id=f"{kind.value}-128.0")
      for kind in (SpectrumKind.JAKES, SpectrumKind.RECTANGULAR)),
    *(pytest.param(DopplerSpec(SpectrumKind.TABULATED, 0.0, table), id=name)
      for name, table in (("ramp", RAMP_TABLE), ("kinked", KINKED_TABLE),
                          ("seven-knot", SEVEN_KNOT_TABLE))),
])
def test_matches_mpmath_oracle(spec):
    tol = 1e-13 if spec.fdt == 128.0 else 1e-14
    assert abs(rho_from_doppler(spec) - mp_oracle.rho(spec)) <= tol


@pytest.mark.parametrize("n", [16, 17, 32, 64, 128, 256, 512])
def test_gauss_legendre_weights(n):
    # each weight against 2 / ((1 - x^2) P_n'(x)^2) at 30 digits, at the same
    # node x; a weight formed from P_n' one Newton step before the final node
    # is 2.6e-11 off at n = 256
    rule = _gauss_legendre(n)
    with mpmath.workdps(30):
        for x, w in rule[: (n + 1) // 2]:
            xm = mpmath.mpf(x)
            p_prev, p = mpmath.mpf(1), xm
            for k in range(2, n + 1):
                p_prev, p = p, ((2 * k - 1) * xm * p - (k - 1) * p_prev) / k
            dp = n * (xm * p - p_prev) / (xm * xm - 1)
            assert mp_oracle.rel_err(w, 2 / ((1 - xm * xm) * dp * dp)) <= 1e-12
    assert abs(math.fsum(w for _, w in rule) - 2.0) <= 4e-15


def test_oracle_imports_no_code_under_test():
    # in a fresh interpreter each module loads nothing beyond the stdlib and `allowed`
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    for module, allowed in (("mp_oracle", {"mpmath", "gmpy2"}), ("link_reference", {"numpy"})):
        code = (f"import sys; before = set(sys.modules); import {module}; "
                "new = {m.split('.')[0] for m in set(sys.modules) - before}; "
                f"print(sorted(new - set(sys.stdlib_module_names) - {allowed | {module}!r}))")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True).stdout
        assert out.strip() == "[]", module


def test_result_stays_in_range():
    for fdt in (0.3, 0.5, 0.8):
        rho = rho_from_doppler(DopplerSpec(SpectrumKind.JAKES, fdt))
        assert -1.0 <= rho <= 1.0


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
    # a start above 256 could not double once below the cap of 512
    for order in (1, 257, 512, 1024):
        with pytest.raises(ConfigError):
            rho_from_doppler(DopplerSpec(SpectrumKind.JAKES, 0.05), quad_order=order)


def test_negative_fdt_rejected():
    # also every fdT for which the lag scale 2*pi*fdT is not a finite float
    for fdt in (-0.1, math.nan, math.inf, -math.inf, 1e308):
        with pytest.raises(ConfigError, match="fdT"):
            rho_from_doppler(DopplerSpec(SpectrumKind.JAKES, fdt))


def test_kinked_table_exact_value():
    # r = 1 up to lag 0.5, a drop to 0.2 by lag 0.6, then flat: the interior
    # kinks are piece edges, and exact rational integration gives 241/628
    rho = rho_from_doppler(DopplerSpec(SpectrumKind.TABULATED, 0.0, KINKED_TABLE))
    assert abs(rho - 241.0 / 628.0) <= 1e-14


def test_extreme_fdt_raises_convergence_error():
    # sinc with 400 periods over the window needs more than 512 nodes per
    # piece; the doubling loop gives up and its message reports its last two
    # estimates.  Jakes does the same at any larger fdT, in bounded time.
    for spec in (DopplerSpec(SpectrumKind.RECTANGULAR, 200.0),
                 DopplerSpec(SpectrumKind.JAKES, 1e6),
                 DopplerSpec(SpectrumKind.JAKES, 1e300)):
        with pytest.raises(ConvergenceError) as info:
            rho_from_doppler(spec)
        estimates = re.search(r"last estimate (\S+), previous (\S+)$", str(info.value))
        last, previous = map(float, estimates.groups())
        assert abs(last - previous) >= 1e-10


@pytest.mark.parametrize("fdt", [2000.0, 1e4, 1e6, 1e100])
def test_gaussian_large_fdt_matches_closed_form(fdt):
    # for fdT >= 2, c = (pi fdT)^2 / ln 2 >= 57, and R(0) = sqrt(pi / c) - 1 / c,
    # R(1) = 1 / (2 c) up to exp(-c) terms, so rho = 1 / (2 (sqrt(pi c) - 1)):
    # the asymptote sqrt(ln 2) / (2 pi^1.5 fdT) with its 1 / sqrt(pi c)
    # correction.  The narrow peak sits on the piece [0, 2/fdT]; the R(1)
    # weight there is the lag itself, kept exact.
    with mpmath.workdps(30):
        c = (mpmath.pi * fdt) ** 2 / mpmath.log(2)
        ref = 1 / (2 * (mpmath.sqrt(mpmath.pi * c) - 1))
    assert mp_oracle.rel_err(rho_from_doppler(DopplerSpec(SpectrumKind.GAUSSIAN, fdt)), ref) < 2e-15


def test_tiny_rho_converges_from_any_start_order():
    # rho ~ 7.5e-102: a stopping rule on the absolute change stops at the
    # first doubling, 5.4% off from quad_order 2; the change is judged
    # against the scale of the R(1) sum instead
    with mpmath.workdps(30):
        c = (mpmath.pi * 1e100) ** 2 / mpmath.log(2)
        ref = 1 / (2 * (mpmath.sqrt(mpmath.pi * c) - 1))
    for order in range(2, 17):
        rho = rho_from_doppler(DopplerSpec(SpectrumKind.GAUSSIAN, 1e100), quad_order=order)
        assert mp_oracle.rel_err(rho, ref) < 2e-15


@pytest.mark.parametrize("fdt", [3.6e153, 1e200])
def test_gaussian_underflow_raises_convergence_error(fdt):
    # (pi fdT)^2 / ln 2 overflows from fdT ~ 3.56e153, the covariance is 0 at
    # every node of every rule, and R(0) = 0 counts as not converged, never
    # as a division by zero
    with pytest.raises(ConvergenceError):
        rho_from_doppler(DopplerSpec(SpectrumKind.GAUSSIAN, fdt))
