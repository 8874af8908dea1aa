"""The Jakes covariance r(s) = J0(2 pi fdT s) that channel._covariance builds,
against mpmath's J0 over the lags s in [0, 2] that the rho quadrature uses."""

import math
import random

import mpmath
import numpy as np

from dpskdiv import DopplerSpec, SpectrumKind
from dpskdiv.channel import _covariance
from ends import range_ends

J0_FIRST_ZERO = 2.404825557695773


def jakes(fdt):
    return _covariance(DopplerSpec(SpectrumKind.JAKES, fdt))[0]


def j0_oracle(fdt, s):
    """J0(2 pi fdT s) at 40 digits, with fdT and s taken exactly as given."""
    with mpmath.workdps(40):
        return float(mpmath.besselj(0, 2 * mpmath.pi * mpmath.mpf(fdt) * mpmath.mpf(s)))


def worst_error(fdts, lags_per_fdt, seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for fdt in fdts:
        cov = jakes(fdt)
        worst = max([worst] + [abs(cov(s) - j0_oracle(fdt, s))
                               for s in rng.uniform(0.0, 2.0, lags_per_fdt)])
    return worst


def test_at_zero():
    for fdt in (0.0, 0.05, 3.0, 50.0):
        assert jakes(fdt)(0.0) == 1.0


def test_at_one():
    fdt = 1.0 / (2.0 * math.pi)
    assert abs(jakes(fdt)(1.0) - 0.7651976865579666) < 1e-14


def test_first_zero():
    fdt = 1.0 / (2.0 * math.pi)
    assert abs(jakes(fdt)(J0_FIRST_ZERO)) < 1e-14


def test_even():
    cov = jakes(3.0)
    for s in (0.3, 0.9, 1.4, 2.0):
        assert cov(-s) == cov(s)


def test_oracle_agreement_low_range():
    # fdT <= 5: measured worst 1.4e-15
    worst = worst_error(np.random.default_rng(20240817).uniform(0.0, 5.0, 40), 25, 1)
    assert worst < 5e-15


def test_oracle_agreement_high_range():
    # 5 < fdT <= 50, arguments up to 630: measured worst 5.5e-15, from the
    # rounding of the arguments a_k * s
    worst = worst_error(np.random.default_rng(20240818).uniform(5.0, 50.0, 12), 25, 2)
    assert worst < 1e-14


def test_oracle_agreement_property():
    rng = random.Random(31)
    cases = [(f, s) for f in range_ends(50.0) for s in range_ends(2.0)]
    cases += [(rng.uniform(0.0, 50.0), rng.uniform(0.0, 2.0)) for _ in range(100)]
    for fdt, s in cases:
        assert abs(jakes(fdt)(s) - j0_oracle(fdt, s)) < 1e-14, (fdt, s)
