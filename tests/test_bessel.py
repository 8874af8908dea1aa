import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpskdiv import bessel_j0


def j0_oracle(x):
    """Power series summed at 60 digits; good far beyond 1e-12 for |x| <= 50."""
    with mpmath.workdps(60):
        q = (mpmath.mpf(x) / 2) ** 2
        total = mpmath.mpf(1)
        term = mpmath.mpf(1)
        k = 0
        while True:
            k += 1
            term = -term * q / (k * k)
            total += term
            if abs(term) < mpmath.mpf(10) ** -50 and k > 5:
                return float(total)


def test_at_zero():
    assert bessel_j0(0.0) == 1.0


def test_at_one():
    assert abs(bessel_j0(1.0) - 0.7651976865579666) < 1e-12


def test_first_zero():
    assert abs(bessel_j0(2.4048255577)) < 1e-9


def test_even():
    for x in (0.3, 5.0, 17.2, 41.0):
        assert bessel_j0(-x) == bessel_j0(x)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_rejected(bad):
    with pytest.raises(ValueError):
        bessel_j0(bad)


def test_oracle_agreement_low_range():
    rng = np.random.default_rng(20240817)
    xs = rng.uniform(0.0, 20.0, 1000)
    worst = max(abs(bessel_j0(x) - j0_oracle(x)) for x in xs)
    assert worst < 1e-12


def test_oracle_agreement_high_range():
    rng = np.random.default_rng(20240818)
    xs = rng.uniform(20.0, 50.0, 300)
    worst = max(abs(bessel_j0(x) - j0_oracle(x)) for x in xs)
    assert worst < 1e-12


def test_crossover_continuity():
    # both evaluation regimes must agree near the series/asymptotic switch
    for x in np.linspace(11.5, 12.5, 101):
        assert abs(bessel_j0(x) - j0_oracle(x)) < 1e-12


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=0.0, max_value=50.0, allow_nan=False))
def test_oracle_agreement_property(x):
    assert abs(bessel_j0(x) - j0_oracle(x)) < 1e-12
