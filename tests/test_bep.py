import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mp_oracle as oracle
from dpskdiv import (
    BranchParams,
    ConfigError,
    Detector,
    DiversityConfig,
    exact_bep,
    optimum_weights,
    power_split,
)


def cfg_of(*pairs, detector=Detector.OPTIMUM):
    return DiversityConfig(tuple(BranchParams(r, g) for r, g in pairs), detector)


# ---------------------------------------------------------------- weights


def test_weights_zero_correlation():
    assert optimum_weights([BranchParams(0.0, 10.0)]) == [0.0]


def test_weights_zero_snr():
    assert optimum_weights([BranchParams(1.0, 0.0)]) == [0.0]


def test_weights_hand_value():
    (w,) = optimum_weights([BranchParams(1.0, 1.0)])
    assert abs(w - 1.0 / 3.0) < 1e-15


def test_weights_nonnegative():
    rng = np.random.default_rng(5)
    for _ in range(50):
        branches = [BranchParams(rng.uniform(0, 1), rng.uniform(0, 100))
                    for _ in range(rng.integers(1, 5))]
        assert all(w >= 0.0 for w in optimum_weights(branches))


def test_weights_finite_at_huge_snr():
    for gamma in (1e10, 1e154, 1e200, 1e300):
        for rho in (0.5, 0.9, 1.0):
            (w,) = optimum_weights([BranchParams(rho, gamma)])
            assert math.isfinite(w) and w > 0.0
        # 1 - rho**2 dominates 1/gamma: w -> rho / ((1 + rho)(1 - rho) gamma)
        (w,) = optimum_weights([BranchParams(0.5, gamma)])
        assert abs(w * gamma / (0.5 / 0.75) - 1.0) < 1e-9


# ---------------------------------------------------------------- exact_bep


def test_l1_either_detector():
    for det in Detector:
        assert abs(exact_bep(cfg_of((1.0, 10.0), detector=det)) - 1.0 / 22.0) < 1e-12


def test_uncorrelated_suboptimum_is_coin_flip():
    assert abs(exact_bep(cfg_of((0.0, 3.0), (0.0, 7.0), detector=Detector.SUBOPTIMUM)) - 0.5) < 1e-12
    assert abs(exact_bep(cfg_of((0.0, 5.0), (0.0, 5.0), detector=Detector.SUBOPTIMUM)) - 0.5) < 1e-12


def test_optimum_drops_zero_weight_branches():
    mixed = cfg_of((0.0, 5.0), (0.9, 10.0))
    kept = cfg_of((0.9, 10.0))
    assert exact_bep(mixed) == exact_bep(kept)


def test_optimum_all_degenerate_is_coin_flip():
    assert exact_bep(cfg_of((0.0, 5.0), (0.9, 0.0))) == 0.5


def test_near_iid_matches_identical_branch_perturbation():
    # exactly identical branches (repeated poles) and a near-identical split
    # must give nearly the same result
    g1, g2 = power_split(15.0, 0.5001)
    near = exact_bep(cfg_of((0.975, g1), (0.975, g2)))
    g = 0.5 * (10.0 ** 1.5)
    identical = exact_bep(cfg_of((0.975, g), (0.975, g)))
    assert abs(identical - near) / near < 1e-3


@settings(max_examples=100, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(0.0, 1e4))
def test_l1_reduction_property(rho, gamma):
    expected = oracle.bep_l1(rho, gamma)
    for det in Detector:
        assert abs(exact_bep(cfg_of((rho, gamma), detector=det)) - expected) < 1e-12


def test_optimum_monotone_in_gamma():
    prev = 1.0
    for g in np.logspace(-1, 3, 25):
        p = exact_bep(cfg_of((0.975, g), (0.9, 5.0)))
        assert p <= prev + 1e-12
        prev = p


def test_monotone_in_rho():
    rhos = np.linspace(0.05, 1.0, 20)
    prev = {det: 1.0 for det in Detector}
    for r in rhos:
        for det in Detector:
            p = exact_bep(cfg_of((r, 8.0), (0.9, 5.0), detector=det))
            assert p <= prev[det] + 1e-12
            prev[det] = p


def test_suboptimum_monotone_under_balanced_growth():
    # raising both branches together always helps the unit-weight combiner
    prev = 1.0
    for g in np.logspace(0, 3, 20):
        p = exact_bep(cfg_of((0.975, g), (0.9, 1.6 * g), detector=Detector.SUBOPTIMUM))
        assert p <= prev + 1e-12
        prev = p


def test_suboptimum_imbalance_penalty():
    # unit-weight combining is NOT monotone in a single branch SNR: past a
    # point, growing one branch with the other fixed makes things worse
    # (cross-checked against the mpmath oracle here and by Monte Carlo
    # during design)
    lo = cfg_of((0.975, 146.78), (0.9, 5.0), detector=Detector.SUBOPTIMUM)
    hi = cfg_of((0.975, 1000.0), (0.9, 5.0), detector=Detector.SUBOPTIMUM)
    p_lo, p_hi = exact_bep(lo), exact_bep(hi)
    assert p_hi > p_lo
    assert oracle.bep(hi) > oracle.bep(lo)
    assert oracle.rel_err(p_hi, oracle.bep(hi)) < 1e-13
    assert oracle.rel_err(p_lo, oracle.bep(lo)) < 1e-13


def test_optimum_never_worse_than_suboptimum():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        pairs = [(rng.uniform(0.05, 1.0), rng.uniform(0.1, 500.0)) for _ in range(n)]
        p_opt = exact_bep(cfg_of(*pairs, detector=Detector.OPTIMUM))
        p_sub = exact_bep(cfg_of(*pairs, detector=Detector.SUBOPTIMUM))
        assert p_opt <= p_sub + 1e-12


def test_iid_convergence_as_eta_approaches_half():
    gaps = []
    for eta in (0.4, 0.45, 0.49, 0.4999, 0.5001):
        g1, g2 = power_split(15.0, eta)
        p_opt = exact_bep(cfg_of((0.975, g1), (0.975, g2)))
        p_sub = exact_bep(cfg_of((0.975, g1), (0.975, g2), detector=Detector.SUBOPTIMUM))
        gaps.append(abs(p_sub - p_opt))
    assert all(b <= a for a, b in zip(gaps, gaps[1:]))


# ------------------------------------------------------------ published values


def test_fifteen_db_unbalanced_points():
    g1, g2 = power_split(15.0, 0.1)
    p_opt = exact_bep(cfg_of((0.975, g1), (0.975, g2)))
    p_sub = exact_bep(cfg_of((0.975, g1), (0.975, g2), detector=Detector.SUBOPTIMUM))
    assert abs(p_opt - 1.065e-2) / 1.065e-2 < 5e-3
    assert abs(p_sub - 1.093e-2) / 1.093e-2 < 5e-3


def test_thirty_db_unbalanced_points():
    g1, g2 = power_split(30.0, 0.1)
    p_opt = exact_bep(cfg_of((0.975, g1), (0.975, g2)))
    p_sub = exact_bep(cfg_of((0.975, g1), (0.975, g2), detector=Detector.SUBOPTIMUM))
    assert abs(p_opt - 6.710e-4) / 6.710e-4 < 5e-3
    assert abs(p_sub - 1.616e-3) / 1.616e-3 < 5e-3


# ------------------------------------------------------------- oracle
# mp_oracle.bep sums the residues of the paper's partial-fraction form in high
# precision, and checks that against a negative-binomial form for identical
# branches and a semi-analytic Gil-Pelaez inversion.


def test_four_identical_branches_regression():
    # repeated poles: the partial-fraction form gave 3.7e18 here in floats
    cfg = cfg_of(*[(0.975, 10.0)] * 4)
    p = exact_bep(cfg)
    assert abs(p - 3.1734430964800754e-4) / 3.1734430964800754e-4 < 1e-14
    assert oracle.rel_err(p, oracle.bep(cfg)) < 1e-13


def test_three_branch_small_gap_regression():
    # relative pole gap 1e-3: the partial-fraction form gave -1.95e-3 in floats
    cfg = cfg_of((0.975, 10.0), (0.975, 10.01), (0.975, 10.02))
    p = exact_bep(cfg)
    assert 0.0 <= p <= 1.0
    assert oracle.rel_err(p, oracle.bep(cfg)) < 1e-13


@st.composite
def crowded_branches(draw):
    """1 to 8 branches; each after the first is drawn freely, copies the
    first one, or sits at a relative gamma gap of 1e-9 to 1e-1 from it."""
    first = draw(st.tuples(st.floats(0.05, 1.0), st.floats(0.01, 1000.0)))
    pairs = [first]
    for i in range(1, draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["free", "copy", "near"]))
        if kind == "free":
            pairs.append(draw(st.tuples(st.floats(0.05, 1.0), st.floats(0.01, 1000.0))))
        elif kind == "copy":
            pairs.append(first)
        else:
            gap = 10.0 ** -draw(st.integers(1, 9))
            pairs.append((first[0], first[1] * (1.0 + i * gap)))
    return pairs


@settings(max_examples=100, deadline=None)
@given(crowded_branches())
def test_exact_bep_matches_oracle(pairs):
    for det in Detector:
        cfg = cfg_of(*pairs, detector=det)
        p = exact_bep(cfg)
        assert 0.0 <= p <= 1.0
        assert oracle.rel_err(p, oracle.bep(cfg)) < 1e-13


def test_oracle_repeated_poles_match_negative_binomial():
    for n in range(1, 9):
        for det in Detector:
            alphas, betas = oracle.poles(cfg_of(*[(0.9, 30.0)] * n, detector=det))
            nb = oracle.negative_binomial(alphas[0], betas[0], n)
            assert oracle.rel_err(oracle.partial_fractions(alphas, betas), nb) < 1e-30


def test_semi_analytic_l1():
    alphas, betas = oracle.poles(cfg_of((1.0, 10.0)))
    with mpmath.workdps(40):
        assert oracle.rel_err(oracle.inversion(alphas, betas), mpmath.mpf(1) / 22) < 1e-20


def test_semi_analytic_uncorrelated():
    alphas, betas = oracle.poles(cfg_of((0.0, 2.0), (0.0, 9.0), detector=Detector.SUBOPTIMUM))
    assert oracle.rel_err(oracle.inversion(alphas, betas), 0.5) < 1e-20


def test_semi_analytic_matches_closed_form():
    # the inversion against the residue sum and exact_bep, for distinct
    # poles, identical branches and a mix of both
    rng = np.random.default_rng(29)

    def draw():
        return (rng.uniform(0.1, 1.0), rng.uniform(0.1, 300.0))

    shapes = [[draw() for _ in range(int(rng.integers(1, 9)))] for _ in range(3)]
    shapes.append([draw()] * 5)
    first = draw()
    shapes.append([first, draw(), first, draw(), first, first])
    for pairs in shapes:
        for det in Detector:
            cfg = cfg_of(*pairs, detector=det)
            inv = oracle.inversion(*oracle.poles(cfg))
            assert oracle.rel_err(inv, oracle.bep(cfg)) < 1e-20
            assert oracle.rel_err(exact_bep(cfg), inv) < 1e-13


# ---------------------------------------------------------------- power_split


def test_power_split_published_point():
    g1, g2 = power_split(15.0, 0.1)
    assert abs(10.0 * math.log10(g1) - 5.00) < 0.01
    assert abs(10.0 * math.log10(g2) - 14.54) < 0.01


def test_power_split_symmetric():
    g1, g2 = power_split(23.7, 0.5)
    assert g1 == g2


def test_power_split_thirty_db():
    g1, g2 = power_split(30.0, 0.1)
    assert abs(g1 - 100.0) < 1e-9
    assert abs(g2 - 900.0) < 1e-9


def test_power_split_overflow_is_config_error():
    # 10^400 overflows a float
    with pytest.raises(ConfigError):
        power_split(4000.0, 0.1)


@pytest.mark.parametrize("eta", [0.0, 1.0, -0.2, 1.3, math.nan])
def test_power_split_eta_domain(eta):
    with pytest.raises(ConfigError):
        power_split(10.0, eta)
