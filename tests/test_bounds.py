import itertools
import math

import mpmath
import numpy as np
import pytest

import mp_oracle as oracle
from dpskdiv import (
    BranchParams,
    ConfigError,
    Detector,
    DiversityConfig,
    chernoff_optimum,
    chernoff_suboptimum,
    exact_bep,
)


def opt_cfg(*pairs):
    return DiversityConfig(tuple(BranchParams(r, g) for r, g in pairs), Detector.OPTIMUM)


def sub_cfg(*pairs):
    return DiversityConfig(tuple(BranchParams(r, g) for r, g in pairs), Detector.SUBOPTIMUM)


GRID_RHOS = (0.9, 0.975, 0.99)
GRID_GAMMAS = np.logspace(0.0, 3.0, 7)  # 0 to 30 dB


def grid_branches(l, rho, offset):
    # distinct per-branch gammas, cycled through the log grid so no pair of
    # poles collides and the closed form stays clean
    return [BranchParams(rho, GRID_GAMMAS[(offset + k) % len(GRID_GAMMAS)])
            for k in range(l)]


# ------------------------------------------------------------------ optimum


def test_optimum_hand_value():
    res = chernoff_optimum(opt_cfg((0.975, 10.0)), improved=True)
    assert abs(res.bound - 0.5 * (1.0 - (9.75 / 11.0) ** 2)) < 1e-15
    assert res.s_opt == 0.25
    assert res.improved


def test_optimum_uncorrelated_bound_is_half():
    res = chernoff_optimum(opt_cfg((0.0, 3.0), (0.0, 50.0)), improved=True)
    assert res.bound == 0.5


def test_optimum_identical_branches_power_form():
    rho, gamma, l = 0.975, 12.0, 3
    res = chernoff_optimum(opt_cfg(*[(rho, gamma)] * l), improved=True)
    expected = 0.5 * (1.0 - (rho * gamma / (1.0 + gamma)) ** 2) ** l
    assert abs(res.bound - expected) < 1e-15


def test_optimum_unimproved_is_twice_improved():
    cfg = opt_cfg((0.9, 5.0), (0.975, 40.0))
    raw = chernoff_optimum(cfg, improved=False)
    imp = chernoff_optimum(cfg, improved=True)
    assert abs(raw.bound - 2.0 * imp.bound) < 1e-15
    assert not raw.improved


def test_optimum_floor_limit():
    # at huge SNR the improved bound settles on (1/2) prod (1 - rho_i^2);
    # the finite-gamma gap per branch is ~2e-8 rho^2/(1-rho^2) at 1e8, so
    # rho = 0.99 needs a correspondingly wider tolerance
    for rhos, tol in (((0.9, 0.975), 1e-6), ((0.975, 0.99), 2e-6), ((0.9, 0.99), 2e-6)):
        cfg = opt_cfg(*[(r, 1e8) for r in rhos])
        res = chernoff_optimum(cfg, improved=True)
        floor = 0.5 * math.prod(1.0 - r * r for r in rhos)
        assert abs(res.bound - floor) / floor < tol


def test_optimum_requires_matching_detector():
    with pytest.raises(ConfigError):
        chernoff_optimum(sub_cfg((0.9, 5.0)))


def test_optimum_dominates_exact_on_grid():
    violations = 0
    for l in (1, 2, 3, 4):
        for rho in GRID_RHOS:
            for offset in range(len(GRID_GAMMAS)):
                cfg = opt_cfg(*[(b.rho, b.gamma) for b in grid_branches(l, rho, offset)])
                p = exact_bep(cfg)
                if p > chernoff_optimum(cfg, improved=True).bound:
                    violations += 1
                if p > chernoff_optimum(cfg, improved=False).bound:
                    violations += 1
    assert violations == 0


# --------------------------------------------------------------- suboptimum


def test_suboptimum_l1_matches_closed_form_s():
    for rho, gamma in ((0.975, 10.0), (0.9, 3.0), (0.5, 100.0), (0.99, 1000.0)):
        res = chernoff_suboptimum(sub_cfg((rho, gamma)), improved=True)
        s_exact = oracle.sub_s_l1(rho, gamma)
        assert abs(res.s_opt - s_exact) / s_exact < 1e-8


def test_suboptimum_identical_branches_share_the_stationary_point():
    rho, gamma = 0.95, 25.0
    res = chernoff_suboptimum(sub_cfg(*[(rho, gamma)] * 3), improved=True)
    s_exact = oracle.sub_s_l1(rho, gamma)
    assert abs(res.s_opt - s_exact) / s_exact < 1e-8


def test_suboptimum_first_order_condition():
    # central finite difference of the product bound at the optimizer
    cases = [
        ((0.975, 3.162), (0.975, 28.46)),
        ((0.9, 1.0), (0.975, 31.6), (0.99, 316.0)),
        ((0.9, 2.0), (0.95, 10.0), (0.975, 100.0), (0.99, 900.0)),
    ]
    for pairs in cases:
        s = chernoff_suboptimum(sub_cfg(*pairs), improved=False).s_opt
        h = 1e-7 * s
        deriv = (oracle.sub_product(pairs, s + h) - oracle.sub_product(pairs, s - h)) / (2.0 * h)
        assert abs(deriv) * s / oracle.sub_product(pairs, s) < 1e-6


def test_suboptimum_uncorrelated_bound_is_half():
    res = chernoff_suboptimum(sub_cfg((0.0, 3.0), (0.0, 12.0)), improved=True)
    assert abs(res.bound - 0.5) < 1e-9


def test_suboptimum_dominates_exact_published_pair():
    cfg = sub_cfg((0.975, 3.162), (0.975, 28.46))
    p = exact_bep(cfg)
    assert chernoff_suboptimum(cfg, improved=True).bound >= p
    assert chernoff_suboptimum(cfg, improved=False).bound >= p


def test_suboptimum_dominates_exact_on_grid():
    violations = 0
    for l in (1, 2, 3, 4):
        for rho in GRID_RHOS:
            for offset in range(len(GRID_GAMMAS)):
                cfg = sub_cfg(*[(b.rho, b.gamma) for b in grid_branches(l, rho, offset)])
                p = exact_bep(cfg)
                if p > chernoff_suboptimum(cfg, improved=True).bound:
                    violations += 1
                if p > chernoff_suboptimum(cfg, improved=False).bound:
                    violations += 1
    assert violations == 0


def test_suboptimum_requires_matching_detector():
    with pytest.raises(ConfigError):
        chernoff_suboptimum(opt_cfg((0.9, 5.0)))


# ---------------------------------------------------------------- invariants


def test_result_invariants_random_configs():
    rng = np.random.default_rng(77)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        pairs = [(rng.uniform(0.0, 1.0), rng.uniform(0.0, 1000.0)) for _ in range(n)]
        ro = chernoff_optimum(opt_cfg(*pairs), improved=True)
        assert 0.0 < ro.bound <= 0.5
        rs = chernoff_suboptimum(sub_cfg(*pairs), improved=True)
        assert 0.0 < rs.bound <= 0.5
        s_hi = 1.0 / (4.0 * max(1.0 + g - r * g for r, g in pairs))
        assert 0.0 < rs.s_opt < s_hi
        raw = chernoff_suboptimum(sub_cfg(*pairs), improved=False)
        assert 0.0 < raw.bound <= 1.0


# ----------------------------------------------------------------- precision
# Both bounds against references worked in 60-digit mpmath from the float
# inputs, where rho -> 1 at high SNR makes 1 + gamma - rho gamma and
# 1 - (rho gamma / (1 + gamma))^2 cancel in double precision.

PRECISION_PAIRS = list(itertools.product((0.975, 1.0 - 1e-6, 1.0 - 1e-9, 1.0),
                                         (1.0, 1e4, 1e8, 1e10)))


def precision_configs(l):
    # every (rho, gamma) pair leads once, the others stepped through the grid
    n = len(PRECISION_PAIRS)
    return [tuple(PRECISION_PAIRS[(k + 5 * m) % n] for m in range(l)) for k in range(n)]


def mp_optimum_bound(pairs):
    with mpmath.workdps(60):
        mp = [(mpmath.mpf(r), mpmath.mpf(g)) for r, g in pairs]
        return mpmath.fprod(1 - (r * g / (1 + g)) ** 2 for r, g in mp)


def mp_suboptimum_bound(pairs):
    with mpmath.workdps(60):
        mp = [(mpmath.mpf(r), mpmath.mpf(g)) for r, g in pairs]
        poles = [(1 + g + r * g, 1 + g - r * g) for r, g in mp]

        def deriv(s):
            return mpmath.fsum(4 * b / (1 - 4 * s * b) - 4 * a / (1 + 4 * s * a) for a, b in poles)

        lo, hi = mpmath.mpf(0), 1 / (4 * max(b for _, b in poles))
        for _ in range(200):
            mid = (lo + hi) / 2
            if deriv(mid) > 0:
                hi = mid
            else:
                lo = mid
        return oracle.sub_product(mp, (lo + hi) / 2)


@pytest.mark.parametrize("l", [2, 3])
def test_bounds_match_mpmath_near_unit_rho(l):
    worst = 0.0
    for pairs in precision_configs(l):
        for bound, cfg, reference in (
                (chernoff_optimum, opt_cfg(*pairs), mp_optimum_bound(pairs)),
                (chernoff_suboptimum, sub_cfg(*pairs), mp_suboptimum_bound(pairs))):
            for improved, scale in ((False, 1.0), (True, 0.5)):
                got = bound(cfg, improved=improved).bound
                worst = max(worst, float(abs(got - scale * reference) / (scale * reference)))
    assert worst < 1e-13
