import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import dpskdiv
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
from ends import range_ends


def opt_cfg(*pairs):
    return DiversityConfig(tuple(BranchParams(r, g) for r, g in pairs), Detector.OPTIMUM)


def sub_cfg(*pairs):
    return DiversityConfig(tuple(BranchParams(r, g) for r, g in pairs), Detector.SUBOPTIMUM)


def grid_configs(make):
    # distinct per-branch gammas, cycled through a log grid from 0 to 30 dB
    # so no pair of poles collides
    gammas = np.logspace(0.0, 3.0, 7)
    return [make(*[(rho, gammas[(offset + k) % 7]) for k in range(l)])
            for l in (1, 2, 3, 4) for rho in (0.9, 0.975, 0.99) for offset in range(7)]


# ------------------------------------------------------------------ optimum


def test_optimum_hand_value():
    res = chernoff_optimum(opt_cfg((0.975, 10.0)), improved=True)
    assert abs(res.bound - 0.5 * (1.0 - (9.75 / 11.0) ** 2)) < 1e-15
    assert res.s_opt == 0.25


def test_optimum_uncorrelated_bound_is_half():
    res = chernoff_optimum(opt_cfg((0.0, 3.0), (0.0, 50.0)), improved=True)
    assert res.bound == 0.5


def test_optimum_identical_branches_power_form():
    # l copies share one minimizer: the l-th power of one link-model bound
    rho, gamma, l = 0.975, 12.0, 3
    res = chernoff_optimum(opt_cfg(*[(rho, gamma)] * l), improved=True)
    one, _ = oracle.chernoff(opt_cfg((rho, gamma)))
    assert oracle.rel_err(res.bound, one ** l / 2) < 1e-14


def test_optimum_unimproved_is_twice_improved():
    cfg = opt_cfg((0.9, 5.0), (0.975, 40.0))
    raw = chernoff_optimum(cfg, improved=False)
    imp = chernoff_optimum(cfg, improved=True)
    assert abs(raw.bound - 2.0 * imp.bound) < 1e-15


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
    for cfg in grid_configs(opt_cfg):
        for improved in (True, False):
            assert chernoff_optimum(cfg, improved=improved).bound >= exact_bep(cfg), cfg


# --------------------------------------------------------------- suboptimum


def l1_theta(pairs):
    # one branch: 1 / M = (1 + theta alpha)(1 - theta beta) peaks at
    # theta* = (alpha - beta) / (2 alpha beta), with the link model's poles
    (alpha,), (beta,) = oracle.poles(sub_cfg(*pairs))
    return (alpha - beta) / (2 * alpha * beta)


def test_suboptimum_l1_matches_closed_form_s():
    for pair in ((0.975, 10.0), (0.9, 3.0), (0.5, 100.0), (0.99, 1000.0),
                 (0.9, 1.0), (0.99, 100.0), (0.5, 3.0)):
        s_opt = chernoff_suboptimum(sub_cfg(pair), improved=True).s_opt
        assert oracle.rel_err(s_opt, l1_theta([pair]) / 8) < 1e-8, pair
        assert oracle.rel_err(s_opt, oracle.chernoff(sub_cfg(pair))[1] / 8) < 1e-8, pair


def test_suboptimum_identical_branches_share_the_stationary_point():
    pair = (0.95, 25.0)
    s_opt = chernoff_suboptimum(sub_cfg(*[pair] * 3), improved=True).s_opt
    assert oracle.rel_err(s_opt, l1_theta([pair]) / 8) < 1e-8
    assert oracle.rel_err(s_opt, oracle.chernoff(sub_cfg(*[pair] * 3))[1] / 8) < 1e-8


def test_suboptimum_first_order_condition():
    # central finite difference of the link-model bound at theta = 8 s_opt,
    # and s_opt against the bound's own argmin
    cases = [
        ((0.975, 3.162), (0.975, 28.46)),
        ((0.9, 1.0), (0.975, 31.6), (0.99, 316.0)),
        ((0.9, 2.0), (0.95, 10.0), (0.975, 100.0), (0.99, 900.0)),
    ]
    for pairs in cases:
        cfg = sub_cfg(*pairs)
        theta = 8 * chernoff_suboptimum(cfg, improved=False).s_opt
        h = 1e-7 * theta
        deriv = (oracle.mgf(cfg, theta + h) - oracle.mgf(cfg, theta - h)) / (2 * h)
        assert abs(deriv) * theta / oracle.mgf(cfg, theta) < 1e-6, pairs
        assert oracle.rel_err(theta, oracle.chernoff(cfg)[1]) < 1e-8, pairs


def test_suboptimum_uncorrelated_bound_is_half():
    res = chernoff_suboptimum(sub_cfg((0.0, 3.0), (0.0, 12.0)), improved=True)
    assert abs(res.bound - 0.5) < 1e-9


def test_suboptimum_dominates_exact_published_pair():
    cfg = sub_cfg((0.975, 3.162), (0.975, 28.46))
    p = exact_bep(cfg)
    assert chernoff_suboptimum(cfg, improved=True).bound >= p
    assert chernoff_suboptimum(cfg, improved=False).bound >= p


def test_suboptimum_dominates_exact_on_grid():
    for cfg in grid_configs(sub_cfg):
        for improved in (True, False):
            assert chernoff_suboptimum(cfg, improved=improved).bound >= exact_bep(cfg), cfg


HUGE_GAMMA_SCRIPT = """
from dpskdiv import BranchParams, Detector, DiversityConfig, chernoff_suboptimum
for gamma in (1e298, 1e300):
    for rho in (0.0, 1e-20):
        cfg = DiversityConfig((BranchParams(rho, gamma),), Detector.SUBOPTIMUM)
        print(*(chernoff_suboptimum(cfg, improved).bound for improved in (False, True)))
"""


def test_suboptimum_returns_at_huge_gamma():
    # s is subnormal here, where a bisection on s itself can stall between
    # adjacent subnormals, so this runs in a child that the timeout stops;
    # with rho gamma negligible against gamma the bound is 1, halved when
    # improved
    src = os.path.dirname(os.path.dirname(dpskdiv.__file__))
    proc = subprocess.run([sys.executable, "-c", HUGE_GAMMA_SCRIPT],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert [float(x) for x in proc.stdout.split()] == [1.0, 0.5] * 4


@pytest.mark.parametrize("gamma", [3e307, sys.float_info.max / 4], ids=["3e307", "limit"])
def test_results_at_largest_gammas_match_1e300(gamma):
    # every pole scales with gamma, so the results reach a limit; here both
    # ends of the suboptimum bound's bracket in s are subnormal
    def results(g):
        pairs = ((0.5, g), (0.25, g))
        return (exact_bep(opt_cfg(*pairs)), exact_bep(sub_cfg(*pairs)),
                chernoff_optimum(opt_cfg(*pairs)).bound,
                chernoff_suboptimum(sub_cfg(*pairs)).bound,
                chernoff_suboptimum(sub_cfg(*pairs), improved=False).bound)

    assert results(gamma) == pytest.approx(results(1e300), rel=1e-14)


def test_suboptimum_requires_matching_detector():
    with pytest.raises(ConfigError):
        chernoff_suboptimum(opt_cfg((0.9, 5.0)))


# ---------------------------------------------------------------- invariants


def test_result_invariants_random_configs():
    ends = [(r, g) for r in range_ends(1.0) for g in range_ends(1000.0)]
    shapes = [[end] * n for end in ends for n in (1, 2, 4)]
    shapes += [list(pair) for pair in itertools.combinations(ends, 2)]
    rng = np.random.default_rng(77)
    shapes += [[(rng.uniform(0.0, 1.0), rng.uniform(0.0, 1000.0))
                for _ in range(rng.integers(1, 5))] for _ in range(100)]
    for pairs in shapes:
        ro = chernoff_optimum(opt_cfg(*pairs), improved=True)
        assert 0.0 < ro.bound <= 0.5, pairs
        assert ro.bound >= exact_bep(opt_cfg(*pairs)), pairs
        rs = chernoff_suboptimum(sub_cfg(*pairs), improved=True)
        assert 0.0 < rs.bound <= 0.5, pairs
        assert rs.bound >= exact_bep(sub_cfg(*pairs)), pairs
        _, betas = oracle.poles(sub_cfg(*pairs))
        assert 0.0 < rs.s_opt < 1 / (8 * max(betas)), pairs  # s = theta / 8, theta < 1 / max beta
        raw = chernoff_suboptimum(sub_cfg(*pairs), improved=False)
        assert 0.0 < raw.bound <= 1.0, pairs


# ----------------------------------------------------------------- precision
# Both bounds against mp_oracle.chernoff, the link-model bound worked in
# mpmath from the float inputs, where rho -> 1 at high SNR makes
# 1 + gamma - rho gamma and 1 - (rho gamma / (1 + gamma))^2 cancel in
# double precision.

PRECISION_PAIRS = list(itertools.product((0.975, 1.0 - 1e-6, 1.0 - 1e-9, 1.0),
                                         (1.0, 1e4, 1e8, 1e10)))


def precision_configs(l):
    # every (rho, gamma) pair leads once, the others stepped through the grid
    n = len(PRECISION_PAIRS)
    return [tuple(PRECISION_PAIRS[(k + 5 * m) % n] for m in range(l)) for k in range(n)]


@pytest.mark.parametrize("l", [2, 3])
def test_bounds_match_mpmath_near_unit_rho(l):
    worst = 0.0
    for pairs in precision_configs(l):
        for bound, cfg in ((chernoff_optimum, opt_cfg(*pairs)),
                           (chernoff_suboptimum, sub_cfg(*pairs))):
            reference, _ = oracle.chernoff(cfg)
            for improved, scale in ((False, 1.0), (True, 0.5)):
                got = bound(cfg, improved=improved).bound
                worst = max(worst, oracle.rel_err(got, scale * reference))
    assert worst < 1e-13
