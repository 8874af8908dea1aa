import math

import numpy as np
import pytest

from dpskdiv import (
    BranchParams,
    ConfigError,
    Detector,
    DiversityConfig,
    SimScale,
    decide,
    decision_statistics,
    estimate_bep,
    exact_bep,
    loglik_metric,
    make_observation,
    optimum_weights,
    power_split,
    sample_fading_pair,
)
from dpskdiv.simulate import FadingPair, Observation

SCALE = SimScale()


def rng_of(seed):
    return np.random.default_rng(seed)


# ----------------------------------------------------------------- fading


def test_fully_correlated_pair_is_identical():
    pair = sample_fading_pair(BranchParams(1.0, 8.0), SCALE, rng_of(3), size=1000)
    assert np.array_equal(pair.a_prev, pair.a_curr)


def test_uncorrelated_pair_empirical_correlation():
    pair = sample_fading_pair(BranchParams(0.0, 8.0), SCALE, rng_of(4), size=10**6)
    r0 = SCALE.r0(BranchParams(0.0, 8.0))
    corr = 0.5 * np.mean(pair.a_curr * np.conj(pair.a_prev)) / r0
    assert abs(corr) < 0.005


def test_partially_correlated_pair_empirical_correlation():
    br = BranchParams(0.975, 8.0)
    pair = sample_fading_pair(br, SCALE, rng_of(5), size=10**6)
    corr = 0.5 * np.mean(pair.a_curr * np.conj(pair.a_prev)) / SCALE.r0(br)
    assert abs(corr.real - 0.975) < 0.003
    assert abs(corr.imag) < 0.003


def test_fading_power():
    br = BranchParams(0.9, 12.0)
    pair = sample_fading_pair(br, SCALE, rng_of(6), size=10**6)
    for a in (pair.a_prev, pair.a_curr):
        assert abs(np.mean(np.abs(a) ** 2) / (2 * SCALE.r0(br)) - 1.0) < 0.01


def test_scalar_pair_is_scalar():
    pair = sample_fading_pair(BranchParams(0.5, 2.0), SCALE, rng_of(7))
    assert isinstance(pair.a_prev, complex) and isinstance(pair.a_curr, complex)


# ------------------------------------------------------------ observations


def test_noiseless_zero_phase():
    silent = SimScale(n0=0.0)
    br = BranchParams(1.0, 8.0)
    pair = sample_fading_pair(br, silent, rng_of(8), size=100)
    obs = make_observation(pair, 0.0, silent, rng_of(9))
    assert np.array_equal(obs.z_prev, obs.z_curr)


def test_noiseless_pi_phase_flips_sign():
    silent = SimScale(n0=0.0)
    br = BranchParams(1.0, 8.0)
    pair = sample_fading_pair(br, silent, rng_of(10), size=100)
    obs = make_observation(pair, math.pi, silent, rng_of(11))
    assert np.allclose(obs.z_curr, -obs.z_prev)


def test_observation_power():
    br = BranchParams(0.9, 6.0)
    pair = sample_fading_pair(br, SCALE, rng_of(12), size=10**6)
    obs = make_observation(pair, 0.0, SCALE, rng_of(13))
    expect = 2.0 * SCALE.r0(br) + 1.0
    for z in (obs.z_prev, obs.z_curr):
        assert abs(np.mean(np.abs(z) ** 2) / expect - 1.0) < 0.01


def test_sum_difference_orthogonality_and_variances():
    br = BranchParams(0.975, 6.0)
    n = 10**6
    pair = sample_fading_pair(br, SCALE, rng_of(14), size=n)
    obs = make_observation(pair, 0.0, SCALE, rng_of(15))
    s = obs.z_curr + obs.z_prev
    d = obs.z_curr - obs.z_prev
    r0 = SCALE.r0(br)
    r1 = br.rho * r0
    var_s = 4.0 * r0 + 4.0 * r1 + 2.0
    var_d = 4.0 * r0 - 4.0 * r1 + 2.0
    assert abs(np.mean(np.abs(s) ** 2) / var_s - 1.0) < 0.01
    assert abs(np.mean(np.abs(d) ** 2) / var_d - 1.0) < 0.01
    cross = np.mean(s * np.conj(d))
    # standard error of the cross term is ~sqrt(var_s var_d / n)
    assert abs(cross) < 4.0 * math.sqrt(var_s * var_d / n)


def test_bad_phase_rejected():
    pair = sample_fading_pair(BranchParams(0.5, 1.0), SCALE, rng_of(16))
    with pytest.raises(ConfigError):
        make_observation(pair, 0.5, SCALE, rng_of(17))


# ----------------------------------------------------------------- decide


def test_decide_positive_statistic():
    assert decide([Observation(1 + 0j, 1 + 0j)], [1.0]) == 0


def test_decide_negative_statistic():
    assert decide([Observation(1 + 2j, -1 - 2j)], [1.0]) == 1


def test_decide_weighted_hand_case():
    obs = [Observation(1 + 0j, 1 + 0j), Observation(1 + 0j, -1.9 + 0j)]
    assert decide(obs, [2.0, 1.0]) == 0


def test_decide_tie_goes_to_zero():
    assert decide([Observation(0j, 0j)], [1.0]) == 0


def test_decide_length_mismatch():
    with pytest.raises(ConfigError):
        decide([Observation(1j, 1j)], [1.0, 2.0])


def test_decision_statistics_split():
    obs = [Observation(0.3 - 1.1j, -0.7 + 0.4j), Observation(1.0 + 0j, 0.5 + 0.5j)]
    w = [1.7, 0.6]
    ds = decision_statistics(obs, w)
    assert ds.x >= 0.0 and ds.y >= 0.0
    stat = sum(wi * (o.z_curr * o.z_prev.conjugate()).real for o, wi in zip(obs, w))
    assert abs((ds.x - ds.y) - stat) < 1e-12


def test_decision_statistics_moments():
    # E[x_i] = alpha_i / 2 and E[y_i] = beta_i / 2 under optimum weights,
    # alpha = rho gamma / (1 + gamma - rho gamma), beta = rho gamma / (1 + gamma + rho gamma)
    br = BranchParams(0.975, 10.0)
    n = 10**6
    pair = sample_fading_pair(br, SCALE, rng_of(18), size=n)
    obs = make_observation(pair, 0.0, SCALE, rng_of(19))
    (w,) = optimum_weights([br])
    x = w * np.abs(obs.z_curr + obs.z_prev) ** 2 / 4.0
    y = w * np.abs(obs.z_curr - obs.z_prev) ** 2 / 4.0
    rg = br.rho * br.gamma
    alpha = rg / (1.0 + br.gamma - rg)
    beta = rg / (1.0 + br.gamma + rg)
    assert abs(np.mean(x) / (alpha / 2.0) - 1.0) < 0.01
    assert abs(np.mean(y) / (beta / 2.0) - 1.0) < 0.01


# ----------------------------------------------------------- log likelihood


def test_loglik_indifferent_when_uncorrelated():
    branches = [BranchParams(0.0, 5.0), BranchParams(0.0, 9.0)]
    obs = [Observation(0.4 + 0.2j, -1.0 + 0.3j), Observation(-0.1 + 1j, 0.8 - 0.5j)]
    m0 = loglik_metric(obs, branches, SCALE, 0)
    m1 = loglik_metric(obs, branches, SCALE, 1)
    assert m0 == m1


def test_loglik_indifferent_when_reference_is_zero():
    branches = [BranchParams(0.9, 5.0)]
    obs = [Observation(0j, 0.7 - 0.2j)]
    assert loglik_metric(obs, branches, SCALE, 0) == loglik_metric(obs, branches, SCALE, 1)


def test_loglik_bad_hypothesis():
    with pytest.raises(ConfigError):
        loglik_metric([Observation(1j, 1j)], [BranchParams(0.5, 1.0)], SCALE, 2)


def test_loglik_argmax_matches_sign_decision():
    branches = [BranchParams(0.975, 3.162), BranchParams(0.9, 28.46)]
    weights = optimum_weights(branches)
    n = 10**5
    rng = rng_of(20)
    bits = rng.random(n) < 0.5
    obs = []
    flip = np.where(bits, -1.0, 1.0)
    for br in branches:
        pair = sample_fading_pair(br, SCALE, rng, size=n)
        # fold the per-trial data phase into the fading so one vectorized
        # make_observation call covers both hypotheses
        rotated = FadingPair(pair.a_prev, flip * pair.a_curr)
        obs.append(make_observation(rotated, 0.0, SCALE, rng))
    m0 = loglik_metric(obs, branches, SCALE, 0)
    m1 = loglik_metric(obs, branches, SCALE, 1)
    ll_decision = np.where(m1 > m0, 1, 0)
    stat = sum(w * (o.z_curr * np.conj(o.z_prev)).real for o, w in zip(obs, weights))
    sign_decision = np.where(stat < 0.0, 1, 0)
    assert np.array_equal(ll_decision, sign_decision)


# ------------------------------------------------------------- estimate_bep


def test_estimate_matches_l1_closed_form():
    cfg = DiversityConfig((BranchParams(1.0, 10.0),), Detector.OPTIMUM)
    est = estimate_bep(cfg, 10**6, seed=101)
    assert est.trials == 10**6
    assert abs(est.p_hat - 1.0 / 22.0) < 3.0 * est.ci95_halfwidth
    assert abs(est.p_hat - est.errors / est.trials) < 1e-15
    expect_ci = 1.96 * math.sqrt(est.p_hat * (1 - est.p_hat) / est.trials)
    assert abs(est.ci95_halfwidth - expect_ci) < 1e-15


def test_estimate_coin_flip_channel():
    cfg = DiversityConfig(
        (BranchParams(0.0, 4.0), BranchParams(0.0, 9.0)), Detector.SUBOPTIMUM)
    est = estimate_bep(cfg, 10**6, seed=102)
    assert abs(est.p_hat - 0.5) < 3.0 * est.ci95_halfwidth


def test_estimate_deterministic():
    cfg = DiversityConfig((BranchParams(0.975, 5.0), BranchParams(0.9, 20.0)),
                          Detector.OPTIMUM)
    a = estimate_bep(cfg, 3 * 10**5, seed=7, workers=2)
    b = estimate_bep(cfg, 3 * 10**5, seed=7, workers=2)
    assert a == b


def test_estimate_worker_invariant():
    cfg = DiversityConfig((BranchParams(0.975, 5.0), BranchParams(0.9, 20.0)),
                          Detector.SUBOPTIMUM)
    serial = estimate_bep(cfg, 5 * 10**5, seed=8, workers=1)
    threaded = estimate_bep(cfg, 5 * 10**5, seed=8, workers=4)
    assert serial == threaded


def test_estimate_seed_sensitivity():
    cfg = DiversityConfig((BranchParams(0.975, 5.0),), Detector.OPTIMUM)
    a = estimate_bep(cfg, 10**5, seed=1)
    b = estimate_bep(cfg, 10**5, seed=2)
    assert a.errors != b.errors


def test_estimate_early_stop():
    cfg = DiversityConfig((BranchParams(0.9, 2.0),), Detector.OPTIMUM)
    est = estimate_bep(cfg, 10**7, seed=9, workers=1, stop_rel_tol=0.5)
    assert est.early_stopped
    assert est.errors >= 100
    assert est.trials < 10**7
    assert est.ci95_halfwidth < 0.5 * est.p_hat


def test_estimate_invalid_arguments():
    cfg = DiversityConfig((BranchParams(0.9, 2.0),), Detector.OPTIMUM)
    with pytest.raises(ConfigError):
        estimate_bep(cfg, 0, seed=1)
    with pytest.raises(ConfigError):
        estimate_bep(cfg, 100, seed=1, workers=0)
    with pytest.raises(ConfigError):
        estimate_bep(cfg, 100, seed=1, stop_rel_tol=-0.1)


def test_bit_symmetry():
    # build the two conditional error rates from the public sampling surface
    br = [BranchParams(0.975, 3.162), BranchParams(0.975, 28.46)]
    weights = optimum_weights(br)
    n = 2 * 10**5
    rng = rng_of(21)
    rates = []
    for phase, sent in ((0.0, 0), (math.pi, 1)):
        obs = []
        for b in br:
            pair = sample_fading_pair(b, SCALE, rng, size=n)
            obs.append(make_observation(pair, phase, SCALE, rng))
        stat = sum(w * (o.z_curr * np.conj(o.z_prev)).real for o, w in zip(obs, weights))
        detected = np.where(stat < 0.0, 1, 0)
        rates.append(float(np.mean(detected != sent)))
    p0, p1 = rates
    se = math.sqrt(p0 * (1 - p0) / n + p1 * (1 - p1) / n)
    assert abs(p0 - p1) < 3.0 * se


def test_mc_against_closed_form_grid():
    # every grid point with a resolvable error rate must land inside 3 ci;
    # fixed seed makes this a regression rather than a coin toss
    rhos = (0.9, 0.975, 0.99)
    gammas = np.logspace(0.0, 3.0, 7)
    checked = 0
    misses = 0
    seed = 1000
    for l in (1, 2, 3):
        for rho in rhos:
            for offset in (0, 3):
                branches = tuple(
                    BranchParams(rho, gammas[(offset + k) % len(gammas)])
                    for k in range(l))
                for det in Detector:
                    cfg = DiversityConfig(branches, det)
                    p = exact_bep(cfg)
                    if p < 1e-3:
                        continue  # too few errors at this trial budget
                    seed += 1
                    est = estimate_bep(cfg, 10**5, seed=seed)
                    checked += 1
                    if abs(est.p_hat - p) >= 3.0 * est.ci95_halfwidth:
                        misses += 1
    assert checked >= 30
    assert misses <= math.ceil(0.01 * checked)
