import math
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest

from dpskdiv import (
    BranchParams,
    ConfigError,
    Detector,
    DiversityConfig,
    DopplerSpec,
    SpectrumKind,
    estimate_bep,
    exact_bep,
    power_split,
    rho_from_doppler,
)
from dpskdiv import simulate
from dpskdiv.simulate import _batch_rng

import mp_oracle as oracle
from ends import range_ends
from link_reference import decide, loglik_metric, ml_weights, observe, pair_statistic


def normals(seed, n, l=1):
    """An (n, L, 8) block of standard normals for the link reference."""
    return np.random.default_rng(seed).standard_normal((n, l, 8))


def fading(seed, n, br):
    """(a_prev, a_curr) of one branch: observe with the noise columns zeroed."""
    g = normals(seed, n)
    g[..., 4:8] = 0.0
    z_prev, z_curr = observe(g, br.rho, 0.5 * br.gamma, 1.0)
    return z_prev[:, 0], z_curr[:, 0]


def decide_one(pairs, weights):
    """decide on one trial given as a list of (z_prev, z_curr) per branch."""
    z_prev, z_curr = (np.array([[p[k] for p in pairs]]) for k in (0, 1))
    return int(decide(z_prev, z_curr, weights)[0])


# ----------------------------------------------------------------- fading


def test_fully_correlated_pair_is_identical():
    a_prev, a_curr = fading(3, 1000, BranchParams(1.0, 8.0))
    assert np.array_equal(a_prev, a_curr)


def test_uncorrelated_pair_empirical_correlation():
    br = BranchParams(0.0, 8.0)
    a_prev, a_curr = fading(4, 10**6, br)
    corr = 0.5 * np.mean(a_curr * np.conj(a_prev)) / (0.5 * br.gamma)
    assert abs(corr) < 0.005


def test_partially_correlated_pair_empirical_correlation():
    br = BranchParams(0.975, 8.0)
    a_prev, a_curr = fading(5, 10**6, br)
    corr = 0.5 * np.mean(a_curr * np.conj(a_prev)) / (0.5 * br.gamma)
    assert abs(corr.real - 0.975) < 0.003
    assert abs(corr.imag) < 0.003


def test_fading_power():
    br = BranchParams(0.9, 12.0)
    for a in fading(6, 10**6, br):
        assert abs(np.mean(np.abs(a) ** 2) / br.gamma - 1.0) < 0.01


# ------------------------------------------------------------ observations


def test_noiseless_zero_phase():
    g = normals(8, 100)
    g[..., 4:8] = 0.0
    z_prev, z_curr = observe(g, 1.0, 4.0, 1.0)
    assert np.array_equal(z_prev, z_curr)


def test_noiseless_pi_phase_flips_sign():
    g = normals(10, 100)
    g[..., 4:8] = 0.0
    z_prev, z_curr = observe(g, 1.0, 4.0, -1.0)
    assert np.array_equal(z_curr, -z_prev)


def test_observation_power():
    br = BranchParams(0.9, 6.0)
    r0 = 0.5 * br.gamma
    z_prev, z_curr = observe(normals(12, 10**6), br.rho, r0, 1.0)
    expect = 2.0 * r0 + 1.0
    for z in (z_prev, z_curr):
        assert abs(np.mean(np.abs(z) ** 2) / expect - 1.0) < 0.01


def test_sum_difference_orthogonality_and_variances():
    br = BranchParams(0.975, 6.0)
    n = 10**6
    r0 = 0.5 * br.gamma
    z_prev, z_curr = observe(normals(14, n), br.rho, r0, 1.0)
    s = z_curr + z_prev
    d = z_curr - z_prev
    (alpha,), (beta,) = oracle.poles(DiversityConfig((br,), Detector.SUBOPTIMUM))
    var_s, var_d = 4.0 * float(alpha), 4.0 * float(beta)  # from the link model's poles
    assert abs(np.mean(np.abs(s) ** 2) / var_s - 1.0) < 0.01
    assert abs(np.mean(np.abs(d) ** 2) / var_d - 1.0) < 0.01
    cross = np.mean(s * np.conj(d))
    # standard error of the cross term is ~sqrt(var_s var_d / n)
    assert abs(cross) < 4.0 * math.sqrt(var_s * var_d / n)


# ----------------------------------------------------------------- decide


def test_decide_positive_statistic():
    assert decide_one([(1 + 0j, 1 + 0j)], [1.0]) == 0


def test_decide_negative_statistic():
    assert decide_one([(1 + 2j, -1 - 2j)], [1.0]) == 1


def test_decide_weighted_hand_case():
    assert decide_one([(1 + 0j, 1 + 0j), (1 + 0j, -1.9 + 0j)], [2.0, 1.0]) == 0


def test_decide_tie_goes_to_zero():
    assert decide_one([(0j, 0j)], [1.0]) == 0


def test_decision_statistics_moments():
    # E[x_i] = alpha_i / 2 and E[y_i] = beta_i / 2 under optimum weights,
    # with the poles of the link model
    br = BranchParams(0.975, 10.0)
    z_prev, z_curr = observe(normals(18, 10**6), br.rho, 0.5 * br.gamma, 1.0)
    w = ml_weights(br.rho, 0.5 * br.gamma)
    x = w * np.abs(z_curr + z_prev) ** 2 / 4.0
    y = w * np.abs(z_curr - z_prev) ** 2 / 4.0
    (alpha,), (beta,) = oracle.poles(DiversityConfig((br,), Detector.OPTIMUM))
    assert abs(np.mean(x) / float(alpha / 2) - 1.0) < 0.01
    assert abs(np.mean(y) / float(beta / 2) - 1.0) < 0.01


# ----------------------------------------------------------- log likelihood


def test_loglik_indifferent_when_uncorrelated():
    z_prev = np.array([0.4 + 0.2j, -0.1 + 1j])
    z_curr = np.array([-1.0 + 0.3j, 0.8 - 0.5j])
    rho, r0 = np.zeros(2), np.array([2.5, 4.5])
    assert loglik_metric(z_prev, z_curr, rho, r0, 0) == loglik_metric(z_prev, z_curr, rho, r0, 1)


def test_loglik_indifferent_when_reference_is_zero():
    z_prev, z_curr = np.array([0j]), np.array([0.7 - 0.2j])
    assert loglik_metric(z_prev, z_curr, 0.9, 2.5, 0) == loglik_metric(z_prev, z_curr, 0.9, 2.5, 1)


def test_loglik_bad_hypothesis():
    with pytest.raises(ValueError):
        loglik_metric(np.array([1j]), np.array([1j]), 0.5, 0.5, 2)


def test_loglik_argmax_matches_sign_decision():
    branches = [BranchParams(0.975, 3.162), BranchParams(0.9, 28.46)]
    rho = np.array([br.rho for br in branches])
    r0 = np.array([0.5 * br.gamma for br in branches])
    weights = ml_weights(rho, r0)
    n = 10**5
    rng = np.random.default_rng(20)
    bits = rng.random(n) < 0.5
    g = rng.standard_normal((n, len(branches), 8))
    z_prev, z_curr = observe(g, rho, r0, np.where(bits, -1.0, 1.0)[:, None])
    m0 = loglik_metric(z_prev, z_curr, rho, r0, 0)
    m1 = loglik_metric(z_prev, z_curr, rho, r0, 1)
    assert np.array_equal(m1 > m0, decide(z_prev, z_curr, weights))


# ------------------------------------------------------------- estimate_bep


def test_estimate_matches_l1_closed_form():
    cfg = DiversityConfig((BranchParams(1.0, 10.0),), Detector.OPTIMUM)
    est = estimate_bep(cfg, 10**6, seed=101)
    assert est.trials == 10**6
    assert abs(est.p_hat - 1.0 / 22.0) < 3.0 * est.ci95_halfwidth
    assert abs(est.p_hat - est.errors / est.trials) < 1e-15
    # the Wilson limits are the roots p of (p_hat - p)^2 = 1.96^2 p (1 - p) / n,
    # taken at 50 digits: np.roots can miss them by 1e-12 relative
    with mpmath.workdps(50):
        p_hat, k = mpmath.mpf(est.p_hat), mpmath.mpf(1.96) ** 2 / est.trials
        lo, hi = sorted(mpmath.polyroots([1 + k, -(2 * p_hat + k), p_hat ** 2]))
        expect_ci = float(max(hi - p_hat, p_hat - lo))
    assert abs(est.ci95_halfwidth - expect_ci) < 1e-12 * expect_ci


@pytest.mark.parametrize("det, seed", [(Detector.OPTIMUM, 6000), (Detector.SUBOPTIMUM, 6001)])
def test_estimate_matches_closed_form_l6_doppler(det, seed):
    # six nonidentical branches, rho from three Doppler spectra (0.99901,
    # 0.96543, 0.93605, two branches each), the first branch at 6 dB and each
    # next one 2 dB lower: BEP 1.27e-2 / 1.40e-2, ~3500 errors in 2^18 trials
    rhos = [rho_from_doppler(DopplerSpec(kind, fdt)) for kind, fdt in (
        (SpectrumKind.JAKES, 0.01), (SpectrumKind.GAUSSIAN, 0.05),
        (SpectrumKind.RECTANGULAR, 0.1))]
    cfg = DiversityConfig(tuple(BranchParams(rhos[i // 2], 10.0 ** ((6.0 - 2.0 * i) / 10.0))
                                for i in range(6)), det)
    p = exact_bep(cfg)
    trials = 1 << 18
    est = estimate_bep(cfg, trials, seed=seed)
    assert est.errors >= 2000
    assert abs(est.p_hat - p) / math.sqrt(p * (1.0 - p) / trials) < 4.0


def binomial_coverage(halfwidth, n, p):
    """Exact probability that |k/n - p| <= halfwidth(k, n) for k ~ Binomial(n, p)."""
    sd = math.sqrt(n * p * (1.0 - p))
    lo, hi = max(0, math.floor(n * p - 12.0 * sd - 12)), min(n, math.ceil(n * p + 12.0 * sd + 12))
    c, lp, lq = math.lgamma(n + 1), math.log(p), math.log1p(-p)
    return sum(math.exp(c - math.lgamma(k + 1) - math.lgamma(n - k + 1) + k * lp + (n - k) * lq)
               for k in range(lo, hi + 1) if abs(k / n - p) <= halfwidth(k, n))


@pytest.mark.parametrize("n", [2000, 1 << 18])
def test_ci95_covers(n):
    # the mc_ci interval p_hat +- ci95_halfwidth covers the true p with exact
    # binomial probability >= 0.84 on a p grid from 1e-7 to 1/2, and >= 0.91
    # where np >= 1; the Wald interval, 0 wide at zero errors, fails
    ps = np.logspace(-7.0, math.log10(0.5), 121)

    def floors_hold(halfwidth):
        cover = [binomial_coverage(halfwidth, n, p) for p in ps]
        return min(cover) >= 0.84 and min(c for c, p in zip(cover, ps) if n * p >= 1) >= 0.91

    assert floors_hold(simulate._ci95)
    assert not floors_hold(simulate._wald95)


def test_estimate_coin_flip_channel():
    cfg = DiversityConfig(
        (BranchParams(0.0, 4.0), BranchParams(0.0, 9.0)), Detector.SUBOPTIMUM)
    est = estimate_bep(cfg, 10**6, seed=102)
    assert abs(est.p_hat - 0.5) < 3.0 * est.ci95_halfwidth


@pytest.mark.parametrize("pairs, seed", [
    (((0.0, 4.0), (0.0, 9.0)), 103),
    (((0.9, 0.0),), 104),
    (((0.0, 5.0), (0.9, 0.0)), 105),
])
def test_estimate_coin_flip_optimum_ties(pairs, seed):
    # every rho gamma = 0 makes every optimum weight 0: the statistic is 0 in
    # every trial, a tie decides 0, and half the bits are 1
    cfg = DiversityConfig(tuple(BranchParams(r, g) for r, g in pairs), Detector.OPTIMUM)
    est = estimate_bep(cfg, 1 << 18, seed=seed)
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


def test_estimate_early_stop_worker_invariant():
    # the rule holds after the first batch; waves of 2 and 3 batches run the
    # batches after it too, and must drop them
    cfg = DiversityConfig((BranchParams(0.975, 3.162), BranchParams(0.9, 28.46)),
                          Detector.OPTIMUM)
    serial = estimate_bep(cfg, 10**7, seed=5, workers=1, stop_rel_tol=0.05)
    assert serial.early_stopped
    assert serial.trials == simulate.TRIALS_PER_BATCH
    for workers in (2, 3):
        assert estimate_bep(cfg, 10**7, seed=5, workers=workers, stop_rel_tol=0.05) == serial


GOLDEN_BRANCHES = {
    1: [(0.975, 10.0)],
    2: [(0.975, 3.162), (0.9, 28.46)],
    4: [(0.9, 2.0), (0.95, 10.0), (0.975, 100.0), (0.99, 900.0)],
    8: [(0.8, 0.3), (0.85, 0.5), (0.88, 0.8), (0.9, 1.0),
        (0.92, 1.5), (0.94, 2.0), (0.96, 3.0), (0.98, 4.0)],
}
# stream v5 errors for (L, detector, trials) at seed 2024 + L; 200 000 trials end
# mid-batch and 262 144 = 2 * 2**17 end on a batch boundary
GOLDEN_ERRORS = {
    (1, Detector.OPTIMUM, 200_000): 11302, (1, Detector.OPTIMUM, 262_144): 14817,
    (1, Detector.SUBOPTIMUM, 200_000): 11302, (1, Detector.SUBOPTIMUM, 262_144): 14817,
    (2, Detector.OPTIMUM, 200_000): 4762, (2, Detector.OPTIMUM, 262_144): 6316,
    (2, Detector.SUBOPTIMUM, 200_000): 6156, (2, Detector.SUBOPTIMUM, 262_144): 8150,
    (4, Detector.OPTIMUM, 200_000): 3, (4, Detector.OPTIMUM, 262_144): 4,
    (4, Detector.SUBOPTIMUM, 200_000): 22, (4, Detector.SUBOPTIMUM, 262_144): 35,
    (8, Detector.OPTIMUM, 200_000): 1529, (8, Detector.SUBOPTIMUM, 200_000): 1747,
}


@pytest.mark.parametrize("l, det, trials", sorted(GOLDEN_ERRORS, key=str))
def test_estimate_golden_stream(l, det, trials):
    # pins the random stream: a kernel change that alters the draw order or
    # the arithmetic of the statistic changes these counts
    cfg = DiversityConfig(tuple(BranchParams(r, g) for r, g in GOLDEN_BRANCHES[l]), det)
    est = estimate_bep(cfg, trials, seed=2024 + l)
    assert est.trials == trials
    assert est.errors == GOLDEN_ERRORS[(l, det, trials)]


def coefficients(branches, det):
    cfg = DiversityConfig(tuple(BranchParams(r, g) for r, g in branches), det)
    return simulate._coefficients(cfg)


@pytest.mark.parametrize("det", list(Detector))
def test_coefficients_match_link_forms(det):
    # one branch against the 2x2 forms of the link model: with (alpha, -beta)
    # the eigenvalues of A Sigma0, a = (alpha - beta) / 4 and
    # b = sqrt(alpha beta) / 2 for the optimum form, twice that for unit
    # weights, and both 0 where A is 0.  alpha - beta is 2 rho gamma / p of
    # alpha, p = 1 + gamma + rho gamma, down to ~1e-647 here, so the poles take
    # 700 digits; where the reference is below the smallest normal float, an
    # error up to 1e-15 of that float is allowed
    scale = 1 if det is Detector.OPTIMUM else 2
    for rho in range_ends(1.0):
        for gamma in range_ends(sys.float_info.max / 4):
            (a,), (b,) = coefficients([(rho, gamma)], det)
            alphas, betas = oracle.poles(DiversityConfig((BranchParams(rho, gamma),), det), dps=700)
            if not alphas:
                assert a == b == 0.0, (rho, gamma)
                continue
            (alpha,), (beta,) = alphas, betas
            for x, ref in ((a, scale * (alpha - beta) / 4), (b, scale * mpmath.sqrt(alpha * beta) / 2)):
                assert abs(x - ref) <= 1e-15 * max(ref, sys.float_info.min), (rho, gamma, x, ref)


@pytest.mark.parametrize("n", [1, 10, 4321])
def test_sub_blocks_match_one_draw(monkeypatch, n):
    # sub-blocks of a size that divides neither n nor the batch, and batches
    # smaller than one sub-block or one 64-bit word, give the errors of one
    # whole-block draw in the stream-v5 order: n raw bits, bit t of the words
    # read as one little-endian integer being the sign of trial t; the k
    # normals of the set bits, as -|Z|; the (k, L) exponential block; then
    # the binomial.  The all-zero optimum weights make every trial a tie, and
    # then the binomial over all n trials is the only draw
    monkeypatch.setattr(simulate, "_SUB_BLOCK", 1000)
    for branches, det in (([(0.8, 0.3), (0.9, 1.0), (0.95, 2.0)], Detector.OPTIMUM),
                          ([(0.8, 0.3), (0.9, 1.0), (0.95, 2.0)], Detector.SUBOPTIMUM),
                          ([(0.0, 4.0), (0.0, 9.0)], Detector.OPTIMUM)):
        a, b = coefficients(branches, det)
        ref = _batch_rng(77, 3)
        if a.any() or b.any():
            words = ref.bit_generator.random_raw((n + 63) // 64)
            signs = sum(int(w) << (64 * i) for i, w in enumerate(words)) % (1 << n)
            z = -np.abs(ref.standard_normal(bin(signs).count("1")))
            stat = simulate._statistic(z, ref.standard_exponential((len(z), len(a))), a, b)
            errors, ties = int(np.count_nonzero(stat < 0.0)), int(np.count_nonzero(stat == 0.0))
        else:
            errors, ties = 0, n
        expect = errors + int(ref.binomial(ties, 0.5))
        rng = _batch_rng(77, 3)
        assert simulate._count_errors(rng, n, a, b) == expect
        assert rng.random() == ref.random()  # both consumed the same draws


def test_batch_peak_memory():
    # the ~2**16 trials with Z < 0 draw ~0.5 MiB of normals and a (2**16, 4)
    # exponential block of ~2 MiB; drawn whole, with the statistic's
    # temporaries, one batch peaks near 4.2 MiB, and sub-blocks keep it near
    # 1 MiB
    a, b = coefficients(GOLDEN_BRANCHES[4], Detector.OPTIMUM)
    tracemalloc.start()
    try:
        simulate._count_errors(_batch_rng(1, 0), simulate.TRIALS_PER_BATCH, a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


@pytest.mark.parametrize("det", list(Detector))
@pytest.mark.parametrize("rho, gamma", [(0.9, 10.0), (1.0, 1e3), (0.0, 4.0)])
def test_kernel_statistic_matches_link_reference(rho, gamma, det):
    # one branch: the kernel's bit-0 statistic and w Re(z_curr conj(z_prev))
    # of the 8-normal link model have the same mean and the same variance
    n = 2 * 10**5
    a, b = coefficients([(rho, gamma)], det)
    rng = np.random.default_rng(30)
    kernel = 2.0 * simulate._statistic(rng.standard_normal(n), rng.standard_exponential((n, 1)), a, b)
    g = np.random.default_rng(31).standard_normal((n, 1, 8))
    z_prev, z_curr = observe(g, rho, 0.5 * gamma, 1.0)
    w = ml_weights(rho, 0.5 * gamma) if det is Detector.OPTIMUM else 1.0
    ref = w * (z_curr * np.conj(z_prev)).real[:, 0]
    for x, y in ((kernel, ref), ((kernel - kernel.mean()) ** 2, (ref - ref.mean()) ** 2)):
        assert abs(x.mean() - y.mean()) <= 4.0 * math.sqrt((x.var() + y.var()) / n)


@pytest.mark.parametrize("det", list(Detector))
@pytest.mark.parametrize("branches", [
    [(1.0, 1e3), (0.9, 10.0)],
    [(0.0, 4.0), (0.9, 0.0)],
    [(0.8, 0.3), (0.95, 2.0), (0.99, 100.0)],
])
def test_kernel_statistic_distribution_matches_pair_statistic(branches, det):
    # the kernel's L + 1 draws and the 4L-normal pair statistic give the same
    # law, not just the same two moments: P(S <= x) agrees at x = t sigma and
    # at x = mu + t sigma, mu = 2 sum a and sigma^2 = sum 4 a^2 + 2 b^2 being
    # the mean and the variance of S
    n = 2 * 10**5
    a, b = coefficients(branches, det)
    rng = np.random.default_rng(32)
    kernel = 2.0 * simulate._statistic(rng.standard_normal(n), rng.standard_exponential((n, len(a))), a, b)
    ref = pair_statistic(np.random.default_rng(33).standard_normal((n, 4, len(a))), a, b)
    mu, sigma = 2.0 * np.sum(a), math.sqrt(np.sum(4.0 * a * a + 2.0 * b * b))
    for x in (t * sigma + shift for t in (-2.0, -1.0, 0.0, 1.0, 2.0) for shift in (0.0, mu)):
        p1, p2 = np.mean(kernel <= x), np.mean(ref <= x)
        p = 0.5 * (p1 + p2)
        assert p1 == p2 or abs(p1 - p2) < 4.0 * math.sqrt(2.0 * p * (1.0 - p) / n)


@pytest.mark.parametrize("det, seed", [(Detector.OPTIMUM, 40), (Detector.SUBOPTIMUM, 42)])
def test_estimate_matches_link_reference(det, seed):
    # the kernel, conditioned on bit 0, and the link model with random bits
    # give the same error rate at one L = 3 point
    branches = (BranchParams(0.9, 2.0), BranchParams(0.975, 5.0), BranchParams(0.99, 1.0))
    cfg = DiversityConfig(branches, det)
    n, chunk = 1 << 18, 1 << 15
    est = estimate_bep(cfg, n, seed=seed)
    rho = np.array([br.rho for br in branches])
    r0 = np.array([0.5 * br.gamma for br in branches])
    weights = ml_weights(rho, r0) if det is Detector.OPTIMUM else np.ones(len(branches))
    rng = np.random.default_rng(seed + 1)
    errors = 0
    for _ in range(n // chunk):
        bits = rng.random(chunk) < 0.5
        g = rng.standard_normal((chunk, len(branches), 8))
        z_prev, z_curr = observe(g, rho, r0, np.where(bits, -1.0, 1.0)[:, None])
        errors += int(np.count_nonzero(decide(z_prev, z_curr, weights) != bits))
    p = (est.errors + errors) / (2 * n)
    assert abs(est.errors - errors) / n < 4.0 * math.sqrt(2.0 * p * (1.0 - p) / n)


@pytest.mark.parametrize("det", list(Detector))
def test_estimate_at_largest_gamma_matches_1e300(det):
    # once gamma dominates 1, the unit-weight coefficients scale with gamma and
    # the optimum ones stop moving, and only the statistic's sign counts, so
    # the same draws give the same errors; eight branches at the largest valid
    # gamma overflow the unscaled unit-weight statistic in some trials, and
    # the optimum weight rho gamma / (p m) itself is subnormal there
    def errors(gamma):
        cfg = DiversityConfig((BranchParams(0.3, gamma),) * 8, det)
        return estimate_bep(cfg, 4000, seed=5).errors

    assert errors(sys.float_info.max / 4) == errors(1e300)


def test_estimate_at_subnormal_coefficients_matches_1e150():
    # at rho = 1e-310 the optimum coefficients are below 2^-1024 (a is 0 and b
    # subnormal), and at 1e-150 a is too small to move any sign against b, so
    # the same draws give the same errors
    def errors(rho):
        cfg = DiversityConfig((BranchParams(rho, 1.0),), Detector.OPTIMUM)
        return estimate_bep(cfg, 4000, seed=5).errors

    assert errors(1e-310) == errors(1e-150)


def test_estimate_invalid_arguments():
    cfg = DiversityConfig((BranchParams(0.9, 2.0),), Detector.OPTIMUM)
    with pytest.raises(ConfigError):
        estimate_bep(cfg, 0, seed=1)
    with pytest.raises(ConfigError):
        estimate_bep(cfg, 100, seed=1, workers=0)
    with pytest.raises(ConfigError):
        estimate_bep(cfg, 100, seed=1, stop_rel_tol=-0.1)


def test_bit_symmetry():
    # the two conditional error rates of the kernel's channel and detector
    br = [BranchParams(0.975, 3.162), BranchParams(0.975, 28.46)]
    rho = np.array([b.rho for b in br])
    r0 = np.array([0.5 * b.gamma for b in br])
    weights = ml_weights(rho, r0)
    n = 2 * 10**5
    rng = np.random.default_rng(21)
    rates = []
    for rot, sent in ((1.0, 0), (-1.0, 1)):
        g = rng.standard_normal((n, len(br), 8))
        detected = decide(*observe(g, rho, r0, rot), weights)
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


def test_monte_carlo_agreement():
    # published split points at 1e7 trials: within 3 binomial SE of exact_bep
    cases = [
        (15.0, 0.5001, Detector.OPTIMUM),
        (15.0, 0.1, Detector.SUBOPTIMUM),
        (30.0, 0.1, Detector.OPTIMUM),
    ]
    trials = 10**7
    worst_z = 0.0
    for i, (gdb, eta, det) in enumerate(cases):
        g1, g2 = power_split(gdb, eta)
        cfg = DiversityConfig((BranchParams(0.975, g1), BranchParams(0.975, g2)), det)
        p = exact_bep(cfg)
        est = estimate_bep(cfg, trials, seed=2026 + i, workers=2)
        se = math.sqrt(p * (1.0 - p) / trials)
        worst_z = max(worst_z, abs(est.p_hat - p) / se)
    assert worst_z < 3.0
