"""Release gate: one test per headline requirement.

Each test prints a single PASS/FAIL line (through the capture plugin, so it
shows up even on quiet runs) before asserting, so a full run of this file
doubles as a checklist of the guarantees the package makes.
"""

import math

import numpy as np

from dpskdiv import (
    BranchParams,
    Detector,
    DiversityConfig,
    DopplerSpec,
    SpectrumKind,
    chernoff_optimum,
    chernoff_suboptimum,
    estimate_bep,
    exact_bep,
    optimum_weights,
    power_split,
    rho_from_doppler,
)
from dpskdiv.cli import main as cli_main
from dpskdiv.simulate import decide, observe

import mp_oracle as oracle
from ml_reference import loglik_metric


def _report(capsys, name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    with capsys.disabled():
        print(line)
    assert ok, line


def split_cfg(gamma_b_db, eta, detector, rho=0.975):
    g1, g2 = power_split(gamma_b_db, eta)
    return DiversityConfig(
        (BranchParams(rho, g1), BranchParams(rho, g2)), detector)


def test_reference_value_regression(capsys):
    checks = []

    # near-balanced split, 15 dB: both detectors within 1% of 5.0234e-3
    p = exact_bep(split_cfg(15.0, 0.5001, Detector.OPTIMUM))
    checks.append(abs(p - 5.0234e-3) / 5.0234e-3 < 1e-2)

    # unbalanced split at 15 dB and 30 dB: 0.5% relative
    for gdb, det, ref in (
        (15.0, Detector.OPTIMUM, 1.065e-2),
        (15.0, Detector.SUBOPTIMUM, 1.093e-2),
        (30.0, Detector.OPTIMUM, 6.710e-4),
        (30.0, Detector.SUBOPTIMUM, 1.616e-3),
    ):
        p = exact_bep(split_cfg(gdb, 0.1, det))
        checks.append(abs(p - ref) / ref < 5e-3)

    # the split itself, expressed back in dB
    g1, g2 = power_split(15.0, 0.1)
    checks.append(abs(10.0 * math.log10(g1) - 5.00) < 0.01)
    checks.append(abs(10.0 * math.log10(g2) - 14.54) < 0.01)

    _report(capsys, "reference-value regression", all(checks),
            f"{sum(checks)}/{len(checks)} sub-checks")


def test_semi_analytic_cross_check(capsys):
    # exact_bep against the independent mpmath oracle (tests/mp_oracle.py)
    # for L <= 8: distinct poles, identical branches, pole gaps of 1e-9 to
    # 1e-1, and a mix of copies and free branches
    rng = np.random.default_rng(7)
    worst = 0.0
    in_range = True
    for k in range(160):
        l = int(rng.integers(1, 9))

        def draw():
            return (float(rng.uniform(0.05, 1.0)), float(10.0 ** rng.uniform(-2.0, 3.0)))

        rho, gamma = draw()
        gap = 10.0 ** -float(rng.integers(1, 10))
        shape = k % 4
        if shape == 0:
            pairs = [(rho, gamma)] + [draw() for _ in range(l - 1)]
        elif shape == 1:
            pairs = [(rho, gamma)] * l
        elif shape == 2:
            pairs = [(rho, gamma * (1.0 + i * gap)) for i in range(l)]
        else:
            pairs = [(rho, gamma) if i % 2 else draw() for i in range(l)]
        det = Detector.OPTIMUM if k % 8 < 4 else Detector.SUBOPTIMUM
        cfg = DiversityConfig(tuple(BranchParams(r, g) for r, g in pairs), det)
        p = exact_bep(cfg)
        in_range = in_range and 0.0 <= p <= 1.0
        worst = max(worst, oracle.rel_err(p, oracle.bep(cfg)))
    _report(capsys, "oracle cross-check", in_range and worst < 1e-13,
            f"max relative error {worst:.2e} over 160 configs, L <= 8, ties and near-ties")


def test_monte_carlo_agreement(capsys):
    cases = [
        (15.0, 0.5001, Detector.OPTIMUM),
        (15.0, 0.1, Detector.SUBOPTIMUM),
        (30.0, 0.1, Detector.OPTIMUM),
    ]
    trials = 10**7
    worst_z = 0.0
    for i, (gdb, eta, det) in enumerate(cases):
        cfg = split_cfg(gdb, eta, det)
        p = exact_bep(cfg)
        est = estimate_bep(cfg, trials, seed=2026 + i, workers=2)
        se = math.sqrt(p * (1.0 - p) / trials)
        worst_z = max(worst_z, abs(est.p_hat - p) / se)
    _report(capsys, "Monte Carlo agreement", worst_z < 3.0,
            f"worst deviation {worst_z:.2f} binomial SE at 1e7 trials")


def test_bound_dominance(capsys):
    gammas = np.logspace(0.0, 3.0, 7)
    violations = 0
    total = 0
    for det, bound_fn in ((Detector.OPTIMUM, chernoff_optimum),
                          (Detector.SUBOPTIMUM, chernoff_suboptimum)):
        for l in range(1, 5):
            for rho in (0.9, 0.975, 0.99):
                for offset in range(len(gammas)):
                    branches = tuple(
                        BranchParams(rho, float(gammas[(offset + k) % len(gammas)]))
                        for k in range(l))
                    cfg = DiversityConfig(branches, det)
                    total += 1
                    if exact_bep(cfg) > bound_fn(cfg, improved=True).bound:
                        violations += 1
    _report(capsys, "bound dominance", violations == 0,
            f"{violations} violations over {total} grid points")


def test_single_branch_closed_form(capsys):
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        rho = float(rng.uniform(0.0, 1.0))
        gamma = float(10.0 ** rng.uniform(-2.0, 3.0))
        ref = oracle.bep_l1(rho, gamma)
        for det in Detector:
            cfg = DiversityConfig((BranchParams(rho, gamma),), det)
            worst = max(worst, abs(exact_bep(cfg) - ref) / ref)
    _report(capsys, "single-branch closed form", worst < 1e-12,
            f"max relative error {worst:.2e} over 100 points x 2 detectors")


def test_detector_decision_equivalence(capsys):
    branches = [BranchParams(0.975, 3.162), BranchParams(0.9, 28.46)]
    weights = optimum_weights(branches)
    rho = np.array([br.rho for br in branches])
    r0 = np.array([0.5 * br.gamma for br in branches])
    n = 10**5
    rng = np.random.default_rng(21)
    bits = rng.random(n) < 0.5
    g = rng.standard_normal((n, len(branches), 8))
    z_prev, z_curr = observe(g, rho, r0, np.where(bits, -1.0, 1.0)[:, None])
    m0 = loglik_metric(z_prev, z_curr, rho, r0, 0)
    m1 = loglik_metric(z_prev, z_curr, rho, r0, 1)
    sign = decide(z_prev, z_curr, weights)
    mismatches = int(np.sum((m1 > m0) != sign))
    _report(capsys, "detector decision equivalence", mismatches == 0,
            f"{mismatches} mismatches over {n} trials")


def test_suboptimum_optimizer(capsys):
    checks = []

    # single branch: numerical optimizer against the closed form
    for rho, gamma in ((0.9, 1.0), (0.975, 10.0), (0.99, 100.0), (0.5, 3.0)):
        cfg = DiversityConfig((BranchParams(rho, gamma),), Detector.SUBOPTIMUM)
        res = chernoff_suboptimum(cfg, improved=False)
        ref = oracle.sub_s_l1(rho, gamma)
        checks.append(abs(res.s_opt - ref) / ref < 1e-8)

    # multi-branch: stationarity of the product bound at the optimizer
    cases = [
        ((0.975, 3.162), (0.975, 28.46)),
        ((0.9, 1.0), (0.975, 31.6), (0.99, 316.0)),
        ((0.9, 2.0), (0.95, 10.0), (0.975, 100.0), (0.99, 900.0)),
    ]
    for pairs in cases:
        cfg = DiversityConfig(
            tuple(BranchParams(r, g) for r, g in pairs), Detector.SUBOPTIMUM)
        res = chernoff_suboptimum(cfg, improved=False)
        h = 1e-7 * res.s_opt
        deriv = (oracle.sub_product(pairs, res.s_opt + h)
                 - oracle.sub_product(pairs, res.s_opt - h)) / (2.0 * h)
        checks.append(abs(deriv) * res.s_opt / oracle.sub_product(pairs, res.s_opt) < 1e-6)

    _report(capsys, "suboptimum bound optimizer", all(checks),
            f"{sum(checks)}/{len(checks)} sub-checks (closed form + stationarity)")


def test_doppler_quadrature(capsys):
    still = rho_from_doppler(DopplerSpec(SpectrumKind.JAKES, 0.0))
    moving = rho_from_doppler(DopplerSpec(SpectrumKind.JAKES, 0.05))
    ok = abs(still - 1.0) < 1e-10 and abs(moving - oracle.JAKES_FDT005_DENSE_GRID) < 1e-8
    _report(capsys, "Doppler quadrature", ok,
            f"fdT=0 err {abs(still - 1.0):.1e}, "
            f"fdT=0.05 err {abs(moving - oracle.JAKES_FDT005_DENSE_GRID):.1e}")


def test_simulation_determinism(capsys):
    argv = ["simulate", "--gamma-b-db-range", "12:15:3", "--eta", "0.1",
            "--rho", "0.975", "--detector", "both", "--trials", "200000",
            "--seed", "9", "--workers", "2"]
    assert cli_main(list(argv)) == 0
    first = capsys.readouterr().out
    assert cli_main(list(argv)) == 0
    second = capsys.readouterr().out
    ok = first.encode() == second.encode() and len(first.strip().splitlines()) == 5
    _report(capsys, "simulation determinism", ok,
            f"{len(first.encode())} bytes, identical reruns")
