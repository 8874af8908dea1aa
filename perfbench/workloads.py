"""Inputs of the three workloads, made from the --seed argument alone.

Pure Python (random.Random), so the parent process can build inputs and
reference values without importing dpskdiv, numpy or scipy.  Every workload
is a list of operations that one round runs in order; the number and kind of
operations never depend on the seed, only their parameter values do.

Seeded inputs stay inside the region where dpskdiv's partial-fraction closed
form is accurate (one branch, or two branches with a common rho whose mean
SNRs differ by at least 2.7 dB).  Inputs in the region where it is not
accurate (three or more branches, identical or near-identical branches, the
canned reproduce-fig grids) are fixed: they come from the constant
FIXED_SEED or are written out, so the operations that fail there fail in
every run and the share of failed operations is the same for every seed.
"""

import math
import random

WORKLOADS = ("cli-session", "closed-form", "monte-carlo")
DETECTORS = ("optimum", "suboptimum")
SPECTRA = ("jakes", "gaussian", "rectangular")

FIXED_SEED = 20100824

# closed-form: SNR grid step, and every BOUND_STRIDE-th grid point also gets
# the Chernoff bound of its detector.
GRID_STEP_DB = 0.2
GRID_TOP_DB = 30.0
BOUND_STRIDE = 30

# monte-carlo: two Philox batches of 2^17 trials per point, so workers=2 has
# one batch per thread; the target BEP gives 260 to 520 errors per point.
MC_TRIALS = 2 << 17
MC_TARGET_BEP = (1e-3, 2e-3)
MC_BRANCHES = (1, 2, 4)
MC_WORKERS = (1, 2)
CLI_MC_TRIALS = 1 << 17


def _db(x):
    return 10.0 ** (x / 10.0)


def _round(x, digits):
    """A value as it would be typed on a command line."""
    return float(f"{x:.{digits}f}")


def _grid():
    n = int(round(GRID_TOP_DB / GRID_STEP_DB))
    return [k * GRID_STEP_DB for k in range(n + 1)]


def _split(total_db, eta):
    total = _db(total_db)
    return [eta * total, (1.0 - eta) * total]


# The grids behind `reproduce-fig --figure 1` and `--figure 2`, written out
# here so that the benchmark's inputs do not move with the program.
FIGURES = {
    "1": {"gamma_b_db": (0.0, 30.0, 1.0), "etas": (0.1, 0.5001), "rhos": (0.975,),
          "detectors": DETECTORS, "outputs": ("exact", "chernoff_improved")},
    "2": {"gamma_b_db": (0.0, 30.0, 1.0), "etas": (0.4, 0.45, 0.49, 0.4999, 0.5001),
          "rhos": (0.975,), "detectors": DETECTORS, "outputs": ("exact", "chernoff_improved")},
}

# ---------------------------------------------------------------------------
# cli-session


def cli_script(seed):
    """About sixteen argv lists for `python -m dpskdiv`, one round, in order."""
    rng = random.Random(seed)

    def gdb():
        return _round(rng.uniform(0.0, 30.0), 2)

    def eta():
        return _round(rng.uniform(0.05, 0.35), 3)

    def rho():
        return _round(rng.uniform(0.95, 0.999), 4)

    def pair_db():
        hi = rng.uniform(3.0, 30.0)
        return _round(hi, 2), _round(hi - rng.uniform(3.0, 12.0), 2)

    def fdt():
        return _round(rng.uniform(0.005, 0.1), 4)

    a1, a2 = pair_db()
    b1, b2 = pair_db()
    e1, e2 = sorted(eta() for _ in range(2))
    mc_lo = _round(rng.uniform(4.0, 10.0), 1)
    mc_seed = rng.getrandbits(32)
    mc = ["simulate", "--gamma-b-db-range", f"{mc_lo}:{mc_lo + 4}:4", "--eta", str(eta()),
          "--rho", str(rho()), "--detector", "both", "--trials", str(CLI_MC_TRIALS),
          "--seed", str(mc_seed)]
    return [
        ["bep", "--gamma-b-db", str(gdb()), "--eta", str(eta()), "--rho", str(rho()),
         "--detector", "optimum"],
        ["bep", "--gamma-b-db", str(gdb()), "--eta", str(eta()), "--rho", str(rho()),
         "--detector", "suboptimum", "--bound", "chernoff"],
        ["bep", "--gamma-b-db", str(gdb()), "--eta", str(eta()), "--rho", str(rho()),
         "--detector", "optimum", "--bound", "chernoff_improved", "--json"],
        ["bep", "--gamma-db", f"{a1},{a2}", "--rho", str(rho()), "--detector", "optimum",
         "--json"],
        ["bep", "--gamma-db", f"{b1},{b2}", "--rho", str(rho()), "--detector", "suboptimum",
         "--bound", "chernoff_improved"],
        ["bep", "--gamma-db", str(gdb()), "--rho", str(rho()), "--detector", "suboptimum",
         "--json"],
        ["sweep", "--gamma-b-db-range", "0:30:1", "--eta", f"{e1},{e2}", "--rho", str(rho()),
         "--detector", "both", "--outputs", "exact,chernoff_improved"],
        ["sweep", "--gamma-b-db-range", "0:30:0.5", "--eta", str(eta()),
         "--rho", f"{rho()},{rho()}", "--detector", "optimum", "--outputs", "exact,chernoff"],
        ["reproduce-fig", "--figure", "1"],
        ["reproduce-fig", "--figure", "2"],
        ["doppler-rho", "--spectrum", "jakes", "--fdt", str(fdt())],
        ["doppler-rho", "--spectrum", "gaussian", "--fdt", str(fdt())],
        ["doppler-rho", "--spectrum", "rectangular", "--fdt", str(fdt())],
        ["doppler-rho", "--spectrum", rng.choice(SPECTRA), "--fdt", str(fdt()),
         "--quad-order", "8"],
        mc + ["--workers", "1"],
        mc + ["--workers", "2"],
    ]


# ---------------------------------------------------------------------------
# closed-form
#
# A scenario is a list of Doppler spectra, the spectrum each branch takes its
# rho from, and the linear mean SNR of every branch at every grid point.  Each
# grid point is evaluated for both detectors; `rho` replaces the spectra for
# the hand-picked points named in the README.


def _scenario(name, spectra, branch_spectrum, gammas, identical=False, rho=None):
    return {"name": name, "spectra": spectra, "branch_spectrum": branch_spectrum,
            "gammas": gammas, "identical": identical, "rho": rho}


def _doppler(rng):
    return [rng.choice(SPECTRA), _round(rng.uniform(0.005, 0.1), 4)]


def closed_form_scenarios(seed):
    grid = _grid()
    rng = random.Random(seed)
    out = []
    for k in range(4):
        off = rng.uniform(-5.0, 0.0)
        out.append(_scenario(f"seeded.L1.{k}", [_doppler(rng)], [0],
                             [[_db(t + off)] for t in grid]))
    for k in range(4):
        eta = rng.uniform(0.05, 0.35)
        out.append(_scenario(f"seeded.L2.{k}", [_doppler(rng)], [0, 0],
                             [_split(t, eta) for t in grid]))

    fixed = random.Random(FIXED_SEED)
    for n in range(3, 9):
        spectra = [_doppler(fixed) for _ in range(n)]
        offs = [fixed.uniform(-10.0, 0.0) for _ in range(n)]
        out.append(_scenario(f"fixed.L{n}", spectra, list(range(n)),
                             [[_db(t + o) for o in offs] for t in grid]))
    for n in (2, 4, 8):
        out.append(_scenario(f"identical.L{n}", [["jakes", 0.05]], [0] * n,
                             [[_db(t)] * n for t in grid], identical=True))
    # The two cases the README names: four identical branches at rho 0.975,
    # gamma 10, and three branches 1e-3 apart.
    out.append(_scenario("named.L4.identical", [], [0] * 4, [[10.0] * 4],
                         identical=True, rho=0.975))
    out.append(_scenario("named.L3.gap1e-3", [], [0] * 3,
                         [[10.0, 10.0 * (1 + 1e-3), 10.0 * (1 + 2e-3)]], rho=0.975))
    return out


def closed_form_points(scenarios):
    """Count of BEP points and of rho calls in one round."""
    points = sum(2 * len(sc["gammas"]) for sc in scenarios)
    rhos = sum(len(sc["spectra"]) for sc in scenarios)
    return points, rhos


def has_bound(grid_index):
    return grid_index % BOUND_STRIDE == 0


# ---------------------------------------------------------------------------
# monte-carlo


def _bisect_total_db(bep_at, target, lo=-10.0, hi=60.0):
    """Shift in dB that puts the BEP at the target (BEP falls with SNR)."""
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if bep_at(mid) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def monte_carlo_points(seed, bep):
    """One point per (L, detector): branches, trials and Philox seed.

    bep(branches, detector) is the reference BEP; the total SNR is solved so
    that the reference BEP sits at a seeded target in MC_TARGET_BEP.
    """
    rng = random.Random(seed)
    out = []
    for n in MC_BRANCHES:
        for det in DETECTORS:
            rhos = [_round(rng.uniform(0.9999, 1.0), 6) for _ in range(n)]
            offs = [0.0] + [-rng.uniform(1.0, 6.0) for _ in range(n - 1)]
            lo, hi = MC_TARGET_BEP
            target = math.exp(rng.uniform(math.log(lo), math.log(hi)))

            def at(shift):
                return float(bep([(r, _db(shift + o)) for r, o in zip(rhos, offs)], det))

            shift = _bisect_total_db(at, target)
            branches = [[r, _db(shift + o)] for r, o in zip(rhos, offs)]
            out.append({"L": n, "detector": det, "branches": branches,
                        "trials": MC_TRIALS, "seed": rng.getrandbits(63)})
    return out
