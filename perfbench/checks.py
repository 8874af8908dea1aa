"""Checks of dpskdiv outputs against the reference values of oracle.py.

A BEP point that misses the reference is a failed operation: that is the
known partial-fraction cancellation in dpskdiv.bep, counted, not hidden.
Every other check (bounds, rho, Monte Carlo, repeatability) has no known
fault to count, so a miss there makes the whole run incorrect.

BEP_REL_TOL: on the seeded inputs, where the closed form is well
conditioned, exact_bep lands within 3e-10 of the reference (worst of 145 000
points over seeds 1-60), and the CLI prints ten significant digits (5e-10
relative).  The tolerance sits a hundred times above both and ten times below
the smallest error it must catch, a BEP scaled by (1 + 1e-6).
RHO_ABS_TOL is the 1e-10 to which rho_from_doppler says it converges.
MC_Z: |errors - n p| <= 5 standard deviations; a correct simulator trips it
with probability 6e-7 per point.
"""

import json
import math

import mpmath

import oracle
import workloads

BEP_REL_TOL = 1e-7
RHO_ABS_TOL = 1e-10
MC_Z = 5.0


class Verdict:
    """Failed operations (the counted fault) and problems (incorrect run)."""

    def __init__(self):
        self.problems = []

    def problem(self, msg):
        self.problems.append(msg)


def bep_ok(value, ref, tol=BEP_REL_TOL):
    """A BEP that is a number in [0, 1] within tol of the reference."""
    return (value is not None and math.isfinite(value) and 0.0 <= value <= 1.0
            and abs(mpmath.mpf(value) - ref) <= tol * ref)


def bound_ok(bound, ref):
    """An upper bound must not fall below the true BEP."""
    return bound is not None and math.isfinite(bound) and mpmath.mpf(bound) >= ref


def rho_ok(value, ref, tol=RHO_ABS_TOL):
    return value is not None and math.isfinite(value) and abs(mpmath.mpf(value) - ref) <= tol


def mc_ok(errors, trials, p_ref, z=MC_Z):
    """errors: the error count of each worker setting, same seed and trials.

    They must be equal (the worker-invariance contract) and within z standard
    deviations of trials * p_ref.
    """
    if len(set(errors)) != 1:
        return False
    mean = trials * float(p_ref)
    sd = math.sqrt(trials * float(p_ref) * (1.0 - float(p_ref)))
    return abs(errors[0] - mean) <= z * sd


# ---------------------------------------------------------------------------
# closed-form


def check_closed_form(scenarios, outputs, verdict):
    """outputs = [rho per scenario spectrum, [exact, bound] per point].

    Returns the number of failed operations in one round.
    """
    rhos_out, points = outputs
    k = 0
    failed = 0
    for sc, rhos in zip(scenarios, rhos_out):
        if sc["rho"] is None:
            for (kind, fdt), value in zip(sc["spectra"], rhos):
                if not rho_ok(value, oracle.rho(kind, fdt)):
                    verdict.problem(f"{sc['name']}: rho({kind}, {fdt}) = {value!r}")
        branch_rho = [rhos[i] for i in sc["branch_spectrum"]]
        for gi, gammas in enumerate(sc["gammas"]):
            branches = list(zip(branch_rho, gammas))
            for det in workloads.DETECTORS:
                exact, bound = points[k]
                k += 1
                ref = oracle.bep(branches, det)
                ok = bep_ok(exact, ref)
                if sc["identical"]:
                    nb = oracle.bep_identical(branch_rho[0], gammas[0], len(gammas), det)
                    if abs(nb - ref) > mpmath.mpf(10) ** -25 * ref:
                        verdict.problem(f"{sc['name']}: oracle and negative binomial differ")
                    ok = ok and bep_ok(exact, nb)
                failed += not ok
                if workloads.has_bound(gi) and not bound_ok(bound, ref):
                    verdict.problem(f"{sc['name']} point {gi} {det}: bound {bound!r} < {ref}")
    if k != len(points):
        verdict.problem(f"closed-form: {len(points)} results for {k} points")
    return failed


# ---------------------------------------------------------------------------
# monte-carlo


def check_monte_carlo(points, outputs, verdict):
    """outputs = [[errors, trials] per worker setting] per point."""
    if len(outputs) != len(points):
        verdict.problem(f"monte-carlo: {len(outputs)} results for {len(points)} points")
    for pt, row in zip(points, outputs):
        errors = [e for e, _ in row]
        trials = {t for _, t in row}
        p_ref = oracle.bep(pt["branches"], pt["detector"])
        if trials != {pt["trials"]}:
            verdict.problem(f"monte-carlo L={pt['L']}: trials {sorted(trials)}")
        elif not mc_ok(errors, pt["trials"], p_ref):
            verdict.problem(f"monte-carlo L={pt['L']} {pt['detector']}: errors {errors} "
                            f"for p = {float(p_ref):.4e} over {pt['trials']} trials")
    return 0


# ---------------------------------------------------------------------------
# cli-session


def _opt(argv, name, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def _grid(spec):
    start, stop, step = spec
    n = int(math.floor((stop - start) / step + 1e-9)) + 1
    return [start + k * step for k in range(n)]


def _parse_csv(text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def _num(s):
    return None if s in ("", None) else float(s)


def _expected_sweep(argv):
    """Row keys (gamma_b_db, eta, rho, detector) a sweep command must print."""
    if argv[0] == "reproduce-fig":
        fig = workloads.FIGURES[_opt(argv, "--figure")]
        grid = _grid(fig["gamma_b_db"])
        etas, rhos, dets = fig["etas"], fig["rhos"], fig["detectors"]
    else:
        grid = _grid([float(x) for x in _opt(argv, "--gamma-b-db-range").split(":")])
        etas = [float(x) for x in _opt(argv, "--eta").split(",")]
        rhos = [float(x) for x in _opt(argv, "--rho").split(",")]
        det = _opt(argv, "--detector", "both")
        dets = workloads.DETECTORS if det == "both" else (det,)
    return [(g, e, r, d) for g in grid for e in sorted(etas) for r in sorted(rhos)
            for d in sorted(dets)]


def _bep_branches(argv):
    """[(rho, gamma)] of a `bep` command, as mpf."""
    rhos = [float(x) for x in _opt(argv, "--rho").split(",")]
    if "--gamma-db" in argv:
        gammas = [oracle.db_to_linear(x) for x in _opt(argv, "--gamma-db").split(",")]
    else:
        gammas = oracle.power_split(_opt(argv, "--gamma-b-db"), _opt(argv, "--eta"))
    if len(rhos) == 1:
        rhos = rhos * len(gammas)
    return list(zip(rhos, gammas))


def _bound_ref_ok(row, ref):
    return row.get("bound") in ("", None) or bound_ok(_num(row["bound"]), ref)


def check_cli_call(argv, code, stdout, verdict):
    """Check one invocation; returns True when it is a failed operation."""
    cmd = argv[0]
    if code != 0:
        verdict.problem(f"{' '.join(argv)}: exit code {code}")
        return True
    if cmd == "doppler-rho":
        value = float(stdout.strip())
        if not rho_ok(value, oracle.rho(_opt(argv, "--spectrum"), _opt(argv, "--fdt"))):
            verdict.problem(f"{' '.join(argv)}: rho {value!r}")
        return False
    if cmd == "bep":
        branches = _bep_branches(argv)
        det = _opt(argv, "--detector")
        if "--json" in argv:
            row = {k: repr(v) for k, v in json.loads(stdout).items()}
        else:
            row = _parse_csv(stdout)[0]
        ref = oracle.bep(branches, det)
        if "--bound" in argv and not row.get("bound"):
            verdict.problem(f"{' '.join(argv)}: no bound printed")
        if not _bound_ref_ok(row, ref):
            verdict.problem(f"{' '.join(argv)}: bound {row['bound']} < {ref}")
        return not bep_ok(_num(row.get("exact_bep")), ref)
    rows = _parse_csv(stdout)
    keys = _expected_sweep(argv)
    if len(rows) != len(keys):
        verdict.problem(f"{' '.join(argv)}: {len(rows)} rows, expected {len(keys)}")
        return True
    failed = False
    for row, (g, e, r, d) in zip(rows, keys):
        got = (_num(row["gamma_b_db"]), _num(row["eta"]), _num(row["rho"]), row["detector"])
        if got != (float("%.12g" % g), float("%.12g" % e), float("%.12g" % r), d):
            verdict.problem(f"{' '.join(argv)}: row {got} where {(g, e, r, d)} was due")
            return True
        ref = oracle.bep([(r, x) for x in oracle.power_split(g, e)], d)
        failed = failed or not bep_ok(_num(row["exact_bep"]), ref)
        if not _bound_ref_ok(row, ref):
            verdict.problem(f"{' '.join(argv)}: bound {row['bound']} < {ref} at {got}")
        if cmd == "simulate":
            trials = int(row["trials"])
            errors = round(float(row["mc_p_hat"]) * trials)
            if trials != int(_opt(argv, "--trials")) or not mc_ok([errors], trials, ref):
                verdict.problem(f"{' '.join(argv)}: {errors} errors in {trials} at {got}")
    return failed


def check_cli_round(argvs, results, verdict):
    """results = [[exit code, stdout] per argv]; returns failed invocations.

    Two simulate commands that differ only in --workers must print the same
    bytes.
    """
    failed = sum(check_cli_call(argv, code, out, verdict)
                 for argv, (code, out) in zip(argvs, results))
    by_run = {}
    for argv, (_, out) in zip(argvs, results):
        if argv[0] == "simulate":
            key = tuple(a for i, a in enumerate(argv)
                        if a != "--workers" and (i == 0 or argv[i - 1] != "--workers"))
            by_run.setdefault(key, set()).add(out)
    for key, outs in by_run.items():
        if len(outs) != 1:
            verdict.problem(f"simulate output differs between worker counts: {' '.join(key)}")
    return failed


def result_rows(argv, stdout):
    """Result rows one invocation printed (a rho counts as one)."""
    if argv[0] == "doppler-rho" or "--json" in argv:
        return 1
    return len(_parse_csv(stdout))
