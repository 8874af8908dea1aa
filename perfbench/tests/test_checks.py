"""Self-tests of the benchmark: the oracle agrees with closed forms it does
not share code with, and every check rejects a wrong answer.

    python3 -m pytest perfbench/tests -q

Needs mpmath and pytest; imports neither dpskdiv nor numpy.
"""

import json
import os
import sys

import mpmath
import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH_DIR)

import checks  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BRANCHES = [(0.975, 31.6), (0.99, 3.2), (0.96, 12.0)]


@pytest.mark.parametrize("det", workloads.DETECTORS)
def test_oracle_single_branch_is_beta_over_alpha_plus_beta(det):
    (alpha,), (beta,) = oracle.poles([(0.9, 7.0)], det)
    assert oracle.bep([(0.9, 7.0)], det) == pytest.approx(beta / (alpha + beta), rel=1e-30)


def test_oracle_single_branch_matches_textbook_form():
    # P_b = (1 + gamma (1 - rho)) / (2 (1 + gamma)) for one branch.
    rho, gamma = 0.95, 20.0
    ref = (1 + gamma * (1 - rho)) / (2 * (1 + gamma))
    assert float(oracle.bep([(rho, gamma)], "optimum")) == pytest.approx(ref, rel=1e-14)


@pytest.mark.parametrize("det", workloads.DETECTORS)
@pytest.mark.parametrize("n", [2, 4, 8])
def test_oracle_reproduces_negative_binomial_for_identical_branches(det, n):
    race = oracle.bep([(0.975, 10.0)] * n, det)
    closed = oracle.bep_identical(0.975, 10.0, n, det)
    assert abs(race - closed) <= mpmath.mpf(10) ** -30 * closed


def test_oracle_rho_for_a_constant_covariance_is_one():
    assert oracle.rho("jakes", 0.0) == pytest.approx(1.0, abs=1e-20)


def test_bep_check_rejects_a_scaled_value():
    ref = oracle.bep(BRANCHES, "optimum")
    assert checks.bep_ok(float(ref), ref)
    assert not checks.bep_ok(float(ref) * (1 + 1e-6), ref)
    assert not checks.bep_ok(float(ref) * (1 - 1e-6), ref)


@pytest.mark.parametrize("value", [-1e-3, 1.5, float("nan"), float("inf"), None])
def test_bep_check_rejects_values_outside_zero_one(value):
    assert not checks.bep_ok(value, mpmath.mpf("0.25"), tol=10.0)


def test_bound_check_rejects_a_bound_below_the_oracle():
    ref = oracle.bep(BRANCHES, "suboptimum")
    assert checks.bound_ok(float(ref) * 1.5, ref)
    assert not checks.bound_ok(float(ref) * (1 - 1e-9), ref)


def test_rho_check_rejects_an_error_of_1e_9():
    ref = oracle.rho("gaussian", 0.05)
    assert checks.rho_ok(float(ref), ref)
    assert not checks.rho_ok(float(ref) + 1e-9, ref)


def test_mc_check_rejects_errors_that_differ_between_worker_counts():
    p, n = mpmath.mpf("1.5e-3"), 1 << 18
    expected = round(n * 1.5e-3)
    assert checks.mc_ok([expected, expected], n, p)
    assert not checks.mc_ok([expected, expected + 1], n, p)


def test_mc_check_rejects_a_count_far_from_the_oracle():
    p, n = mpmath.mpf("1.5e-3"), 1 << 18
    assert not checks.mc_ok([2 * round(n * 1.5e-3)] * 2, n, p)


def _closed_form_outputs(scenarios, scale=1.0):
    rhos = [[float(oracle.rho(k, f)) for k, f in sc["spectra"]] for sc in scenarios]
    points = []
    for sc, r in zip(scenarios, rhos):
        branch_rho = [r[i] for i in sc["branch_spectrum"]]
        for gi, gammas in enumerate(sc["gammas"]):
            for det in workloads.DETECTORS:
                ref = float(oracle.bep(list(zip(branch_rho, gammas)), det))
                points.append([ref * scale, 1.0 if workloads.has_bound(gi) else None])
    return [rhos, points]


def _small_scenarios():
    scenarios = workloads.closed_form_scenarios(7)
    picked = [scenarios[0], scenarios[4]]
    return [dict(sc, gammas=sc["gammas"][::40]) for sc in picked]


def test_closed_form_check_counts_scaled_points_as_failed():
    scenarios = _small_scenarios()
    n_points = workloads.closed_form_points(scenarios)[0]
    verdict = checks.Verdict()
    assert checks.check_closed_form(scenarios, _closed_form_outputs(scenarios), verdict) == 0
    assert verdict.problems == []
    verdict = checks.Verdict()
    outputs = _closed_form_outputs(scenarios, scale=1 + 1e-6)
    assert checks.check_closed_form(scenarios, outputs, verdict) == n_points
    assert verdict.problems == []


def test_closed_form_check_flags_a_wrong_rho():
    scenarios = _small_scenarios()
    outputs = _closed_form_outputs(scenarios)
    outputs[0][0][0] += 1e-9
    verdict = checks.Verdict()
    checks.check_closed_form(scenarios, outputs, verdict)
    assert any("rho" in p for p in verdict.problems)


def _bep_csv(exact, bound=None):
    fields = ["15", "0.1", "0.975", "optimum", "%.9e" % exact,
              "" if bound is None else "%.9e" % bound, "", "", "", ""]
    header = "gamma_b_db,eta,rho,detector,exact_bep,bound,mc_p_hat,mc_ci,trials,seed"
    return header + "\n" + ",".join(fields) + "\n"


BEP_ARGV = ["bep", "--gamma-b-db", "15", "--eta", "0.1", "--rho", "0.975",
            "--detector", "optimum", "--bound", "chernoff_improved"]


def test_cli_check_fails_a_scaled_bep_and_rejects_a_low_bound():
    ref = float(oracle.bep([(0.975, g) for g in oracle.power_split("15", "0.1")], "optimum"))
    verdict = checks.Verdict()
    assert not checks.check_cli_call(BEP_ARGV, 0, _bep_csv(ref, 2 * ref), verdict)
    assert checks.check_cli_call(BEP_ARGV, 0, _bep_csv(ref * (1 + 1e-6), 2 * ref), verdict)
    assert verdict.problems == []
    checks.check_cli_call(BEP_ARGV, 0, _bep_csv(ref, 0.5 * ref), verdict)
    assert len(verdict.problems) == 1


def test_cli_check_reads_json_output():
    argv = BEP_ARGV[:-2] + ["--json"]
    ref = float(oracle.bep([(0.975, g) for g in oracle.power_split("15", "0.1")], "optimum"))
    verdict = checks.Verdict()
    assert not checks.check_cli_call(argv, 0, json.dumps({"exact_bep": ref}), verdict)
    assert checks.check_cli_call(argv, 0, json.dumps({"exact_bep": ref * 1.000001}), verdict)


def test_cli_check_rejects_simulate_output_that_depends_on_workers():
    mc = ["simulate", "--gamma-b-db-range", "10:10:4", "--eta", "0.2", "--rho", "0.99",
          "--detector", "optimum", "--trials", "131072", "--seed", "5"]
    argvs = [mc + ["--workers", "1"], mc + ["--workers", "2"]]
    ref = float(oracle.bep([(0.99, g) for g in oracle.power_split(10.0, 0.2)], "optimum"))
    errors = round(131072 * ref)

    def csv(e):
        row = ["10", "0.2", "0.99", "optimum", "%.9e" % ref, "", "%.9e" % (e / 131072),
               "1e-4", "131072", "5"]
        return ("gamma_b_db,eta,rho,detector,exact_bep,bound,mc_p_hat,mc_ci,trials,seed\n"
                + ",".join(row) + "\n")

    verdict = checks.Verdict()
    assert checks.check_cli_round(argvs, [[0, csv(errors)], [0, csv(errors)]], verdict) == 0
    assert verdict.problems == []
    checks.check_cli_round(argvs, [[0, csv(errors)], [0, csv(errors + 1)]], verdict)
    assert any("worker counts" in p for p in verdict.problems)


def test_seeded_inputs_repeat_and_differ_between_seeds():
    assert workloads.cli_script(3) == workloads.cli_script(3)
    assert workloads.cli_script(3) != workloads.cli_script(4)
    a, b = workloads.closed_form_scenarios(3), workloads.closed_form_scenarios(4)
    assert workloads.closed_form_points(a) == workloads.closed_form_points(b)
    assert [sc for sc in a if not sc["name"].startswith("seeded")] == \
        [sc for sc in b if not sc["name"].startswith("seeded")]


def test_end_to_end_metrics_match_benchmark_json():
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
