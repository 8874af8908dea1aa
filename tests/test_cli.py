import json
import math
import os
import subprocess
import sys

import pytest

import dpskdiv
import mp_oracle
from dpskdiv import ConfigError, Detector
from dpskdiv.cli import CSV_HEADER, SweepSpec, format_row, main, parse_rows, sweep_rows


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -------------------------------------------------------------------- bep


def test_bep_l1_closed_form(capsys):
    code, out, _ = run_cli(capsys, "bep", "--L", "1", "--rho", "1",
                           "--gamma-db", "10", "--detector", "optimum")
    assert code == 0
    rows = parse_rows(out)
    assert len(rows) == 1
    assert abs(rows[0].exact_bep - 1.0 / 22.0) < 1e-9
    assert rows[0].detector == "optimum"


def test_bep_uncorrelated_suboptimum(capsys):
    code, out, _ = run_cli(capsys, "bep", "--rho", "0,0", "--gamma-db", "3,7",
                           "--detector", "suboptimum")
    assert code == 0
    assert abs(parse_rows(out)[0].exact_bep - 0.5) < 1e-12


def test_bep_published_point(capsys):
    code, out, _ = run_cli(capsys, "bep", "--gamma-b-db", "15", "--eta", "0.1",
                           "--rho", "0.975", "--detector", "optimum")
    assert code == 0
    row = parse_rows(out)[0]
    assert abs(row.exact_bep - 1.065e-2) / 1.065e-2 < 5e-3
    assert row.gamma_b_db == 15.0 and row.eta == 0.1 and row.rho == 0.975


def test_bep_with_bound(capsys):
    code, out, _ = run_cli(capsys, "bep", "--gamma-b-db", "15", "--eta", "0.1",
                           "--rho", "0.975", "--detector", "optimum",
                           "--bound", "chernoff_improved")
    row = parse_rows(out)[0]
    assert row.bound is not None and row.bound >= row.exact_bep


def test_bep_json(capsys):
    code, out, _ = run_cli(capsys, "bep", "--L", "1", "--rho", "1",
                           "--gamma-db", "10", "--detector", "optimum", "--json")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["exact_bep"] - 1.0 / 22.0) < 1e-9


def test_bep_conflicting_branch_options(capsys):
    code, _, err = run_cli(capsys, "bep", "--rho", "1", "--gamma-db", "10",
                           "--gamma-b-db", "15", "--eta", "0.1")
    assert code == 2
    assert "error" in err


def test_bep_l_mismatch(capsys):
    code, _, err = run_cli(capsys, "bep", "--L", "3", "--rho", "1", "--gamma-db", "10")
    assert code == 2


def test_bep_invalid_rho_exit_code(capsys):
    code, _, err = run_cli(capsys, "bep", "--rho", "1.5", "--gamma-db", "10")
    assert code == 2
    assert "branch 0" in err


# ------------------------------------------------------------------- sweep


def test_sweep_figure_grid_row_count(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--gamma-b-db-range", "0:30:1",
                           "--eta", "0.1,0.5001", "--rho", "0.975",
                           "--detector", "both",
                           "--outputs", "exact,chernoff_improved")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 124


def test_sweep_contains_published_thirty_db_points(capsys):
    _, out, _ = run_cli(capsys, "sweep", "--gamma-b-db-range", "0:30:1",
                        "--eta", "0.1,0.5001", "--rho", "0.975",
                        "--detector", "both",
                        "--outputs", "exact,chernoff_improved")
    rows = [r for r in parse_rows(out) if r.gamma_b_db == 30.0 and r.eta == 0.1]
    by_det = {r.detector: r.exact_bep for r in rows}
    assert abs(by_det["optimum"] - 6.710e-4) / 6.710e-4 < 5e-3
    assert abs(by_det["suboptimum"] - 1.616e-3) / 1.616e-3 < 5e-3


def test_sweep_round_trip(capsys):
    _, out, _ = run_cli(capsys, "sweep", "--gamma-b-db-range", "0:10:5",
                        "--eta", "0.3", "--rho", "0.9,0.975",
                        "--detector", "optimum", "--outputs", "exact")
    rows = parse_rows(out)
    again = "\n".join([CSV_HEADER] + [format_row(r) for r in rows]) + "\n"
    assert again == out
    assert parse_rows(again) == rows


def test_sweep_lexicographic_order(capsys):
    _, out, _ = run_cli(capsys, "sweep", "--gamma-b-db-range", "0:5:5",
                        "--eta", "0.4,0.2", "--rho", "0.975,0.9",
                        "--detector", "both", "--outputs", "exact")
    rows = parse_rows(out)
    keys = [(r.gamma_b_db, r.eta, r.rho, r.detector) for r in rows]
    assert keys == sorted(keys)


def test_sweep_empty_range_is_config_error(capsys):
    code, _, err = run_cli(capsys, "sweep", "--gamma-b-db-range", "10:0:1",
                           "--eta", "0.1", "--rho", "0.975")
    assert code == 2
    assert "empty range" in err


def test_out_of_range_db_is_config_error(capsys):
    # a dB value that overflows a float, or a grid with a non-finite end or
    # span, is a configuration error, not a traceback
    argvs = [
        ["bep", "--gamma-db", "4000", "--rho", "0.9"],
        ["bep", "--gamma-b-db", "4000", "--eta", "0.1", "--rho", "0.9"],
        ["sweep", "--gamma-b-db-range=0:inf:1", "--eta", "0.1", "--rho", "0.9"],
        ["sweep", "--gamma-b-db-range=-inf:30:1", "--eta", "0.1", "--rho", "0.9"],
        ["sweep", "--gamma-b-db-range=0:nan:1", "--eta", "0.1", "--rho", "0.9"],
        ["sweep", "--gamma-b-db-range=-1e308:1e308:1e307", "--eta", "0.1", "--rho", "0.9"],
        ["simulate", "--gamma-b-db-range=0:nan:1", "--eta", "0.1", "--rho", "0.9",
         "--trials", "10"],
    ]
    for argv in argvs:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error: "), argv


def test_sweep_rejects_both_bound_variants(capsys):
    code, _, _ = run_cli(capsys, "sweep", "--gamma-b-db-range", "0:5:5",
                         "--eta", "0.1", "--rho", "0.975",
                         "--outputs", "exact,chernoff,chernoff_improved")
    assert code == 2


def test_sweep_rejects_mc_output(capsys):
    code, _, _ = run_cli(capsys, "sweep", "--gamma-b-db-range", "0:5:5",
                         "--eta", "0.1", "--rho", "0.975", "--outputs", "mc")
    assert code == 2


def test_sweep_rows_mc_requires_seed():
    spec = SweepSpec(gamma_start=10.0, gamma_stop=10.0, gamma_step=1.0, etas=(0.1,),
                     rhos=(0.975,), detectors=(Detector.OPTIMUM,), outputs=("mc",),
                     mc_trials=100)
    with pytest.raises(ConfigError, match="seed"):
        sweep_rows(spec)


def test_sweep_missing_required_option(capsys):
    code, _, err = run_cli(capsys, "sweep", "--eta", "0.1", "--rho", "0.975")
    assert code == 2
    assert "gamma-b-db-range" in err


# ---------------------------------------------------------------- simulate


def test_simulate_rows_and_determinism(capsys):
    argv = ("simulate", "--gamma-b-db-range", "10:15:5", "--eta", "0.1",
            "--rho", "0.975", "--detector", "optimum", "--trials", "200000",
            "--seed", "42")
    code, first, _ = run_cli(capsys, *argv)
    assert code == 0
    code, second, _ = run_cli(capsys, *argv)
    assert code == 0
    assert first.encode() == second.encode()
    rows = parse_rows(first)
    assert len(rows) == 2
    for i, row in enumerate(rows):
        assert row.trials == 200000
        assert row.seed == 42 + i
        assert row.mc_p_hat is not None and row.mc_ci is not None
        assert abs(row.mc_p_hat - row.exact_bep) < 4.0 * row.mc_ci


def test_simulate_worker_invariance(capsys):
    base = ("simulate", "--gamma-b-db-range", "12:12:1", "--eta", "0.2",
            "--rho", "0.9", "--detector", "suboptimum", "--trials", "300000",
            "--seed", "5")
    _, one, _ = run_cli(capsys, *base, "--workers", "1")
    _, four, _ = run_cli(capsys, *base, "--workers", "4")
    assert one == four


def test_simulate_early_stop_worker_invariance(capsys):
    # the rule holds after the first of eight batches at this point
    base = ("simulate", "--gamma-b-db-range", "12:12:1", "--eta", "0.2",
            "--rho", "0.9", "--detector", "optimum", "--trials", "1000000",
            "--seed", "5", "--stop-rel-tol", "0.05")
    _, one, _ = run_cli(capsys, *base, "--workers", "1")
    _, three, _ = run_cli(capsys, *base, "--workers", "3")
    assert one == three
    assert one.splitlines()[1].split(",")[-2] == "131072"  # the trials column


def test_simulate_requires_trials(capsys):
    code, _, err = run_cli(capsys, "simulate", "--gamma-b-db-range", "10:10:1",
                           "--eta", "0.1", "--rho", "0.975")
    assert code == 2
    assert "trials" in err


def test_simulate_env_var_workers(capsys, monkeypatch):
    monkeypatch.setenv("DPSKDIV_WORKERS", "3")
    argv = ("simulate", "--gamma-b-db-range", "12:12:1", "--eta", "0.2",
            "--rho", "0.9", "--detector", "optimum", "--trials", "200000",
            "--seed", "5")
    _, with_env, _ = run_cli(capsys, *argv)
    monkeypatch.delenv("DPSKDIV_WORKERS")
    _, without, _ = run_cli(capsys, *argv)
    assert with_env == without  # worker count never changes totals


def test_simulate_huge_snr_optimum(capsys):
    # gamma = 1e160: the optimum weights must not square (1 + gamma)
    code, out, _ = run_cli(capsys, "simulate", "--gamma-b-db-range", "1600:1600:1",
                           "--eta", "0.5", "--rho", "0.9", "--trials", "10",
                           "--detector", "optimum")
    assert code == 0
    (row,) = parse_rows(out)
    assert row.trials == 10 and 0.0 <= row.mc_p_hat <= 1.0


# ------------------------------------------------------------- doppler-rho


def test_doppler_rho_zero_bandwidth(capsys):
    code, out, _ = run_cli(capsys, "doppler-rho", "--spectrum", "jakes", "--fdt", "0")
    assert code == 0
    assert float(out) == 1.0


def test_doppler_rho_reference_point(capsys):
    code, out, _ = run_cli(capsys, "doppler-rho", "--spectrum", "jakes", "--fdt", "0.05")
    assert code == 0
    assert abs(float(out) - mp_oracle.JAKES_FDT005_DENSE_GRID) < 1e-8
    # 12 significant digits requested
    mantissa = out.strip().split("e")[0]
    assert len(mantissa.replace(".", "").replace("-", "")) == 12


def test_doppler_rho_constant_table(capsys, tmp_path):
    table = tmp_path / "flat.txt"
    table.write_text("0 1\n2.5 1\n")
    code, out, _ = run_cli(capsys, "doppler-rho", "--spectrum", "tabulated",
                           "--table", str(table))
    assert code == 0
    assert abs(float(out) - 1.0) < 1e-10


def test_doppler_rho_kinked_table_exit_code(capsys, tmp_path):
    table = tmp_path / "kink.txt"
    table.write_text("0 1\n0.5 1\n0.6 0.2\n2 0.2\n")
    code, out, _ = run_cli(capsys, "doppler-rho", "--spectrum", "tabulated",
                           "--table", str(table))
    assert code == 0
    assert abs(float(out) - 241.0 / 628.0) < 1e-11


def test_doppler_rho_extreme_fdt_exit_code(capsys):
    # gaussian at fdT = 2000: R(0) underflows to 0 on the coarse rules
    for spectrum, fdt in (("rectangular", "200"), ("gaussian", "2000")):
        code, out, err = run_cli(capsys, "doppler-rho", "--spectrum", spectrum, "--fdt", fdt)
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "not converged" in err


def test_doppler_rho_missing_table(capsys):
    code, _, _ = run_cli(capsys, "doppler-rho", "--spectrum", "tabulated")
    assert code == 2


def test_doppler_rho_bad_spectrum(capsys):
    code, _, _ = run_cli(capsys, "doppler-rho", "--spectrum", "butterworth", "--fdt", "0.1")
    assert code == 2


# ----------------------------------------------------------- reproduce-fig


def test_reproduce_fig_one_grid(capsys):
    code, out, _ = run_cli(capsys, "reproduce-fig", "--figure", "1")
    assert code == 0
    rows = parse_rows(out)
    assert len(rows) == 124
    assert {r.eta for r in rows} == {0.1, 0.5001}
    assert {r.rho for r in rows} == {0.975}
    assert {r.detector for r in rows} == {"optimum", "suboptimum"}
    assert min(r.gamma_b_db for r in rows) == 0.0
    assert max(r.gamma_b_db for r in rows) == 30.0
    assert all(r.exact_bep is not None and r.bound is not None for r in rows)
    assert all(r.exact_bep <= r.bound for r in rows)


def test_reproduce_fig_two_grid(capsys):
    code, out, _ = run_cli(capsys, "reproduce-fig", "--figure", "2")
    assert code == 0
    rows = parse_rows(out)
    assert len(rows) == 31 * 5 * 2
    assert {r.eta for r in rows} == {0.4, 0.45, 0.49, 0.4999, 0.5001}


def test_reproduce_fig_unknown(capsys):
    code, _, _ = run_cli(capsys, "reproduce-fig", "--figure", "7")
    assert code == 2


# ------------------------------------------------------------- config file


def test_config_file_supplies_defaults(capsys, tmp_path):
    cfg = tmp_path / "point.cfg"
    cfg.write_text(
        "# published unbalanced point\n"
        "gamma-b-db = 15\n"
        "eta = 0.1\n"
        "rho = 0.975\n"
        "detector = optimum\n")
    code, out, _ = run_cli(capsys, "bep", "--config", str(cfg))
    assert code == 0
    assert abs(parse_rows(out)[0].exact_bep - 1.065e-2) / 1.065e-2 < 5e-3


def test_flags_override_config_file(capsys, tmp_path):
    cfg = tmp_path / "point.cfg"
    cfg.write_text("gamma-b-db = 15\neta = 0.1\nrho = 0.975\ndetector = optimum\n")
    _, out, _ = run_cli(capsys, "bep", "--config", str(cfg), "--detector", "suboptimum")
    row = parse_rows(out)[0]
    assert row.detector == "suboptimum"
    assert abs(row.exact_bep - 1.093e-2) / 1.093e-2 < 5e-3


def test_config_file_malformed_line(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("rho 0.975\n")
    code, _, err = run_cli(capsys, "bep", "--config", str(cfg))
    assert code == 2
    assert "key = value" in err


def test_config_file_missing(capsys):
    code, _, _ = run_cli(capsys, "bep", "--config", "/nonexistent/file.cfg")
    assert code == 2


POINT = "gamma-b-db = 15\neta = 0.1\nrho = 0.975\n"
GRID = "gamma_b_db_range = 4:8:4\neta = 0.2\nrho = 0.95\ntrials = 5000\n"


@pytest.mark.parametrize("command, text, key", [
    ("simulate", GRID + "sed = 5\n", "--sed=5"),
    ("bep", POINT + "func = x\n", "--func=x"),
    ("bep", POINT + "json = true\n", "--json"),
], ids=["sed", "func", "json"])
def test_config_file_rejects_unknown_keys(capsys, tmp_path, command, text, key):
    # a key is accepted exactly when --key=value is accepted on the command
    # line; a misspelt key must not fall back silently to the default
    cfg = tmp_path / "typo.cfg"
    cfg.write_text(text)
    code, out, err = run_cli(capsys, command, "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and key in err


@pytest.mark.parametrize("command, options", [
    ("sweep", {"gamma_b_db_range": "-10:0:5", "eta": "0.1,0.3", "rho": "0.975",
               "outputs": "exact,chernoff"}),
    ("simulate", {"gamma-b-db-range": "4:8:4", "eta": "0.2", "rho": "0.95",
                  "detector": "optimum", "trials": "20000", "seed": "7",
                  "stop_rel_tol": "0.5", "workers": "2"}),
    ("doppler-rho", {"spectrum": "gaussian", "fdt": "0.03", "quad_order": "8"}),
])
def test_config_file_matches_flags(capsys, tmp_path, command, options):
    cfg = tmp_path / "opts.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in options.items()))
    flags = [f"--{k.replace('_', '-')}={v}" for k, v in options.items()]
    code, from_flags, _ = run_cli(capsys, command, *flags)
    assert code == 0
    code, from_file, _ = run_cli(capsys, command, "--config", str(cfg))
    assert code == 0
    assert from_file.encode() == from_flags.encode()


@pytest.mark.parametrize("argv", [["bep", "--bogus", "1"], []], ids=["unknown-flag", "empty"])
def test_usage_error_returns_code_two(capsys, argv):
    # in-process callers get a return code, not SystemExit
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("argv, named", [
    (["bep", "--rho", "abc", "--gamma-db", "10"], ["--rho", "abc"]),
    (["simulate", "--gamma-b-db-range", "0:10:5", "--eta", "0.1", "--rho", "0.9",
      "--trials", "1e3"], ["--trials", "1e3"]),
    (["sweep", "--gamma-b-db-range", "0:10:5", "--eta", "0.1", "--rho", "0.9",
      "--detector", "nope"], ["--detector", "nope"]),
    (["doppler-rho", "--spectrum", "butterworth", "--fdt", "0.1"],
     ["--spectrum", "butterworth"]),
    (["sweep", "--gamma-b-db-range", "0:30", "--eta", "0.1", "--rho", "0.9"],
     ["--gamma-b-db-range", "0:30"]),
    (["bep", "--gamma-db", "10", "--config", "{cfg}"], ["--rho", "abc"]),
    (["doppler-rho", "--spectrum", "tabulated", "--table", "{table}"],
     ["{table}:2", "0.5 x"]),
    (["bep", "--rho", "0.9", "--gamma-db", "10", "--bound", "exact"], ["--bound", "exact"]),
    (["bep", "--rho", "0.9", "--gamma-db", "10", "--bound", "mc"], ["--bound", "mc"]),
    (["doppler-rho", "--spectrum", "jakes", "--fdt", "0.05", "--quad-order", "512"],
     ["quad_order=512", "256"]),
    (["doppler-rho", "--spectrum", "jakes", "--fdt", "0.05", "--table", "{flat}"],
     ["covariance table", "tabulated"]),
    (["doppler-rho", "--spectrum", "tabulated"], ["covariance table", "tabulated"]),
    (["doppler-rho", "--spectrum", "tabulated", "--table", "{flat}", "--fdt", "0.3"],
     ["fdT=0.3", "tabulated"]),
    (["bep", "--gamma-db", "10", "--eta", "0.3", "--rho", "0.9"], ["--eta", "--gamma-db"]),
], ids=["rho", "trials", "detector", "spectrum", "range", "config-file", "table-line",
        "bound-exact", "bound-mc", "quad-order", "table-not-tabulated", "tabulated-no-table",
        "tabulated-fdt", "eta-with-gamma-db"])
def test_bad_value_error_names_it(capsys, tmp_path, argv, named):
    files = {"cfg": tmp_path / "bad.cfg", "table": tmp_path / "bad.txt",
             "flat": tmp_path / "flat.txt"}
    files["cfg"].write_text("rho = abc\n")
    files["table"].write_text("0 1\n0.5 x\n2 1\n")
    files["flat"].write_text("0 1\n2.5 1\n")
    code, out, err = run_cli(capsys, *[a.format(**files) for a in argv])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    for text in named:
        assert text.format(**files) in err


# ------------------------------------------------------------------ parsing


def test_parse_rejects_foreign_header():
    with pytest.raises(Exception):
        parse_rows("a,b,c\n1,2,3\n")


def test_probability_format_has_ten_significant_digits(capsys):
    _, out, _ = run_cli(capsys, "bep", "--L", "1", "--rho", "0.975",
                        "--gamma-db", "10", "--detector", "optimum")
    field = out.strip().splitlines()[1].split(",")[4]
    mantissa, _, _ = field.partition("e")
    assert len(mantissa.replace(".", "").lstrip("-")) == 10


# ------------------------------------------------------------------ imports

NUMPY_FREE_SCRIPT = """
import contextlib, io, sys
from dpskdiv.cli import main
argvs = [
    ["bep", "--gamma-b-db", "15", "--eta", "0.1", "--rho", "0.975"],
    ["sweep", "--gamma-b-db-range", "0:10:5", "--eta", "0.1", "--rho", "0.975"],
    ["reproduce-fig", "--figure", "1"],
    ["doppler-rho", "--spectrum", "jakes", "--fdt", "0.05"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in argvs]
assert codes == [0, 0, 0, 0], codes
assert "numpy" not in sys.modules, "a closed-form command imported numpy"
import dpskdiv
dir(dpskdiv)
assert "numpy" not in sys.modules, "dir(dpskdiv) imported numpy"
for name in dpskdiv.__all__:
    getattr(dpskdiv, name)  # every exported name resolves
assert dpskdiv.simulate.TRIALS_PER_BATCH > 0
from dpskdiv import estimate_bep
assert callable(estimate_bep)
"""


def test_closed_form_commands_do_not_import_numpy():
    # a fresh interpreter, so no other test has imported numpy already
    src = os.path.dirname(os.path.dirname(dpskdiv.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", NUMPY_FREE_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
