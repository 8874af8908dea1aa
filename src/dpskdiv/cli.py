"""Command-line front end.

Subcommands: bep (single point), sweep (analytic grid), simulate (Monte
Carlo grid), doppler-rho (spectrum to correlation coefficient),
reproduce-fig (canned figure-data grids).  CSV goes to standard output,
diagnostics to standard error.  Exit codes: 0 success, 2 configuration
error, 3 numerical non-convergence (the rho quadrature at extreme fdT).

dB values are converted to linear SNR by bep.db_to_linear, here and in
bep.power_split, which takes the total SNR in dB; the rest of the library
works in linear SNR throughout.

Options for a subcommand may come from a flat key = value config file
(--config FILE, '#' comments allowed, keys spelled like the long flags with
dashes or underscores); flags given on the command line win over file
values.
"""

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .bep import chernoff_optimum, chernoff_suboptimum, db_to_linear, exact_bep, power_split
from .channel import (
    BranchParams,
    DEFAULT_QUAD_ORDER,
    Detector,
    DiversityConfig,
    DopplerSpec,
    SpectrumKind,
    rho_from_doppler,
)
from .errors import ConfigError, ConvergenceError

CSV_HEADER = "gamma_b_db,eta,rho,detector,exact_bep,bound,mc_p_hat,mc_ci,trials,seed"
WORKERS_ENV = "DPSKDIV_WORKERS"

_OUTPUT_CHOICES = ("exact", "chernoff", "chernoff_improved", "mc")


@dataclass(frozen=True)
class ResultRow:
    gamma_b_db: Optional[float] = None
    eta: Optional[float] = None
    rho: Optional[float] = None
    detector: str = ""
    exact_bep: Optional[float] = None
    bound: Optional[float] = None
    mc_p_hat: Optional[float] = None
    mc_ci: Optional[float] = None
    trials: Optional[int] = None
    seed: Optional[int] = None


@dataclass(frozen=True)
class SweepSpec:
    """Grid description for sweep/simulate: a two-branch power-split sweep."""

    gamma_start: float
    gamma_stop: float
    gamma_step: float
    etas: Tuple[float, ...]
    rhos: Tuple[float, ...]
    detectors: Tuple[Detector, ...]
    outputs: Tuple[str, ...]
    L: int = 2
    mc_trials: Optional[int] = None
    seed: Optional[int] = None
    workers: int = 1
    stop_rel_tol: Optional[float] = None


def _fmt_coord(v: Optional[float]) -> str:
    return "" if v is None else "%.12g" % v


def _fmt_prob(v: Optional[float]) -> str:
    return "" if v is None else "%.9e" % v


def _fmt_int(v: Optional[int]) -> str:
    return "" if v is None else str(v)


def format_row(row: ResultRow) -> str:
    return ",".join([
        _fmt_coord(row.gamma_b_db),
        _fmt_coord(row.eta),
        _fmt_coord(row.rho),
        row.detector,
        _fmt_prob(row.exact_bep),
        _fmt_prob(row.bound),
        _fmt_prob(row.mc_p_hat),
        _fmt_prob(row.mc_ci),
        _fmt_int(row.trials),
        _fmt_int(row.seed),
    ])


def parse_rows(text: str) -> List[ResultRow]:
    """Parse CSV produced by this module back into ResultRows."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ConfigError("missing or unexpected CSV header")
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 10:
            raise ConfigError(f"malformed CSV row: {ln!r}")
        f = lambda s: None if s == "" else float(s)
        i = lambda s: None if s == "" else int(s)
        rows.append(ResultRow(
            gamma_b_db=f(parts[0]), eta=f(parts[1]), rho=f(parts[2]),
            detector=parts[3],
            exact_bep=f(parts[4]), bound=f(parts[5]),
            mc_p_hat=f(parts[6]), mc_ci=f(parts[7]),
            trials=i(parts[8]), seed=i(parts[9]),
        ))
    return rows


def _bound_for(cfg: DiversityConfig, outputs: Sequence[str]) -> Optional[float]:
    if "chernoff_improved" in outputs:
        improved = True
    elif "chernoff" in outputs:
        improved = False
    else:
        return None
    if cfg.detector is Detector.OPTIMUM:
        return chernoff_optimum(cfg, improved=improved).bound
    return chernoff_suboptimum(cfg, improved=improved).bound


def _validate_outputs(outputs: Sequence[str], allow_mc: bool) -> Tuple[str, ...]:
    outputs = tuple(outputs)
    if not outputs:
        raise ConfigError("at least one output is required")
    for o in outputs:
        if o not in _OUTPUT_CHOICES:
            raise ConfigError(f"unknown output {o!r}; choose from {', '.join(_OUTPUT_CHOICES)}")
    if "chernoff" in outputs and "chernoff_improved" in outputs:
        raise ConfigError("choose one bound variant: chernoff or chernoff_improved")
    if "mc" in outputs and not allow_mc:
        raise ConfigError("mc output is only available through the simulate command")
    return outputs


def _grid_values(start: float, stop: float, step: float) -> List[float]:
    if not step > 0.0:
        raise ConfigError(f"step={step} must be positive")
    if stop < start:
        raise ConfigError("empty range: stop is below start")
    span = (stop - start) / step
    # also false for a non-finite start or stop
    if not math.isfinite(span):
        raise ConfigError(f"range {start}:{stop}:{step} must have finite ends and span")
    n = int(math.floor(span + 1e-9)) + 1
    return [start + k * step for k in range(n)]


def sweep_rows(spec: SweepSpec) -> List[ResultRow]:
    """Evaluate a SweepSpec into result rows, lexicographic grid order."""
    if spec.L != 2:
        raise ConfigError("sweeps use the two-branch power split; L must be 2")
    outputs = _validate_outputs(spec.outputs, allow_mc=spec.mc_trials is not None)
    gammas = _grid_values(spec.gamma_start, spec.gamma_stop, spec.gamma_step)
    if not spec.etas:
        raise ConfigError("eta list is empty")
    if not spec.rhos:
        raise ConfigError("rho list is empty")
    if not spec.detectors:
        raise ConfigError("detector list is empty")
    if "mc" in outputs:
        if spec.mc_trials is None:
            raise ConfigError("mc output requires trials")
        from .simulate import estimate_bep  # numpy: only the simulator needs it
    rows = []
    index = 0
    for gamma_b_db in gammas:
        for eta in sorted(spec.etas):
            for rho in sorted(spec.rhos):
                for det in sorted(set(spec.detectors), key=lambda d: d.value):
                    g1, g2 = power_split(gamma_b_db, eta)
                    cfg = DiversityConfig(
                        (BranchParams(rho, g1), BranchParams(rho, g2)), det)
                    exact = exact_bep(cfg) if "exact" in outputs else None
                    bound = _bound_for(cfg, outputs)
                    mc_p = mc_ci = trials = seed = None
                    if "mc" in outputs:
                        est = estimate_bep(cfg, spec.mc_trials, spec.seed + index,
                                           workers=spec.workers,
                                           stop_rel_tol=spec.stop_rel_tol)
                        mc_p, mc_ci = est.p_hat, est.ci95_halfwidth
                        trials, seed = est.trials, est.seed
                    rows.append(ResultRow(
                        gamma_b_db=gamma_b_db, eta=eta, rho=rho,
                        detector=det.value, exact_bep=exact, bound=bound,
                        mc_p_hat=mc_p, mc_ci=mc_ci, trials=trials, seed=seed))
                    index += 1
    return rows


def _print_rows(rows: Sequence[ResultRow]) -> None:
    print(CSV_HEADER)
    for row in rows:
        print(format_row(row))


# ---------------------------------------------------------------------------
# option resolution: command line > config file > hard default


def _load_kv(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    out = {}
    for lineno, line in enumerate(raw, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, val = line.split("=", 1)
        out[key.strip().replace("-", "_")] = val.strip()
    return out


class _Resolver:
    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.file = _load_kv(args.config) if getattr(args, "config", None) else {}

    def get(self, key, conv, default=None, required=False):
        raw = getattr(self.args, key, None)
        if raw is None:
            raw = self.file.get(key)
        if raw is None:
            if required:
                raise ConfigError(f"missing required option --{key.replace('_', '-')}")
            return default
        return conv(raw, key)


def _conv_float(raw: str, key: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"invalid number for {key}: {raw!r}") from None


def _conv_int(raw: str, key: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"invalid integer for {key}: {raw!r}") from None


def _conv_float_list(raw: str, key: str) -> Tuple[float, ...]:
    items = [s.strip() for s in str(raw).split(",") if s.strip()]
    if not items:
        raise ConfigError(f"empty list for {key}")
    return tuple(_conv_float(s, key) for s in items)


def _conv_range(raw: str, key: str) -> Tuple[float, float, float]:
    parts = [s.strip() for s in str(raw).split(":")]
    if len(parts) != 3:
        raise ConfigError(f"{key} must be START:STOP:STEP, got {raw!r}")
    return tuple(_conv_float(s, key) for s in parts)


def _conv_str(raw: str, key: str) -> str:
    return str(raw)


def _conv_detectors(raw: str, key: str) -> Tuple[Detector, ...]:
    name = str(raw).strip().lower()
    if name == "both":
        return (Detector.OPTIMUM, Detector.SUBOPTIMUM)
    try:
        return (Detector(name),)
    except ValueError:
        raise ConfigError(f"unknown detector {raw!r}") from None


def _conv_outputs(raw: str, key: str) -> Tuple[str, ...]:
    items = [s.strip() for s in str(raw).split(",") if s.strip()]
    if not items:
        raise ConfigError("outputs list is empty")
    return tuple(items)


def _default_workers() -> int:
    env = os.environ.get(WORKERS_ENV)
    if env is None:
        return 1
    try:
        n = int(env)
    except ValueError:
        raise ConfigError(f"{WORKERS_ENV}={env!r} is not an integer") from None
    if n < 1:
        raise ConfigError(f"{WORKERS_ENV} must be >= 1")
    return n


# ---------------------------------------------------------------------------
# subcommands


def _branches_from_options(res: _Resolver) -> Tuple[DiversityConfig, Optional[float], Optional[float], Optional[float]]:
    """Build the config for cmd_bep; returns (cfg, gamma_b_db, eta, rho_common)."""
    det = res.get("detector", _conv_detectors, default=(Detector.OPTIMUM,))
    if len(det) != 1:
        raise ConfigError("bep evaluates a single detector; pass optimum or suboptimum")
    gamma_db_list = res.get("gamma_db", _conv_float_list)
    gamma_b_db = res.get("gamma_b_db", _conv_float)
    eta = res.get("eta", _conv_float)
    rhos = res.get("rho", _conv_float_list, required=True)
    if (gamma_db_list is None) == (gamma_b_db is None):
        raise ConfigError("pass either --gamma-db (per branch) or --gamma-b-db with --eta")
    if gamma_db_list is not None:
        gammas = [db_to_linear(db) for db in gamma_db_list]
        total_db = 10.0 * math.log10(sum(gammas)) if sum(gammas) > 0 else None
        eta_out = None
    else:
        if eta is None:
            raise ConfigError("--gamma-b-db requires --eta")
        g1, g2 = power_split(gamma_b_db, eta)
        gammas = [g1, g2]
        total_db = gamma_b_db
        eta_out = eta
    if len(rhos) == 1:
        rhos = rhos * len(gammas)
    if len(rhos) != len(gammas):
        raise ConfigError(f"{len(rhos)} rho values for {len(gammas)} branches")
    want_l = res.get("L", _conv_int)
    if want_l is not None and want_l != len(gammas):
        raise ConfigError(f"--L {want_l} does not match {len(gammas)} branch parameters")
    branches = tuple(BranchParams(r, g) for r, g in zip(rhos, gammas))
    cfg = DiversityConfig(branches, det[0])
    rho_common = rhos[0] if all(r == rhos[0] for r in rhos) else None
    return cfg, total_db, eta_out, rho_common


def cmd_bep(args: argparse.Namespace) -> int:
    res = _Resolver(args)
    cfg, gamma_b_db, eta, rho = _branches_from_options(res)
    bound_kind = res.get("bound", _conv_str)
    outputs = ["exact"]
    if bound_kind is not None:
        outputs.append(bound_kind)
    outputs = _validate_outputs(outputs, allow_mc=False)
    row = ResultRow(
        gamma_b_db=gamma_b_db, eta=eta, rho=rho, detector=cfg.detector.value,
        exact_bep=exact_bep(cfg), bound=_bound_for(cfg, outputs))
    if args.json:
        payload = {k: v for k, v in row.__dict__.items() if v is not None and v != ""}
        print(json.dumps(payload, sort_keys=True))
    else:
        _print_rows([row])
    return 0


def _sweep_spec_from_options(res: _Resolver, with_mc: bool) -> SweepSpec:
    start, stop, step = res.get("gamma_b_db_range", _conv_range, required=True)
    etas = res.get("eta", _conv_float_list, required=True)
    rhos = res.get("rho", _conv_float_list, required=True)
    detectors = res.get("detector", _conv_detectors,
                        default=(Detector.OPTIMUM, Detector.SUBOPTIMUM))
    if with_mc:
        outputs = res.get("outputs", _conv_outputs, default=("exact", "mc"))
        if "mc" not in outputs:
            outputs = outputs + ("mc",)
        trials = res.get("trials", _conv_int, required=True)
        if trials < 1:
            raise ConfigError(f"trials={trials} must be >= 1")
        seed = res.get("seed", _conv_int, default=1)
        workers = res.get("workers", _conv_int, default=_default_workers())
        stop_rel_tol = res.get("stop_rel_tol", _conv_float)
    else:
        outputs = res.get("outputs", _conv_outputs,
                          default=("exact", "chernoff_improved"))
        trials = seed = stop_rel_tol = None
        workers = 1
    return SweepSpec(
        gamma_start=start, gamma_stop=stop, gamma_step=step,
        etas=etas, rhos=rhos, detectors=detectors, outputs=outputs,
        mc_trials=trials, seed=seed, workers=workers, stop_rel_tol=stop_rel_tol)


def cmd_sweep(args: argparse.Namespace) -> int:
    spec = _sweep_spec_from_options(_Resolver(args), with_mc=False)
    _print_rows(sweep_rows(spec))
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    spec = _sweep_spec_from_options(_Resolver(args), with_mc=True)
    _print_rows(sweep_rows(spec))
    return 0


def _read_table(path: str) -> Tuple[Tuple[float, float], ...]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read table file {path}: {exc}") from exc
    table = []
    for lineno, line in enumerate(raw, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.replace(",", " ").split()
        if len(parts) != 2:
            raise ConfigError(f"{path}:{lineno}: expected 'lag value'")
        table.append((_conv_float(parts[0], "lag"), _conv_float(parts[1], "value")))
    return tuple(table)


def cmd_doppler_rho(args: argparse.Namespace) -> int:
    res = _Resolver(args)
    kind_name = res.get("spectrum", _conv_str, required=True).lower()
    try:
        kind = SpectrumKind(kind_name)
    except ValueError:
        raise ConfigError(f"unknown spectrum {kind_name!r}") from None
    table_path = res.get("table", _conv_str)
    if kind is SpectrumKind.TABULATED:
        if table_path is None:
            raise ConfigError("tabulated spectrum requires --table FILE")
        table = _read_table(table_path)
        fdt = res.get("fdt", _conv_float, default=0.0)
    else:
        table = None
        fdt = res.get("fdt", _conv_float, required=True)
    order = res.get("quad_order", _conv_int, default=DEFAULT_QUAD_ORDER)
    rho = rho_from_doppler(DopplerSpec(kind=kind, fdt=fdt, table=table), quad_order=order)
    print("%.11e" % rho)
    return 0


_FIGURE_SPECS = {
    "1": SweepSpec(
        gamma_start=0.0, gamma_stop=30.0, gamma_step=1.0,
        etas=(0.1, 0.5001), rhos=(0.975,),
        detectors=(Detector.OPTIMUM, Detector.SUBOPTIMUM),
        outputs=("exact", "chernoff_improved")),
    "2": SweepSpec(
        gamma_start=0.0, gamma_stop=30.0, gamma_step=1.0,
        etas=(0.4, 0.45, 0.49, 0.4999, 0.5001), rhos=(0.975,),
        detectors=(Detector.OPTIMUM, Detector.SUBOPTIMUM),
        outputs=("exact", "chernoff_improved")),
}


def cmd_reproduce_fig(args: argparse.Namespace) -> int:
    spec = _FIGURE_SPECS.get(args.figure)
    if spec is None:
        raise ConfigError(f"unknown figure {args.figure!r}; choose 1 or 2")
    _print_rows(sweep_rows(spec))
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_config_opt(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key = value file supplying option defaults")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpskdiv",
        description="BEP analysis and simulation for DPSK diversity over "
                    "nonidentical Rayleigh fading branches")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bep", help="evaluate one configuration")
    _add_config_opt(p)
    p.add_argument("--detector", help="optimum or suboptimum (default optimum)")
    p.add_argument("--rho", help="correlation coefficient, single value or comma list")
    p.add_argument("--gamma-db", dest="gamma_db", help="per-branch mean SNR in dB, comma list")
    p.add_argument("--gamma-b-db", dest="gamma_b_db", help="total SNR per bit in dB (two-branch split)")
    p.add_argument("--eta", help="fraction of total energy on branch 1")
    p.add_argument("--L", dest="L", help="number of branches (for cross-checking the lists)")
    p.add_argument("--bound", help="also print a bound: chernoff or chernoff_improved")
    p.add_argument("--json", action="store_true", help="emit a single JSON object instead of CSV")
    p.set_defaults(func=cmd_bep)

    p = sub.add_parser("sweep", help="analytic results over a two-branch grid")
    _add_config_opt(p)
    p.add_argument("--gamma-b-db-range", dest="gamma_b_db_range", help="START:STOP:STEP in dB")
    p.add_argument("--eta", help="comma list of power-split fractions")
    p.add_argument("--rho", help="comma list of correlation coefficients")
    p.add_argument("--detector", help="optimum, suboptimum, or both (default both)")
    p.add_argument("--outputs", help="comma list from exact, chernoff, chernoff_improved")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("simulate", help="Monte Carlo over a two-branch grid")
    _add_config_opt(p)
    p.add_argument("--gamma-b-db-range", dest="gamma_b_db_range", help="START:STOP:STEP in dB")
    p.add_argument("--eta", help="comma list of power-split fractions")
    p.add_argument("--rho", help="comma list of correlation coefficients")
    p.add_argument("--detector", help="optimum, suboptimum, or both (default both)")
    p.add_argument("--outputs", help="comma list; mc is always included")
    p.add_argument("--trials", help="Monte Carlo trials per grid point")
    p.add_argument("--seed", help="base seed; row i uses seed + i (default 1)")
    p.add_argument("--workers", help=f"worker threads (default ${WORKERS_ENV} or 1)")
    p.add_argument("--stop-rel-tol", dest="stop_rel_tol",
                   help="optional early stop: end a point once ci < tol * p_hat")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("doppler-rho", help="fading correlation from a Doppler spectrum")
    _add_config_opt(p)
    p.add_argument("--spectrum", help="jakes, gaussian, rectangular, or tabulated")
    p.add_argument("--fdt", help="normalized Doppler bandwidth (Doppler spread x bit time)")
    p.add_argument("--table", help="covariance table file: 'lag value' per line, lags in bit times")
    p.add_argument("--quad-order", dest="quad_order",
                   help="starting Gauss-Legendre nodes per smooth piece (default 16)")
    p.set_defaults(func=cmd_doppler_rho)

    p = sub.add_parser("reproduce-fig", help="emit the data grid behind a published figure")
    p.add_argument("--figure", required=True, help="1 or 2")
    p.set_defaults(func=cmd_reproduce_fig)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())
