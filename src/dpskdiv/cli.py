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
(--config FILE, '#' comments allowed).  Each line becomes the argument
--key=value (underscores in the key read as dashes), placed before the
command-line flags, so a flag wins over the file and the file over the
default.  A key is therefore accepted exactly when --key=value is accepted
on the command line: an unknown key is an error, and a value-less flag such
as --json cannot come from a file.
"""

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, fields
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
from .simulate import estimate_bep

WORKERS_ENV = "DPSKDIV_WORKERS"

_OUTPUT_CHOICES = ("exact", "chernoff", "chernoff_improved", "mc")


def _column(fmt: str):
    """A CSV column: printf format fmt, empty when the value is None."""
    return field(default=None, metadata={"fmt": fmt})


@dataclass(frozen=True)
class ResultRow:
    gamma_b_db: Optional[float] = _column("%.12g")
    eta: Optional[float] = _column("%.12g")
    rho: Optional[float] = _column("%.12g")
    detector: Optional[str] = _column("%s")
    exact_bep: Optional[float] = _column("%.9e")
    bound: Optional[float] = _column("%.9e")
    mc_p_hat: Optional[float] = _column("%.9e")
    mc_ci: Optional[float] = _column("%.9e")
    trials: Optional[int] = _column("%d")
    seed: Optional[int] = _column("%d")


_COLUMNS = fields(ResultRow)
CSV_HEADER = ",".join(c.name for c in _COLUMNS)


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


@dataclass(frozen=True)
class SweepSpec:
    """Grid description for sweep/simulate: a two-branch power-split sweep,
    checked when built."""

    gamma_start: float
    gamma_stop: float
    gamma_step: float
    etas: Tuple[float, ...]
    rhos: Tuple[float, ...]
    detectors: Tuple[Detector, ...]
    outputs: Tuple[str, ...]
    mc_trials: Optional[int] = None
    seed: Optional[int] = None
    workers: int = 1
    stop_rel_tol: Optional[float] = None

    def __post_init__(self):
        if not self.outputs:
            raise ConfigError("at least one output is required")
        for o in self.outputs:
            if o not in _OUTPUT_CHOICES:
                raise ConfigError(f"unknown output {o!r}; choose from {', '.join(_OUTPUT_CHOICES)}")
        if "chernoff" in self.outputs and "chernoff_improved" in self.outputs:
            raise ConfigError("choose one bound variant: chernoff or chernoff_improved")
        if "mc" in self.outputs and self.mc_trials is None:
            raise ConfigError("mc output is only available through the simulate command")
        top = _grid_values(self.gamma_start, self.gamma_stop, self.gamma_step)[-1]
        for name, values in (("eta", self.etas), ("rho", self.rhos), ("detector", self.detectors)):
            if not values:
                raise ConfigError(f"{name} list is empty")
        if "mc" in self.outputs and self.seed is None:
            raise ConfigError("mc output requires a seed")
        # every grid point's branches are valid if those at the top SNR are:
        # the gammas grow with the SNR, and eta and rho do not depend on it
        for eta in self.etas:
            g1, g2 = power_split(top, eta)
            for rho in self.rhos:
                for det in self.detectors:
                    DiversityConfig((BranchParams(rho, g1), BranchParams(rho, g2)), det)


def format_row(row: ResultRow) -> str:
    values = ((c.metadata["fmt"], getattr(row, c.name)) for c in _COLUMNS)
    return ",".join("" if v is None else fmt % v for fmt, v in values)


def _row(cfg: DiversityConfig, outputs: Sequence[str], **columns) -> ResultRow:
    """The row of one point: the given columns, plus exact_bep and the bound
    (chernoff or chernoff_improved) when outputs name them."""
    if "exact" in outputs:
        columns["exact_bep"] = exact_bep(cfg)
    if "chernoff" in outputs or "chernoff_improved" in outputs:
        chernoff = chernoff_optimum if cfg.detector is Detector.OPTIMUM else chernoff_suboptimum
        columns["bound"] = chernoff(cfg, improved="chernoff_improved" in outputs).bound
    return ResultRow(detector=cfg.detector.value, **columns)


def sweep_rows(spec: SweepSpec) -> List[ResultRow]:
    """Evaluate a SweepSpec into result rows, lexicographic grid order."""
    rows = []
    for gamma_b_db in _grid_values(spec.gamma_start, spec.gamma_stop, spec.gamma_step):
        for eta in sorted(spec.etas):
            for rho in sorted(spec.rhos):
                for det in sorted(set(spec.detectors), key=lambda d: d.value):
                    g1, g2 = power_split(gamma_b_db, eta)
                    cfg = DiversityConfig(
                        (BranchParams(rho, g1), BranchParams(rho, g2)), det)
                    mc = {}
                    if "mc" in spec.outputs:
                        est = estimate_bep(cfg, spec.mc_trials, spec.seed + len(rows),
                                           workers=spec.workers,
                                           stop_rel_tol=spec.stop_rel_tol)
                        mc = dict(mc_p_hat=est.p_hat, mc_ci=est.ci95_halfwidth,
                                  trials=est.trials, seed=est.seed)
                    rows.append(_row(cfg, spec.outputs, gamma_b_db=gamma_b_db, eta=eta,
                                     rho=rho, **mc))
    return rows


def _print_rows(rows: Sequence[ResultRow]) -> None:
    print(CSV_HEADER)
    for row in rows:
        print(format_row(row))


# ---------------------------------------------------------------------------
# option values: argparse type= converters and the files options point to


class _Parser(argparse.ArgumentParser):
    """Raises every usage error (bad value, missing option, unknown flag) as
    ConfigError, so main() returns 2 instead of exiting."""

    def error(self, message: str):
        raise ConfigError(message)


# --config alone: the parent parser of every subcommand that takes it, and the
# pre-parser that finds the file before the full parse
_CONFIG = _Parser(add_help=False)
_CONFIG.add_argument("--config", help="flat key = value file supplying option defaults")


def _lines(path: str, what: str) -> List[Tuple[int, str]]:
    """(line number, text) of each non-blank line, '#' comments removed."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read {what} file {path}: {exc}") from exc
    stripped = ((lineno, line.split("#", 1)[0].strip()) for lineno, line in enumerate(raw, 1))
    return [(lineno, line) for lineno, line in stripped if line]


def _with_config(argv: List[str]) -> List[str]:
    """argv with the --config file's lines inserted as --key=value arguments
    right after the subcommand name, so later command-line flags win."""
    path = _CONFIG.parse_known_args(argv[1:])[0].config
    if path is None:
        return argv
    flags = []
    for lineno, line in _lines(path, "config"):
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, val = line.split("=", 1)
        flags.append(f"--{key.strip().replace('_', '-')}={val.strip()}")
    return argv[:1] + flags + argv[1:]


def _names(raw: str) -> Tuple[str, ...]:
    items = tuple(s.strip() for s in raw.split(",") if s.strip())
    if not items:
        raise argparse.ArgumentTypeError(f"empty list {raw!r}")
    return items


def _floats(raw: str) -> Tuple[float, ...]:
    try:
        return tuple(float(s) for s in _names(raw))
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number list {raw!r}") from None


def _range(raw: str) -> Tuple[float, float, float]:
    try:
        start, stop, step = (float(s) for s in raw.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected START:STOP:STEP in dB, got {raw!r}") from None
    return start, stop, step


def _detectors(raw: str) -> Tuple[Detector, ...]:
    name = raw.strip().lower()
    if name == "both":
        return (Detector.OPTIMUM, Detector.SUBOPTIMUM)
    try:
        return (Detector(name),)
    except ValueError:
        raise argparse.ArgumentTypeError(f"unknown detector {raw!r}") from None


def _spectrum(raw: str) -> SpectrumKind:
    try:
        return SpectrumKind(raw.lower())
    except ValueError:
        raise argparse.ArgumentTypeError(f"unknown spectrum {raw!r}") from None


def _read_table(path: str) -> Tuple[Tuple[float, float], ...]:
    table = []
    for lineno, line in _lines(path, "table"):
        parts = line.replace(",", " ").split()
        if len(parts) != 2:
            raise ConfigError(f"{path}:{lineno}: expected 'lag value'")
        try:
            table.append((float(parts[0]), float(parts[1])))
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: invalid number in {line!r}") from None
    return tuple(table)


# ---------------------------------------------------------------------------
# subcommands


def cmd_bep(args: argparse.Namespace) -> int:
    if len(args.detector) != 1:
        raise ConfigError("bep evaluates a single detector; pass optimum or suboptimum")
    if (args.gamma_db is None) == (args.gamma_b_db is None):
        raise ConfigError("pass either --gamma-db (per branch) or --gamma-b-db with --eta")
    if args.gamma_db is not None:
        if args.eta is not None:
            raise ConfigError("--eta splits --gamma-b-db and cannot go with --gamma-db")
        gammas = [db_to_linear(db) for db in args.gamma_db]
        # summed relative to the largest branch: the sum of valid branches
        # can overflow a float where its dB value cannot
        top = max(gammas)
        total_db = (max(args.gamma_db) + 10.0 * math.log10(sum(g / top for g in gammas))
                    if top > 0 else None)
        eta = None
    else:
        if args.eta is None:
            raise ConfigError("--gamma-b-db requires --eta")
        gammas = power_split(args.gamma_b_db, args.eta)
        total_db, eta = args.gamma_b_db, args.eta
    rhos = args.rho
    if len(rhos) == 1:
        rhos = rhos * len(gammas)
    if len(rhos) != len(gammas):
        raise ConfigError(f"{len(rhos)} rho values for {len(gammas)} branches")
    if args.L is not None and args.L != len(gammas):
        raise ConfigError(f"--L {args.L} does not match {len(gammas)} branch parameters")
    cfg = DiversityConfig(tuple(BranchParams(r, g) for r, g in zip(rhos, gammas)),
                          args.detector[0])
    row = _row(cfg, ("exact", args.bound), gamma_b_db=total_db, eta=eta,
               rho=rhos[0] if all(r == rhos[0] for r in rhos) else None)
    if args.json:
        payload = {k: v for k, v in asdict(row).items() if v is not None}
        print(json.dumps(payload, sort_keys=True))
    else:
        _print_rows([row])
    return 0


def cmd_grid(args: argparse.Namespace) -> int:
    """sweep and simulate: the two-branch power-split grid; simulate adds mc."""
    start, stop, step = args.gamma_b_db_range
    outputs, mc = args.outputs, {}
    if args.command == "simulate":
        if "mc" not in outputs:
            outputs += ("mc",)
        mc = dict(mc_trials=args.trials, seed=args.seed, workers=args.workers,
                  stop_rel_tol=args.stop_rel_tol)
    _print_rows(sweep_rows(SweepSpec(
        gamma_start=start, gamma_stop=stop, gamma_step=step, etas=args.eta, rhos=args.rho,
        detectors=args.detector, outputs=outputs, **mc)))
    return 0


def cmd_doppler_rho(args: argparse.Namespace) -> int:
    if args.fdt is None and args.spectrum is not SpectrumKind.TABULATED:
        raise ConfigError("missing required option --fdt")
    # DopplerSpec rejects a table given with another spectrum, or missing
    table = None if args.table is None else _read_table(args.table)
    spec = DopplerSpec(args.spectrum, 0.0 if args.fdt is None else args.fdt, table)
    print("%.11e" % rho_from_doppler(spec, quad_order=args.quad_order))
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
    _print_rows(sweep_rows(_FIGURE_SPECS[args.figure]))
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dpskdiv",
        description="BEP analysis and simulation for DPSK diversity over "
                    "nonidentical Rayleigh fading branches")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bep", parents=[_CONFIG], help="evaluate one configuration")
    p.add_argument("--detector", type=_detectors, default=(Detector.OPTIMUM,),
                   help="optimum or suboptimum (default optimum)")
    p.add_argument("--rho", type=_floats, required=True,
                   help="correlation coefficient, single value or comma list")
    p.add_argument("--gamma-db", type=_floats, help="per-branch mean SNR in dB, comma list")
    p.add_argument("--gamma-b-db", type=float, help="total SNR per bit in dB (two-branch split)")
    p.add_argument("--eta", type=float, help="fraction of total energy on branch 1")
    p.add_argument("--L", type=int, help="number of branches (for cross-checking the lists)")
    p.add_argument("--bound", choices=("chernoff", "chernoff_improved"),
                   help="also print a bound: chernoff or chernoff_improved")
    p.add_argument("--json", action="store_true", help="emit a single JSON object instead of CSV")
    p.set_defaults(func=cmd_bep)

    for name, help_, outputs, outputs_help in (
            ("sweep", "analytic results over a two-branch grid", ("exact", "chernoff_improved"),
             "comma list from exact, chernoff, chernoff_improved"),
            ("simulate", "Monte Carlo over a two-branch grid", ("exact", "mc"),
             "comma list; mc is always included")):
        p = sub.add_parser(name, parents=[_CONFIG], help=help_)
        p.add_argument("--gamma-b-db-range", type=_range, required=True,
                       help="START:STOP:STEP in dB")
        p.add_argument("--eta", type=_floats, required=True,
                       help="comma list of power-split fractions")
        p.add_argument("--rho", type=_floats, required=True,
                       help="comma list of correlation coefficients")
        p.add_argument("--detector", type=_detectors,
                       default=(Detector.OPTIMUM, Detector.SUBOPTIMUM),
                       help="optimum, suboptimum, or both (default both)")
        p.add_argument("--outputs", type=_names, default=outputs, help=outputs_help)
        if name == "simulate":
            p.add_argument("--trials", type=int, required=True,
                           help="Monte Carlo trials per grid point")
            p.add_argument("--seed", type=int, default=1,
                           help="base seed; row i uses seed + i (default 1)")
            # a string default goes through type= too, only when the flag is absent
            p.add_argument("--workers", type=int, default=os.environ.get(WORKERS_ENV, "1"),
                           help=f"worker threads (default ${WORKERS_ENV} or 1)")
            p.add_argument("--stop-rel-tol", type=float,
                           help="optional early stop: end a point after the first batch whose "
                                "95%% Wald half-width is below tol * p_hat, with at least "
                                "100 errors seen")
        p.set_defaults(func=cmd_grid)

    p = sub.add_parser("doppler-rho", parents=[_CONFIG],
                       help="fading correlation from a Doppler spectrum")
    p.add_argument("--spectrum", type=_spectrum, required=True,
                   help="jakes, gaussian, rectangular, or tabulated")
    p.add_argument("--fdt", type=float,
                   help="normalized Doppler bandwidth (Doppler spread x bit time)")
    p.add_argument("--table", help="covariance table file: 'lag value' per line, lags in bit times")
    p.add_argument("--quad-order", type=int, default=DEFAULT_QUAD_ORDER,
                   help="starting Gauss-Legendre nodes per smooth piece, 2 to 256 (default 16)")
    p.set_defaults(func=cmd_doppler_rho)

    p = sub.add_parser("reproduce-fig", help="emit the data grid behind a published figure")
    p.add_argument("--figure", required=True, choices=_FIGURE_SPECS, help="1 or 2")
    p.set_defaults(func=cmd_reproduce_fig)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(_with_config(argv))
        return args.func(args)
    except (ConfigError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, ConvergenceError) else 2


def entry() -> None:
    sys.exit(main())
