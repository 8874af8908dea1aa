"""dpskdiv benchmark: one workload, one seed, whole rounds for --seconds.

    python3 perfbench/run.py --workload cli-session --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  The last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}: with --trace 0 the
end-to-end metrics, with --trace 1 the per-layer metrics.  See README.md.

This process builds inputs, computes reference values and checks outputs; it
never imports dpskdiv, numpy or scipy.  The library runs in child processes:
`python -m dpskdiv` for cli-session, worker.py for the others.  Each child is
waited for, and killed and reaped if it overruns or this process is stopped.
"""

import argparse
import contextlib
import dataclasses
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time

import checks
import oracle
import workloads
from worker import operation_medians

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 3
IMPORTTIME_REPEATS = 3
CALL_TIMEOUT_S = 60.0
# BLAS stays single-threaded in every child, so the only parallel work is the
# simulator's own worker threads (at most 2, the machine's nproc).
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {"setup_s": "s", "call_ms": "ms", "points_per_s": "1/s",
                    "peak_rss_mb": "MB"}


def end_to_end(**values):
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


class ChildError(RuntimeError):
    pass


@dataclasses.dataclass
class Child:
    """One finished child process; `spawned` is CLOCK_MONOTONIC at its start."""

    code: int
    stdout: str
    stderr: str
    spawned: float
    wall_s: float
    maxrss_mb: float


def child_env():
    env = dict(os.environ, PYTHONPATH=SRC, **PINNED_THREADS)
    env.pop("DPSKDIV_WORKERS", None)
    return env


def run_child(argv, *, cwd, stdin=None, timeout, tag):
    """Run argv to completion in the foreground and reap it with wait4.

    stdin (bytes) and the output go through files under perfbench/out, so the
    child never blocks on a pipe; the pidfd wait needs no polling.  On a
    timeout the child is killed; on any exception it is killed and reaped
    before the exception propagates.
    """
    paths = [os.path.join(OUT, f"{os.getpid()}-{tag}.{ext}") for ext in ("in", "out", "err")]
    try:
        with open(paths[0], "wb") as fh:
            fh.write(stdin or b"")
        with open(paths[0], "rb") as fin, open(paths[1], "wb") as fout, \
                open(paths[2], "wb") as ferr:
            spawned = time.monotonic()
            proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdin=fin, stdout=fout,
                                    stderr=ferr)
        try:
            fd = os.pidfd_open(proc.pid)
            try:
                ready, _, _ = select.select([fd], [], [], timeout)
            finally:
                os.close(fd)
            if not ready:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            with contextlib.suppress(ChildProcessError):
                os.wait4(proc.pid, 0)
            raise
        wall = time.monotonic() - spawned
        proc.returncode = os.waitstatus_to_exitcode(status)
        if not ready:
            raise ChildError(f"{' '.join(argv[:4])} timed out after {timeout} s")
        outs = []
        for path in paths[1:]:
            with open(path, "r", encoding="utf-8", errors="replace") as fh:
                outs.append(fh.read())
    finally:
        for path in paths:
            if os.path.exists(path):
                os.remove(path)
    return Child(proc.returncode, outs[0], outs[1], spawned, wall, usage.ru_maxrss / 1024.0)


def worker(request, *, timeout, tag):
    """Run worker.py on one JSON request; returns (reply, Child)."""
    child = run_child([sys.executable, os.path.join(HERE, "worker.py")], cwd=ROOT,
                      stdin=json.dumps(request).encode(), timeout=timeout, tag=tag)
    if child.code != 0:
        raise ChildError(f"worker {request['mode']} exited {child.code}: {child.stderr[-2000:]}")
    return json.loads(child.stdout), child


def cli_call(argv, tag):
    return run_child([sys.executable, "-m", "dpskdiv"] + argv, cwd=SRC,
                     timeout=CALL_TIMEOUT_S, tag=tag)


# ---------------------------------------------------------------------------
# inputs


def build_inputs(workload, seed):
    if workload == "cli-session":
        return workloads.cli_script(seed)
    if workload == "closed-form":
        return workloads.closed_form_scenarios(seed)
    return workloads.monte_carlo_points(seed, oracle.bep)


def ops_per_round(workload, inputs):
    if workload == "closed-form":
        points, rhos = workloads.closed_form_points(inputs)
        return points + rhos
    return len(inputs)


def check_round(workload, inputs, outputs, verdict):
    """Failed operations of one round; other misses go to verdict.problems."""
    if workload == "cli-session":
        return checks.check_cli_round(inputs, outputs, verdict)
    if workload == "closed-form":
        return checks.check_closed_form(inputs, outputs, verdict)
    return checks.check_monte_carlo(inputs, outputs, verdict)


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics


def setup_seconds(workload, inputs):
    """Median over fresh interpreters of start to the end of the first call."""
    times = []
    for k in range(SETUP_REPEATS):
        if workload == "cli-session":
            child = cli_call(inputs[0], f"setup{k}")
            if child.code != 0:
                raise ChildError(f"first call exited {child.code}: {child.stderr[-2000:]}")
            times.append(child.wall_s)
        else:
            reply, child = worker({"mode": "setup", "workload": workload,
                                   "inputs": {workload: inputs}},
                                  timeout=CALL_TIMEOUT_S, tag=f"setup{k}")
            times.append(reply["done_monotonic"] - child.spawned)
    return statistics.median(times)


def cli_session(inputs, seconds):
    """Closed loop of CLI invocations, whole rounds, for `seconds`."""
    start = time.monotonic()
    rounds = []
    while True:
        rounds.append([cli_call(argv, f"call{i}") for i, argv in enumerate(inputs)])
        if time.monotonic() - start >= seconds:
            return rounds


def untraced(workload, inputs, seconds, verdict):
    setup = setup_seconds(workload, inputs)
    n_ops = ops_per_round(workload, inputs)
    if workload == "cli-session":
        rounds = cli_session(inputs, seconds)
        first = [[c.code, c.stdout] for c in rounds[0]]
        for calls in rounds[1:]:
            if [[c.code, c.stdout] for c in calls] != first:
                verdict.problem("cli-session: a later round printed different output")
        failed = check_round(workload, inputs, first, verdict)
        op_s = operation_medians([[c.wall_s for c in calls] for calls in rounds])
        rows = sum(checks.result_rows(argv, out) for argv, (_, out) in zip(inputs, first))
        metrics = end_to_end(
            setup_s=setup,
            call_ms=1e3 * statistics.median(op_s),
            points_per_s=rows / sum(op_s),
            peak_rss_mb=max(c.maxrss_mb for calls in rounds for c in calls))
        return metrics, len(rounds) * n_ops, len(rounds) * failed
    reply, child = worker({"mode": "run", "workload": workload, "seconds": seconds,
                           "trace": 0, "inputs": {workload: inputs}},
                          timeout=seconds + 120, tag="run")
    if reply["mismatched_rounds"]:
        verdict.problem(f"{workload}: {reply['mismatched_rounds']} rounds differ from the first")
    failed = check_round(workload, inputs, reply["outputs"], verdict)
    points = n_ops if workload == "monte-carlo" else workloads.closed_form_points(inputs)[0]
    op_s = reply["op_medians_s"]
    metrics = end_to_end(
        setup_s=setup,
        call_ms=1e3 * statistics.median(op_s),
        points_per_s=points / sum(op_s),
        peak_rss_mb=child.maxrss_mb)
    return metrics, reply["rounds"] * n_ops, reply["rounds"] * failed


# ---------------------------------------------------------------------------
# traced run: per-layer metrics


def import_times():
    """Cumulative import time (ms) of numpy, scipy and dpskdiv, medians.

    From `python -X importtime`; a package counts once per outermost import
    of it (scipy arrives as scipy.integrate inside dpskdiv.bep).
    """
    samples = {"numpy": [], "scipy": [], "dpskdiv": []}
    for k in range(IMPORTTIME_REPEATS):
        child = run_child([sys.executable, "-X", "importtime", "-c", "import dpskdiv"],
                          cwd=SRC, timeout=CALL_TIMEOUT_S, tag=f"imp{k}")
        if child.code != 0:
            raise ChildError(f"import dpskdiv exited {child.code}: {child.stderr[-2000:]}")
        entries = []
        for line in child.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                name = parts[2].rstrip()
                depth = len(name) - len(name.lstrip())
                entries.append((depth, name.strip(), int(parts[1])))
        totals = dict.fromkeys(samples, 0)
        stack = []
        # importtime prints children before parents; walk it backwards so
        # that each entry meets its ancestors first.
        for depth, name, cumulative in reversed(entries):
            while stack and stack[-1][0] >= depth:
                stack.pop()
            pkg = name.split(".")[0]
            if pkg in totals and all(a[1] != pkg for a in stack):
                totals[pkg] += cumulative
            stack.append((depth, pkg))
        for pkg, us in totals.items():
            samples[pkg].append(us / 1e3)
    return {f"import.{pkg}_ms": statistics.median(v) for pkg, v in samples.items()}


def traced(workload, seed, seconds, verdict):
    all_inputs = {w: build_inputs(w, seed) for w in workloads.WORKLOADS}
    inputs = all_inputs[workload]
    metrics = {}

    def add(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for name, value in import_times().items():
        add(name, value, "ms")
    reply, _ = worker({"mode": "run", "workload": workload, "seconds": seconds, "trace": 1,
                       "inputs": all_inputs,
                       "trace_path": os.path.join(OUT, f"trace-{workload}.json")},
                      timeout=seconds + 150, tag="trace")
    if reply["mismatched_rounds"]:
        verdict.problem(f"{workload}: {reply['mismatched_rounds']} rounds differ from the first")
    failed = check_round(workload, inputs, reply["outputs"], verdict)
    layers = reply["layers"]

    def median(name):
        return layers[name]["median_s"]

    for sub in ("bep", "sweep", "reproduce-fig", "doppler-rho", "simulate"):
        add(f"cli.main_ms.{sub}", 1e3 * median(f"cli.main.{sub}"), "ms")
    for fig in ("fig1", "fig2"):
        add(f"cli.sweep_rows_ms.{fig}", 1e3 * median(f"cli.sweep_rows.{fig}"), "ms")
    for n in (1, 2, 4, 8):
        add(f"bep.exact_bep_us.L{n}", 1e6 * median(f"bep.exact_bep.L{n}"), "us")
    for fn in ("chernoff_optimum", "chernoff_suboptimum"):
        add(f"bep.{fn}_us", 1e6 * median(f"bep.{fn}"), "us")
    for kind in workloads.SPECTRA:
        add(f"channel.rho_from_doppler_ms.{kind}",
               1e3 * median(f"channel.rho_from_doppler.{kind}"), "ms")
    rates = {}
    for n, w in ((1, 1), (2, 1), (4, 1), (4, 2)):
        key = f"L{n}.w{w}"
        rates[key] = workloads.MC_TRIALS / median(f"simulate.estimate_bep.{key}") / 1e6
        add(f"simulate.mtrials_per_s.{key}", rates[key], "Mtrials/s")
    add("simulate.worker_scaling.L4", rates["L4.w2"] / rates["L4.w1"], "ratio")

    mc = all_inputs["monte-carlo"]
    l4 = next(pt for pt in mc if pt["L"] == 4)
    _, child = worker({"mode": "rss", "point": l4, "workers": 2}, timeout=CALL_TIMEOUT_S,
                      tag="rss")
    add("simulate.peak_rss_mb.L4.w2", child.maxrss_mb, "MB")
    probe, _ = worker({"mode": "philox", "seed": seed, "batch": reply["trials_per_batch"],
                       "L": 4, "repeats": 5}, timeout=CALL_TIMEOUT_S, tag="philox")
    add("simulate.philox_batch_ms.L4", probe["ms"], "ms")

    calls = reply["calls_per_round"]
    add("bep.calls", calls["closed-form"]["bep"], "count")
    add("channel.calls", calls["closed-form"]["channel"], "count")
    per_point = -(-workloads.MC_TRIALS // reply["trials_per_batch"])
    add("simulate.batches", calls["monte-carlo"]["simulate"] * per_point, "count")
    overhead = statistics.median(reply["traced_round_s"]) / statistics.median(reply["round_s"])
    add("trace.overhead_pct", 100.0 * (overhead - 1.0), "%")
    n_ops = ops_per_round(workload, inputs)
    return metrics, reply["rounds"] * n_ops, reply["rounds"] * failed


# ---------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dpskdiv", "__init__.py")):
        print(f"error: no dpskdiv package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    # A stop request unwinds through run_child, which kills and reaps.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.makedirs(OUT, exist_ok=True)

    verdict = checks.Verdict()
    if args.trace:
        metrics, attempted, failed = traced(args.workload, args.seed, args.seconds, verdict)
    else:
        inputs = build_inputs(args.workload, args.seed)
        metrics, attempted, failed = untraced(args.workload, inputs, args.seconds, verdict)
    for msg in verdict.problems[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} attempted = {attempted}, failed = {failed}")
    result = {"correct": not verdict.problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(os.path.join(OUT, f"result-{args.workload}-trace{args.trace}.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
