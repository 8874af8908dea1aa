"""Child process of the benchmark: imports dpskdiv and runs workload rounds.

Reads one JSON request on stdin and writes one JSON reply on stdout.  The
parent (run.py) builds every input and checks every output; this process only
calls the library, so its peak RSS is the memory of the work itself.

Modes:
  setup  import dpskdiv, run the workload's first operation, and report the
         CLOCK_MONOTONIC time at which it finished;
  run    run whole rounds of one workload for the requested seconds.  With
         trace set, untraced and traced rounds alternate (the ratio of their
         median times is the tracing overhead), and one untraced and one
         traced round of every other workload in the request follow;
  rss    run one estimate_bep call and exit (the parent reads ru_maxrss);
  philox time the Philox draw of one batch of uniforms.
"""

import contextlib
import io
import json
import statistics
import sys
import time
from time import perf_counter

from workloads import FIGURES, MC_WORKERS, has_bound


class Tracer:
    """Spans (name, start, end, parent index) kept in memory."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def call(self, name, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span named `name`."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, t0, t1, parent)


def _call(tr, name, fn, *args, **kwargs):
    """fn(*args, **kwargs), inside a span when a tracer is given."""
    if tr is None:
        return fn(*args, **kwargs)
    return tr.call(name, fn, *args, **kwargs)


def _figure_specs(dp):
    """SweepSpecs for the grids behind `reproduce-fig --figure 1` and `2`."""
    out = {}
    for fig, f in FIGURES.items():
        start, stop, step = f["gamma_b_db"]
        out["fig" + fig] = dp.cli.SweepSpec(
            gamma_start=start, gamma_stop=stop, gamma_step=step, etas=f["etas"],
            rhos=f["rhos"], detectors=tuple(dp.Detector(d) for d in f["detectors"]),
            outputs=f["outputs"])
    return out


# ---------------------------------------------------------------------------
# rounds: each returns (outputs, per-operation seconds)


def cli_round(dp, argvs, tr):
    """In-process dpskdiv.cli.main over the cli-session script, then
    sweep_rows on the two figure grids (their rows are what reproduce-fig
    prints, checked there)."""
    import dpskdiv.cli  # noqa: F401  (the package does not import its cli)

    outputs, lat = [], []
    for argv in argvs:
        buf = io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = _call(tr, "cli.main." + argv[0], dp.cli.main, argv)
        lat.append(perf_counter() - t0)
        outputs.append([code, buf.getvalue()])
    for name, spec in _figure_specs(dp).items():
        _call(tr, "cli.sweep_rows." + name, dp.cli.sweep_rows, spec)
    return outputs, lat


def closed_form_round(dp, scenarios, tr):
    """rho for every spectrum, then exact_bep (and on part of the grid the
    Chernoff bound) for both detectors at every grid point."""
    dets = (dp.Detector.OPTIMUM, dp.Detector.SUBOPTIMUM)
    bound_fns = {dets[0]: (dp.chernoff_optimum, "bep.chernoff_optimum"),
                 dets[1]: (dp.chernoff_suboptimum, "bep.chernoff_suboptimum")}
    rhos_out, bep_out, lat = [], [], []
    for sc in scenarios:
        rhos = [] if sc["rho"] is None else [sc["rho"]]
        for kind, fdt in sc["spectra"]:
            t0 = perf_counter()
            rhos.append(_call(tr, "channel.rho_from_doppler." + kind, dp.rho_from_doppler,
                              dp.DopplerSpec(dp.SpectrumKind(kind), fdt)))
            lat.append(perf_counter() - t0)
        rhos_out.append(rhos)
        branch_rho = [rhos[i] for i in sc["branch_spectrum"]]
        exact_name = "bep.exact_bep.L%d" % len(branch_rho)
        for gi, gammas in enumerate(sc["gammas"]):
            for det in dets:
                t0 = perf_counter()
                cfg = dp.DiversityConfig(
                    tuple(dp.BranchParams(r, g) for r, g in zip(branch_rho, gammas)), det)
                try:
                    p = _call(tr, exact_name, dp.exact_bep, cfg)
                except dp.ConfigError:
                    p = None
                bound = None
                if has_bound(gi):
                    fn, name = bound_fns[det]
                    bound = _call(tr, name, fn, cfg).bound
                lat.append(perf_counter() - t0)
                bep_out.append([p, bound])
    return [rhos_out, bep_out], lat


def monte_carlo_round(dp, points, tr, workers=MC_WORKERS):
    """One operation per point: estimate_bep at workers=1, then workers=2,
    with the same seed and trials."""
    outputs, lat = [], []
    for pt in points:
        det = dp.Detector(pt["detector"])
        cfg = dp.DiversityConfig(tuple(dp.BranchParams(r, g) for r, g in pt["branches"]), det)
        row = []
        t0 = perf_counter()
        for w in workers:
            est = _call(tr, "simulate.estimate_bep.L%d.w%d" % (pt["L"], w), dp.estimate_bep,
                        cfg, pt["trials"], pt["seed"], workers=w)
            row.append([est.errors, est.trials])
        lat.append(perf_counter() - t0)
        outputs.append(row)
    return outputs, lat


ROUNDS = {"cli-session": cli_round, "closed-form": closed_form_round,
          "monte-carlo": monte_carlo_round}


def setup(dp, workload, inputs):
    """The workload's first operation; cli-session's is a child process."""
    if workload == "closed-form":
        sc = dict(inputs[0], gammas=inputs[0]["gammas"][:1])
        closed_form_round(dp, [sc], None)
    else:
        monte_carlo_round(dp, inputs[:1], None, workers=MC_WORKERS[:1])


# ---------------------------------------------------------------------------


def operation_medians(rounds):
    """Each operation's median time over rounds (rounds: per-operation times)."""
    return [statistics.median(times) for times in zip(*rounds)]


def _layer_summary(spans, into):
    """Add the durations (s) of the spans to `into`, per span name."""
    for name, t0, t1, _ in spans:
        into.setdefault(name, []).append(t1 - t0)


def _prefix_counts(spans):
    """Calls per layer (the span-name prefix before the first dot)."""
    out = {}
    for name, *_ in spans:
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0) + 1
    return out


def run(dp, req):
    """Whole rounds for `seconds`; with trace, untraced and traced rounds
    alternate, and one untraced and one traced round of every other workload
    follow."""
    workload, seconds, trace = req["workload"], req["seconds"], req["trace"]
    fn = ROUNDS[workload]
    inputs = req["inputs"][workload]
    first = None
    mismatches = 0
    round_s = {False: [], True: []}
    op_s = []
    durations = {}
    counts = {}
    first_spans = None
    start = perf_counter()
    k = 0
    while True:
        traced = bool(trace) and k % 2 == 1
        tr = Tracer() if traced else None
        t0 = perf_counter()
        outputs, lat = _call(tr, "round." + workload, fn, dp, inputs, tr)
        round_s[traced].append(perf_counter() - t0)
        if traced:
            _layer_summary(tr.spans, durations)
            if first_spans is None:
                first_spans = tr.spans
                counts[workload] = _prefix_counts(tr.spans)
        else:
            op_s.append(lat)
        # repr keeps NaN equal to itself, so only a real change counts.
        if first is None:
            first, first_repr = outputs, repr(outputs)
        elif repr(outputs) != first_repr:
            mismatches += 1
        k += 1
        if perf_counter() - start >= seconds and (not trace or k >= 2):
            break
    for other, other_inputs in req["inputs"].items():
        if other != workload:
            ROUNDS[other](dp, other_inputs, None)  # untraced warm-up
            tr = Tracer()
            tr.call("round." + other, ROUNDS[other], dp, other_inputs, tr)
            _layer_summary(tr.spans, durations)
            counts[other] = _prefix_counts(tr.spans)
    if trace:
        with open(req["trace_path"], "w") as fh:
            json.dump({"workload": workload, "spans": first_spans}, fh)
    return {"outputs": first, "rounds": k, "mismatched_rounds": mismatches,
            "round_s": round_s[False], "traced_round_s": round_s[True],
            "op_medians_s": operation_medians(op_s),
            "layers": {name: {"n": len(d), "median_s": statistics.median(d)}
                       for name, d in durations.items()},
            "calls_per_round": counts,
            "trials_per_batch": dp.simulate.TRIALS_PER_BATCH}


def philox_ms(req):
    """Median time of one Philox draw of a (batch, L, 8) uniform block into a
    buffer that is already mapped, so only the generator is timed."""
    import numpy as np

    buf = np.empty((req["batch"], req["L"], 8))
    times = []
    for k in range(req["repeats"]):
        gen = np.random.Generator(np.random.Philox(key=req["seed"], counter=k << 64))
        t0 = perf_counter()
        gen.random(out=buf)
        times.append(perf_counter() - t0)
    return {"ms": 1e3 * statistics.median(times)}


def main():
    req = json.load(sys.stdin)
    mode = req["mode"]
    if mode == "philox":
        reply = philox_ms(req)
    else:
        import dpskdiv as dp

        if mode == "setup":
            setup(dp, req["workload"], req["inputs"][req["workload"]])
            reply = {"done_monotonic": time.monotonic()}
        elif mode == "rss":
            monte_carlo_round(dp, [req["point"]], None, workers=(req["workers"],))
            reply = {}
        else:
            reply = run(dp, req)
    json.dump(reply, sys.stdout)


if __name__ == "__main__":
    main()
