"""Evidence benchmark: closed-loop workloads against the levidence package.

Run from the repository root:

    python3 perfbench/run.py --workload conjugate_suite --seed 1 \
        --seconds 20 --trace 0

``--trace 0`` times rounds of the workload, untraced, for about ``--seconds``
and reports the end-to-end metrics.  ``--trace 1`` runs a fixed number of
rounds, each untraced, then again with every layer boundary wrapped (and, on
model_selection, once more at ``--workers 1``), and reports the per-layer
metrics; its spans go to ``perfbench/out/``.  Metric names and
units are those of ``BENCHMARK.json``.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 2     # extra set-ups in child processes, for a median of 3
MAX_ROUNDS = 32      # round inputs built for an untraced run; reused after


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_package():
    """Import levidence from this checkout's src/, and only from there."""
    sys.path.insert(0, str(SRC))
    import levidence
    where = Path(levidence.__file__).resolve().parent
    if where != SRC / "levidence":
        raise ImportError("levidence found at %s, not under %s"
                          % (where, SRC))


def run_boxed(workload, inputs, seconds, tracer, workers, workdir):
    """Closed loop: rounds one after another while the next should fit."""
    rounds = []
    start = perf_counter()
    for inp in itertools.cycle(inputs):
        rounds.append(workload.run_round(inp, tracer, workers, workdir))
        elapsed = perf_counter() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


def setup_probes(args):
    """Set-up seconds of SETUP_PROBES fresh processes."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--setup-only"]
    out = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        out.append(float(done.stdout.split()[-1]))
    return out


def with_units(values, specs):
    names = [s["name"] for s in specs]
    if sorted(values) != sorted(names):
        raise RuntimeError("metrics %s do not match BENCHMARK.json %s"
                           % (sorted(values), sorted(names)))
    return {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
            for s in specs}


def print_estimators(rounds):
    by_name = {}
    for r in rounds:
        for e in r.estimates:
            by_name.setdefault(e.estimator, []).append(e)
    print("%-9s %4s %11s %9s %12s %11s" % ("estimator", "n", "median_s",
                                          "evals", "abs_err_nats",
                                          "gate_misses"))
    for name, es in by_name.items():
        timed = [e.seconds for e in es if e.seconds is not None]
        print("%-9s %4d %11s %9.0f %12.4g %11d" % (
            name, len(es),
            "%.4f" % statistics.median(timed) if timed else "-",
            statistics.fmean(e.evals for e in es),
            statistics.fmean(e.abs_error for e in es),
            sum(e.gate_ok is False for e in es)))


def print_layers(tracer):
    stats = sorted(tracer.stats().items(), key=lambda kv: -kv[1][2])
    print("%-28s %10s %10s %10s" % ("layer", "calls", "total_s", "self_s"))
    for name, (calls, total, own) in stats:
        print("%-28s %10d %10.4f %10.4f" % (name, calls, total, own))


def same_outputs(a, b):
    """Problems found comparing the results of two runs of the same rounds."""
    problems = []
    for ra, rb in zip(a, b):
        if ra.outputs != rb.outputs:
            problems.append("output files differ: %s" % sorted(
                k for k in ra.outputs if ra.outputs[k] != rb.outputs.get(k)))
        pairs = zip(ra.estimates, rb.estimates)
        if any((x.evals, x.abs_error) != (y.evals, y.abs_error)
               for x, y in pairs):
            problems.append("estimates differ between the two runs")
    return problems


def main(argv=None):
    args = parse_args(argv)
    t0 = perf_counter()
    try:
        import_package()
    except ImportError as exc:
        print("perfbench: cannot import levidence: %s" % exc, file=sys.stderr)
        return 2
    import layers
    import tracer as tracing
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in workloads.WORKLOADS:
        print("perfbench: unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(workloads.WORKLOADS)),
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    workers = min(workloads.nproc(), workloads.REPLICATIONS)
    n_rounds = workload.trace_rounds if args.trace else MAX_ROUNDS

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        inputs = workload.setup(args.seed, range(n_rounds), workdir)
        setup_s = perf_counter() - t0
        if args.setup_only:
            print(repr(setup_s))
            return 0
        warnings.simplefilter("ignore")
        null = tracing.NullTracer()

        if not args.trace:
            setups = [setup_s] + setup_probes(args)
            rounds = run_boxed(workload, inputs, args.seconds, null, workers,
                               workdir)
            estimates = [e for r in rounds for e in r.estimates]
            evals = sum(e.evals for e in estimates)
            values = {
                "setup_s": statistics.median(setups),
                "wall_s": statistics.median(r.wall for r in rounds),
                "likelihood_evals_per_s": evals / sum(r.wall for r in rounds),
                "evals_per_estimate": evals / len(estimates),
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            metrics = with_units(values, spec["end_to_end"])
            print("workload=%s seed=%d setups=%s rounds=%s"
                  % (workload.name, args.seed,
                     ",".join("%.4f" % s for s in setups),
                     ",".join("%.4f" % r.wall for r in rounds)))
            print_estimators(rounds)
        else:
            # phases alternate round by round, so that a drift in machine
            # speed falls on both sides of each comparison
            untraced, traced, serial, problems = [], [], [], []
            tracer = tracing.Tracer()
            for r, inp in enumerate(inputs):
                untraced.append(workload.run_round(inp, null, workers,
                                                   workdir))
                layers.install(tracer)
                try:
                    # fresh inputs, so make_benchmark's problems get wrapped
                    traced_inp, = workload.setup(args.seed, [r], workdir)
                    traced.append(workload.run_round(traced_inp, tracer,
                                                     workers, workdir))
                finally:
                    tracer.restore()
                problems += same_outputs(untraced[-1:], traced[-1:])
                if workload.name == "model_selection":
                    # the single-threaded baseline; its files must match
                    serial.append(workload.run_round(inp, null, 1, workdir))
                    problems += same_outputs(untraced[-1:], serial[-1:])
            for e in traced[-1].estimates:
                e.problems += problems
            rounds = untraced + traced + serial
            estimates = [e for r in rounds for e in r.estimates]
            tracer.write(OUT / ("spans-%s-%d.jsonl" % (workload.name,
                                                       args.seed)))
            print_layers(tracer)
            print_estimators(untraced)
            metrics = with_units(
                layers.layer_metrics(tracer, untraced, traced, serial,
                                     workers),
                spec["per_layer"])

        for name, m in metrics.items():
            print("%-32s %14.6g %s" % (name, m["value"], m["unit"]))
        failed = [e for e in estimates if e.problems]
        for e in failed[:10]:
            print("FAILED %s: %s" % (e.estimator, "; ".join(e.problems)))
        print(json.dumps({"correct": not failed,
                          "attempted": len(estimates),
                          "failed": len(failed),
                          "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
