"""Command-line front end.

Three verbs: `run` executes a configured estimator (optionally replicated)
and writes trace and summary tables, `select` turns per-model run records
into posterior model probabilities, and `convergence` sweeps evaluation
budgets to tabulate error against cost.

Config files are INI-style: [experiment], [stopping], a section named after
the estimator (with the KernelConfig keys if its config has a kernel) and,
if its config has a level_policy, [level].  Keys are the field names of the
config dataclasses; an unknown key or section is an error.
All randomness flows from the configured seed.  With --workers N, the
replications of a run (and of each budget of a sweep) run in a pool of
min(N, replications, usable CPUs) forked processes; when that is 1, when the
platform has no `fork` start method, or when this process runs other
threads, they run one after another in this process.  Results are gathered
in seed order either way, so outputs are byte identical for a given
(config, seed) at any worker count.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import math
import os
import re
import sys
import time
from pathlib import Path

import numpy as np

from .baselines import NestedConfig, run_mc, run_nested
from .core import ConfigFieldError
from .lla_is import ISConfig, run_lla_is
from .lla_mcmc import KernelConfig, MCMCConfig, run_lla_mcmc
from .lla_ss import SSConfig, run_lla_ss
from .models import BENCHMARK_NAMES, make_benchmark
from .schedule import LevelPolicy, StoppingPolicy
from .selection import ModelSet, posterior_model_probabilities

ESTIMATOR_NAMES = ("mc", "nested", "lla_is", "lla_ss", "lla_mcmc")

TRACE_HEADER = ["iteration", "log_lambda", "chi", "log_increment",
                "cumulative_evals"]
SUMMARY_HEADER = ["replication", "seed", "log_evidence",
                  "reference_log_evidence", "error_percent", "cov_percent",
                  "termination_reason", "total_evals"]
CONVERGENCE_HEADER = ["budget", "mean_abs_error_percent", "cov_percent"]


class ConfigError(Exception):
    """Validation failure with a file/line location."""

    def __init__(self, path, line, message):
        # the arguments stay in args, so the error survives pickling out of
        # a worker process
        super().__init__(path, line, message)

    def __str__(self):
        return "%s:%d: %s" % self.args


def _fmt(x):
    """Stable decimal rendering for table cells."""
    if isinstance(x, float):
        if math.isinf(x):
            return "-inf" if x < 0 else "inf"
        return "%.10g" % x
    return str(x)


def _key_line(path, section, key=None):
    """Line number of a key inside a section, else of the section's header,
    else 1."""
    header, in_section = 1, False
    try:
        lines = Path(path).read_text().splitlines()
    except OSError:
        return 1
    for i, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line.startswith("[") and line.endswith("]"):
            in_section = line[1:-1].strip() == section
            if in_section:
                header = i
                if key is None:
                    return i
        elif in_section and re.match("[^=:]*", line)[0].strip() == key:
            return i
    return header


def _parse_list(raw, parse=int):
    return [parse(t) for t in raw.split(",") if t.strip()]


def _args_list(raw, parse, option):
    """A comma-separated command-line list; a bad item exits 2 at <args>."""
    try:
        return _parse_list(raw, parse)
    except ValueError:
        raise ConfigError("<args>", 1, "bad value for %s: %r" % (option, raw))


# INI value parsers by field annotation; other fields hold config objects
_PARSERS = {"int": int, "float": float, "float | None": float,
            "tuple": _parse_list}

EXPERIMENT_KEYS = {"benchmark": str, "estimator": str, "seed": int,
                   "replications": int}


def _keys(*classes):
    """Parsers of the INI keys of config dataclasses: their field names."""
    return {f.name: _PARSERS[f.type] for cls in classes
            for f in dataclasses.fields(cls) if f.type in _PARSERS}


def _section(cfg, name, parsers):
    """Parsed values of the keys present in section `name`.

    Unknown keys and unparseable values are ConfigErrors at their line.
    """
    path, parser = cfg["path"], cfg["parser"]
    if not parser.has_section(name):
        return {}
    values = {}
    for key, raw in parser.items(name):
        if key not in parsers:
            raise ConfigError(path, _key_line(path, name, key),
                              "unknown key '%s' in [%s]" % (key, name))
        try:
            values[key] = parsers[key](raw)
        except (KeyError, TypeError, ValueError):
            raise ConfigError(path, _key_line(path, name, key),
                              "bad value for '%s': %r" % (key, raw))
    return values


def load_config(path):
    """Parse and validate an experiment config file."""
    # no section name can be empty, so [DEFAULT] is an ordinary section
    # that no estimator reads, not defaults copied into every section
    parser = configparser.ConfigParser(default_section="")
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(path, 1, "cannot read config: %s" % exc)
    except configparser.Error as exc:
        line = getattr(exc, "lineno", 1) or 1
        raise ConfigError(path, line, "parse error: %s" % exc.message)

    if not parser.has_section("experiment"):
        raise ConfigError(path, 1, "missing [experiment] section")
    cfg = {"path": path, "parser": parser, "replications": 1}
    cfg.update(_section(cfg, "experiment", EXPERIMENT_KEYS))
    for key in ("benchmark", "estimator", "seed"):
        if key not in cfg:
            raise ConfigError(path, _key_line(path, "experiment"),
                              "missing required field '%s' in [experiment]"
                              % key)

    estimator, benchmark = cfg["estimator"], cfg["benchmark"]
    if estimator not in ESTIMATOR_NAMES:
        raise ConfigError(path, _key_line(path, "experiment", "estimator"),
                          "unknown estimator '%s' (choose from %s)"
                          % (estimator, ", ".join(ESTIMATOR_NAMES)))
    if benchmark not in BENCHMARK_NAMES or benchmark.endswith("_set"):
        raise ConfigError(path, _key_line(path, "experiment", "benchmark"),
                          "unknown or non-runnable benchmark '%s'" % benchmark)
    if cfg["replications"] < 1:
        raise ConfigError(path, _key_line(path, "experiment", "replications"),
                          "replications must be >= 1")
    _check_seed(cfg["seed"], path, _key_line(path, "experiment", "seed"))
    return cfg


def _check_seed(seed, path, line):
    if not 0 <= seed < 2**64:
        raise ConfigError(path, line,
                          "seed must be a 64-bit nonnegative integer")


def _build(cfg, name, cls, values, **given):
    """cls(**given, **values); a rejected field points at its key in [name],
    or at the header when the file does not set it."""
    try:
        return cls(**given, **values)
    except ConfigFieldError as exc:
        raise ConfigError(cfg["path"], _key_line(cfg["path"], name, exc.field),
                          str(exc))


def _config(cfg, name, cls, **given):
    """A config dataclass from section `name`, keyed by its field names."""
    return _build(cfg, name, cls, _section(cfg, name, _keys(cls)), **given)


def _estimator_runner(cfg, problem, stopping):
    """Bind the configured estimator to a callable of one seed argument.

    The table is built per call, so it holds this module's run functions as
    they are then.  The sections read are those the module docstring lists.
    """
    name, path = cfg["estimator"], cfg["path"]
    cls, run = {"mc": (None, run_mc), "nested": (NestedConfig, run_nested),
                "lla_is": (ISConfig, run_lla_is),
                "lla_ss": (SSConfig, run_lla_ss),
                "lla_mcmc": (MCMCConfig, run_lla_mcmc)}[name]
    fields = {f.name for f in dataclasses.fields(cls)} if cls else set()
    read = {"experiment", "stopping", name} | (
        {"level"} if "level_policy" in fields else set())
    for section in cfg["parser"].sections():
        if section not in read:
            raise ConfigError(path, _key_line(path, section),
                              "%s does not read [%s]" % (name, section))
    if cls is None:
        n = _section(cfg, name, {"n": int}).get("n", 20000)
        if n < 1:
            raise ConfigError(path, _key_line(path, name, "n"),
                              "n must be >= 1")
        return lambda s: run(problem, n, s)

    given = {"stopping": stopping}
    if "level_policy" in fields:
        given["level_policy"] = _config(cfg, "level", LevelPolicy)
    values = _section(cfg, name, _keys(cls, KernelConfig) if "kernel" in fields
                      else _keys(cls))
    kernel = {k: values.pop(k) for k in _keys(KernelConfig) if k in values}
    if kernel:
        given["kernel"] = _build(cfg, name, KernelConfig, kernel)
    conf = _build(cfg, name, cls, values, **given)

    def runner(seed):
        try:
            return run(problem, conf, seed)
        except ConfigFieldError as exc:  # found as the run starts
            raise ConfigError(path, _key_line(path, name, exc.field), str(exc))

    return runner


def replication_seed(base_seed, replication):
    """Deterministic per-replication seed derived from the base seed."""
    ss = np.random.SeedSequence([base_seed, replication])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


_runner = None    # the runner of a pool's worker process, set as it starts


def _set_runner(runner):
    global _runner
    _runner = runner


def _run_one(seed):
    return _runner(seed)


def _run_replications(runner, base_seed, replications, workers):
    """The replication seeds and runner(seed) for each, in seed order.

    Runs them in `workers` forked processes at most, and never in more
    processes than there are replications or usable CPUs.  Fork hands the
    runner closure to each process without pickling it; only seeds, results
    and exceptions cross.  Forking a process that runs other threads can
    deadlock the child, so such a process runs the replications itself.
    """
    seeds = [replication_seed(base_seed, r) for r in range(replications)]
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    size = min(workers, replications, cpus)
    if size >= 2:
        # imported here, so that importing the package does not pay for them
        import multiprocessing
        import threading
        from concurrent.futures import ProcessPoolExecutor
        if ("fork" in multiprocessing.get_all_start_methods()
                and threading.active_count() == 1):
            with ProcessPoolExecutor(
                    size, mp_context=multiprocessing.get_context("fork"),
                    initializer=_set_runner, initargs=(runner,)) as pool:
                return seeds, list(pool.map(_run_one, seeds))
    return seeds, [runner(s) for s in seeds]


def _write_trace(path, trace):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER)
        for i in range(len(trace)):
            writer.writerow([
                i + 1,
                _fmt(trace.log_lambda[i]),
                _fmt(trace.chi[i]),
                _fmt(trace.log_evidence_increments[i]),
                trace.n_evals[i],
            ])


def _error_percent(log_E, reference):
    if reference == 0.0:
        return abs(log_E - reference) * 100.0
    return abs(log_E - reference) / abs(reference) * 100.0


def _cov_percent(values):
    values = np.asarray(values, dtype=float)
    if values.size < 2 or values.mean() == 0.0:
        return 0.0
    return float(values.std(ddof=1) / abs(values.mean()) * 100.0)


def _write_summary(path, seeds, results, reference, aggregate):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_HEADER)
        for r, (seed, res) in enumerate(zip(seeds, results)):
            writer.writerow([
                r, seed, _fmt(res.log_evidence), _fmt(reference),
                _fmt(_error_percent(res.log_evidence, reference)), "",
                res.termination_reason.value, res.total_evals,
            ])
        writer.writerow(["aggregate", ""] + [
            _fmt(aggregate.get(key, "")) for key in SUMMARY_HEADER[2:]])


def _write_record(path, cfg, results, aggregate):
    mean_post = np.mean([r.posterior_mean for r in results], axis=0)
    mean_var = np.mean([r.posterior_variance for r in results], axis=0)
    lines = [
        "benchmark = %s" % cfg["benchmark"],
        "estimator = %s" % cfg["estimator"],
        "seed = %d" % cfg["seed"],
        "replications = %d" % cfg["replications"],
    ] + ["%s = %s" % (key, _fmt(value)) for key, value in aggregate.items()] + [
        "termination_reasons = %s" % ",".join(
            r.termination_reason.value for r in results),
        "posterior_mean = %s" % ",".join(_fmt(float(v)) for v in mean_post),
        "posterior_variance = %s" % ",".join(_fmt(float(v)) for v in mean_var),
    ]
    Path(path).write_text("\n".join(lines) + "\n")


def read_record(path):
    """Parse one record file back into a dict of strings."""
    out = {}
    for line in Path(path).read_text().splitlines():
        if "=" in line:
            key, val = line.split("=", 1)
            out[key.strip()] = val.strip()
    return out


def _load_with_overrides(args):
    """The config file with the command line's seed/replication overrides.

    The overrides are checked as the file's values are, and reported at
    <args>; so is --workers, the most processes that run replications at
    once (see `_run_replications`).
    """
    cfg = load_config(args.config)
    if args.seed_override is not None:
        _check_seed(args.seed_override, "<args>", 1)
        cfg["seed"] = args.seed_override
    if args.replications_override is not None:
        if args.replications_override < 1:
            raise ConfigError("<args>", 1, "replications must be >= 1")
        cfg["replications"] = args.replications_override
    if args.workers < 1:
        raise ConfigError("<args>", 1, "workers must be >= 1")
    return cfg


def cmd_run(args):
    cfg = _load_with_overrides(args)
    problem, reference = make_benchmark(cfg["benchmark"], cfg["seed"])
    stopping = _config(cfg, "stopping", StoppingPolicy)
    runner = _estimator_runner(cfg, problem, stopping)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    start = time.perf_counter()
    seeds, results = _run_replications(runner, cfg["seed"],
                                       cfg["replications"], args.workers)
    elapsed = time.perf_counter() - start

    # one aggregate for summary.csv, record.txt and stdout, in record order
    log_Es = [r.log_evidence for r in results]
    mean_log_E = float(np.mean(log_Es))
    aggregate = {"log_evidence": mean_log_E,
                 "reference_log_evidence": float(reference),
                 "error_percent": _error_percent(mean_log_E, reference),
                 "cov_percent": _cov_percent(log_Es),
                 "total_evals": sum(r.total_evals for r in results)}

    for r, res in enumerate(results):
        _write_trace(out_dir / ("trace_rep%03d.csv" % r), res.trace)
    _write_summary(out_dir / "summary.csv", seeds, results, reference,
                   aggregate)
    _write_record(out_dir / "record.txt", cfg, results, aggregate)

    print("benchmark=%s estimator=%s replications=%d"
          % (cfg["benchmark"], cfg["estimator"], cfg["replications"]))
    print("log_evidence=%s reference=%s error_percent=%s cov_percent=%s"
          % tuple(_fmt(aggregate[key]) for key in (
              "log_evidence", "reference_log_evidence", "error_percent",
              "cov_percent")))
    # wall time goes to stdout only; output files stay seed-deterministic
    print("wall_time_seconds=%.3f" % elapsed)
    return 0


def _benchmark_family(name):
    stem, _, tail = name.rpartition("_d")
    if stem and tail.isdigit():
        return stem
    return name


def cmd_select(args):
    if len(args.records) < 2:
        raise ConfigError("<args>", 1, "select needs at least 2 run records")
    records = []
    for path in args.records:
        try:
            rec = read_record(path)
            records.append((rec["benchmark"], float(rec["log_evidence"])))
        except (OSError, KeyError, ValueError) as exc:
            raise ConfigError(path, 1, "unreadable run record: %s" % exc)

    families = {_benchmark_family(name) for name, _ in records}
    if len(families) > 1:
        raise ConfigError("<args>", 1,
                          "records compare different benchmarks: %s"
                          % ", ".join(sorted(families)))

    priors = None
    if args.priors:
        priors = _args_list(args.priors, float, "--priors")
        if len(priors) != len(records):
            raise ConfigError("<args>", 1,
                              "got %d priors for %d records"
                              % (len(priors), len(records)))
    try:
        ms = ModelSet(names=[n for n, _ in records],
                      log_evidences=[e for _, e in records],
                      prior_probs=priors)
    except ValueError as exc:
        raise ConfigError("<args>", 1, str(exc))
    probs = posterior_model_probabilities(ms)

    rows = [["model", "log_evidence", "prior_prob", "posterior_prob"]]
    for (name, log_E), prior, prob in zip(records, ms.prior_probs, probs):
        rows.append([name, _fmt(log_E), _fmt(float(prior)), _fmt(float(prob))])
    for row in rows:
        print(",".join(str(c) for c in row))
    if args.out_dir:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "selection.csv", "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
    return 0


def cmd_convergence(args):
    budgets = _args_list(args.budgets, int, "--budgets")
    if not budgets:
        raise ConfigError("<args>", 1, "empty budget list")
    if any(b < 1 for b in budgets):
        raise ConfigError("<args>", 1, "budgets must be positive")

    cfg = _load_with_overrides(args)
    problem, reference = make_benchmark(cfg["benchmark"], cfg["seed"])
    base_stopping = _config(cfg, "stopping", StoppingPolicy)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    start = time.perf_counter()
    rows = []
    for budget in budgets:
        stopping = dataclasses.replace(base_stopping, max_evals=budget)
        runner = _estimator_runner(cfg, problem, stopping)
        _, results = _run_replications(runner, cfg["seed"],
                                       cfg["replications"], args.workers)
        errs = [_error_percent(r.log_evidence, reference) for r in results]
        rows.append([budget, _fmt(float(np.mean(errs))),
                     _fmt(_cov_percent([r.log_evidence for r in results]))])
    elapsed = time.perf_counter() - start

    with open(out_dir / "convergence.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CONVERGENCE_HEADER)
        writer.writerows(rows)
    print(",".join(CONVERGENCE_HEADER))
    for row in rows:
        print(",".join(str(c) for c in row))
    print("wall_time_seconds=%.3f" % elapsed)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="levidence",
        description="Evidence estimation over likelihood levels.")
    sub = parser.add_subparsers(dest="command", required=True)

    # the arguments of the two verbs that run a config file
    configured = argparse.ArgumentParser(add_help=False)
    configured.add_argument("--config", required=True)
    configured.add_argument("--out-dir", required=True)
    configured.add_argument("--seed-override", type=int, default=None)
    configured.add_argument("--replications-override", type=int, default=None)
    configured.add_argument("--workers", type=int, default=1,
                            help="most processes running replications")

    run_p = sub.add_parser("run", parents=[configured],
                           help="run a configured experiment")
    run_p.set_defaults(func=cmd_run)

    sel_p = sub.add_parser("select", help="posterior model probabilities")
    sel_p.add_argument("records", nargs="*", help="record.txt files from runs")
    sel_p.add_argument("--priors", default=None,
                       help="comma-separated prior model probabilities")
    sel_p.add_argument("--out-dir", default=None)
    sel_p.set_defaults(func=cmd_select)

    conv_p = sub.add_parser("convergence", parents=[configured],
                            help="error versus evaluation budget")
    conv_p.add_argument("--budgets", required=True,
                        help="comma-separated evaluation budgets")
    conv_p.set_defaults(func=cmd_convergence)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:
        print("runtime error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
