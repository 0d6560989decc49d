"""Command-line front end.

Three verbs: `run` executes a configured estimator (optionally replicated)
and writes trace and summary tables, `select` turns per-model run records
into posterior model probabilities, and `convergence` sweeps evaluation
budgets to tabulate error against cost.

Config files are INI-style: an [experiment] section plus optional sections
named after the estimator and the shared [stopping] and [level] policies.
Keys in those sections are the field names of the matching config
dataclasses; an unknown key is an error.
All randomness flows from the configured seed, so outputs are byte
identical for a given (config, seed) regardless of worker count.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .baselines import NestedConfig, run_mc, run_nested
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
        super().__init__("%s:%d: %s" % (path, line, message))


def _fmt(x):
    """Stable decimal rendering for table cells."""
    if isinstance(x, float):
        if math.isinf(x):
            return "-inf" if x < 0 else "inf"
        return "%.10g" % x
    return str(x)


def _key_line(path, section, key=None):
    """Line number of a section header or of a key inside it, 1 if unknown."""
    in_section = False
    try:
        lines = Path(path).read_text().splitlines()
    except OSError:
        return 1
    for i, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line.startswith("[") and line.endswith("]"):
            if in_section and key is not None:
                break
            in_section = line[1:-1].strip() == section
            if in_section and key is None:
                return i
        elif in_section and key is not None:
            name = line.split("=", 1)[0].split(":", 1)[0].strip()
            if name == key:
                return i
    return 1


def _parse_bool(raw):
    return {"true": True, "false": False}[raw.strip().lower()]


def _parse_int_list(raw):
    return [int(t) for t in raw.split(",") if t.strip()]


# INI value parsers by config-dataclass field annotation; fields of any other
# type (the nested policies and kernel) are not INI keys
_PARSERS = {"int": int, "float": float, "float | None": float,
            "bool | None": _parse_bool, "tuple": _parse_int_list,
            # one proposal scale, applied to every coordinate
            "np.ndarray | None": float}

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
    parser = configparser.ConfigParser()
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
    if not 0 <= cfg["seed"] < 2**64:
        raise ConfigError(path, _key_line(path, "experiment", "seed"),
                          "seed must be a 64-bit nonnegative integer")
    return cfg


def _build(cfg, name, cls, values, **given):
    """cls(**given, **values); its validation errors point at [name]."""
    try:
        return cls(**given, **values)
    except ValueError as exc:
        raise ConfigError(cfg["path"], _key_line(cfg["path"], name), str(exc))


def _config(cfg, name, cls, **given):
    """A config dataclass from section `name`, keyed by its field names."""
    return _build(cfg, name, cls, _section(cfg, name, _keys(cls)), **given)


def _estimator_runner(cfg, problem, stopping):
    """Bind the configured estimator to a callable of one seed argument."""
    name, dim = cfg["estimator"], problem.dimension
    if name == "mc":
        n = _section(cfg, name, {"n": int}).get("n", 20000)
        return lambda s: run_mc(problem, n, s)
    if name == "nested":
        conf = _config(cfg, name, NestedConfig, stopping=stopping)
        return lambda s: run_nested(problem, conf, s)
    level = _config(cfg, "level", LevelPolicy)
    if name == "lla_is":
        conf = _config(cfg, name, ISConfig, level_policy=level,
                       stopping=stopping)
        return lambda s: run_lla_is(problem, conf, s)
    if name == "lla_ss":
        values = _section(cfg, name, _keys(SSConfig))
        counts = values.get("per_dim_counts", [5])
        if len(counts) == 1:
            values["per_dim_counts"] = counts * dim
        conf = _build(cfg, name, SSConfig, values, level_policy=level,
                      stopping=stopping)
        return lambda s: run_lla_ss(problem, conf, s)
    values = _section(cfg, name, _keys(MCMCConfig, KernelConfig))
    kernel_values = {k: values.pop(k) for k in _keys(KernelConfig)
                     if k in values}
    if "proposal_stddev" in kernel_values:
        kernel_values["proposal_stddev"] = np.full(
            dim, kernel_values["proposal_stddev"])
    kernel = _build(cfg, name, KernelConfig, kernel_values)
    # without a [level] section the schedule follows n_replace / n_samples
    has_level = cfg["parser"].has_section("level")
    conf = _build(cfg, name, MCMCConfig, values, kernel=kernel,
                  level_policy=level if has_level else None, stopping=stopping)
    return lambda s: run_lla_mcmc(problem, conf, s)


def replication_seed(base_seed, replication):
    """Deterministic per-replication seed derived from the base seed."""
    ss = np.random.SeedSequence([base_seed, replication])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _run_replications(runner, base_seed, replications, workers):
    seeds = [replication_seed(base_seed, r) for r in range(replications)]
    if workers <= 1 or replications == 1:
        return seeds, [runner(s) for s in seeds]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(runner, seeds))
    return seeds, results


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


def _write_summary(path, seeds, results, reference):
    log_Es = [r.log_evidence for r in results]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_HEADER)
        for r, (seed, res) in enumerate(zip(seeds, results)):
            writer.writerow([
                r, seed, _fmt(res.log_evidence), _fmt(reference),
                _fmt(_error_percent(res.log_evidence, reference)), "",
                res.termination_reason.value, res.total_evals,
            ])
        mean_log_E = float(np.mean(log_Es))
        writer.writerow([
            "aggregate", "", _fmt(mean_log_E), _fmt(reference),
            _fmt(_error_percent(mean_log_E, reference)),
            _fmt(_cov_percent(log_Es)), "",
            sum(r.total_evals for r in results),
        ])


def _write_record(path, cfg, results, reference):
    log_Es = [r.log_evidence for r in results]
    mean_log_E = float(np.mean(log_Es))
    mean_post = np.mean([r.posterior_mean for r in results], axis=0)
    mean_var = np.mean([r.posterior_variance for r in results], axis=0)
    lines = [
        "benchmark = %s" % cfg["benchmark"],
        "estimator = %s" % cfg["estimator"],
        "seed = %d" % cfg["seed"],
        "replications = %d" % cfg["replications"],
        "log_evidence = %s" % _fmt(mean_log_E),
        "reference_log_evidence = %s" % _fmt(float(reference)),
        "error_percent = %s" % _fmt(_error_percent(mean_log_E, reference)),
        "cov_percent = %s" % _fmt(_cov_percent(log_Es)),
        "total_evals = %d" % sum(r.total_evals for r in results),
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
    """The config file with the command line's seed/replication overrides."""
    cfg = load_config(args.config)
    if args.seed_override is not None:
        cfg["seed"] = args.seed_override
    if args.replications_override is not None:
        if args.replications_override < 1:
            raise ConfigError(args.config, 1, "replications must be >= 1")
        cfg["replications"] = args.replications_override
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

    for r, res in enumerate(results):
        _write_trace(out_dir / ("trace_rep%03d.csv" % r), res.trace)
    _write_summary(out_dir / "summary.csv", seeds, results, reference)
    _write_record(out_dir / "record.txt", cfg, results, reference)

    mean_log_E = float(np.mean([r.log_evidence for r in results]))
    print("benchmark=%s estimator=%s replications=%d"
          % (cfg["benchmark"], cfg["estimator"], cfg["replications"]))
    print("log_evidence=%s reference=%s error_percent=%s cov_percent=%s"
          % (_fmt(mean_log_E), _fmt(float(reference)),
             _fmt(_error_percent(mean_log_E, reference)),
             _fmt(_cov_percent([r.log_evidence for r in results]))))
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
        priors = [float(t) for t in args.priors.split(",") if t.strip()]
        if len(priors) != len(records):
            raise ConfigError("<args>", 1,
                              "got %d priors for %d records"
                              % (len(priors), len(records)))
    ms = ModelSet(names=[n for n, _ in records],
                  log_evidences=[e for _, e in records],
                  prior_probs=priors)
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
    budgets = [int(t) for t in args.budgets.split(",") if t.strip()]
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

    run_p = sub.add_parser("run", help="run a configured experiment")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--out-dir", required=True)
    run_p.add_argument("--seed-override", type=int, default=None)
    run_p.add_argument("--replications-override", type=int, default=None)
    run_p.add_argument("--workers", type=int, default=1)
    run_p.set_defaults(func=cmd_run)

    sel_p = sub.add_parser("select", help="posterior model probabilities")
    sel_p.add_argument("records", nargs="*", help="record.txt files from runs")
    sel_p.add_argument("--priors", default=None,
                       help="comma-separated prior model probabilities")
    sel_p.add_argument("--out-dir", default=None)
    sel_p.set_defaults(func=cmd_select)

    conv_p = sub.add_parser("convergence",
                            help="error versus evaluation budget")
    conv_p.add_argument("--config", required=True)
    conv_p.add_argument("--out-dir", required=True)
    conv_p.add_argument("--budgets", required=True,
                        help="comma-separated evaluation budgets")
    conv_p.add_argument("--seed-override", type=int, default=None)
    conv_p.add_argument("--replications-override", type=int, default=None)
    conv_p.add_argument("--workers", type=int, default=1)
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
