"""The benchmark's three workloads.

Each workload turns a workload seed and round numbers into round inputs
(set-up),
runs one round at a time in a closed loop, and checks every estimate it gets
back.  Dataset and estimator seeds all derive from the workload seed; the
package only ever sees the generated problems, configs and config files.

Configs copy the values of ``tests/test_acceptance.py`` rather than import
the tests.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from levidence import (ISConfig, KernelConfig, LevelPolicy, MCMCConfig,
                       ModelSet, NestedConfig, SSConfig, StoppingPolicy,
                       baselines, cli, lla_is, lla_mcmc, lla_ss, models,
                       posterior_model_probabilities)
from layers import record_estimate

# criterion-1/2 accuracy gates: relative log-evidence error in percent, and
# |z| for plain Monte Carlo
GATE_PERCENT = {"lla_ss": 0.15, "lla_mcmc": 0.5, "lla_is": 1.0,
                "nested": 1.0}
MC_Z_GATE = 3.0
MC_SAMPLES = 20000
SELECTION_GATE = 0.95          # criterion 7: P(degree 2) must exceed this

HIGHDIM_EVAL_CAP = 5000
HIGHDIM_N_REPLACE = 50
HIGHDIM_STEPS = 3

MODELS = ("polynomial_regression_d1", "polynomial_regression_d2",
          "polynomial_regression_d3")
TRUE_MODEL = "polynomial_regression_d2"
REPLICATIONS = 2


def derive(*keys):
    """A 31-bit seed derived from a path of integers."""
    state = np.random.SeedSequence(list(keys)).generate_state(1)
    return int(state[0] >> 1)


@dataclass
class Estimate:
    estimator: str
    seconds: float | None          # None when timed only inside the CLI
    evals: int
    abs_error: float               # |log E_hat - log E_ref| in nats
    gate_ok: bool | None           # None where no accuracy gate applies
    problems: list = field(default_factory=list)


@dataclass
class Round:
    wall: float
    estimates: list
    outputs: dict = field(default_factory=dict)   # file name -> bytes


def invariant_problems(log_lambda, chi, log_evidence):
    """Criterion-5 invariants of one level trace.

    Every level is a likelihood value the run saw, so an evidence above the
    highest level is also above the highest likelihood seen.
    """
    out = []
    if not math.isfinite(log_evidence):
        out.append("non-finite estimate %r" % log_evidence)
    if not log_lambda:
        out.append("empty trace")
        return out
    if any(b <= a for a, b in zip(log_lambda, log_lambda[1:])):
        out.append("levels not strictly increasing")
    if any(b > a for a, b in zip(chi, chi[1:])):
        out.append("prior mass increased")
    if log_evidence > max(log_lambda) + 1e-9:
        out.append("estimate above every likelihood level")
    return out


def _checked(estimator, est, reference, seconds, gate_ok, extra=()):
    problems = invariant_problems(est.trace.log_lambda, est.trace.chi,
                                  est.log_evidence) + list(extra)
    return Estimate(estimator, seconds, est.total_evals,
                    abs(est.log_evidence - reference), gate_ok, problems)


def _timed(tracer, estimator, config, fn, *args):
    with tracer.span("estimate." + estimator, estimate=True):
        t0 = perf_counter()
        est = fn(*args)
        seconds = perf_counter() - t0
    record_estimate(tracer, estimator, config, est)
    return est, seconds


# --- highdim_mcmc --------------------------------------------------------

class HighdimMCMC:
    """One capped criterion-3 lla_mcmc estimate on highdim_gaussian_100."""

    name = "highdim_mcmc"
    trace_rounds = 3

    def setup(self, seed, rounds, workdir):
        inputs = []
        for r in rounds:
            problem, reference = models.make_benchmark(
                "highdim_gaussian_100", derive(seed, 1, r, 0))
            # the run stops at the first level past max_evals, one level's
            # replenishment (at most n_replace * steps evaluations) later
            config = MCMCConfig(
                n_samples=500, n_replace=HIGHDIM_N_REPLACE,
                kernel=KernelConfig(steps_per_sample=HIGHDIM_STEPS),
                stopping=StoppingPolicy(
                    delta_evidence_tol=1e-4, chi_tol=1e-30,
                    max_iterations=2000,
                    max_evals=HIGHDIM_EVAL_CAP
                    - HIGHDIM_N_REPLACE * HIGHDIM_STEPS))
            inputs.append((problem, reference, config,
                           derive(seed, 1, r, 1)))
        return inputs

    def run_round(self, inp, tracer, workers, workdir):
        problem, reference, config, est_seed = inp
        t0 = perf_counter()
        est, seconds = _timed(tracer, "lla_mcmc", config,
                              lla_mcmc.run_lla_mcmc, problem, config,
                              est_seed)
        wall = perf_counter() - t0
        extra = []
        if est.total_evals > HIGHDIM_EVAL_CAP:
            extra.append("%d evaluations over the cap of %d"
                         % (est.total_evals, HIGHDIM_EVAL_CAP))
        return Round(wall, [_checked("lla_mcmc", est, reference, seconds,
                                     None, extra)])


# --- conjugate_suite -----------------------------------------------------

def _is_config():
    return ISConfig(
        n_initial=1000, ess_threshold_fraction=0.001, stddev_override=0.125,
        level_policy=LevelPolicy(f_init=0.025, f_slope=0.025, f_max=0.3,
                                 escalation_factor=1.5, escalation_cap=0.999),
        stopping=StoppingPolicy(max_iterations=250, max_evals=25000))


def _ss_config():
    return SSConfig(
        per_dim_counts=(5,), n_per_iteration=175,
        level_policy=LevelPolicy(f_init=0.025, f_slope=0.025, f_max=0.9,
                                 escalation_factor=1.02, escalation_cap=0.999),
        stopping=StoppingPolicy(max_iterations=250, max_evals=20000))


def _mcmc_config():
    return MCMCConfig(
        n_samples=1000, n_replace=25, kernel=KernelConfig(steps_per_sample=2),
        stopping=StoppingPolicy(max_iterations=250, max_evals=25000))


def _nested_config():
    return NestedConfig(n_live=500,
                        stopping=StoppingPolicy(max_iterations=20000,
                                                max_evals=10**6))


class ConjugateSuite:
    """All five estimators on one conjugate_gaussian dataset per round."""

    name = "conjugate_suite"
    trace_rounds = 2

    def setup(self, seed, rounds, workdir):
        inputs = []
        for r in rounds:
            problem, reference = models.make_benchmark(
                "conjugate_gaussian", derive(seed, 2, r, 0))
            configs = {"lla_is": _is_config(), "lla_ss": _ss_config(),
                       "lla_mcmc": _mcmc_config(), "nested": _nested_config(),
                       "mc": MC_SAMPLES}
            inputs.append((problem, reference, configs,
                           derive(seed, 2, r, 1)))
        return inputs

    def run_round(self, inp, tracer, workers, workdir):
        problem, reference, configs, est_seed = inp
        runners = (("lla_is", lla_is.run_lla_is),
                   ("lla_ss", lla_ss.run_lla_ss),
                   ("lla_mcmc", lla_mcmc.run_lla_mcmc),
                   ("nested", baselines.run_nested),
                   ("mc", baselines.run_mc))
        results = []
        t0 = perf_counter()
        for name, fn in runners:
            config = configs[name]
            warned = (tracer.count_warnings("lla_ss.near_miss_warnings",
                                            "deactivated")
                      if name == "lla_ss" else contextlib.nullcontext())
            with warned:
                est, seconds = _timed(tracer, name, config, fn, problem,
                                      config, est_seed)
            results.append((name, est, seconds))
        wall = perf_counter() - t0

        estimates = []
        for name, est, seconds in results:
            if name == "mc":
                z = abs(est.log_evidence - reference) / est.standard_error_log
                gate_ok = z <= MC_Z_GATE
            else:
                error = abs(est.log_evidence - reference) / abs(reference)
                gate_ok = error * 100.0 <= GATE_PERCENT[name]
            estimates.append(_checked(name, est, reference, seconds,
                                      bool(gate_ok)))
        return Round(wall, estimates)


# --- model_selection -----------------------------------------------------

CRITERION_7_INI = """\
[experiment]
benchmark = {benchmark}
estimator = lla_mcmc
seed = {seed}
replications = {replications}

[lla_mcmc]
n_samples = 1000
n_replace = 100

[stopping]
delta_evidence_tol = 1e-4
chi_tol = 1e-20
max_iterations = 2000
max_evals = 200000
"""


def _read_trace(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return ([float(r["log_lambda"]) for r in rows],
            [float(r["chi"]) for r in rows])


class ModelSelection:
    """`levidence run` on the three regression models, then `select`."""

    name = "model_selection"
    trace_rounds = 1

    def setup(self, seed, rounds, workdir):
        inputs = []
        for r in rounds:
            data_seed = derive(seed, 3, r)
            triples = models.make_benchmark("polynomial_regression_set",
                                            data_seed)
            references = {name: ref for name, _, ref in triples}
            configs = []
            for name in MODELS:
                path = Path(workdir) / ("round%d-%s.ini" % (r, name))
                path.write_text(CRITERION_7_INI.format(
                    benchmark=name, seed=data_seed,
                    replications=REPLICATIONS))
                configs.append((name, str(path)))
            inputs.append((r, configs, references))
        return inputs

    def run_round(self, inp, tracer, workers, workdir):
        r, configs, references = inp
        out_dirs = {name: Path(workdir) / ("round%d-w%d-%s" % (r, workers,
                                                               name))
                    for name, _ in configs}
        codes = []
        stdout = io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(stdout):
            for name, config in configs:
                with tracer.span("cli.main"):
                    codes.append(cli.main([
                        "run", "--config", config,
                        "--out-dir", str(out_dirs[name]),
                        "--workers", str(workers)]))
            select_out = io.StringIO()
            with contextlib.redirect_stdout(select_out):
                with tracer.span("cli.main"):
                    codes.append(cli.main(
                        ["select"] + [str(out_dirs[n] / "record.txt")
                                      for n, _ in configs]))
        wall = perf_counter() - t0

        round_problems = []
        if any(codes):
            round_problems.append("levidence exit codes %s" % codes)
        estimates, outputs, log_es = [], {}, {}
        for name, _ in configs:
            out = out_dirs[name]
            try:
                for file in ("record.txt", "summary.csv"):
                    outputs[name + "/" + file] = (out / file).read_bytes()
                log_es[name] = float(cli.read_record(out / "record.txt")
                                     ["log_evidence"])
                estimates += self._replications(out, references[name])
            except (OSError, KeyError, ValueError) as exc:
                round_problems.append("%s: unreadable output (%s)"
                                      % (name, exc))
        p_true, selection_problems = self._check_selection(
            select_out.getvalue(), log_es)
        round_problems += selection_problems
        gate_ok = p_true is not None and p_true > SELECTION_GATE
        for e in estimates:
            e.gate_ok = gate_ok
            e.problems += round_problems
        if not estimates:
            estimates = [Estimate("lla_mcmc", None, 0, math.inf, False,
                                  round_problems)] * (len(configs)
                                                      * REPLICATIONS)
        return Round(wall, estimates, outputs)

    @staticmethod
    def _replications(out, reference):
        estimates = []
        with open(out / "summary.csv", newline="") as fh:
            rows = [row for row in csv.DictReader(fh)
                    if row["replication"] != "aggregate"]
        for row in rows:
            log_e = float(row["log_evidence"])
            problems = []
            if not math.isclose(float(row["reference_log_evidence"]),
                                reference, rel_tol=1e-9):
                problems.append("reference %s differs from %r"
                                % (row["reference_log_evidence"], reference))
            lam, chi = _read_trace(
                out / ("trace_rep%03d.csv" % int(row["replication"])))
            problems += invariant_problems(lam, chi, log_e)
            estimates.append(Estimate("lla_mcmc", None,
                                      int(row["total_evals"]),
                                      abs(log_e - reference), None, problems))
        return estimates

    @staticmethod
    def _check_selection(text, log_es):
        """P(true model) from `select`, checked against the library."""
        rows = list(csv.reader(io.StringIO(text)))[1:]
        names = [row[0] for row in rows]
        if sorted(names) != sorted(MODELS) or sorted(log_es) != sorted(
                MODELS):
            return None, ["select reported models %s" % names]
        probs = [float(row[3]) for row in rows]
        expected = posterior_model_probabilities(
            ModelSet(names=names, log_evidences=[log_es[n] for n in names]))
        problems = []
        if not math.isclose(sum(probs), 1.0, abs_tol=1e-9):
            problems.append("posterior probabilities sum to %r" % sum(probs))
        if any(not math.isclose(p, q, abs_tol=1e-9)
               for p, q in zip(probs, expected)):
            problems.append("select disagrees with the library posterior")
        return probs[names.index(TRUE_MODEL)], problems


WORKLOADS = {w.name: w for w in (HighdimMCMC(), ConjugateSuite(),
                                 ModelSelection())}


def nproc():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
