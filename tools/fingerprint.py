"""SHA-256 fingerprints of estimator runs, to show that a change kept every
output bit for bit.

    python3 tools/fingerprint.py            # 98 runs, about 11 s
    python3 tools/fingerprint.py --quick    # a few runs, under 1 s

Each run prints one line: benchmark, estimator, config, seed, a SHA-256
over the log-evidence, the evaluation count, the stop reason, the lambda,
chi and n_evals traces, the posterior moments and the Monte Carlo standard
error, and a second SHA-256 over the ladder alone: the lambda and n_evals
traces, the stop reason and the evaluation count.  A change that moves
only sums keeps the second hash.  The last line is a SHA-256 over all run
lines.  Run it on two checkouts and compare the output; it imports
levidence from the src/ next to this file, and from nowhere else.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from levidence import (ISConfig, KernelConfig, LevelPolicy,  # noqa: E402
                       MCMCConfig, NestedConfig, SSConfig, StoppingPolicy,
                       make_benchmark, run_lla_is, run_lla_mcmc, run_lla_ss,
                       run_mc, run_nested)

BENCHMARKS = ("conjugate_gaussian", "uniform_linear", "truncated_gaussian_1d",
              "bimodal_2d", "polynomial_regression_d1",
              "polynomial_regression_d2", "polynomial_regression_d3")
SEEDS = (7, 8)
QUICK_SEED = 7


def _criterion_1_is():
    return ISConfig(
        n_initial=1000, ess_threshold_fraction=0.001, stddev_override=0.125,
        level_policy=LevelPolicy(f_init=0.025, f_slope=0.025, f_max=0.3,
                                 escalation_factor=1.5, escalation_cap=0.999),
        stopping=StoppingPolicy(max_iterations=250, max_evals=25000))


def _capped_criterion_3_mcmc():
    return MCMCConfig(
        n_samples=500, n_replace=50, kernel=KernelConfig(steps_per_sample=3),
        stopping=StoppingPolicy(delta_evidence_tol=1e-4, chi_tol=1e-30,
                                max_iterations=2000, max_evals=5000))


def _suite_ss():
    return SSConfig(
        per_dim_counts=(5,), n_per_iteration=175,
        level_policy=LevelPolicy(f_init=0.025, f_slope=0.025, f_max=0.9,
                                 escalation_factor=1.02, escalation_cap=0.999),
        stopping=StoppingPolicy(max_iterations=250, max_evals=20000))


def _suite_mcmc():
    return MCMCConfig(
        n_samples=1000, n_replace=25, kernel=KernelConfig(steps_per_sample=2),
        stopping=StoppingPolicy(max_iterations=250, max_evals=25000))


def _suite_nested():
    return NestedConfig(n_live=500,
                        stopping=StoppingPolicy(max_iterations=20000,
                                                max_evals=10**6))


def _criterion_7_mcmc():
    return MCMCConfig(
        n_samples=1000, n_replace=100,
        stopping=StoppingPolicy(delta_evidence_tol=1e-4, chi_tol=1e-20,
                                max_iterations=2000, max_evals=200000))


def _capped_nested():
    return NestedConfig(
        n_live=500, stopping=StoppingPolicy(chi_tol=1e-30,
                                            max_iterations=100000,
                                            max_evals=10000))


# (estimator, config name, run(problem, seed))
RUNS = (
    ("lla_is", "default", lambda p, s: run_lla_is(p, ISConfig(), s)),
    ("lla_is", "criterion1", lambda p, s: run_lla_is(p, _criterion_1_is(), s)),
    ("lla_mcmc", "default", lambda p, s: run_lla_mcmc(p, MCMCConfig(), s)),
    ("nested", "default", lambda p, s: run_nested(p, NestedConfig(), s)),
    ("mc", "n20000", lambda p, s: run_mc(p, 20000, s)),
    ("lla_ss", "default", lambda p, s: run_lla_ss(p, SSConfig(), s)),
)
# the configs perfbench/workloads.py times (conjugate_suite's IS config is
# criterion1 above), at both seeds: (benchmark, estimator, config name, run)
PERFBENCH = (
    ("conjugate_gaussian", "lla_ss", "suite",
     lambda p, s: run_lla_ss(p, _suite_ss(), s)),
    ("conjugate_gaussian", "lla_mcmc", "suite",
     lambda p, s: run_lla_mcmc(p, _suite_mcmc(), s)),
    ("conjugate_gaussian", "nested", "suite",
     lambda p, s: run_nested(p, _suite_nested(), s)),
) + tuple(
    ("polynomial_regression_d%d" % k, "lla_mcmc", "criterion7",
     lambda p, s: run_lla_mcmc(p, _criterion_7_mcmc(), s))
    for k in (1, 2, 3))
# on highdim_gaussian_100 at the first seed: component-wise chain moves
HIGHDIM = (
    ("lla_mcmc", "criterion3_capped",
     lambda p, s: run_lla_mcmc(p, _capped_criterion_3_mcmc(), s)),
    ("nested", "capped", lambda p, s: run_nested(p, _capped_nested(), s)),
)


def plan(quick):
    """(benchmark, estimator, config name, run, seed) for every run."""
    if quick:
        return [("conjugate_gaussian", est, name, run, QUICK_SEED)
                for est, name, run in RUNS]
    return [(bench, est, name, run, seed)
            for bench in BENCHMARKS for seed in SEEDS
            for est, name, run in RUNS] + [
        (bench, est, name, run, seed)
        for bench, est, name, run in PERFBENCH for seed in SEEDS] + [
        ("highdim_gaussian_100", est, name, run, SEEDS[0])
        for est, name, run in HIGHDIM]


def _sha256(fields):
    return hashlib.sha256(repr(fields).encode()).hexdigest()


def digest(est):
    """SHA-256 over what a run returns, floats by their repr."""
    trace = est.trace
    return _sha256((est.log_evidence, est.total_evals,
                    est.termination_reason.value, trace.log_lambda,
                    trace.chi, trace.n_evals, est.posterior_mean.tolist(),
                    est.posterior_variance.tolist(), est.standard_error_log))


def ladder_digest(est):
    """SHA-256 over a run's ladder: the levels and where the evaluations
    went, without the sums."""
    trace = est.trace
    return _sha256((trace.log_lambda, trace.n_evals,
                    est.termination_reason.value, est.total_evals))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="run the subset on conjugate_gaussian only")
    args = parser.parse_args(argv)
    problems = {}
    total = hashlib.sha256()
    for bench, est_name, config, run, seed in plan(args.quick):
        if bench not in problems:
            problems[bench] = make_benchmark(bench, 7)[0]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            est = run(problems[bench], seed)
        line = "%s %s %s %d %s %s" % (bench, est_name, config, seed,
                                      digest(est), ladder_digest(est))
        total.update((line + "\n").encode())
        print(line, flush=True)
    print("total %s" % total.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
