"""How often each accuracy gate passes at other run seeds.

    python3 tools/gate_margins.py                         # 20 offsets
    python3 tools/gate_margins.py --offsets 5 --gate criterion_7

Each accuracy gate checks fixed run seeds: criteria 1, 2, 3 and 7 of
tests/test_acceptance.py, and nested's test_uniform_linear_accuracy in
tests/test_baselines.py.  This tool reruns the statistic each gate bounds
with every run seed moved by 1000 k, for k = 0 .. K - 1 (k = 0 is the
shipped gate; the datasets stay fixed), and prints one line per gate: the
shipped value, the median, the range and how many offsets pass.  It
changes no gate, seed, bound or config: criterion 1's configs come from
tests/test_acceptance.py and the others from tools/fingerprint.py.  A low
pass count is a defect of the estimator, never a reason to choose seeds.
"""

from __future__ import annotations

import argparse
import functools
import statistics
import sys
import warnings
from pathlib import Path
from typing import Callable, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "tools")]

from fingerprint import (_criterion_3_mcmc, _criterion_7_mcmc,  # noqa: E402
                         _suite_nested)
from levidence import (KernelConfig, ModelSet, NestedConfig,  # noqa: E402
                       StoppingPolicy, make_benchmark,
                       posterior_model_probabilities, run_lla_is,
                       run_lla_mcmc, run_lla_ss, run_mc, run_nested)
from test_acceptance import (DATASET_SEEDS, _cov_percent,  # noqa: E402
                             _error_percent, _is_config, _mcmc_config,
                             _ss_config)

OFFSET = 1000
DEFAULT_OFFSETS = 20


class Gate(NamedTuple):
    """value(k) returns the gated statistic at run seeds moved by OFFSET k,
    and whether the whole gate passes there."""

    name: str
    statistic: str
    bound: str
    value: Callable[[int], tuple]


@functools.cache
def _benchmark(name, seed):
    return make_benchmark(name, seed)


def _criterion_1(run, gate):
    def value(k):
        errors, ratios = [], []
        for seed in DATASET_SEEDS:
            problem, reference = _benchmark("conjugate_gaussian", seed)
            log_E = run(problem, seed + OFFSET * k).log_evidence
            errors.append(_error_percent(log_E, reference))
            ratios.append(log_E / reference)
        max_err = max(errors)
        return max_err, max_err <= gate and _cov_percent(ratios) <= 0.3
    return value


def _criterion_2_mc(k):
    max_z = 0.0
    for seed in DATASET_SEEDS:
        problem, reference = _benchmark("conjugate_gaussian", seed)
        mc = run_mc(problem, 20000, seed + OFFSET * k)
        max_z = max(max_z, abs(mc.log_evidence - reference)
                    / mc.standard_error_log)
    return max_z, max_z <= 3.0


def _criterion_2_nested(k):
    max_err = 0.0
    for seed in DATASET_SEEDS:
        problem, reference = _benchmark("conjugate_gaussian", seed)
        est = run_nested(problem, _suite_nested(), seed + OFFSET * k)
        max_err = max(max_err, _error_percent(est.log_evidence, reference))
    return max_err, max_err <= 1.0


def _criterion_3(k):
    problem, reference = _benchmark("highdim_gaussian_100", 7)
    est = run_lla_mcmc(problem, _criterion_3_mcmc(100000), 7 + OFFSET * k)
    err = _error_percent(est.log_evidence, reference)
    return err, err <= 1.0 and est.total_evals <= 100000


def _criterion_7(k):
    names, log_Es = [], []
    for name, problem, _ in _benchmark("polynomial_regression_set", 7):
        names.append(name)
        log_Es.append(run_lla_mcmc(problem, _criterion_7_mcmc(),
                                   7 + OFFSET * k).log_evidence)
    p_d2 = posterior_model_probabilities(
        ModelSet(names=names, log_evidences=log_Es))[
            names.index("polynomial_regression_d2")]
    return p_d2, p_d2 > 0.95


def _nested_uniform_linear(k):
    problem, reference = _benchmark("uniform_linear", 0)
    cfg = NestedConfig(n_live=300, kernel=KernelConfig(steps_per_sample=40),
                       stopping=StoppingPolicy(max_iterations=20000,
                                               max_evals=10**6))
    error = abs(run_nested(problem, cfg, OFFSET * k).log_evidence - reference)
    return error, error < 0.05


GATES = (
    Gate("criterion_1_lla_ss", "max error %", "<= 0.15, cov <= 0.3",
         _criterion_1(lambda p, s: run_lla_ss(p, _ss_config(), s), 0.15)),
    Gate("criterion_1_lla_mcmc", "max error %", "<= 0.5, cov <= 0.3",
         _criterion_1(lambda p, s: run_lla_mcmc(p, _mcmc_config(), s), 0.5)),
    Gate("criterion_1_lla_is", "max error %", "<= 1, cov <= 0.3",
         _criterion_1(lambda p, s: run_lla_is(p, _is_config(), s), 1.0)),
    Gate("criterion_2_mc", "max |z|", "<= 3", _criterion_2_mc),
    Gate("criterion_2_nested", "max error %", "<= 1", _criterion_2_nested),
    Gate("criterion_3", "error %", "<= 1, evals <= 1e5", _criterion_3),
    Gate("criterion_7", "P(d2)", "> 0.95", _criterion_7),
    Gate("nested_uniform_linear", "|log Z| nats", "< 0.05",
         _nested_uniform_linear),
)


def margin_line(gate, results):
    """One gate's line from its (value, passed) at offsets 0 .. K - 1."""
    values = [v for v, _ in results]
    return ("%-22s %-12s gate %-19s shipped %.4g, median %.4g, range "
            "%.4g-%.4g, passes %d of %d"
            % (gate.name, gate.statistic, gate.bound, values[0],
               statistics.median(values), min(values), max(values),
               sum(ok for _, ok in results), len(results)))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--offsets", type=int, default=DEFAULT_OFFSETS,
                        help="K, the number of run-seed offsets (default "
                        "%(default)s)")
    parser.add_argument("--gate", action="append",
                        choices=[g.name for g in GATES],
                        help="only this gate (repeatable)")
    args = parser.parse_args(argv)
    if args.offsets < 1:
        parser.error("--offsets must be >= 1")
    for gate in GATES:
        if args.gate and gate.name not in args.gate:
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            results = [gate.value(k) for k in range(args.offsets)]
        print(margin_line(gate, results), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
