"""The random streams of the estimators, pinned to exact values.

The values were recorded before chain generators came from
core.keyed_generators, when every chain built its own
default_rng(SeedSequence([seed, iteration, chain])), and the regression
pins before its likelihood had a batch form; they are asserted with ==, so
any change of stream fails here.  The second half checks that no
estimator builds a SeedSequence per chain.
"""

import warnings

import numpy as np
import pytest

from levidence import (MCMCConfig, NestedConfig, SSConfig, StoppingPolicy,
                       run_lla_mcmc, run_lla_ss, run_nested)
from levidence.core import LevelTrace
from levidence.lla_mcmc import _MCMCLevels
from levidence.models import make_benchmark

PINNED = [
    ("conjugate_gaussian", run_lla_mcmc, MCMCConfig, 7,
     "-82.70194792645249", 12126),
    ("conjugate_gaussian", run_nested, NestedConfig, 7,
     "-77.72571418736335", 2352),
    ("conjugate_gaussian", run_lla_ss, SSConfig, 7,
     "-127.37082100101874", 20000),
    ("bimodal_2d", run_lla_mcmc, MCMCConfig, 7,
     "-1.1898060202503495", 12921),
    ("bimodal_2d", run_nested, NestedConfig, 7,
     "0.11376170588087434", 2305),
    ("bimodal_2d", run_lla_ss, SSConfig, 7,
     "-11.364245464333388", 20000),
    # the regression likelihood's batch form, through every set of points
    ("polynomial_regression_d2", run_lla_mcmc, MCMCConfig, 7,
     "-2066.0744034289924", 11577),
    ("polynomial_regression_d2", run_lla_ss, SSConfig, 7,
     "-18740.777711719187", 20000),
    # seeds of two and three 32-bit words
    ("conjugate_gaussian", run_lla_mcmc, MCMCConfig, 2**40 + 3,
     "-83.07749022708255", 12179),
    ("conjugate_gaussian", run_lla_mcmc, MCMCConfig, 2**70 + 5,
     "-82.35397398608876", 12054),
]


@pytest.mark.parametrize(
    "name, run, config, seed, log_evidence, total_evals", PINNED,
    ids=["%s-%s-%d" % (p[0], p[1].__name__, p[3]) for p in PINNED])
def test_default_runs_are_pinned(name, run, config, seed, log_evidence,
                                 total_evals):
    problem, _ = make_benchmark(name, 7)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        est = run(problem, config(), seed)
    assert repr(est.log_evidence) == log_evidence
    assert est.total_evals == total_evals


class _CountingSeedSequence(np.random.SeedSequence):
    built = 0

    def __init__(self, *args, **kwargs):
        type(self).built += 1
        super().__init__(*args, **kwargs)


@pytest.fixture
def seed_sequences(monkeypatch):
    """Counts SeedSequence constructions; the package looks the class up
    as np.random.SeedSequence at each call."""
    _CountingSeedSequence.built = 0
    monkeypatch.setattr(np.random, "SeedSequence", _CountingSeedSequence)
    return _CountingSeedSequence


def test_mcmc_advance_builds_no_seed_sequence_per_chain(seed_sequences):
    problem, _ = make_benchmark("conjugate_gaussian", 7)
    levels = _MCMCLevels(problem, MCMCConfig(n_samples=1000, n_replace=100),
                         7)
    trace = LevelTrace()
    log_lambda = levels.level(1, trace)
    levels.mass(1, log_lambda, trace)
    assert int((~levels.passing).sum()) == 100
    built = seed_sequences.built
    levels.advance(1, log_lambda, trace)
    assert seed_sequences.built == built
    assert np.all(levels.log_L > log_lambda)


def test_nested_builds_no_seed_sequence_per_iteration(seed_sequences):
    problem, _ = make_benchmark("conjugate_gaussian", 7)
    cfg = NestedConfig(n_live=100,
                       stopping=StoppingPolicy(max_iterations=50))
    built = seed_sequences.built
    est = run_nested(problem, cfg, 7)
    assert len(est.trace) == 51  # 50 iterations and the live-set tail
    # the initial live set's generator only
    assert seed_sequences.built == built + 1
