"""The random streams of the estimators, pinned to exact values.

Each group of values was recorded before a change that had to keep it:
chain generators from core.keyed_generators (the first pins, recorded when
every chain built its own default_rng(SeedSequence([seed, iteration,
chain]))), the regression likelihood's batch form, nested's batched refills
and tie rule, and every sampler drawing its points through core.from_unit (the
importance-sampling and d = 4 stratified pins).  They are asserted with ==,
so any change of stream fails here.  Three were re-recorded in their last
digits when importance and stratified sampling came to share one weighted
pool, whose chi is an exactly rounded sum of row weights: the bimodal_2d
stratified pin and the conjugate_gaussian and truncated_gaussian_1d
importance-sampling pins.  Their streams, levels and evaluation counts
held; only the sums moved.  The second half checks that no
estimator builds a SeedSequence per chain.
"""

import functools
import warnings

import numpy as np
import pytest

from levidence import (ISConfig, MCMCConfig, NestedConfig, SSConfig,
                       StoppingPolicy, run_lla_is, run_lla_mcmc, run_lla_ss,
                       run_nested)
from levidence.core import LevelTrace
from levidence.lla_mcmc import _MCMCLevels
from levidence.models import make_benchmark

PINNED = [
    ("conjugate_gaussian", run_lla_mcmc, MCMCConfig, 7,
     "-82.70194792645249", 12126),
    ("conjugate_gaussian", run_nested, NestedConfig, 7,
     "-77.61393380534312", 2171),
    ("conjugate_gaussian", run_lla_ss, SSConfig, 7,
     "-127.37082100101874", 20000),
    ("bimodal_2d", run_lla_mcmc, MCMCConfig, 7,
     "-1.1898060202503495", 12921),
    ("bimodal_2d", run_nested, NestedConfig, 7,
     "0.1351955315902212", 2148),
    ("bimodal_2d", run_lla_ss, SSConfig, 7,
     "-11.364245464333392", 20000),
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
    # nested with n_live <= 40 refills each dead slot on its own, a batch
    # of one chain: full-vector on conjugate_gaussian (a run to its chi
    # floor) and component-wise on highdim_gaussian_100
    ("conjugate_gaussian", run_nested,
     functools.partial(NestedConfig, n_live=40,
                       stopping=StoppingPolicy(max_iterations=300)), 7,
     "-77.30087205425909", 3697),
    ("highdim_gaussian_100", run_nested,
     functools.partial(NestedConfig, n_live=40,
                       stopping=StoppingPolicy(max_iterations=60)), 7,
     "-167.4176445122296", 1240),
    # prior and importance-density draws at d = 1 and 3, and a
    # stratified level at d = 4 (625 strata)
    ("conjugate_gaussian", run_lla_is, ISConfig, 7,
     "-91.21260898709265", 20117),
    ("truncated_gaussian_1d", run_lla_is, ISConfig, 7,
     "13.063967386748542", 20660),
    ("polynomial_regression_d2", run_lla_is, ISConfig, 7,
     "-69007.90236125528", 20001),
    ("polynomial_regression_d3", run_lla_ss, SSConfig, 7,
     "-43037.22517631102", 20437),
]


def _pin_id(pin):
    name, run, config, seed = pin[:4]
    n_live = getattr(config, "keywords", {}).get("n_live")
    return "%s-%s-%d%s" % (name, run.__name__, seed,
                           "" if n_live is None else "-n_live%d" % n_live)


@pytest.mark.parametrize(
    "name, run, config, seed, log_evidence, total_evals", PINNED,
    ids=[_pin_id(p) for p in PINNED])
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
