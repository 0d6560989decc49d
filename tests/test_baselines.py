"""Tests for the plain Monte Carlo and nested-sampling baselines."""

import math

import numpy as np
import pytest

from levidence.baselines import (NESTED_WALK_STEPS, NestedConfig, run_mc,
                                 run_nested)
from levidence.core import (NEG_INF, BayesianProblem, TerminationReason,
                            normal_prior, uniform_prior)
from levidence.lla_mcmc import KernelConfig
from levidence.schedule import StoppingPolicy


def _uniform_problem():
    return BayesianProblem(
        dimension=1,
        priors=[uniform_prior(0.0, 1.0)],
        log_likelihood=lambda t: math.log(2.0) + math.log(t[0])
        if t[0] > 0 else NEG_INF,
    )


def _gaussian_problem():
    return BayesianProblem(
        dimension=1, priors=[normal_prior(0.0, 1.0)],
        log_likelihood=lambda t: -0.5 * math.log(2 * math.pi)
        - 0.5 * t[0] ** 2)


class TestRunMC:
    def test_uniform_linear_within_error_bars(self):
        est = run_mc(_uniform_problem(), 20000, seed=0)
        assert abs(est.log_evidence) < 3 * est.standard_error_log
        assert est.total_evals == 20000

    def test_gaussian_within_error_bars(self):
        expect = -0.5 * math.log(2 * math.pi * 2.0)
        est = run_mc(_gaussian_problem(), 20000, seed=1)
        assert abs(est.log_evidence - expect) < 3 * est.standard_error_log

    def test_standard_error_shrinks_with_n(self):
        small = run_mc(_uniform_problem(), 500, seed=2)
        large = run_mc(_uniform_problem(), 50000, seed=2)
        assert large.standard_error_log < small.standard_error_log

    def test_standard_error_magnitude(self):
        # L = 2 theta: Var(L)/E[L]^2 = 1/3, so SE of log ~ sqrt(1/(3n))
        n = 10000
        est = run_mc(_uniform_problem(), n, seed=3)
        assert est.standard_error_log == pytest.approx(
            math.sqrt(1.0 / (3.0 * n)), rel=0.1)

    def test_deterministic_given_seed(self):
        a = run_mc(_uniform_problem(), 1000, seed=4)
        b = run_mc(_uniform_problem(), 1000, seed=4)
        assert a.log_evidence == b.log_evidence

    def test_zero_likelihood_everywhere(self):
        problem = BayesianProblem(
            dimension=1, priors=[uniform_prior(0.0, 1.0)],
            log_likelihood=lambda t: NEG_INF)
        with pytest.warns(RuntimeWarning):
            est = run_mc(problem, 100, seed=0)
        assert est.log_evidence == NEG_INF

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            run_mc(_uniform_problem(), 0, seed=0)


class TestRunNested:
    def test_uniform_linear_accuracy(self):
        # longer walks keep duplicate live points (and the resulting early
        # plateau stop) rare on this one-sided likelihood
        cfg = NestedConfig(n_live=300,
                           kernel=KernelConfig(steps_per_sample=40),
                           stopping=StoppingPolicy(max_iterations=20000,
                                                   max_evals=10**6))
        est = run_nested(_uniform_problem(), cfg, seed=0)
        assert abs(est.log_evidence) < 0.05

    def test_gaussian_accuracy(self):
        expect = -0.5 * math.log(2 * math.pi * 2.0)
        cfg = NestedConfig(n_live=300,
                           stopping=StoppingPolicy(max_iterations=20000,
                                                   max_evals=10**6))
        est = run_nested(_gaussian_problem(), cfg, seed=1)
        assert est.log_evidence == pytest.approx(expect, abs=0.05)

    def test_volume_model_is_deterministic_shrinkage(self):
        cfg = NestedConfig(n_live=100,
                           stopping=StoppingPolicy(max_iterations=50,
                                                   max_evals=10**6))
        est = run_nested(_uniform_problem(), cfg, seed=2)
        # all but the final live-set row follow exp(-i / n_live)
        chi = est.trace.chi[:-1]
        for i, x in enumerate(chi, start=1):
            assert x == pytest.approx(math.exp(-i / 100.0), rel=1e-12)

    def test_levels_strictly_increase(self):
        cfg = NestedConfig(n_live=100,
                           stopping=StoppingPolicy(max_iterations=200,
                                                   max_evals=10**6))
        est = run_nested(_uniform_problem(), cfg, seed=3)
        lam = est.trace.log_lambda
        assert all(b > a for a, b in zip(lam, lam[1:]))

    def test_plateau_terminates_degenerate(self):
        problem = BayesianProblem(
            dimension=1, priors=[uniform_prior(0.0, 1.0)],
            log_likelihood=lambda t: 0.25)  # log-likelihood is constant
        cfg = NestedConfig(n_live=50,
                           stopping=StoppingPolicy(max_iterations=1000,
                                                   max_evals=10**6))
        est = run_nested(problem, cfg, seed=4)
        assert est.termination_reason == TerminationReason.degenerate_level
        # a constant log-likelihood integrates exactly
        assert est.log_evidence == pytest.approx(0.25, abs=1e-12)

    def test_deterministic_given_seed(self):
        cfg = NestedConfig(n_live=100,
                           stopping=StoppingPolicy(max_iterations=500,
                                                   max_evals=10**6))
        a = run_nested(_uniform_problem(), cfg, seed=5)
        b = run_nested(_uniform_problem(), cfg, seed=5)
        assert a.log_evidence == b.log_evidence
        assert a.total_evals == b.total_evals

    def test_live_set_bound_does_not_bypass_caps(self):
        # on a nearly flat likelihood the live-set bound keeps vetoing the
        # delta-evidence stop; the iteration and eval caps must still apply
        problem = BayesianProblem(
            dimension=1, priors=[uniform_prior(0.0, 1.0)],
            log_likelihood=lambda t: -1e-3 * t[0])
        cfg = NestedConfig(n_live=50, stopping=StoppingPolicy(
            delta_evidence_tol=0.05, max_iterations=50))
        est = run_nested(problem, cfg, seed=0)
        assert est.termination_reason == TerminationReason.max_iterations
        assert len(est.trace) <= 51
        cfg = NestedConfig(n_live=50, stopping=StoppingPolicy(
            delta_evidence_tol=0.05, max_iterations=10**6, max_evals=500))
        est = run_nested(problem, cfg, seed=0)
        assert est.termination_reason == TerminationReason.max_evals
        assert est.total_evals <= 500 + NESTED_WALK_STEPS

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            NestedConfig(n_live=1)
