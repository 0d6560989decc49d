"""Tests for the constrained-MCMC evidence estimator."""

import math

import numpy as np
import pytest

from levidence.core import (NEG_INF, BayesianProblem, TerminationReason,
                            normal_prior, uniform_prior)
from levidence.lla_mcmc import (KernelConfig, LevelUnreachableError,
                                MCMCConfig, chi_mcmc, constrained_mh_step,
                                replenish, run_lla_mcmc)
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


class TestChiMCMC:
    def test_telescoping(self):
        assert chi_mcmc(1.0, 950, 1000) == pytest.approx(0.95)
        assert chi_mcmc(0.95, 950, 1000) == pytest.approx(0.9025)

    def test_zero_pass(self):
        assert chi_mcmc(0.5, 0, 100) == 0.0

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            chi_mcmc(1.0, 101, 100)
        with pytest.raises(ValueError):
            chi_mcmc(1.0, -1, 100)


class TestKernelConfig:
    def test_default_resolution(self):
        stddev, cw = KernelConfig().resolve(_gaussian_problem())
        assert stddev[0] == pytest.approx(0.25)
        assert cw is False

    def test_high_dimension_defaults_component_wise(self):
        problem = BayesianProblem(
            dimension=11, priors=[normal_prior(0.0, 1.0)] * 11,
            log_likelihood=lambda t: 0.0)
        _, cw = KernelConfig().resolve(problem)
        assert cw is True

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            KernelConfig(steps_per_sample=0)


class TestConstrainedMHStep:
    def test_never_returns_state_below_level(self):
        problem = _uniform_problem()
        rng = np.random.default_rng(0)
        state = np.array([0.9])
        log_L = problem.log_likelihood(state)
        lam = math.log(2.0 * 0.5)
        for _ in range(200):
            state, log_L, _ = constrained_mh_step(
                state, log_L, lam, np.array([0.3]), False, problem,
                problem.log_likelihood, rng)
            assert log_L > lam

    def test_uniform_prior_targets_conditional_prior(self):
        # long chain above lambda: states should be uniform on (0.5, 1]
        problem = _uniform_problem()
        rng = np.random.default_rng(1)
        lam = math.log(2.0 * 0.5)
        state = np.array([0.75])
        log_L = problem.log_likelihood(state)
        draws = []
        for _ in range(4000):
            state, log_L, _ = constrained_mh_step(
                state, log_L, lam, np.array([0.3]), False, problem,
                problem.log_likelihood, rng)
            draws.append(state[0])
        draws = np.asarray(draws[500:])
        assert draws.min() > 0.5
        # uniform on (0.5, 1]: mean 0.75, variance 1/48
        assert draws.mean() == pytest.approx(0.75, abs=0.02)
        assert draws.var() == pytest.approx(1.0 / 48.0, abs=0.005)

    def test_likelihood_not_called_for_prior_rejections(self):
        # a proposal far outside the uniform support is rejected on the
        # prior ratio alone
        problem = _uniform_problem()
        calls = []

        def counting(t):
            calls.append(t[0])
            return problem.log_likelihood(t)

        rng = np.random.default_rng(2)
        state = np.array([0.99])
        log_L = problem.log_likelihood(state)
        for _ in range(100):
            state, log_L, _ = constrained_mh_step(
                state, log_L, math.log(1.9), np.array([50.0]), False,
                problem, counting, rng)
        assert all(0.0 <= x <= 1.0 for x in calls)


class TestReplenish:
    def test_counts_and_levels(self):
        problem = _uniform_problem()
        passing = np.array([[0.8], [0.9]])
        log_L = np.array([problem.log_likelihood(t) for t in passing])
        lam = math.log(2.0 * 0.7)
        s, ll = replenish(passing, log_L, lam, np.array([0.1]), False, 3,
                          problem, problem.log_likelihood,
                          [(0, 1, chain) for chain in range(5)])
        assert s.shape == (5, 1)
        assert np.all(ll > lam)

    def test_empty_survivors_raise(self):
        problem = _uniform_problem()
        with pytest.raises(LevelUnreachableError):
            replenish(np.empty((0, 1)), np.empty(0), 0.0,
                      np.array([0.1]), False, 1, problem,
                      problem.log_likelihood, [(0, 1, 0)])


class TestRunLLAMCMC:
    def test_uniform_linear_accuracy(self):
        cfg = MCMCConfig(n_samples=1000, n_replace=25,
                         stopping=StoppingPolicy(max_iterations=400,
                                                 max_evals=200000))
        est = run_lla_mcmc(_uniform_problem(), cfg, seed=4)
        assert abs(est.log_evidence) < 0.05
        assert est.termination_reason in (TerminationReason.chi_floor,
                                          TerminationReason.delta_evidence)

    def test_gaussian_problem_matches_reference(self):
        expect = -0.5 * math.log(2 * math.pi * 2.0)
        cfg = MCMCConfig(n_samples=1000, n_replace=25,
                         stopping=StoppingPolicy(max_iterations=400,
                                                 max_evals=200000))
        est = run_lla_mcmc(_gaussian_problem(), cfg, seed=8)
        assert est.log_evidence == pytest.approx(expect, abs=0.05)

    def test_monotone_trace(self):
        cfg = MCMCConfig(n_samples=500, n_replace=25,
                         stopping=StoppingPolicy(max_iterations=50))
        est = run_lla_mcmc(_uniform_problem(), cfg, seed=1)
        lam, chi = est.trace.log_lambda, est.trace.chi
        assert all(b > a for a, b in zip(lam, lam[1:]))
        assert all(b <= a for a, b in zip(chi, chi[1:]))

    def test_deterministic_given_seed(self):
        cfg = MCMCConfig(n_samples=500, n_replace=25,
                         stopping=StoppingPolicy(max_iterations=30))
        a = run_lla_mcmc(_uniform_problem(), cfg, seed=9)
        b = run_lla_mcmc(_uniform_problem(), cfg, seed=9)
        assert a.log_evidence == b.log_evidence
        assert a.total_evals == b.total_evals

    def test_eval_accounting(self):
        cfg = MCMCConfig(n_samples=500, n_replace=25,
                         stopping=StoppingPolicy(max_iterations=30))
        est = run_lla_mcmc(_uniform_problem(), cfg, seed=2)
        assert est.total_evals >= est.trace.n_evals[-1]
        evals = est.trace.n_evals
        assert all(b >= a for a, b in zip(evals, evals[1:]))
        assert evals[0] >= cfg.n_samples  # at least the initial population

    def test_evidence_below_max_likelihood(self):
        cfg = MCMCConfig(n_samples=500, n_replace=25,
                         stopping=StoppingPolicy(max_iterations=100))
        est = run_lla_mcmc(_uniform_problem(), cfg, seed=3)
        assert est.log_evidence <= math.log(2.0)

    def test_posterior_moments_close_to_exact(self):
        # posterior density 2 theta on (0, 1): mean 2/3, variance 1/18
        cfg = MCMCConfig(n_samples=1000, n_replace=25,
                         stopping=StoppingPolicy(max_iterations=400,
                                                 max_evals=200000))
        est = run_lla_mcmc(_uniform_problem(), cfg, seed=6)
        assert est.posterior_mean[0] == pytest.approx(2.0 / 3.0, abs=0.03)
        assert est.posterior_variance[0] == pytest.approx(1.0 / 18.0,
                                                          abs=0.01)

    def test_budget_cap_respected(self):
        cfg = MCMCConfig(n_samples=500, n_replace=25,
                         stopping=StoppingPolicy(max_evals=2000))
        est = run_lla_mcmc(_uniform_problem(), cfg, seed=5)
        # at most one iteration's replenishment beyond the cap
        assert est.total_evals <= 2000 + 500

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            MCMCConfig(n_samples=100, n_replace=100)
        with pytest.raises(ValueError):
            MCMCConfig(n_samples=100, n_replace=0)
