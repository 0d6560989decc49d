"""Tests for the constrained-MCMC evidence estimator."""

import math

import numpy as np
import pytest

from levidence.core import (NEG_INF, BayesianProblem, CountingLikelihood,
                            TerminationReason, normal_prior, uniform_prior)
from levidence.lla_mcmc import (COMPONENT_WISE_DIMENSION, KernelConfig,
                                LevelUnreachableError, MCMCConfig,
                                _log_prior_terms, chi_mcmc,
                                constrained_mh_step, replenish, run_lla_mcmc)
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


def _mixed_problem(d, seen=None):
    # alternating U(0, 1) and N(0.2, 1.5^2) marginals; a likelihood peaked
    # at 0.5 in every coordinate
    # seen, if given, collects each evaluated (candidate, log-likelihood)
    def log_L(t):
        v = -10.0 * float(np.sum((t - 0.5) ** 2))
        if seen is not None:
            seen.append((t.copy(), v))
        return v
    priors = [uniform_prior(0.0, 1.0) if k % 2 == 0
              else normal_prior(0.2, 1.5) for k in range(d)]
    return BayesianProblem(dimension=d, priors=priors, log_likelihood=log_L)


def _survivors(problem, n, seed, quantile=0.5):
    """Prior draws above a level at the given likelihood quantile."""
    x = problem.sample_prior(np.random.default_rng(seed), n)
    log_L = np.array([problem.log_likelihood(t) for t in x])
    lam = float(np.quantile(log_L, quantile))
    return x[log_L > lam], log_L[log_L > lam], lam


def _random_step(state, log_L, log_p, lam, scale, problem, logL_fn, rng):
    delta = scale * rng.standard_normal(state.shape)
    log_u = np.log(rng.uniform(size=log_p.shape))
    return constrained_mh_step(state, log_L, log_p, lam, delta, log_u,
                               CountingLikelihood(logL_fn), problem)


class TestConstrainedMHStep:
    def test_never_returns_state_below_level(self):
        problem = _uniform_problem()
        rng = np.random.default_rng(0)
        state = np.full((20, 1), 0.9)
        log_L = np.array([problem.log_likelihood(t) for t in state])
        log_p = problem.log_prior(state)
        lam = math.log(2.0 * 0.5)
        for _ in range(200):
            state, log_L, log_p = _random_step(
                state, log_L, log_p, lam, 0.3, problem,
                problem.log_likelihood, rng)
            assert np.all(log_L > lam)
            assert np.all(state > 0.5)

    def test_uniform_prior_targets_conditional_prior(self):
        # every chain starts at 0.75 and runs above lambda: after burn-in
        # the rows should be uniform on (0.5, 1]
        problem = _uniform_problem()
        rng = np.random.default_rng(1)
        lam = math.log(2.0 * 0.5)
        state = np.full((400, 1), 0.75)
        log_L = np.array([problem.log_likelihood(t) for t in state])
        log_p = problem.log_prior(state)
        draws = []
        for step in range(60):
            state, log_L, log_p = _random_step(
                state, log_L, log_p, lam, 0.3, problem,
                problem.log_likelihood, rng)
            if step >= 20:
                draws.append(state[:, 0])
        draws = np.concatenate(draws)
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
        state = np.full((10, 1), 0.99)
        log_L = np.array([problem.log_likelihood(t) for t in state])
        log_p = problem.log_prior(state)
        for _ in range(100):
            state, log_L, log_p = _random_step(
                state, log_L, log_p, math.log(1.9), 50.0, problem, counting,
                rng)
        assert all(0.0 <= x <= 1.0 for x in calls)
        assert len(calls) < 100

    @pytest.mark.parametrize("component_wise", [False, True])
    def test_cached_log_prior_follows_state(self, component_wise):
        problem = _mixed_problem(4)
        passing, passing_log_L, lam = _survivors(problem, 200, 3)
        rng = np.random.default_rng(4)
        state, log_L = passing[:30], passing_log_L[:30]
        log_p = (_log_prior_terms(problem, state) if component_wise
                 else problem.log_prior(state))
        start = state
        for _ in range(20):
            state, log_L, log_p = _random_step(
                state, log_L, log_p, lam, 0.4, problem,
                problem.log_likelihood, rng)
        assert np.any(state != start)
        expect = (_log_prior_terms(problem, state) if component_wise
                  else problem.log_prior(state))
        np.testing.assert_array_equal(log_p, expect)
        np.testing.assert_array_equal(
            log_L, [problem.log_likelihood(t) for t in state])


class TestReplenish:
    def test_counts_and_levels(self):
        problem = _uniform_problem()
        passing = np.array([[0.8], [0.9]])
        log_L = np.array([problem.log_likelihood(t) for t in passing])
        lam = math.log(2.0 * 0.7)
        s, ll = replenish(passing, log_L, lam, np.array([0.1]), False, 3,
                          problem, CountingLikelihood(problem.log_likelihood),
                          [(0, 1, chain) for chain in range(5)])
        assert s.shape == (5, 1)
        assert ll.shape == (5,)
        assert np.all(ll > lam)

    def test_empty_survivors_raise(self):
        problem = _uniform_problem()
        with pytest.raises(LevelUnreachableError):
            replenish(np.empty((0, 1)), np.empty(0), 0.0,
                      np.array([0.1]), False, 1, problem,
                      CountingLikelihood(problem.log_likelihood), [(0, 1, 0)])

    @pytest.mark.parametrize("d", [1, 3, 10, 12])
    def test_rows_equal_lone_paths(self, d):
        # a path run alone equals its row of the batch: alone it takes the
        # scalar step at d <= COMPONENT_WISE_DIMENSION, the array step above
        seen = []
        problem = _mixed_problem(d, seen)
        passing, passing_log_L, lam = _survivors(problem, 400, d)
        stddev, steps = np.full(d, 0.5), 10
        component_wise = d > COMPONENT_WISE_DIMENSION

        def run(paths):
            return replenish(passing, passing_log_L, lam, stddev,
                             component_wise, steps, problem,
                             CountingLikelihood(problem.log_likelihood), paths)

        paths = [(5, 2, chain) for chain in range(30)]
        del seen[:]
        s, ll = run(paths)
        batch_calls = len(seen)
        candidates = np.array([t for t, _ in seen])
        # both gates rejected some proposals.  The prior gate: no evaluated
        # candidate leaves the unit support of the uniform (even)
        # coordinates, as steps of 0.5 often do; and with full-vector moves,
        # where a prior rejection skips the likelihood, there are fewer
        # calls than steps.  The likelihood gate: some evaluated candidates
        # lie at or below the level.
        uniform = candidates[:, ::2]
        assert np.all((uniform >= 0.0) & (uniform <= 1.0))
        assert 0 < batch_calls <= 30 * steps
        assert component_wise or batch_calls < 30 * steps
        assert min(v for _, v in seen) <= lam
        del seen[:]
        for row, log_L_row, path in zip(s, ll, paths):
            s_one, ll_one = run([path])
            assert np.all(s_one[0] == row)
            assert ll_one[0] == log_L_row
        assert len(seen) == batch_calls

    def test_component_wise_stationarity(self):
        # uniform product prior on (0, 1)^12 conditioned on theta_0 > 0.5;
        # every chain starts in a corner and must mix to U(0.5, 1] in
        # theta_0 and U(0, 1) in theta_1
        d = 12
        problem = BayesianProblem(
            dimension=d, priors=[uniform_prior(0.0, 1.0)] * d,
            log_likelihood=lambda t: float(t[0]))
        stddev, component_wise = KernelConfig().resolve(problem)
        assert component_wise
        start = np.full((1, d), 0.05)
        start[0, 0] = 0.95
        s, ll = replenish(start, np.array([0.95]), 0.5, stddev, True, 200,
                          problem, CountingLikelihood(problem.log_likelihood),
                          [(9, chain) for chain in range(1000)])
        assert np.all(s[:, 0] > 0.5)
        assert np.all((s >= 0.0) & (s <= 1.0))
        assert np.all(ll == s[:, 0])
        assert s[:, 0].mean() == pytest.approx(0.75, abs=0.02)
        assert s[:, 0].var() == pytest.approx(1.0 / 48.0, abs=0.003)
        assert s[:, 1].mean() == pytest.approx(0.5, abs=0.04)
        assert s[:, 1].var() == pytest.approx(1.0 / 12.0, abs=0.01)


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
