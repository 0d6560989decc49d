"""Tests for the constrained-MCMC evidence estimator."""

import collections
import math

import numpy as np
import pytest

from levidence import lla_mcmc
from levidence.core import (NEG_INF, BayesianProblem, CountingLikelihood,
                            LevelTrace, MarginalPrior, TerminationReason,
                            keyed_generators, log_terms, normal_prior,
                            truncated_normal_prior, uniform_prior)
from levidence.lla_mcmc import (COMPONENT_WISE_DIMENSION, KernelConfig,
                                MCMCConfig, chi_mcmc, constrained_mh_step,
                                replenish, run_lla_mcmc)
from levidence.models import make_benchmark
from levidence.schedule import StoppingPolicy, StopRun


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
        stddev = KernelConfig().resolve(_gaussian_problem())
        assert stddev[0] == pytest.approx(0.25)

    def test_scale_follows_each_prior(self):
        problem = _mixed_problem(11)
        stddev = KernelConfig().resolve(problem)
        np.testing.assert_array_equal(
            stddev, [0.25 * p.std for p in problem.priors])

    def test_invalid_rejected(self):
        for steps in (0, math.nan):
            with pytest.raises(ValueError, match="steps_per_sample"):
                KernelConfig(steps_per_sample=steps)

    @pytest.mark.parametrize("std", [0.0, math.nan, -1.0, math.inf])
    def test_prior_std_not_finite_and_positive_raises(self, std):
        # 0, NaN or inf would freeze every chain: a step proposes its own
        # state, NaN or inf, and a negative std is no scale either
        g = normal_prior(0.0, 1.0)
        problem = BayesianProblem(
            dimension=3, priors=[uniform_prior(0.0, 1.0), g, MarginalPrior(
                g.log_pdf, g.inverse_cdf, g.support, std=std)],
            log_likelihood=lambda t: 0.0)
        with pytest.raises(ValueError, match="prior 2 has std"):
            KernelConfig().resolve(problem)

    def test_run_rejects_a_frozen_proposal(self):
        g = normal_prior(0.0, 1.0)
        for std in (0.0, math.nan):
            problem = BayesianProblem(
                dimension=1,
                priors=[MarginalPrior(g.log_pdf, g.inverse_cdf, g.support,
                                      std=std)],
                log_likelihood=_gaussian_problem().log_likelihood)
            with pytest.raises(ValueError, match="prior 0 has std"):
                run_lla_mcmc(problem, MCMCConfig(), seed=7)
        # a narrow support is not frozen: its scale is a quarter of its std
        narrow = truncated_normal_prior(0.0, 1.0, 0.0, 1e-6)
        problem = BayesianProblem(dimension=1, priors=[narrow],
                                  log_likelihood=lambda t: 0.0)
        assert KernelConfig().resolve(problem)[0] == pytest.approx(
            0.25e-6 / math.sqrt(12.0), rel=1e-9)


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
        log_p = (log_terms(problem.blocks, state) if component_wise
                 else problem.log_prior(state))
        start = state
        for _ in range(20):
            state, log_L, log_p = _random_step(
                state, log_L, log_p, lam, 0.4, problem,
                problem.log_likelihood, rng)
        assert np.any(state != start)
        expect = (log_terms(problem.blocks, state) if component_wise
                  else problem.log_prior(state))
        np.testing.assert_array_equal(log_p, expect)
        np.testing.assert_array_equal(
            log_L, [problem.log_likelihood(t) for t in state])


def test_one_prior_call_per_family_on_highdim():
    # the 100 coordinates of highdim_gaussian_100 share one N(0, 1) prior:
    # a draw makes one inverse_cdf call and a component-wise step one
    # log_pdf call, through the first prior's attributes, where the traced
    # benchmark wraps them
    problem, _ = make_benchmark("highdim_gaussian_100", 7)
    assert problem.dimension > COMPONENT_WISE_DIMENSION
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(x):
            calls[name] += 1
            return fn(x)
        return wrapper

    for prior in problem.priors:
        prior.log_pdf = counted("log_pdf", prior.log_pdf)
        prior.inverse_cdf = counted("inverse_cdf", prior.inverse_cdf)
    state = problem.sample_prior(np.random.default_rng(1), 20)
    assert calls == {"inverse_cdf": 1}
    log_p = log_terms(problem.blocks, state)
    log_L = problem.log_likelihood_rows(state)
    calls.clear()
    rng = np.random.default_rng(2)
    _, _, log_p = constrained_mh_step(
        state, log_L, log_p, log_L.min() - 1.0,
        0.25 * rng.standard_normal(state.shape),
        np.log(rng.random(state.shape)),
        CountingLikelihood(problem.log_likelihood,
                           problem.log_likelihood_rows), problem)
    assert calls == {"log_pdf": 1}
    assert log_p.shape == state.shape


class TestReplenish:
    def test_counts_and_levels(self):
        problem = _uniform_problem()
        passing = np.array([[0.8], [0.9]])
        log_L = np.array([problem.log_likelihood(t) for t in passing])
        lam = math.log(2.0 * 0.7)
        s, ll = replenish(passing, log_L, lam, np.array([0.1]), 3, problem,
                          CountingLikelihood(problem.log_likelihood), 5,
                          [0, 1], keyed_generators((0, 1), range(5)))
        assert s.shape == (5, 1)
        assert ll.shape == (5,)
        assert np.all(ll > lam)

    def test_empty_survivors_raise(self):
        problem = _uniform_problem()
        with pytest.raises(StopRun) as exc:
            replenish(np.empty((0, 1)), np.empty(0), 0.0,
                      np.array([0.1]), 1, problem,
                      CountingLikelihood(problem.log_likelihood), 1,
                      [0, 1], keyed_generators((0, 1), [0]))
        assert exc.value.reason == TerminationReason.degenerate_level

    @pytest.mark.parametrize("d", [1, 3, 10, 11, 12])
    def test_rows_do_not_depend_on_batch_size(self, d):
        # full-vector up to COMPONENT_WISE_DIMENSION, a chain's row is the
        # same in a batch of 30, of 7 and of one (nested sampling's refill
        # at n_live <= 40) when its generator has the same key; above it,
        # component-wise, a level draw of k chains is the first k rows of a
        # draw of 30 from the same SeedSequence
        seen = []
        problem = _mixed_problem(d, seen)
        passing, passing_log_L, lam = _survivors(problem, 400, d)
        stddev, steps = np.full(d, 0.5), 10
        component_wise = d > COMPONENT_WISE_DIMENSION

        def run(chains):
            return replenish(passing, passing_log_L, lam, stddev, steps,
                             problem,
                             CountingLikelihood(problem.log_likelihood),
                             len(chains), [5, 2],
                             keyed_generators((5, 2), chains))

        chains = range(30)
        del seen[:]
        s, ll = run(chains)
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
        if component_wise:
            for k in (1, 7):
                s_k, ll_k = run(chains[:k])
                assert np.all(s_k == s[:k]) and np.all(ll_k == ll[:k])
            return
        s_seven, ll_seven = run(chains[3:10])
        assert np.all(s_seven == s[3:10]) and np.all(ll_seven == ll[3:10])
        del seen[:]
        for row, log_L_row, chain in zip(s, ll, chains):
            s_one, ll_one = run([chain])
            assert np.all(s_one[0] == row)
            assert ll_one[0] == log_L_row
        assert len(seen) == batch_calls

    def test_component_wise_stationarity(self):
        # uniform product prior on (0, 1)^12 conditioned on theta_0 > 0.5;
        # every chain starts in a corner and must mix to U(0.5, 1] in
        # theta_0 and U(0, 1) in theta_1.  Component-wise chains take the
        # level's draws and no generator of their own
        d = 12
        problem = BayesianProblem(
            dimension=d, priors=[uniform_prior(0.0, 1.0)] * d,
            log_likelihood=lambda t: float(t[0]))
        assert d > COMPONENT_WISE_DIMENSION
        start = np.full((1, d), 0.05)
        start[0, 0] = 0.95
        s, ll = replenish(start, np.array([0.95]), 0.5,
                          KernelConfig().resolve(problem), 200, problem,
                          CountingLikelihood(problem.log_likelihood), 1000,
                          [9], ())
        assert np.all(s[:, 0] > 0.5)
        assert np.all((s >= 0.0) & (s <= 1.0))
        assert np.all(ll == s[:, 0])
        assert s[:, 0].mean() == pytest.approx(0.75, abs=0.02)
        assert s[:, 0].var() == pytest.approx(1.0 / 48.0, abs=0.003)
        assert s[:, 1].mean() == pytest.approx(0.5, abs=0.04)
        assert s[:, 1].var() == pytest.approx(1.0 / 12.0, abs=0.01)

    @pytest.mark.parametrize("d", [10, 12])
    def test_chain_generators_only_for_full_vector_moves(self, monkeypatch,
                                                         d):
        # a full-vector refill builds one keyed generator per chain; a
        # component-wise one draws from its level's SeedSequence alone
        calls, built = [], []

        def counting(prefix, keys):
            calls.append(prefix)
            rngs = list(keyed_generators(prefix, keys))
            built.extend(rngs)
            return iter(rngs)

        monkeypatch.setattr(lla_mcmc, "keyed_generators", counting)
        levels = lla_mcmc._PopulationLevels(
            _mixed_problem(d), MCMCConfig(n_samples=100, n_replace=10), 3,
            100, 10, 1)
        trace = LevelTrace()
        log_lambda = levels.level(1, trace)
        levels.mass(1, log_lambda, trace)
        n = levels.cursor
        levels.advance(1, log_lambda, trace)
        assert np.all(levels.log_L > log_lambda)
        if d > COMPONENT_WISE_DIMENSION:
            assert calls == [] and built == []
        else:
            assert calls == [(3, 1)] and len(built) == n >= 10


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
