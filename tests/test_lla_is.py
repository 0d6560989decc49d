"""Tests for the importance-sampling evidence estimator."""

import math
import warnings

import numpy as np
import pytest

from levidence.core import (NEG_INF, BayesianProblem, LevelTrace,
                            TerminationReason, normal_prior, uniform_prior)
from levidence.lla_is import (GaussianISD, ISConfig, _ISLevels, chi_weighted,
                              fit_isd, run_lla_is)
from levidence.lla_ss import SSConfig, _SSLevels
from levidence.models import make_benchmark
from levidence.schedule import LevelPolicy, StoppingPolicy


def _uniform_problem():
    return BayesianProblem(
        dimension=1,
        priors=[uniform_prior(0.0, 1.0)],
        log_likelihood=lambda t: math.log(2.0) + math.log(t[0])
        if t[0] > 0 else NEG_INF,
    )


class TestGaussianISD:
    def test_rejects_nonpositive_stddev(self):
        with pytest.raises(ValueError):
            GaussianISD(mean=np.array([0.0]), stddev=np.array([0.0]),
                        support=[(-1.0, 1.0)])

    @pytest.mark.parametrize("mean, stddev", [
        (0.0, math.nan), (0.0, math.inf), (math.nan, 1.0), (math.inf, 1.0),
        (-math.inf, 1.0)])
    def test_rejects_non_finite_mean_or_stddev(self, mean, stddev):
        # checked in every dimension, not only the first
        with pytest.raises(ValueError, match="finite|std > 0"):
            GaussianISD(mean=np.array([0.0, mean]),
                        stddev=np.array([1.0, stddev]),
                        support=[(-1.0, 1.0)] * 2)

    def test_samples_stay_in_support(self):
        isd = GaussianISD(mean=np.array([0.9]), stddev=np.array([1.0]),
                          support=[(0.0, 1.0)])
        s = isd.sample(np.random.default_rng(0), 500)
        assert np.all((s >= 0.0) & (s <= 1.0))

    def test_log_pdf_matches_truncated_density(self):
        isd = GaussianISD(mean=np.array([0.0]), stddev=np.array([1.0]),
                          support=[(-np.inf, np.inf)])
        assert isd.log_pdf(np.array([0.0])) == pytest.approx(
            -0.5 * math.log(2 * math.pi))

    def test_log_pdf_rows_match_vectors(self):
        isd = GaussianISD(mean=np.array([0.2, 0.5]),
                          stddev=np.array([1.0, 0.3]),
                          support=[(-np.inf, np.inf), (0.0, 1.0)])
        X = isd.sample(np.random.default_rng(4), 50)
        assert np.all(isd.log_pdf(X) == [isd.log_pdf(x) for x in X])


class TestFitISD:
    def test_mean_and_inflated_stddev(self):
        samples = np.array([[0.0], [2.0], [4.0]])
        isd = fit_isd(samples, 2.0, [(-np.inf, np.inf)])
        assert isd.mean[0] == pytest.approx(2.0)
        assert isd.stddev[0] == pytest.approx(2.0 * 2.0)  # ddof=1 std is 2

    def test_override_wins(self):
        samples = np.array([[0.0], [2.0]])
        isd = fit_isd(samples, 2.0, [(-np.inf, np.inf)],
                      stddev_override=0.125)
        assert isd.stddev[0] == 0.125

    def test_too_few_samples(self):
        assert fit_isd(np.array([[1.0]]), 2.0, [(-np.inf, np.inf)]) is None

    def test_degenerate_spread_floored(self):
        samples = np.array([[0.5], [0.5], [0.5]])
        isd = fit_isd(samples, 2.0, [(0.0, 1.0)])
        assert isd.stddev[0] > 0.0


def _is_pool(log_L, log_w):
    """An IS level whose pool holds these log-likelihoods and log weights;
    the likelihood reads a row's log-likelihood off its coordinate."""
    problem = BayesianProblem(dimension=1, priors=[uniform_prior(0.0, 1.0)],
                              log_likelihood=lambda t: t[0])
    # a guard of 0 never tops the pool up
    levels = _ISLevels(problem, ISConfig(ess_threshold_fraction=0.0), 0)
    levels.extend(np.reshape(log_L, (-1, 1)), np.asarray(log_w, dtype=float))
    return levels


class TestChiIS:
    def test_prior_samples_fraction(self):
        # unit weights: chi is just the exceedance fraction
        levels = _is_pool(np.log(np.arange(1, 11, dtype=float)), np.zeros(10))
        chi, *_ = levels.mass(1, math.log(5.0), LevelTrace())
        assert chi == pytest.approx(0.5)

    def test_weighted(self):
        levels = _is_pool([0.0, 1.0], [math.log(3.0), math.log(1.0)])
        # only the second sample exceeds: (1/2) * 1.0
        chi, shell, weights, _ = levels.mass(1, 0.5, LevelTrace())
        assert chi == pytest.approx(0.5)
        # the shell is the first sample, weighted as in chi
        assert shell.tolist() == [[0.0]] and weights == pytest.approx([1.5])

    def test_none_exceed(self):
        levels = _is_pool([0.0], [0.0])
        assert levels.mass(1, 1.0, LevelTrace())[0] == 0.0


class TestChiWeighted:
    def test_permuting_the_pool_leaves_chi_unchanged(self):
        rng = np.random.default_rng(0)
        for n in (1, 7, 1000):
            log_L = rng.normal(size=n)
            w = np.exp(rng.normal(scale=3.0, size=n)) / n
            chi = chi_weighted(log_L, w, 0.1)
            for _ in range(5):
                p = rng.permutation(n)
                assert chi_weighted(log_L[p], w[p], 0.1) == chi

    @pytest.mark.parametrize("levels", [
        lambda p: _ISLevels(p, ISConfig(n_initial=200), 3),
        lambda p: _SSLevels(p, SSConfig(per_dim_counts=(4,),
                                        n_per_iteration=200), 3)],
        ids=["lla_is", "lla_ss"])
    def test_no_shell_row_has_zero_likelihood(self, levels):
        # a fifth of the prior has likelihood 0: the first level lies above
        # it, and the first shell, above the implicit level -inf, holds
        # none of those rows
        problem = BayesianProblem(
            dimension=1, priors=[uniform_prior(0.0, 1.0)],
            log_likelihood=lambda t: math.log(t[0]) if t[0] > 0.2
            else NEG_INF)
        levels = levels(problem)
        trace = LevelTrace()
        log_lambda = levels.level(1, trace)
        assert np.any(levels.log_L == NEG_INF)
        _, shell, weights, _ = levels.mass(1, log_lambda, trace)
        assert len(shell) > 0 and np.all(weights > 0)
        assert all(problem.log_likelihood(t) > NEG_INF for t in shell)


class TestRunLLAIS:
    def test_uniform_linear_accuracy(self):
        # a small guard fraction keeps the weight-degeneracy top-ups from
        # eating the budget on this wide flat likelihood
        cfg = ISConfig(n_initial=1000, ess_threshold_fraction=0.001,
                       stopping=StoppingPolicy(max_iterations=500,
                                               max_evals=150000))
        est = run_lla_is(_uniform_problem(), cfg, seed=4)
        assert abs(est.log_evidence) < 0.05
        assert est.termination_reason in (TerminationReason.chi_floor,
                                          TerminationReason.delta_evidence)

    def test_monotone_trace(self):
        est = run_lla_is(_uniform_problem(), ISConfig(n_initial=500), seed=1)
        lam = est.trace.log_lambda
        chi = est.trace.chi
        assert all(b > a for a, b in zip(lam, lam[1:]))
        assert all(b <= a for a, b in zip(chi, chi[1:]))

    def test_deterministic_given_seed(self):
        a = run_lla_is(_uniform_problem(), ISConfig(n_initial=500), seed=9)
        b = run_lla_is(_uniform_problem(), ISConfig(n_initial=500), seed=9)
        assert a.log_evidence == b.log_evidence
        assert a.total_evals == b.total_evals

    def test_eval_accounting(self):
        est = run_lla_is(_uniform_problem(), ISConfig(n_initial=500), seed=2)
        # evaluations spent in an unfinished final iteration are counted in
        # the total but never get a trace row
        assert est.total_evals >= est.trace.n_evals[-1]
        evals = est.trace.n_evals
        assert all(b > a for a, b in zip(evals, evals[1:]))
        assert evals[0] >= 500  # at least the initial batch

    def test_evidence_below_max_likelihood(self):
        est = run_lla_is(_uniform_problem(), ISConfig(n_initial=500), seed=3)
        assert est.log_evidence <= math.log(2.0)

    def test_posterior_moments_close_to_exact(self):
        # posterior of L = 2 theta on U(0,1) has density 2 theta:
        # mean 2/3, variance 1/18
        cfg = ISConfig(n_initial=1000, ess_threshold_fraction=0.001,
                       stopping=StoppingPolicy(max_iterations=500,
                                               max_evals=150000))
        est = run_lla_is(_uniform_problem(), cfg, seed=6)
        assert est.posterior_mean[0] == pytest.approx(2.0 / 3.0, abs=0.03)
        assert est.posterior_variance[0] == pytest.approx(1.0 / 18.0,
                                                          abs=0.02)

    def test_posterior_mean_uses_importance_weights(self):
        # criterion 1's config on conjugate_gaussian: the exact posterior
        # is Gaussian, its log density a quadratic read off three points
        cfg = ISConfig(
            n_initial=1000, ess_threshold_fraction=0.001,
            stddev_override=0.125,
            level_policy=LevelPolicy(f_init=0.025, f_slope=0.025, f_max=0.3,
                                     escalation_factor=1.5,
                                     escalation_cap=0.999),
            stopping=StoppingPolicy(max_iterations=250, max_evals=25000))
        for dataset in (7, 8, 9):
            problem, _ = make_benchmark("conjugate_gaussian", dataset)
            t = np.array([[0.0], [1.0], [2.0]])
            log_post = problem.log_prior(t) + problem.log_likelihood_rows(t)
            var = -1.0 / (log_post[0] - 2.0 * log_post[1] + log_post[2])
            mean = 1.0 + var * (log_post[2] - log_post[0]) / 2.0
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                est = run_lla_is(problem, cfg, seed=7)
            assert abs(est.posterior_mean[0] - mean) <= 0.15 * math.sqrt(var)

    def test_full_ess_threshold_returns(self):
        # at ess_threshold_fraction = 1 the first level's equal weights
        # give an ESS equal to the threshold, so its top-up must still draw
        cfg = ISConfig(n_initial=100, ess_threshold_fraction=1.0,
                       stopping=StoppingPolicy(max_evals=2000))
        est = run_lla_is(_uniform_problem(), cfg, seed=0)
        assert est.trace.n_evals[0] == 101
        assert est.total_evals <= 2000 + 100

    def test_budget_cap_respected(self):
        stop = StoppingPolicy(max_evals=1500)
        est = run_lla_is(_uniform_problem(),
                         ISConfig(n_initial=500, stopping=stop), seed=5)
        assert est.total_evals <= 1500 + 500  # at most one batch overshoot

    def test_gaussian_problem_matches_reference(self):
        problem = BayesianProblem(
            dimension=1, priors=[normal_prior(0.0, 1.0)],
            log_likelihood=lambda t: -0.5 * math.log(2 * math.pi)
            - 0.5 * t[0] ** 2)
        # conjugate: log E = log N(0; 0, 2)
        expect = -0.5 * math.log(2 * math.pi * 2.0)
        # a fixed wide proposal keeps the level steps small, which keeps
        # the rectangle-rule overshoot below the tolerance
        cfg = ISConfig(n_initial=2000, ess_threshold_fraction=0.01,
                       stddev_override=0.7,
                       level_policy=LevelPolicy(f_init=0.025, f_slope=0.025,
                                                f_max=0.15),
                       stopping=StoppingPolicy(max_iterations=1000,
                                               max_evals=300000))
        est = run_lla_is(problem, cfg, seed=8)
        assert est.log_evidence == pytest.approx(expect, abs=0.05)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            ISConfig(n_initial=5)
        with pytest.raises(ValueError):
            ISConfig(stddev_multiplier=0.0)
        for bad in ({"stddev_multiplier": math.nan},
                    {"ess_threshold_fraction": math.nan},
                    {"ess_threshold_fraction": -1.0},
                    {"ess_threshold_fraction": 1.5},
                    {"stddev_override": 0.0},
                    {"stddev_override": math.nan},
                    {"stddev_multiplier": math.inf},
                    {"stddev_override": math.inf},
                    {"n_initial": math.nan}):
            with pytest.raises(ValueError):
                ISConfig(**bad)
