"""Tests for the stratified-sampling evidence estimator."""

import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

from levidence.core import (NEG_INF, BayesianProblem, ConfigFieldError,
                            LevelTrace, TerminationReason, keyed_generators,
                            normal_prior, uniform_prior)
from levidence.lla_ss import (SSConfig, StratificationError, _SSLevels,
                              build_strata, run_lla_ss, sample_stratum,
                              var_chi_ss)
from levidence.models import make_benchmark
from levidence.schedule import LevelPolicy, StoppingPolicy


def _uniform_problem():
    return BayesianProblem(
        dimension=1,
        priors=[uniform_prior(0.0, 1.0)],
        log_likelihood=lambda t: math.log(2.0) + math.log(t[0])
        if t[0] > 0 else NEG_INF,
    )


class TestBuildStrata:
    def test_grid_counts_and_masses(self):
        problem = BayesianProblem(
            dimension=3, priors=[uniform_prior(0, 1)] * 3,
            log_likelihood=lambda t: 0.0)
        grid = build_strata(problem, (5, 5, 5))
        assert len(grid.strata) == 125
        assert grid.mass == pytest.approx(1.0 / 125)
        assert grid.active.shape == (125,) and grid.active.all()
        assert len(grid.strata) * grid.mass == pytest.approx(1.0, abs=1e-12)

    def test_single_stratum(self):
        grid = build_strata(_uniform_problem(), (1,))
        assert grid.strata == [(1,)]
        assert grid.mass == 1.0

    def test_single_count_applies_to_every_dimension(self):
        problem = BayesianProblem(
            dimension=3, priors=[uniform_prior(0, 1)] * 3,
            log_likelihood=lambda t: 0.0)
        grid = build_strata(problem, (4,))
        assert grid.per_dim_counts == (4, 4, 4)
        assert len(grid.strata) == 64

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            build_strata(_uniform_problem(), (5, 5))

    def test_infeasible_count_rejected(self):
        problem = BayesianProblem(
            dimension=8, priors=[uniform_prior(0, 1)] * 8,
            log_likelihood=lambda t: 0.0)
        with pytest.raises(ConfigFieldError, match="gives 100000000 strata"):
            build_strata(problem, (10,) * 8)


def _uniforms(seed, d, n):
    return np.random.default_rng(seed).random((d, n))


def _counted(prior, shapes):
    """prior with an inverse_cdf that records the shape of each call."""
    def inverse_cdf(u):
        shapes.append(np.shape(u))
        return prior.inverse_cdf(u)
    return dataclasses.replace(prior, inverse_cdf=inverse_cdf)


class TestSampleStratum:
    def test_uniform_membership(self):
        problem = _uniform_problem()
        # position 2 is stratum (3,)
        s = sample_stratum(problem, (5,), np.full(200, 2),
                           _uniforms(0, 1, 200))
        assert np.all((s > 0.4) & (s <= 0.6))

    def test_normal_median_split(self):
        problem = BayesianProblem(
            dimension=1, priors=[normal_prior(0.0, 1.0)],
            log_likelihood=lambda t: 0.0)
        s = sample_stratum(problem, (2,), np.repeat([0, 1], 200),
                           _uniforms(1, 1, 400))
        assert np.all(s[:200] <= 0.0)
        assert np.all(s[200:] >= 0.0)

    def test_pooled_strata_reproduce_prior_moments(self):
        problem = BayesianProblem(
            dimension=1, priors=[normal_prior(0.0, 1.0)],
            log_likelihood=lambda t: 0.0)
        pooled = sample_stratum(problem, (5,), np.repeat(np.arange(5), 20000),
                                _uniforms(2, 1, 100000)).ravel()
        se_mean = 1.0 / math.sqrt(pooled.size)
        assert abs(pooled.mean()) < 3 * se_mean
        assert pooled.var() == pytest.approx(1.0, abs=0.02)

    def test_2d_membership(self):
        # every grid position lands in the cell of build_strata's stratum
        problem = BayesianProblem(
            dimension=2, priors=[uniform_prior(0, 1), uniform_prior(0, 1)],
            log_likelihood=lambda t: 0.0)
        grid = build_strata(problem, (2, 3))
        owner = np.repeat(np.arange(6), 50)
        s = sample_stratum(problem, (2, 3), owner, _uniforms(3, 2, 300))
        cells = np.array(grid.strata)[owner]
        assert np.all(((cells - 1) / (2, 3) < s) & (s <= cells / (2, 3)))

    def test_level_maps_every_stratum_in_one_pass(self):
        # one inverse_cdf call per dimension for the whole (5, 5) grid, and
        # each stratum's rows as its own generator draws them alone
        shapes = []
        problem = BayesianProblem(
            dimension=2, priors=[_counted(uniform_prior(0, 1), shapes),
                                 _counted(normal_prior(0, 1), shapes)],
            log_likelihood=lambda t: -float(t @ t))
        levels = _SSLevels(problem, SSConfig(per_dim_counts=(5, 5),
                                             n_per_iteration=60), 3)
        levels.level(1, LevelTrace())
        assert shapes == [(60,), (60,)]
        grid = levels.grid
        assert levels.tags.tolist() == np.repeat(np.arange(25),
                                                 [3] * 10 + [2] * 15).tolist()
        for pos, rng in enumerate(keyed_generators((3, 1), range(25))):
            # the stratum drawn on its own, one uniform(size=n) per dimension
            n, expect = (3 if pos < 10 else 2), []
            for prior, c in zip(problem.priors, grid.strata[pos]):
                lo, hi = (c - 1) / 5, c / 5
                u = lo + (hi - lo) * (1.0 - rng.uniform(size=n))
                expect.append(prior.inverse_cdf(np.clip(u, 1e-16, 1 - 1e-16)))
            assert np.array_equal(levels.samples[levels.tags == pos],
                                  np.column_stack(expect))


def _levels_with_pools(pools, active=None):
    """An SS strategy whose pool holds pools[s], a list of log-likelihoods,
    for stratum s; the likelihood reads a row's log-likelihood off its
    coordinate."""
    problem = BayesianProblem(
        dimension=1, priors=[uniform_prior(0, 1)],
        log_likelihood=lambda t: t[0])
    levels = _SSLevels(problem, SSConfig(per_dim_counts=(len(pools),)), 0)
    for pos, lls in enumerate(pools):
        levels.extend(np.reshape(lls, (-1, 1)), np.full(len(lls), pos))
    if active is not None:
        levels.grid.active = np.asarray(active)
    return levels


def _chi(levels, log_lambda):
    return levels.mass(1, log_lambda, LevelTrace())[0]


class TestChiSS:
    def test_all_above(self):
        levels = _levels_with_pools([[1.0, 2.0], [3.0]])
        assert _chi(levels, 0.0) == pytest.approx(1.0)

    def test_half_and_half(self):
        levels = _levels_with_pools([[1.0, 1.0], [-1.0, -1.0]])
        assert _chi(levels, 0.0) == pytest.approx(0.5)

    def test_single_active_stratum_of_many(self):
        levels = _levels_with_pools(
            [[0.0]] * 124 + [[1.0, 1.0, 0.0, 0.0, 0.0]],
            active=[False] * 124 + [True])
        assert _chi(levels, 0.5) == pytest.approx(0.4 / 125)

    def test_empty_pool_raises(self):
        levels = _levels_with_pools([[1.0], []])
        with pytest.raises(StratificationError):
            _chi(levels, 0.0)

    def test_variance_bounded_by_binomial(self):
        levels = _levels_with_pools([[1.0, -1.0, 1.0, -1.0],
                                     [1.0, 1.0, -1.0, -1.0]])
        chi = _chi(levels, 0.0)
        v = var_chi_ss(levels.grid, levels.tags, levels.log_L, 0.0, chi)
        n = 8
        assert 0.0 <= v <= chi * (1 - chi) / n + 1e-12

    def test_variance_two_strata_hand_value(self):
        # fractions 1 and 0 with equal masses: stratification removes all
        # between-strata variance, so the plug-in value is 0
        levels = _levels_with_pools([[1.0] * 50, [-1.0] * 50])
        chi = _chi(levels, 0.0)
        assert var_chi_ss(levels.grid, levels.tags, levels.log_L, 0.0,
                          chi) == pytest.approx(0.0, abs=1e-15)
        # the mass step records the same value
        trace = LevelTrace()
        levels.mass(1, 0.0, trace)
        assert trace.var_chi == [0.0]

    def test_weights_reproduce_the_per_stratum_sum(self):
        # chi = sum over active strata of m e_s / n_s, summed per stratum
        rng = np.random.default_rng(5)
        for _ in range(50):
            n_strata = int(rng.integers(1, 30))
            pools = [rng.normal(size=rng.integers(1, 40)).tolist()
                     for _ in range(n_strata)]
            active = rng.random(n_strata) < 0.7
            levels = _levels_with_pools(pools, active)
            log_lambda = rng.normal()
            expect = sum(levels.grid.mass * np.sum(np.array(lls) > log_lambda)
                         / len(lls) for lls, on in zip(pools, active) if on)
            assert abs(_chi(levels, log_lambda) - expect) <= 1e-15

    def test_retired_rows_weigh_nothing_and_leave_the_shell(self):
        levels = _levels_with_pools([[0.5, 2.0], [0.2, 0.7, 3.0], [0.9]],
                                    active=[True, False, True])
        w = levels.weights()
        assert w.tolist() == [1 / 6, 1 / 6, 0.0, 0.0, 0.0, 1 / 3]
        # every row but the stratum-1 ones lies in the shell (0, 1]
        _, shell, weights, _ = levels.mass(1, 1.0, LevelTrace())
        assert sorted(shell.ravel().tolist()) == [0.5, 0.9]
        assert sorted(weights.tolist()) == [1 / 6, 1 / 3]


class TestRunLLASS:
    def test_uniform_linear_accuracy(self):
        # fine strata concentrate the per-iteration draws near the current
        # level; the escalation staircase then walks the pooled order
        # statistic through the endgame instead of stalling
        cfg = SSConfig(per_dim_counts=(50,), n_per_iteration=100,
                       level_policy=LevelPolicy(f_init=0.025, f_slope=0.025,
                                                f_max=0.9,
                                                escalation_factor=1.02,
                                                escalation_cap=0.999),
                       stopping=StoppingPolicy(max_iterations=500,
                                               max_evals=300000))
        est = run_lla_ss(_uniform_problem(), cfg, seed=4)
        assert abs(est.log_evidence) < 0.05

    def test_monotone_trace_and_shrinking_active_set(self):
        cfg = SSConfig(per_dim_counts=(5,), n_per_iteration=200)
        est = run_lla_ss(_uniform_problem(), cfg, seed=1)
        lam, chi = est.trace.log_lambda, est.trace.chi
        assert all(b > a for a, b in zip(lam, lam[1:]))
        assert all(b <= a for a, b in zip(chi, chi[1:]))

    def test_deterministic_given_seed(self):
        cfg = SSConfig(per_dim_counts=(5,), n_per_iteration=200)
        a = run_lla_ss(_uniform_problem(), cfg, seed=9)
        b = run_lla_ss(_uniform_problem(), cfg, seed=9)
        assert a.log_evidence == b.log_evidence
        assert a.total_evals == b.total_evals

    def test_single_stratum_matches_plain_monte_carlo_chi(self):
        # with one stratum the first-iteration mass estimate is the plain
        # exceedance fraction; compare the two distributions over seeds
        problem = _uniform_problem()
        lam = math.log(2.0 * 0.7)
        ss_vals, mc_vals = [], []
        for seed in range(100):
            levels = _SSLevels(problem, SSConfig(per_dim_counts=(1,)), seed)
            levels.extend(sample_stratum(problem, (1,),
                                         np.zeros(200, dtype=int),
                                         _uniforms(seed, 1, 200)),
                          np.zeros(200, dtype=int))
            ss_vals.append(_chi(levels, lam))
            draws = np.random.default_rng(1000 + seed).uniform(size=200)
            mc_vals.append(np.mean(np.log(2.0 * draws) > lam))
        assert stats.ks_2samp(ss_vals, mc_vals).pvalue > 0.01

    def test_budget_cap(self):
        cfg = SSConfig(per_dim_counts=(5,), n_per_iteration=200,
                       stopping=StoppingPolicy(max_evals=600))
        est = run_lla_ss(_uniform_problem(), cfg, seed=2)
        assert est.total_evals <= 800

    def test_default_config_runs_in_two_dimensions(self):
        problem, _ = make_benchmark("bimodal_2d", 7)
        est = run_lla_ss(problem, SSConfig(), seed=7)
        assert len(est.trace) > 0
        assert np.isfinite(est.log_evidence)

    def test_invalid_config_rejected(self):
        for counts in ((0,), (math.nan,)):
            with pytest.raises(ValueError, match="stratum counts"):
                SSConfig(per_dim_counts=counts)
        for n in (0, math.nan):
            with pytest.raises(ValueError, match="n_per_iteration"):
                SSConfig(n_per_iteration=n)
