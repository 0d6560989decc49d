"""Tests for the stratified-sampling evidence estimator."""

import math

import numpy as np
import pytest
from scipy import stats

from levidence.core import (NEG_INF, BayesianProblem, ConfigFieldError,
                            TerminationReason, normal_prior, uniform_prior)
from levidence.lla_ss import (SSConfig, StratificationError, build_strata,
                              chi_ss, run_lla_ss, sample_stratum, var_chi_ss)
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


class TestSampleStratum:
    def test_uniform_membership(self):
        problem = _uniform_problem()
        s = sample_stratum(problem, (5,), (3,), 200,
                           np.random.default_rng(0))
        assert np.all((s > 0.4) & (s <= 0.6))

    def test_normal_median_split(self):
        problem = BayesianProblem(
            dimension=1, priors=[normal_prior(0.0, 1.0)],
            log_likelihood=lambda t: 0.0)
        lo = sample_stratum(problem, (2,), (1,), 200,
                            np.random.default_rng(1))
        hi = sample_stratum(problem, (2,), (2,), 200,
                            np.random.default_rng(2))
        assert np.all(lo <= 0.0)
        assert np.all(hi >= 0.0)

    def test_pooled_strata_reproduce_prior_moments(self):
        problem = BayesianProblem(
            dimension=1, priors=[normal_prior(0.0, 1.0)],
            log_likelihood=lambda t: 0.0)
        pools = [sample_stratum(problem, (5,), (k,), 20000,
                                np.random.default_rng(k))
                 for k in range(1, 6)]
        pooled = np.concatenate(pools).ravel()
        se_mean = 1.0 / math.sqrt(pooled.size)
        assert abs(pooled.mean()) < 3 * se_mean
        assert pooled.var() == pytest.approx(1.0, abs=0.02)

    def test_2d_membership(self):
        problem = BayesianProblem(
            dimension=2, priors=[uniform_prior(0, 1), uniform_prior(0, 1)],
            log_likelihood=lambda t: 0.0)
        s = sample_stratum(problem, (2, 2), (2, 1), 100,
                           np.random.default_rng(3))
        assert np.all((s[:, 0] > 0.5) & (s[:, 1] <= 0.5))


class TestChiSS:
    def _grid_with_pools(self, pools):
        problem = BayesianProblem(
            dimension=1, priors=[uniform_prior(0, 1)],
            log_likelihood=lambda t: 0.0)
        grid = build_strata(problem, (len(pools),))
        grid.log_L = np.concatenate([np.asarray(lls, dtype=float)
                                     for lls in pools])
        grid.owner = np.repeat(np.arange(len(pools)), [len(l) for l in pools])
        grid.samples = np.zeros((len(grid.log_L), 1))
        return grid

    def test_all_above(self):
        grid = self._grid_with_pools([[1.0, 2.0], [3.0]])
        assert chi_ss(grid, 0.0) == pytest.approx(1.0)

    def test_half_and_half(self):
        grid = self._grid_with_pools([[1.0, 1.0], [-1.0, -1.0]])
        assert chi_ss(grid, 0.0) == pytest.approx(0.5)

    def test_single_active_stratum_of_many(self):
        grid = self._grid_with_pools([[0.0]] * 124 + [[1.0, 1.0, 0.0, 0.0,
                                                       0.0]])
        grid.mass = 1.0 / 125
        assert chi_ss(grid, 0.5) == pytest.approx(0.4 / 125)

    def test_empty_pool_raises(self):
        grid = self._grid_with_pools([[1.0], []])
        with pytest.raises(StratificationError):
            chi_ss(grid, 0.0)

    def test_variance_bounded_by_binomial(self):
        grid = self._grid_with_pools([[1.0, -1.0, 1.0, -1.0],
                                      [1.0, 1.0, -1.0, -1.0]])
        chi = chi_ss(grid, 0.0)
        v = var_chi_ss(grid, 0.0, chi)
        n = 8
        assert 0.0 <= v <= chi * (1 - chi) / n + 1e-12

    def test_variance_two_strata_hand_value(self):
        # fractions 1 and 0 with equal masses: stratification removes all
        # between-strata variance, so the plug-in value is 0
        grid = self._grid_with_pools([[1.0] * 50, [-1.0] * 50])
        chi = chi_ss(grid, 0.0)
        assert var_chi_ss(grid, 0.0, chi) == pytest.approx(0.0, abs=1e-15)


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
            grid = build_strata(problem, (1,))
            s = sample_stratum(problem, (1,), (1,), 200,
                               np.random.default_rng(seed))
            grid.samples = s
            grid.log_L = np.array([problem.log_likelihood(t) for t in s])
            grid.owner = np.zeros(len(s), dtype=int)
            ss_vals.append(chi_ss(grid, lam))
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
        with pytest.raises(ValueError):
            SSConfig(per_dim_counts=(0,))
        with pytest.raises(ValueError):
            SSConfig(n_per_iteration=0)
