"""Tests for the benchmark problems and their reference evidences."""

import math
import warnings

import numpy as np
import pytest

from levidence import MCMCConfig, run_lla_mcmc
from levidence.core import BayesianProblem, normal_prior, uniform_prior
from levidence.models import (BENCHMARK_NAMES, ConjugateGaussianProblem,
                              OracleNotConvergedError,
                              conjugate_exact_log_evidence, grid_log_evidence,
                              make_benchmark)


def _counted(problem):
    """The problem with its likelihood wrapped in an evaluation counter: one
    per scalar call, and one per row given to its batch form, if any."""
    calls = [0]
    log_likelihood = problem.log_likelihood
    log_likelihood_rows = problem.log_likelihood_rows

    def counted(theta):
        calls[0] += 1
        return log_likelihood(theta)

    def counted_rows(thetas):
        calls[0] += len(thetas)
        return log_likelihood_rows(thetas)

    problem.log_likelihood = counted
    if log_likelihood_rows is not None:
        problem.log_likelihood_rows = counted_rows
    return problem, calls


class TestConjugateExact:
    def test_single_observation_standard_case(self):
        # n=1, x=0, mu0=0, sigma=sigma0=1: E = N(0; 0, 2)
        p = ConjugateGaussianProblem(data=np.array([0.0]), mu0=0.0,
                                     sigma0=1.0, sigma=1.0)
        expect = -0.5 * math.log(2.0 * math.pi * 2.0)
        assert conjugate_exact_log_evidence(p) == pytest.approx(expect,
                                                                abs=1e-12)

    def test_translation_consistency(self):
        # shifting data and prior mean together leaves the evidence unchanged
        rng = np.random.default_rng(3)
        x = rng.normal(size=30)
        a = conjugate_exact_log_evidence(ConjugateGaussianProblem(
            data=x, mu0=0.5, sigma0=0.3, sigma=0.7))
        b = conjugate_exact_log_evidence(ConjugateGaussianProblem(
            data=x + 2.0, mu0=2.5, sigma0=0.3, sigma=0.7))
        assert a == pytest.approx(b, abs=1e-9)

    def test_matches_quadrature(self):
        p = ConjugateGaussianProblem(data=np.array([0.3, -0.2, 0.5]),
                                     mu0=0.0, sigma0=1.0, sigma=0.7)
        problem, calls = _counted(p.to_bayesian_problem())
        grid = grid_log_evidence(problem)
        assert grid == pytest.approx(conjugate_exact_log_evidence(p),
                                     abs=1e-6)
        # the fine grid alone, each node once
        assert calls[0] == 2 * 2001 - 1

    def test_invalid_scales_raise(self):
        with pytest.raises(ValueError):
            ConjugateGaussianProblem(data=np.array([0.0]), mu0=0.0,
                                     sigma0=1.0, sigma=0.0)

    def test_likelihood_peaks_at_sample_mean(self):
        p = ConjugateGaussianProblem(data=np.array([1.0, 2.0, 3.0]),
                                     mu0=0.0, sigma0=1.0, sigma=1.0)
        prob = p.to_bayesian_problem()
        at_mean = prob.log_likelihood(np.array([2.0]))
        assert at_mean > prob.log_likelihood(np.array([1.9]))
        assert at_mean > prob.log_likelihood(np.array([2.1]))


class TestGridOracle:
    def test_2d_product_gaussian(self):
        # likelihood N(y|theta, I) with y = 0: evidence is N(0; 0, 2I)
        problem, calls = _counted(BayesianProblem(
            dimension=2,
            priors=[normal_prior(0.0, 1.0), normal_prior(0.0, 1.0)],
            log_likelihood=lambda t: -math.log(2.0 * math.pi)
            - 0.5 * float(t @ t),
            log_likelihood_rows=lambda x: -math.log(2.0 * math.pi)
            - 0.5 * np.matmul(x[:, None, :], x[:, :, None])[:, 0, 0],
        ))
        expect = 2 * (-0.5 * math.log(2.0 * math.pi * 2.0))
        assert grid_log_evidence(problem, nodes_per_dim=1001) == \
            pytest.approx(expect, abs=1e-6)
        assert calls[0] == (2 * 1001 - 1) ** 2

    def test_high_dimension_rejected(self):
        problem = BayesianProblem(
            dimension=3, priors=[uniform_prior(0, 1)] * 3,
            log_likelihood=lambda t: 0.0)
        with pytest.raises(ValueError):
            grid_log_evidence(problem)

    def test_too_few_nodes_rejected(self):
        problem = BayesianProblem(
            dimension=1, priors=[uniform_prior(0, 1)],
            log_likelihood=lambda t: 0.0)
        with pytest.raises(ValueError):
            grid_log_evidence(problem, nodes_per_dim=101)

    def test_nonconvergence_detected(self):
        # a spike narrower than the grid spacing cannot converge
        problem = BayesianProblem(
            dimension=1, priors=[uniform_prior(0.0, 1.0)],
            log_likelihood=lambda t: 30.0
            if abs(t[0] - 0.5) < 1e-7 else 0.0)
        with pytest.raises(OracleNotConvergedError):
            grid_log_evidence(problem, nodes_per_dim=1001)


class TestBatchForms:
    @pytest.mark.parametrize("name", [
        "conjugate_gaussian", "truncated_gaussian_1d", "highdim_gaussian_100",
        "polynomial_regression_d1", "polynomial_regression_d2",
        "polynomial_regression_d3"])
    def test_batch_form_equals_scalar_form(self, name):
        problem, _ = make_benchmark(name, 7)
        rng = np.random.default_rng(11)
        for n in (1, 2, 37, 100):
            prior_draws = problem.sample_prior(rng, n)
            # far inside and far outside the prior bulk too
            for x in (prior_draws, 1e-3 * prior_draws, 30.0 * prior_draws):
                assert problem.log_likelihood_rows(x).tolist() == [
                    problem.log_likelihood(t) for t in x]

    @pytest.mark.parametrize("name", ["uniform_linear", "bimodal_2d"])
    def test_no_batch_form(self, name):
        problem, _ = make_benchmark(name, 7)
        assert problem.log_likelihood_rows is None

    def test_mcmc_makes_no_scalar_call(self):
        problem, _ = make_benchmark("polynomial_regression_d2", 7)
        scalar_calls = []
        log_likelihood = problem.log_likelihood

        def counted(theta):
            scalar_calls.append(theta)
            return log_likelihood(theta)

        problem.log_likelihood = counted
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            est = run_lla_mcmc(problem, MCMCConfig(), 7)
        assert est.total_evals > 0 and scalar_calls == []


class TestBenchmarks:
    def test_registry_names_constructible(self):
        for name in BENCHMARK_NAMES:
            out = make_benchmark(name, 7)
            if name.endswith("_set"):
                assert len(out) == 3
            else:
                problem, ref = out
                assert np.isfinite(ref)
                assert problem.dimension == len(problem.priors)

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            make_benchmark("no_such_benchmark", 0)

    def test_conjugate_gaussian_reference_matches_closed_form(self):
        problem, ref = make_benchmark("conjugate_gaussian", 7)
        assert problem.dimension == 1
        # the reference should be reproducible from the same data stream
        rng = np.random.default_rng(np.random.SeedSequence([7, 1]))
        data = 1.5 + 0.5 * rng.standard_normal(100)
        p = ConjugateGaussianProblem(data=data, mu0=1.0, sigma0=0.25,
                                     sigma=0.5)
        assert ref == pytest.approx(conjugate_exact_log_evidence(p))

    def test_conjugate_gaussian_seeds_differ(self):
        _, ref_a = make_benchmark("conjugate_gaussian", 7)
        _, ref_b = make_benchmark("conjugate_gaussian", 8)
        assert ref_a != ref_b

    def test_uniform_linear_exact_zero(self):
        problem, ref = make_benchmark("uniform_linear", 0)
        assert ref == 0.0
        assert problem.log_likelihood(np.array([0.5])) == pytest.approx(
            math.log(1.0))

    def test_highdim_gaussian_reference(self):
        problem, ref = make_benchmark("highdim_gaussian_100", 7)
        assert problem.dimension == 100
        # product structure: reference equals the sum of 1-D conjugate
        # evidences with a single observation each
        rng = np.random.default_rng(np.random.SeedSequence([7, 4]))
        obs = rng.standard_normal(100)
        expect = sum(
            conjugate_exact_log_evidence(ConjugateGaussianProblem(
                data=np.array([x]), mu0=0.0, sigma0=1.0, sigma=1.0))
            for x in obs)
        assert ref == pytest.approx(expect, abs=1e-9)

    def test_polynomial_references_reasonable(self):
        triples = make_benchmark("polynomial_regression_set", 7)
        refs = {name: ref for name, _, ref in triples}
        # degree 2 generated the data; it must dominate the other two
        assert refs["polynomial_regression_d2"] > refs[
            "polynomial_regression_d3"]
        assert refs["polynomial_regression_d2"] > refs[
            "polynomial_regression_d1"]

    def test_polynomial_d2_reference_vs_conjugate_identity(self):
        # for a linear-Gaussian model, L(t)p(t)/posterior(t) equals the
        # evidence at every t; evaluate the identity at t = 0 with the
        # posterior assembled from the normal equations
        name, problem, ref = make_benchmark("polynomial_regression_set", 7)[1]
        xs = np.linspace(-2.0, 2.0, 40)
        X = np.vander(xs, 3, increasing=True)
        sigma2, tau2 = 0.1**2, 1.0**2
        rng = np.random.default_rng(np.random.SeedSequence([7, 2]))
        y = X @ np.array([0.4, -0.3, 1.0]) + 0.1 * rng.standard_normal(40)
        prec = X.T @ X / sigma2 + np.eye(3) / tau2
        cov = np.linalg.inv(prec)
        mu = cov @ (X.T @ y) / sigma2
        t0 = np.zeros(3)
        log_post_at_0 = (-0.5 * (3 * math.log(2 * math.pi)
                                 + math.log(np.linalg.det(cov)))
                         - 0.5 * float(mu @ prec @ mu))
        log_E = problem.log_likelihood(t0) + problem.log_prior(t0) \
            - log_post_at_0
        assert log_E == pytest.approx(ref, abs=1e-8)

    def test_truncated_gaussian_reference_from_oracle(self):
        problem, ref = make_benchmark("truncated_gaussian_1d", 7)
        assert problem.dimension == 1
        assert ref == pytest.approx(grid_log_evidence(problem), abs=1e-9)

    def test_bimodal_reference_vs_vectorized_quadrature(self):
        problem, ref = make_benchmark("bimodal_2d", 7)
        assert problem.dimension == 2
        xs = np.linspace(0.0, 1.0, 2001)
        f = np.zeros((xs.size, xs.size))
        for m, w, h in zip([[0.25, 0.3], [0.75, 0.7]], [0.08, 0.06],
                           [0.6, 0.4]):
            gx = np.exp(-0.5 * ((xs - m[0]) / w) ** 2) / (
                w * math.sqrt(2 * math.pi))
            gy = np.exp(-0.5 * ((xs - m[1]) / w) ** 2) / (
                w * math.sqrt(2 * math.pi))
            f += h * np.outer(gx, gy)
        val = np.trapezoid(np.trapezoid(f, xs, axis=1), xs)
        assert math.log(val) == pytest.approx(ref, abs=1e-6)
