"""Benchmark problems with exact or independently computed reference evidences.

Closed forms exist for the conjugate-Gaussian, uniform-linear,
high-dimensional product and regression benchmarks; a tensor-grid
quadrature oracle covers the low-dimensional problems without one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (BayesianProblem, log_sum_exp, normal_prior,
                   truncated_normal_prior, uniform_prior)

BENCHMARK_NAMES = (
    "conjugate_gaussian",
    "uniform_linear",
    "truncated_gaussian_1d",
    "bimodal_2d",
    "highdim_gaussian_100",
    "polynomial_regression_d1",
    "polynomial_regression_d2",
    "polynomial_regression_d3",
    "polynomial_regression_set",
)


@dataclass
class ConjugateGaussianProblem:
    """Gaussian observations with known noise scale and a Gaussian mean prior."""

    data: np.ndarray
    mu0: float
    sigma0: float
    sigma: float

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if self.sigma <= 0 or self.sigma0 <= 0:
            raise ValueError("scales must be positive")
        if self.data.size < 1:
            raise ValueError("need at least one observation")

    def to_bayesian_problem(self):
        n = self.data.size
        sum_x = float(self.data.sum())
        sum_x2 = float((self.data**2).sum())
        const = -0.5 * n * math.log(2.0 * math.pi * self.sigma**2)
        inv2s2 = 0.5 / self.sigma**2

        def log_likelihood(theta):
            mu = theta[0]
            return const - inv2s2 * (sum_x2 - 2.0 * mu * sum_x + n * mu * mu)

        return BayesianProblem(
            dimension=1,
            priors=[normal_prior(self.mu0, self.sigma0)],
            log_likelihood=log_likelihood,
        )


def conjugate_exact_log_evidence(p):
    """Closed-form log evidence of the conjugate Gaussian problem.

    Evaluated term by term in log space; no linear exponentials are formed.
    """
    x = p.data
    n = x.size
    xbar = float(x.mean())
    s2, s02 = p.sigma**2, p.sigma0**2
    log_prefactor = (
        math.log(p.sigma)
        - 0.5 * n * math.log(2.0 * math.pi * s2)
        - 0.5 * math.log(n * s02 + s2)
    )
    exponent = (
        -float((x**2).sum()) / (2.0 * s2)
        - p.mu0**2 / (2.0 * s02)
        + (2.0 * n * p.mu0 * xbar + s02 * n**2 * xbar**2 / s2
           + s2 * p.mu0**2 / s02) / (2.0 * (n * s02 + s2))
    )
    return log_prefactor + exponent


@dataclass
class QuadratureOracle:
    """Tensor-grid trapezoid oracle for d <= 2 with a convergence gate."""

    nodes_per_dim: int = 2001
    stddev_span: float = 10.0
    convergence_tol: float = 1e-6

    def __post_init__(self):
        if self.nodes_per_dim < 1001:
            raise ValueError("need at least 1001 nodes per dimension")


class OracleNotConvergedError(RuntimeError):
    pass


def _axis(prior, oracle, n_nodes):
    lo, hi = prior.support
    if not np.isfinite(lo):
        lo = prior.mean - oracle.stddev_span * prior.std
    if not np.isfinite(hi):
        hi = prior.mean + oracle.stddev_span * prior.std
    return np.linspace(lo, hi, n_nodes)


def _grid_once(problem, oracle, n_nodes):
    axes = [_axis(p, oracle, n_nodes) for p in problem.priors]
    if problem.dimension == 1:
        xs = axes[0]
        log_f = (np.array([problem.log_likelihood(np.array([x])) for x in xs])
                 + problem.priors[0].log_pdf(xs))
        h = xs[1] - xs[0]
        log_w = np.full(n_nodes, math.log(h))
        log_w[0] = log_w[-1] = math.log(h / 2.0)
        return log_sum_exp(log_f + log_w)
    xs, ys = axes
    log_px = problem.priors[0].log_pdf(xs)
    log_py = problem.priors[1].log_pdf(ys)
    hx, hy = xs[1] - xs[0], ys[1] - ys[0]
    wx = np.full(n_nodes, hx)
    wx[0] = wx[-1] = hx / 2.0
    wy = np.full(n_nodes, hy)
    wy[0] = wy[-1] = hy / 2.0
    terms = np.empty(n_nodes * n_nodes)
    idx = 0
    for i, x in enumerate(xs):
        row = np.array([
            problem.log_likelihood(np.array([x, y])) for y in ys
        ])
        terms[idx:idx + n_nodes] = (row + log_px[i] + log_py
                                    + math.log(wx[i]) + np.log(wy))
        idx += n_nodes
    return log_sum_exp(terms)


def grid_log_evidence(problem, oracle=None):
    """Trapezoid tensor-grid log evidence with node-doubling convergence gate."""
    oracle = oracle or QuadratureOracle()
    if problem.dimension > 2:
        raise ValueError("grid oracle supports d <= 2 only")
    coarse = _grid_once(problem, oracle, oracle.nodes_per_dim)
    fine = _grid_once(problem, oracle, 2 * oracle.nodes_per_dim - 1)
    if abs(fine - coarse) >= oracle.convergence_tol:
        raise OracleNotConvergedError("oracle not converged")
    return fine


def _gaussian_log_pdf(x, mean, var):
    return -0.5 * math.log(2.0 * math.pi * var) - (x - mean) ** 2 / (2.0 * var)


def _normal_cdf(z):
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def _mvn_log_pdf(y, cov):
    sign, logdet = np.linalg.slogdet(cov)
    if sign <= 0:
        raise np.linalg.LinAlgError("covariance not positive definite")
    alpha = np.linalg.solve(cov, y)
    return float(-0.5 * (len(y) * math.log(2.0 * math.pi) + logdet + y @ alpha))


# --- regression model set -------------------------------------------------

POLY_NOISE = 0.1
POLY_COEF_STD = 1.0
POLY_TRUE_COEFFS = np.array([0.4, -0.3, 1.0])  # generating model: degree 2
POLY_N_POINTS = 40
POLY_X_RANGE = (-2.0, 2.0)


def _poly_design(degree):
    xs = np.linspace(*POLY_X_RANGE, POLY_N_POINTS)
    return np.vander(xs, degree + 1, increasing=True)


def _poly_data(seed):
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    X = _poly_design(2)
    return X @ POLY_TRUE_COEFFS + POLY_NOISE * rng.standard_normal(POLY_N_POINTS)


def _poly_problem(degree, y):
    X = _poly_design(degree)
    n = len(y)
    const = -0.5 * n * math.log(2.0 * math.pi * POLY_NOISE**2)

    def log_likelihood(theta):
        r = y - X @ theta
        return const - float(r @ r) / (2.0 * POLY_NOISE**2)

    priors = [normal_prior(0.0, POLY_COEF_STD) for _ in range(degree + 1)]
    problem = BayesianProblem(dimension=degree + 1, priors=priors,
                              log_likelihood=log_likelihood)
    cov = POLY_NOISE**2 * np.eye(n) + POLY_COEF_STD**2 * (X @ X.T)
    reference = _mvn_log_pdf(y, cov)
    return problem, reference


# --- benchmark registry ---------------------------------------------------

def make_benchmark(name, seed):
    """Problem plus reference log evidence for a named benchmark.

    Returns (problem, reference_log_evidence); the regression set name
    returns lists of (label, problem, reference) triples instead.
    """
    if name == "conjugate_gaussian":
        rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        data = 1.5 + 0.5 * rng.standard_normal(100)
        p = ConjugateGaussianProblem(data=data, mu0=1.0, sigma0=0.25, sigma=0.5)
        return p.to_bayesian_problem(), conjugate_exact_log_evidence(p)

    if name == "uniform_linear":
        problem = BayesianProblem(
            dimension=1,
            priors=[uniform_prior(0.0, 1.0)],
            log_likelihood=lambda t: math.log(2.0) + math.log(t[0])
            if t[0] > 0 else float("-inf"),
        )
        return problem, 0.0

    if name == "truncated_gaussian_1d":
        rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
        data = 1.2 + 0.1 * rng.standard_normal(20)
        sum_d = float(data.sum())
        sum_d2 = float((data**2).sum())
        n = data.size
        const = -0.5 * n * math.log(2.0 * math.pi * 0.1**2)

        def log_likelihood(theta):
            t = theta[0]
            return const - (sum_d2 - 2 * t * sum_d + n * t * t) / (2 * 0.1**2)

        problem = BayesianProblem(
            dimension=1,
            priors=[truncated_normal_prior(1.25, 0.5, 1.0, 1.5)],
            log_likelihood=log_likelihood,
        )
        return problem, grid_log_evidence(problem)

    if name == "bimodal_2d":
        modes = np.array([[0.25, 0.3], [0.75, 0.7]])
        widths = np.array([0.08, 0.06])
        log_heights = np.array([math.log(0.6), math.log(0.4)])

        def log_likelihood(theta):
            terms = [
                lh + _gaussian_log_pdf(theta[0], m[0], w**2)
                + _gaussian_log_pdf(theta[1], m[1], w**2)
                for m, w, lh in zip(modes, widths, log_heights)
            ]
            return log_sum_exp(terms)

        problem = BayesianProblem(
            dimension=2,
            priors=[uniform_prior(0.0, 1.0), uniform_prior(0.0, 1.0)],
            log_likelihood=log_likelihood,
        )
        # each mode integrates in closed form against the unit-square prior:
        # height times the Gaussian mass captured in [0, 1] per coordinate
        log_terms = [
            lh + sum(math.log(_normal_cdf((1.0 - m[k]) / w)
                              - _normal_cdf((0.0 - m[k]) / w))
                     for k in range(2))
            for m, w, lh in zip(modes, widths, log_heights)
        ]
        return problem, log_sum_exp(log_terms)

    if name == "highdim_gaussian_100":
        d = 100
        sigma = 1.0
        rng = np.random.default_rng(np.random.SeedSequence([seed, 4]))
        obs = rng.standard_normal(d)  # one observation per coordinate
        const = -0.5 * d * math.log(2.0 * math.pi * sigma**2)

        def log_likelihood(theta):
            r = obs - theta
            return const - float(r @ r) / (2.0 * sigma**2)

        problem = BayesianProblem(
            dimension=d,
            priors=[normal_prior(0.0, 1.0) for _ in range(d)],
            log_likelihood=log_likelihood,
        )
        reference = float(sum(
            _gaussian_log_pdf(x, 0.0, 1.0 + sigma**2) for x in obs))
        return problem, reference

    if name.startswith("polynomial_regression_d"):
        degree = int(name.rsplit("d", 1)[1])
        if degree not in (1, 2, 3):
            raise ValueError("unknown benchmark: %s" % name)
        y = _poly_data(seed)
        return _poly_problem(degree, y)

    if name == "polynomial_regression_set":
        y = _poly_data(seed)
        out = []
        for degree in (1, 2, 3):
            problem, reference = _poly_problem(degree, y)
            out.append(("polynomial_regression_d%d" % degree, problem,
                        reference))
        return out

    raise ValueError("unknown benchmark: %s" % name)
