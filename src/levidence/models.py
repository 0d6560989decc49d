"""Benchmark problems with exact or independently computed reference evidences.

Closed forms exist for the conjugate-Gaussian, uniform-linear,
high-dimensional product and regression benchmarks; a tensor-grid
quadrature oracle covers the low-dimensional problems without one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (BayesianProblem, CountingLikelihood, log_sum_exp,
                   normal_prior, truncated_normal_prior, uniform_prior)

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
            # elementwise: the scalar form of the transpose takes column 0
            log_likelihood_rows=lambda thetas: log_likelihood(thetas.T),
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


# unbounded prior axes span the mean +- this many stddevs, and the grid
# passes when doubling its nodes moves the log evidence by less than the tol
ORACLE_STDDEV_SPAN = 10.0
ORACLE_CONVERGENCE_TOL = 1e-6


class OracleNotConvergedError(RuntimeError):
    pass


def _axis(prior, n_nodes):
    lo, hi = prior.support
    if not np.isfinite(lo):
        lo = prior.mean - ORACLE_STDDEV_SPAN * prior.std
    if not np.isfinite(hi):
        hi = prior.mean + ORACLE_STDDEV_SPAN * prior.std
    return np.linspace(lo, hi, n_nodes)


def grid_log_evidence(problem, nodes_per_dim=2001):
    """Trapezoid tensor-grid log evidence with node-doubling convergence gate.

    Each node of the fine grid, 2 * nodes_per_dim - 1 per axis, is evaluated
    once, a line along the last axis at a time.  The coarse grid is every
    other node: its weights, at twice the spacing, are twice the fine ones.
    """
    if nodes_per_dim < 1001:
        raise ValueError("need at least 1001 nodes per dimension")
    d = problem.dimension
    if d > 2:
        raise ValueError("grid oracle supports d <= 2 only")
    n = 2 * nodes_per_dim - 1
    axes = [_axis(p, n) for p in problem.priors]
    log_p = [p.log_pdf(x) for p, x in zip(problem.priors, axes)]
    log_w = [np.full(n, math.log(x[1] - x[0])) for x in axes]
    for w, x in zip(log_w, axes):
        w[0] = w[-1] = math.log((x[1] - x[0]) / 2.0)
    logL_fn = CountingLikelihood(problem.log_likelihood,
                                 problem.log_likelihood_rows)
    log_terms = np.empty((n,) * d)
    for outer in itertools.product(range(n), repeat=d - 1):
        line = outer + (slice(None),)
        log_terms[outer] = logL_fn.rows(np.column_stack(np.broadcast_arrays(
            *(x[i] for x, i in zip(axes, line)))))
        # the likelihood, then each prior, then each weight, in axis order
        for part, i in zip(log_p + log_w, line + line):
            log_terms[outer] += part[i]
    fine = log_sum_exp(log_terms.ravel())
    coarse = (log_sum_exp(log_terms[(slice(None, None, 2),) * d])
              + d * math.log(2.0))
    if abs(fine - coarse) >= ORACLE_CONVERGENCE_TOL:
        raise OracleNotConvergedError("oracle not converged")
    return fine


def _row_dots(r):
    """r[i] @ r[i] for each row of an (n, k) array, bit for bit: one matmul
    per row, as the scalar likelihoods' float(r @ r) takes it."""
    return np.matmul(r[:, None, :], r[:, :, None])[:, 0, 0]


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

    def log_likelihood_rows(thetas):
        # X @ thetas.T rounds most rows differently from X @ theta
        r = y - np.matmul(X, thetas[:, :, None])[:, :, 0]
        return const - _row_dots(r) / (2.0 * POLY_NOISE**2)

    priors = [normal_prior(0.0, POLY_COEF_STD) for _ in range(degree + 1)]
    problem = BayesianProblem(dimension=degree + 1, priors=priors,
                              log_likelihood=log_likelihood,
                              log_likelihood_rows=log_likelihood_rows)
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

    # uniform_linear and bimodal_2d have no batch form: np.log differs from
    # math.log on some inputs, and a vectorised bimodal_2d on some rows, so
    # one would change their random streams
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
            log_likelihood_rows=lambda thetas: log_likelihood(thetas.T),
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
            log_likelihood_rows=lambda thetas: const - _row_dots(
                obs - thetas) / (2.0 * sigma**2),
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
