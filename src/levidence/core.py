"""Log-domain primitives, prior/problem types, and evidence accumulation.

Everything here is shared by the level-adapted estimators and the baselines:
numerically safe log-sum-exp, effective sample size, the rectangle-rule
evidence update, and posterior-moment recovery from a level trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence

import numpy as np
from scipy import integrate, special, stats

NEG_INF = float("-inf")


class DegenerateWeightsError(ValueError):
    pass


class ConfigFieldError(ValueError):
    """A config value that does not fit the problem, with its field's name."""

    def __init__(self, field, message):
        super().__init__(message)
        self.field = field


def log_sum_exp(xs):
    """log(sum(exp(xs))) without overflow; -inf for an all-(-inf) input."""
    xs = np.asarray(xs, dtype=float)
    if xs.size == 0:
        raise ValueError("log_sum_exp of empty sequence")
    if np.isnan(xs).any():
        raise ValueError("non-numeric term")
    m = np.max(xs)
    if m == NEG_INF:
        return NEG_INF
    return float(m + np.log(np.sum(np.exp(xs - m))))


def open_uniform(rng, size=None):
    """Uniform variates restricted to the open interval (0, 1).

    Keeps inverse-CDF sampling away from infinite quantiles.
    """
    u = rng.uniform(size=size)
    return np.clip(u, 1e-16, 1.0 - 1e-16)


def effective_sample_size(weights):
    """(sum w)^2 / sum w^2 for nonnegative weights; in [1, N]."""
    w = np.asarray(weights, dtype=float)
    if w.size == 0:
        raise ValueError("empty weights")
    if not np.all(np.isfinite(w)):
        raise ValueError("non-finite weights")
    s = w.sum()
    if s <= 0.0:
        raise DegenerateWeightsError("degenerate weights")
    return float(s * s / np.sum(w * w))


def evidence_update(log_lambda, chi_prev, chi_cur):
    """log of one rectangle-rule increment, lambda * (chi_prev - chi_cur).

    -inf for an empty shell, including a chi_cur above chi_prev; the running
    sum is LevelTrace.add_level's.
    """
    if chi_prev > 1.0 + 1e-12:
        raise ValueError("chi_prev above 1")
    d_chi = chi_prev - chi_cur
    if d_chi <= 0.0 or log_lambda == NEG_INF:
        return NEG_INF
    return log_lambda + math.log(d_chi)


@dataclass
class MarginalPrior:
    """One independent 1-D prior marginal.

    log_pdf and inverse_cdf act elementwise on a float or an array and must
    agree; support is a (lo, hi) pair (entries may be infinite).  mean/std
    are used for proposal scaling and quadrature bounds.
    """

    log_pdf: Callable
    inverse_cdf: Callable
    support: tuple
    mean: float = 0.0
    std: float = 1.0

    def normalization_defect(self):
        """|integral of exp(log_pdf) - 1| by adaptive quadrature."""
        lo, hi = self.support
        if not np.isfinite(lo):
            lo = self.mean - 12.0 * self.std
        if not np.isfinite(hi):
            hi = self.mean + 12.0 * self.std
        total, _ = integrate.quad(lambda x: math.exp(self.log_pdf(x)), lo, hi,
                                  limit=200)
        return abs(total - 1.0)


def normal_prior(mean, std):
    # closed-form density and scipy's ndtri quantile; frozen-distribution
    # methods carry too much per-call overhead for the samplers' hot loops
    mean, std = float(mean), float(std)
    if not std > 0:
        raise ValueError("need std > 0")
    log_norm = -0.5 * math.log(2.0 * math.pi) - math.log(std)
    inv2v = 0.5 / (std * std)

    def log_pdf(x):
        d = x - mean
        return log_norm - inv2v * d * d

    def inverse_cdf(u):
        return mean + std * special.ndtri(u)

    return MarginalPrior(
        log_pdf=log_pdf,
        inverse_cdf=inverse_cdf,
        support=(-math.inf, math.inf),
        mean=mean,
        std=std,
    )


def uniform_prior(lo, hi):
    lo, hi = float(lo), float(hi)
    if not hi > lo:
        raise ValueError("need hi > lo")
    log_density = -math.log(hi - lo)

    def log_pdf(x):
        if isinstance(x, np.ndarray):
            return np.where((lo <= x) & (x <= hi), log_density, NEG_INF)
        # the samplers' scalar calls skip np.where's overhead
        return log_density if lo <= x <= hi else NEG_INF

    return MarginalPrior(
        log_pdf=log_pdf,
        inverse_cdf=lambda u: lo + (hi - lo) * u,
        support=(lo, hi),
        mean=0.5 * (lo + hi),
        std=(hi - lo) / math.sqrt(12.0),
    )


def truncated_normal_prior(mean, std, lo, hi):
    if not std > 0:
        raise ValueError("need std > 0")
    if not hi > lo:
        raise ValueError("need hi > lo")
    a, b = (lo - mean) / std, (hi - mean) / std
    d = stats.truncnorm(a, b, loc=mean, scale=std)
    return MarginalPrior(
        log_pdf=d.logpdf,
        inverse_cdf=d.ppf,
        support=(float(lo), float(hi)),
        mean=float(d.mean()),
        std=float(d.std()),
    )


@dataclass
class BayesianProblem:
    """Product-of-marginals prior plus a deterministic log-likelihood."""

    dimension: int
    priors: list
    log_likelihood: Callable[[np.ndarray], float]

    def __post_init__(self):
        if len(self.priors) != self.dimension:
            raise ValueError("prior count does not match dimension")

    def log_prior(self, theta):
        """Log prior density of one vector, or of each row of an (n, d) array."""
        # a plain loop, not sum() over a generator: on one vector it is the
        # faster form, and replenish's full-vector scalar step (nested's lone
        # chain) calls it once per step; the array step calls it on all rows
        total = 0.0
        for p, x in zip(self.priors, np.asarray(theta, dtype=float).T):
            total += p.log_pdf(x)
        return total

    def sample_prior(self, rng, n=1):
        out = np.empty((n, self.dimension))
        for k, p in enumerate(self.priors):
            out[:, k] = p.inverse_cdf(open_uniform(rng, n))
        return out

    @property
    def support(self):
        return [p.support for p in self.priors]


class CountingLikelihood:
    """Wraps a log-likelihood with an evaluation counter; a NaN or +inf
    value raises ValueError naming the value and the point."""

    def __init__(self, fn):
        self.fn = fn
        self.count = 0

    def __call__(self, theta):
        self.count += 1
        value = float(self.fn(theta))
        if not value < math.inf:
            raise ValueError(_invalid_log_likelihood(value, theta))
        return value

    def rows(self, samples):
        """The (n,) log-likelihoods of the rows of an (n, d) array, in order;
        every set of points is evaluated here."""
        values = np.fromiter(map(self.fn, samples), dtype=float,
                             count=len(samples))
        self.count += len(values)
        bad = np.flatnonzero(~(values < math.inf))
        if len(bad):
            raise ValueError(_invalid_log_likelihood(values[bad[0]],
                                                     samples[bad[0]]))
        return values


def _invalid_log_likelihood(value, theta):
    return "log-likelihood %r at theta = %s" % (float(value),
                                                np.asarray(theta).tolist())


class TerminationReason(str, Enum):
    delta_evidence = "delta_evidence"
    chi_floor = "chi_floor"
    max_iterations = "max_iterations"
    max_evals = "max_evals"
    degenerate_level = "degenerate_level"


@dataclass
class LevelTrace:
    """The (lambda_i, chi_i) staircase with per-shell summaries.

    chi starts implicitly at 1.0; entries are appended once per accepted
    level.  Shell means/second moments may be None for empty shells.
    log_evidence is the running sum of the increments.  var_chi and
    active_counts are filled only by stratified sampling: the plug-in
    variance of each chi and the active stratum count after each retirement.
    """

    log_lambda: list = field(default_factory=list)
    chi: list = field(default_factory=list)
    log_evidence_increments: list = field(default_factory=list)
    shell_means: list = field(default_factory=list)
    shell_second_moments: list = field(default_factory=list)
    n_evals: list = field(default_factory=list)
    log_evidence: float = NEG_INF
    var_chi: list = field(default_factory=list)
    active_counts: list = field(default_factory=list)

    def __len__(self):
        return len(self.log_lambda)

    @property
    def chi_current(self):
        return self.chi[-1] if self.chi else 1.0

    @property
    def log_lambda_current(self):
        return self.log_lambda[-1] if self.log_lambda else NEG_INF

    def add_level(self, log_lambda, chi, log_increment, shell_mean,
                  shell_second_moment, cumulative_evals):
        if self.chi and chi > self.chi[-1] + 1e-15:
            raise ValueError("chi must be nonincreasing")
        self.log_lambda.append(float(log_lambda))
        self.chi.append(float(chi))
        self.log_evidence_increments.append(float(log_increment))
        self.shell_means.append(shell_mean)
        self.shell_second_moments.append(shell_second_moment)
        self.n_evals.append(int(cumulative_evals))
        if log_increment > NEG_INF:
            self.log_evidence = (
                float(log_increment) if self.log_evidence == NEG_INF
                else log_sum_exp([self.log_evidence, log_increment]))


@dataclass
class EvidenceEstimate:
    log_evidence: float
    trace: LevelTrace
    posterior_mean: np.ndarray
    posterior_variance: np.ndarray
    termination_reason: TerminationReason
    total_evals: int
    standard_error_log: float | None = None


def posterior_moments(trace, log_evidence):
    """Shell-weighted posterior mean and variance.

    Weights are exp(log_increment - log_evidence); shells without samples
    carry no weight.  Variance is clamped at zero elementwise.  Returns
    (None, None) when no shell carries weight, as shell_statistics does for
    an empty shell.
    """
    pairs = [
        (li, m, s2)
        for li, m, s2 in zip(trace.log_evidence_increments, trace.shell_means,
                             trace.shell_second_moments)
        if m is not None and li > NEG_INF
    ]
    if not pairs or log_evidence == NEG_INF:
        return None, None
    w = np.array([math.exp(li - log_evidence) for li, _, _ in pairs])
    w = w / w.sum()
    means = np.array([m for _, m, _ in pairs], dtype=float)
    seconds = np.array([s2 for _, _, s2 in pairs], dtype=float)
    mean = w @ means
    var = np.maximum(w @ seconds - mean**2, 0.0)
    return mean, var


def finalize_estimate(trace, reason, total_evals, dimension):
    """Build an EvidenceEstimate, falling back to NaN moments on empty shells."""
    log_E = trace.log_evidence
    mean, var = posterior_moments(trace, log_E)
    if mean is None:
        mean, var = np.full(dimension, np.nan), np.full(dimension, np.nan)
    return EvidenceEstimate(
        log_evidence=log_E,
        trace=trace,
        posterior_mean=np.asarray(mean, dtype=float),
        posterior_variance=np.asarray(var, dtype=float),
        termination_reason=reason,
        total_evals=int(total_evals),
    )


def shell_statistics(samples, weights=None):
    """Mean and elementwise second moment of the (n, d) samples in a shell.

    Returns (None, None) for an empty shell; optional per-sample weights.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        return None, None
    if weights is None:
        mean = samples.mean(axis=0)
        second = (samples**2).mean(axis=0)
    else:
        w = np.asarray(weights, dtype=float)
        w = w / w.sum()
        mean = w @ samples
        second = w @ samples**2
    return mean, second
