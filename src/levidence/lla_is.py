"""Level-adapted importance sampling estimator, and the weighted pool
(_WeightedPoolLevels, chi = sum w 1[L > lambda]) it shares with lla_ss.

Each iteration draws a batch from a diagonal Gaussian importance density
(truncated to the prior support), picks a higher likelihood level from the
batch order statistics, estimates the super-level prior mass with
prior/importance weights (guarded by an effective-sample-size threshold),
and refits the importance density from the surviving samples.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import core
# run_levels calls evidence_update, finalize_estimate, shell_statistics and
# should_stop; perfbench/layers.py wraps them here, so they stay imported
from .core import (NEG_INF, ConfigFieldError,  # noqa: F401
                   TerminationReason, effective_sample_size, evidence_update,
                   finalize_estimate, shell_statistics)
from .schedule import (LevelPolicy, LevelStrategy,  # noqa: F401
                       StoppingPolicy, StopRun, run_levels, select_level,
                       should_stop)

STDDEV_FLOOR_FRACTION = 1e-8


@dataclass
class GaussianISD:
    """Diagonal Gaussian importance density truncated to the prior support."""

    mean: np.ndarray
    stddev: np.ndarray
    support: list

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float)
        self.stddev = np.asarray(self.stddev, dtype=float)
        for m, s in zip(self.mean, self.stddev):
            core._check_normal(m, s)
        # one block per dimension: each has its own mean and stddev
        self._blocks = core.marginal_blocks([
            core._TruncatedNormal(m, s, lo, hi)
            for m, s, (lo, hi) in zip(self.mean, self.stddev, self.support)
        ])

    def sample(self, rng, n):
        return core.from_unit(self._blocks, rng.random((len(self.mean), n)))

    def log_pdf(self, theta):
        """Log density of one vector, or of each row of an (n, d) array."""
        return core.log_density(self._blocks, theta)


@dataclass
class ISConfig:
    n_initial: int = 1000
    ess_threshold_fraction: float = 0.5
    stddev_multiplier: float = 2.0
    stddev_override: float | None = None
    level_policy: LevelPolicy = field(default_factory=LevelPolicy)
    stopping: StoppingPolicy = field(default_factory=StoppingPolicy)

    def __post_init__(self):
        core.check_count("n_initial", self.n_initial, 10)
        if not 0 <= self.ess_threshold_fraction <= 1:
            raise ConfigFieldError("ess_threshold_fraction",
                                   "ess_threshold_fraction must lie in [0, 1]")
        if not 0 < self.stddev_multiplier < math.inf:
            raise ConfigFieldError("stddev_multiplier", "stddev_multiplier "
                                   "must be positive and finite")
        if not (self.stddev_override is None
                or 0 < self.stddev_override < math.inf):
            raise ConfigFieldError("stddev_override", "stddev_override "
                                   "must be positive and finite")


def fit_isd(retained_samples, multiplier, prior_support, stddev_override=None):
    """Importance density from survivor mean and inflated sample stddev;
    None from fewer than two samples."""
    samples = np.atleast_2d(np.asarray(retained_samples, dtype=float))
    if samples.shape[0] < 2:
        return None
    mean = samples.mean(axis=0)
    if stddev_override is not None:
        stddev = np.full(samples.shape[1], float(stddev_override))
    else:
        stddev = multiplier * samples.std(axis=0, ddof=1)
        floors = np.array([
            STDDEV_FLOOR_FRACTION * _support_width(lo, hi)
            for lo, hi in prior_support
        ])
        stddev = np.where(stddev > 0, stddev, floors)
    return GaussianISD(mean=mean, stddev=stddev, support=list(prior_support))


def _support_width(lo, hi):
    if np.isfinite(lo) and np.isfinite(hi):
        return hi - lo
    return 1.0


def chi_weighted(log_L, weights, log_lambda):
    """The weighted exceedance: the weights of the rows above the level,
    summed by math.fsum, exactly rounded in any order of the rows."""
    return math.fsum(weights[log_L > log_lambda].tolist())


class _WeightedPoolLevels(LevelStrategy):
    """A pool of samples, each row with its log-likelihood and a tag.

    A part supplies draw(iteration), which adds rows through extend,
    weights(), one per row, and advance.  The level is an order statistic of
    the pool; chi is its weighted exceedance, and the shell every row of
    positive weight with lambda_prev < log L <= lambda, weighted as in chi.
    """

    def __init__(self, problem, config, seed):
        super().__init__(problem, config, seed)
        self.samples = np.empty((0, problem.dimension))
        self.log_L = np.empty(0)
        self.tags = np.empty(0, dtype=np.intp)  # float tags make it float

    def extend(self, samples, tags):
        """Evaluate samples' rows and pool them, row j tagged tags[j]."""
        self.samples = np.concatenate([self.samples, samples])
        self.log_L = np.concatenate([self.log_L, self.logL_fn.rows(samples)])
        self.tags = np.concatenate([self.tags, tags])

    def level(self, iteration, trace):
        self.draw(iteration)
        log_lambda, _ = select_level(
            np.sort(self.log_L), self.config.level_policy, iteration,
            trace.log_lambda_current)
        return log_lambda

    def mass(self, iteration, log_lambda, trace):
        w, log_L = self.weights(), self.log_L
        shell = (w > 0) & (trace.log_lambda_current < log_L) \
            & (log_L <= log_lambda)
        return (chi_weighted(log_L, w, log_lambda), self.samples[shell],
                w[shell], NEG_INF)


class _ISLevels(_WeightedPoolLevels):
    """A fresh pool each level from the current importance density (the
    prior at first); a row's tag is its log prior/importance weight."""

    isd = None  # the prior until the first refit

    def draw(self, iteration, top_up=0):
        """The iteration's n_initial rows in a cleared pool, or top_up more
        rows from the same density and generator."""
        if not top_up:
            self.rng = np.random.default_rng(
                np.random.SeedSequence([self.seed, iteration]))
            self.samples, self.log_L, self.tags = (
                self.samples[:0], self.log_L[:0], self.tags[:0])
        n = top_up or self.config.n_initial
        if self.isd is None:
            self.extend(self.problem.sample_prior(self.rng, n), np.zeros(n))
        else:
            samples = self.isd.sample(self.rng, n)
            self.extend(samples, self.problem.log_prior(samples)
                        - self.isd.log_pdf(samples))

    def weights(self):
        """exp(tag) / n, once the pool passes the ESS guard.  It is topped
        up from the same density until it does; if the eval budget runs
        out first, the run stops without a chi from sub-threshold weights."""
        gamma_s = self.config.ess_threshold_fraction * self.config.n_initial
        while (ess := effective_sample_size(
                np.exp(self.tags - self.tags.max()))) <= gamma_s:
            if self.logL_fn.count >= self.config.stopping.max_evals:
                raise StopRun(TerminationReason.max_evals)
            # at least one point: at gamma_s = n_initial equal weights
            # give ess == gamma_s, and a draw of none would never end
            self.draw(None, max(math.ceil(gamma_s - ess), 1))
        return np.exp(self.tags) / len(self.tags)

    def advance(self, iteration, log_lambda, trace):
        isd = fit_isd(self.samples[self.log_L > log_lambda],
                      self.config.stddev_multiplier, self.problem.support,
                      stddev_override=self.config.stddev_override)
        if isd is not None:
            self.isd = isd
        elif self.isd is None:
            raise StopRun(TerminationReason.degenerate_level)
        else:
            warnings.warn("too few survivors to refit ISD; reusing previous",
                          RuntimeWarning)


def run_lla_is(problem, config, seed):
    """Run the full importance-sampling evidence loop."""
    return run_levels(_ISLevels(problem, config, seed))
