"""Level-adapted importance sampling estimator.

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
                   finalize_estimate, log_sum_exp, shell_statistics)
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
        if not self.n_initial >= 10:
            raise ConfigFieldError("n_initial",
                                   "n_initial must be at least 10")
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


def chi_is(log_likelihoods, log_weights, log_lambda):
    """Unnormalized importance-sampling estimate of the super-level mass."""
    log_L = np.asarray(log_likelihoods, dtype=float)
    log_w = np.asarray(log_weights, dtype=float)
    mask = log_L > log_lambda
    if not mask.any():
        return 0.0
    return math.exp(log_sum_exp(log_w[mask]) - math.log(len(log_L)))


class _ISLevels(LevelStrategy):
    """Draws from the current importance density (the prior at first)."""

    def __init__(self, problem, config, seed):
        super().__init__(problem, config, seed)
        self.isd = None

    def _draw(self, n):
        """n samples with their log prior/importance weights and log L."""
        if self.isd is None:
            samples = self.problem.sample_prior(self.rng, n)
            log_w = np.zeros(n)
        else:
            samples = self.isd.sample(self.rng, n)
            log_w = self.problem.log_prior(samples) - self.isd.log_pdf(samples)
        return samples, log_w, self.logL_fn.rows(samples)

    def level(self, iteration, trace):
        self.rng = np.random.default_rng(
            np.random.SeedSequence([self.seed, iteration]))
        self.samples, self.log_w, self.log_L = self._draw(
            self.config.n_initial)
        log_lambda, _ = select_level(
            np.sort(self.log_L), self.config.level_policy, iteration,
            trace.log_lambda_current)
        return log_lambda

    def mass(self, iteration, log_lambda, trace):
        # ESS guard: top up from the same density until the guard passes.
        # If the eval budget runs out first, stop without estimating chi
        # from the sub-threshold weights.
        gamma_s = self.config.ess_threshold_fraction * self.config.n_initial
        while (ess := effective_sample_size(
                np.exp(self.log_w - self.log_w.max()))) <= gamma_s:
            if self.logL_fn.count >= self.config.stopping.max_evals:
                raise StopRun(TerminationReason.max_evals)
            # at least one point: at gamma_s = n_initial equal weights
            # give ess == gamma_s, and a draw of none would never end
            new, new_w, new_L = self._draw(max(math.ceil(gamma_s - ess), 1))
            self.samples = np.vstack([self.samples, new])
            self.log_w = np.concatenate([self.log_w, new_w])
            self.log_L = np.concatenate([self.log_L, new_L])

        log_L = self.log_L
        in_shell = (log_L > trace.log_lambda_current) & (log_L <= log_lambda) \
            if len(trace) else (log_L <= log_lambda)
        # the shell's prior/importance weights, scaled to a maximum of 1
        log_w = self.log_w[in_shell]
        return (chi_is(log_L, self.log_w, log_lambda), self.samples[in_shell],
                np.exp(log_w - log_w.max(initial=NEG_INF)), NEG_INF)

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
