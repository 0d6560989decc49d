"""Reference estimators: plain Monte Carlo and classic nested sampling."""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

# evidence_update, should_stop and constrained_mh_step are called elsewhere;
# perfbench/layers.py wraps them here, so they stay imported
from .core import (NEG_INF, ConfigFieldError,  # noqa: F401
                   CountingLikelihood, LevelTrace, TerminationReason,
                   evidence_update, finalize_estimate, keyed_generators,
                   log_sum_exp, shell_statistics)
from .lla_mcmc import (KernelConfig, constrained_mh_step,  # noqa: F401
                       replenish)
from .schedule import (LevelStrategy, StoppingPolicy,  # noqa: F401
                       StopRun, run_levels, should_stop)

NESTED_WALK_STEPS = 20


@dataclass
class NestedConfig:
    n_live: int = 500
    stopping: StoppingPolicy = field(default_factory=StoppingPolicy)
    kernel: KernelConfig = field(
        default_factory=lambda: KernelConfig(steps_per_sample=NESTED_WALK_STEPS))

    def __post_init__(self):
        if not self.n_live >= 2:
            raise ConfigFieldError("n_live", "n_live must be >= 2")


def run_mc(problem, n, seed):
    """Direct prior expectation of the likelihood, with a delta-method SE."""
    if n < 1:
        raise ValueError("n must be >= 1")
    logL_fn = CountingLikelihood(problem.log_likelihood)
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    samples = problem.sample_prior(rng, n)
    log_L = logL_fn.rows(samples)

    m = log_L.max()
    if m == NEG_INF:
        warnings.warn("all likelihoods are zero", RuntimeWarning)
        log_E, se_log, shell = NEG_INF, math.inf, (None, None)
    else:
        w = np.exp(log_L - m)                  # scaled linear likelihoods
        log_E = m + math.log(w.mean())
        # SE of log(mean) via the delta method on the scaled values
        se_log = w.std(ddof=1) / (w.mean() * math.sqrt(n)) if n > 1 else math.inf
        shell = shell_statistics(samples, w)

    trace = LevelTrace()
    trace.add_level(log_E, 0.0, log_E, *shell, logL_fn.count)
    est = finalize_estimate(trace, TerminationReason.max_evals, logL_fn.count,
                            problem.dimension)
    return replace(est, standard_error_log=se_log)


class _NestedLevels(LevelStrategy):
    """Replaces the worst live point by one replenish chain each iteration."""

    def __init__(self, problem, config, seed):
        super().__init__(problem, config, seed)
        self.stddev = config.kernel.resolve(problem)
        rng0 = np.random.default_rng(np.random.SeedSequence([seed, 0]))
        self.live = problem.sample_prior(rng0, config.n_live)
        self.live_log_L = self.logL_fn.rows(self.live)
        # iteration i replenishes with SeedSequence([seed, i])'s stream;
        # mass, which draws it, runs once per iteration, in order
        self.rngs = keyed_generators((seed,), itertools.count(1))

    def level(self, iteration, trace):
        self.worst = int(np.argmin(self.live_log_L))
        log_lambda = float(self.live_log_L[self.worst])
        if log_lambda <= trace.log_lambda_current:
            raise StopRun(TerminationReason.degenerate_level)
        return log_lambda

    def mass(self, iteration, log_lambda, trace):
        # the replacement is drawn before the level is recorded, so its
        # evaluations count towards this level; with no live point strictly
        # above (a constant plateau) the run stops before shrinking
        above = self.live_log_L > log_lambda
        (new,), (new_log_L,) = replenish(
            self.live[above], self.live_log_L[above], log_lambda, self.stddev,
            self.config.kernel.steps_per_sample, self.problem, self.logL_fn,
            [next(self.rngs)])
        x = math.exp(-iteration / self.config.n_live)
        dead = self.live[[self.worst]]
        self.live[self.worst] = new
        self.live_log_L[self.worst] = new_log_L
        # the live set bounds what the remaining mass can still contribute
        return x, dead, None, self.live_log_L.max() + math.log(x)

    def tail(self, trace):
        # the final live set: each point carries mass chi_final / n_live
        lam_final, x_final = float(self.live_log_L.max()), trace.chi_current
        if lam_final <= trace.log_lambda_current:
            return None
        log_live = (log_sum_exp(self.live_log_L) - math.log(self.config.n_live)
                    + math.log(x_final)) if x_final > 0 else NEG_INF
        return lam_final, log_live, self.live


def run_nested(problem, config, seed):
    """Classic nested sampling with the deterministic exp(-i/N) volume model.

    The final live set is added as the strategy's tail.
    """
    return run_levels(_NestedLevels(problem, config, seed))
