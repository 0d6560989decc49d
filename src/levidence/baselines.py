"""Reference estimators: plain Monte Carlo and classic nested sampling."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

# replenish is looked up on lla_mcmc at each call, so wrapping it there
# covers nested's chains too
from . import lla_mcmc
# evidence_update, should_stop and constrained_mh_step are called elsewhere;
# perfbench/layers.py wraps them here, so they stay imported
from .core import (NEG_INF, CountingLikelihood, LevelTrace,  # noqa: F401
                   TerminationReason, check_count, evidence_update,
                   finalize_estimate, keyed_generators, log_sum_exp,
                   shell_statistics)
from .lla_mcmc import KernelConfig, constrained_mh_step  # noqa: F401
from .schedule import (LevelStrategy, StoppingPolicy,  # noqa: F401
                       StopRun, run_levels, should_stop)

NESTED_WALK_STEPS = 20
NESTED_REFILL_FRACTION = 0.025   # the LLA estimators' rejected fraction f


@dataclass
class NestedConfig:
    n_live: int = 500
    stopping: StoppingPolicy = field(default_factory=StoppingPolicy)
    kernel: KernelConfig = field(
        default_factory=lambda: KernelConfig(steps_per_sample=NESTED_WALK_STEPS))

    def __post_init__(self):
        check_count("n_live", self.n_live, 2)


def run_mc(problem, n, seed):
    """Direct prior expectation of the likelihood, with a delta-method SE."""
    if n < 1:
        raise ValueError("n must be >= 1")
    logL_fn = CountingLikelihood(problem.log_likelihood,
                                 problem.log_likelihood_rows)
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
    return finalize_estimate(trace, TerminationReason.max_evals,
                             logL_fn.count, problem.dimension, se_log)


class _NestedLevels(LevelStrategy):
    """Every living point at or below the level dies, ties included, and
    chi shrinks by the living points' pass fraction (lla_mcmc.chi_mcmc).

    A dead point stays in its slot until NESTED_REFILL_FRACTION * n_live
    (rounded up) have died, or until no live point lies strictly above the
    level.  Then one replenish call runs a chain per dead slot from the
    survivors above the level and writes them into the slots in the order of
    death; the run's j-th death draws from SeedSequence([seed, j])'s stream.
    """

    def __init__(self, problem, config, seed):
        super().__init__(problem, config, seed)
        self.stddev = config.kernel.resolve(problem)
        rng0 = np.random.default_rng(np.random.SeedSequence([seed, 0]))
        self.live = problem.sample_prior(rng0, config.n_live)
        self.live_log_L = self.logL_fn.rows(self.live)
        self.empty = []                 # dead slots, in the order of death
        self.n_deaths = 0
        self.batch = math.ceil(NESTED_REFILL_FRACTION * config.n_live)

    def level(self, iteration, trace):
        # living points lie above the last level: only a first -inf stops
        log_lambda = float(np.delete(self.live_log_L, self.empty).min())
        if log_lambda <= trace.log_lambda_current:
            raise StopRun(TerminationReason.degenerate_level)
        return log_lambda

    def mass(self, iteration, log_lambda, trace):
        # a refill is drawn before the level is recorded, so its evaluations
        # count towards this level; with no live point strictly above (a
        # plateau) the run stops before shrinking.  A dead slot keeps its
        # point, at or below the last level, so the points above are alive.
        above = self.live_log_L > log_lambda
        dying = np.flatnonzero(~above & (self.live_log_L
                                         > trace.log_lambda_current))
        slots = self.empty + dying.tolist()
        self.n_deaths += len(dying)
        n_alive = len(above) - len(self.empty)
        chi = lla_mcmc.chi_mcmc(trace.chi_current, n_alive - len(dying),
                                n_alive)
        dead = self.live[dying]
        if len(slots) >= self.batch or not above.any():
            self.live[slots], self.live_log_L[slots] = lla_mcmc.replenish(
                self.live[above], self.live_log_L[above], log_lambda,
                self.stddev, self.config.kernel.steps_per_sample,
                self.problem, self.logL_fn,
                list(keyed_generators((self.seed,), range(
                    self.n_deaths - len(slots) + 1, self.n_deaths + 1))))
            slots = []
        self.empty = slots
        # the live set bounds what the remaining mass can still contribute
        return chi, dead, None, self.live_log_L.max() + math.log(chi)

    def tail(self, trace):
        # the final live set, without the empty slots: each point carries
        # mass chi_final / (number of points)
        live_log_L = np.delete(self.live_log_L, self.empty)
        lam_final, x_final = float(live_log_L.max()), trace.chi_current
        if lam_final <= trace.log_lambda_current:
            return None
        log_live = (log_sum_exp(live_log_L) - math.log(len(live_log_L))
                    + math.log(x_final)) if x_final > 0 else NEG_INF
        return lam_final, log_live, np.delete(self.live, self.empty, axis=0)


def run_nested(problem, config, seed):
    """Nested sampling in which tied points die together (Fowlie, Handley &
    Su 2021, Nested sampling with plateaus), with batched refills.

    Chi is (1 - 1/n_live)^i after i single deaths when each dead slot is
    refilled at once (n_live <= 40).  The final live set is added as the
    strategy's tail.
    """
    return run_levels(_NestedLevels(problem, config, seed))
