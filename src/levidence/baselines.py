"""Reference estimators: plain Monte Carlo and classic nested sampling."""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

# evidence_update, should_stop and constrained_mh_step are called elsewhere;
# perfbench/layers.py wraps them here, so they stay imported
from .core import (NEG_INF, CountingLikelihood, LevelTrace,  # noqa: F401
                   TerminationReason, check_count, evidence_update,
                   finalize_estimate, keyed_generators, log_sum_exp,
                   shell_statistics)
from .lla_mcmc import (KernelConfig, _PopulationLevels,  # noqa: F401
                       constrained_mh_step)
from .schedule import (StoppingPolicy, StopRun, run_levels,  # noqa: F401
                       should_stop)

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
    check_count("n", n, 1)
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


class _NestedLevels(_PopulationLevels):
    """lla_mcmc's population with one death per level (ties die together)
    and a refill once NESTED_REFILL_FRACTION * n_live (rounded up) have
    died.  The new points go into the dead slots, order[:cursor], which the
    population's stable sort keeps in the order of death.  With full-vector
    moves the run's j-th refilled death draws from SeedSequence([seed, j])'s
    stream, the next generator of one lazy stream over j = 1, 2, ...;
    component-wise refills draw like LLA-MCMC's, from
    SeedSequence([seed, iteration]).  A plateau (no living point above the
    level) stops the run before chi shrinks; the final live set is the tail.
    """

    def __init__(self, problem, config, seed):
        super().__init__(problem, config, seed, config.n_live, 1,
                         math.ceil(NESTED_REFILL_FRACTION * config.n_live))
        self.stream = keyed_generators((seed,), itertools.count(1))

    def generators(self, iteration):
        return itertools.islice(self.stream, self.cursor)

    def place(self, above, samples, log_L):
        dead = self.order[:self.cursor]
        self.samples[dead], self.log_L[dead] = samples, log_L

    def mass(self, iteration, log_lambda, trace):
        if self.sorted_log_L[-1] <= log_lambda:
            raise StopRun(TerminationReason.degenerate_level)
        chi, dead, _, _ = super().mass(iteration, log_lambda, trace)
        # the live set bounds what the remaining mass can still contribute
        return chi, dead, None, self.sorted_log_L[-1] + math.log(chi)

    def tail(self, trace):
        # the living points, in slot order, each of mass chi_final / count
        dead = self.order[:self.cursor]
        live_log_L = np.delete(self.log_L, dead)
        lam_final, x_final = float(live_log_L.max()), trace.chi_current
        if lam_final <= trace.log_lambda_current:
            return None
        log_live = (log_sum_exp(live_log_L) - math.log(len(live_log_L))
                    + math.log(x_final)) if x_final > 0 else NEG_INF
        return lam_final, log_live, np.delete(self.samples, dead, axis=0)


def run_nested(problem, config, seed):
    """Nested sampling in which tied points die together (Fowlie, Handley &
    Su 2021, Nested sampling with plateaus), with batched refills.

    Chi is (1 - 1/n_live)^i after i single deaths when each dead slot is
    refilled at once (n_live <= 40).  The final live set is added as the
    strategy's tail.
    """
    return run_levels(_NestedLevels(problem, config, seed))
