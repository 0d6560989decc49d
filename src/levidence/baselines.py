"""Reference estimators: plain Monte Carlo and classic nested sampling."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

# evidence_update and should_stop are called elsewhere; perfbench/layers.py
# wraps them here, so they stay imported
from .core import (NEG_INF, CountingLikelihood, LevelTrace,  # noqa: F401
                   TerminationReason, evidence_update, finalize_estimate,
                   log_sum_exp, shell_statistics)
from .lla_mcmc import KernelConfig, LevelUnreachableError
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
        if self.n_live < 2:
            raise ValueError("n_live must be >= 2")


def run_mc(problem, n, seed):
    """Direct prior expectation of the likelihood, with a delta-method SE."""
    if n < 1:
        raise ValueError("n must be >= 1")
    logL_fn = CountingLikelihood(problem.log_likelihood)
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    samples = problem.sample_prior(rng, n)
    log_L = np.array([logL_fn(s) for s in samples])

    m = log_L.max()
    if m == NEG_INF:
        warnings.warn("all likelihoods are zero", RuntimeWarning)
        log_E = NEG_INF
        se_log = math.inf
    else:
        w = np.exp(log_L - m)                  # scaled linear likelihoods
        log_E = m + math.log(w.mean())
        # SE of log(mean) via the delta method on the scaled values
        se_log = w.std(ddof=1) / (w.mean() * math.sqrt(n)) if n > 1 else math.inf

    trace = LevelTrace()
    if m == NEG_INF:
        shell_mean, shell_second = None, None
    else:
        shell_mean, shell_second = shell_statistics(samples, np.exp(log_L - m))
    trace.add_level(log_E, 0.0, log_E, shell_mean, shell_second, logL_fn.count)
    est = finalize_estimate(trace, TerminationReason.max_evals, logL_fn.count,
                            problem.dimension)
    return replace(est, standard_error_log=se_log)


def constrained_mh_step(state, log_L_state, log_lambda, kernel_stddev,
                        component_wise, problem, logL_fn, rng):
    """One Metropolis step of a single chain, targeting the prior restricted
    above the level.

    Symmetric Gaussian proposal (full-vector or coordinate-wise), acceptance
    on the prior density ratio, then the likelihood constraint as a second
    gate.  The likelihood is evaluated only for prior-accepted candidates
    that differ from the current state.  lla_mcmc.constrained_mh_step steps
    many chains as one array; nested replaces one point at a time, and for a
    single row this scalar form is the faster one.
    """
    state = np.asarray(state, dtype=float)
    if component_wise:
        candidate = state.copy()
        for k, prior in enumerate(problem.priors):
            eta_k = candidate[k] + kernel_stddev[k] * rng.standard_normal()
            log_ratio = prior.log_pdf(eta_k) - prior.log_pdf(candidate[k])
            if np.log(rng.uniform()) < log_ratio:
                candidate[k] = eta_k
    else:
        eta = state + kernel_stddev * rng.standard_normal(problem.dimension)
        log_ratio = problem.log_prior(eta) - problem.log_prior(state)
        candidate = eta if np.log(rng.uniform()) < log_ratio else state

    if np.array_equal(candidate, state):
        return state, log_L_state
    log_L_candidate = logL_fn(candidate)
    if log_L_candidate > log_lambda:
        return candidate, log_L_candidate
    return state, log_L_state


def constrained_walk(passing, passing_log_L, log_lambda, kernel_stddev,
                     component_wise, steps, problem, logL_fn, seed_path):
    """One replacement above the level: a chain seeded from seed_path starts
    at a survivor drawn by its generator and takes steps constrained steps."""
    if len(passing) == 0:
        raise LevelUnreachableError("level unreachable: no surviving samples")
    rng = np.random.default_rng(np.random.SeedSequence(list(seed_path)))
    start = rng.integers(len(passing))
    state = np.array(passing[start], dtype=float)
    log_L = passing_log_L[start]
    for _ in range(steps):
        state, log_L = constrained_mh_step(
            state, log_L, log_lambda, kernel_stddev, component_wise, problem,
            logL_fn, rng)
    return state, log_L


class _NestedLevels(LevelStrategy):
    """Replaces the worst live point by a constrained walk each iteration."""

    def __init__(self, problem, config, seed):
        super().__init__(problem, config, seed)
        self.stddev, self.component_wise = config.kernel.resolve(problem)
        rng0 = np.random.default_rng(np.random.SeedSequence([seed, 0]))
        self.live = problem.sample_prior(rng0, config.n_live)
        self.live_log_L = np.array([self.logL_fn(s) for s in self.live])

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
        new, new_log_L = constrained_walk(
            self.live[above], self.live_log_L[above], log_lambda,
            self.stddev, self.component_wise,
            self.config.kernel.steps_per_sample, self.problem, self.logL_fn,
            (self.seed, iteration))
        x = math.exp(-iteration / self.config.n_live)
        dead = self.live[[self.worst]]
        self.live[self.worst] = new
        self.live_log_L[self.worst] = new_log_L
        # the live set bounds what the remaining mass can still contribute
        return x, dead, None, self.live_log_L.max() + math.log(x)


def run_nested(problem, config, seed):
    """Classic nested sampling with the deterministic exp(-i/N) volume model.

    Live points are replaced by a one-chain constrained walk; the final
    live-set contribution is added on termination.
    """
    nested = _NestedLevels(problem, config, seed)
    est = run_levels(nested)
    trace, live, live_log_L = est.trace, nested.live, nested.live_log_L

    # final live-set contribution: each point carries mass X_final / n_live
    x_final = trace.chi_current
    lam_final = float(live_log_L.max())
    if lam_final > trace.log_lambda_current:
        log_live = (log_sum_exp(live_log_L) - math.log(config.n_live)
                    + math.log(x_final)) if x_final > 0 else NEG_INF
        trace.add_level(lam_final, 0.0, log_live, *shell_statistics(live),
                        est.total_evals)
    return finalize_estimate(trace, est.termination_reason, est.total_evals,
                             problem.dimension)
