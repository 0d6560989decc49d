"""Level-adapted MCMC estimator.

The super-level prior mass telescopes as a product of per-iteration pass
fractions.  Samples rejected at each new level are replenished by Markov
chains whose stationary distribution is the prior conditioned on the
super-level region; the chains accept on the prior ratio first and only
then evaluate the likelihood gate, so prior-rejected proposals cost no
likelihood evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# run_levels calls evidence_update, finalize_estimate, shell_statistics and
# should_stop; perfbench/layers.py wraps them here, so they stay imported
from .core import (NEG_INF, TerminationReason, evidence_update,  # noqa: F401
                   finalize_estimate, shell_statistics)
from .schedule import (LevelPolicy, LevelStrategy,  # noqa: F401
                       StoppingPolicy, StopRun, run_levels, select_level,
                       should_stop)

COMPONENT_WISE_DIMENSION = 10


class LevelUnreachableError(StopRun):
    """No sample survives above the level to start a chain from."""

    def __init__(self, message):
        super().__init__(TerminationReason.degenerate_level, message)


@dataclass
class KernelConfig:
    proposal_stddev: np.ndarray | None = None  # default 0.25 * prior stddev
    component_wise: bool | None = None         # default: d > 10
    steps_per_sample: int = 5

    def __post_init__(self):
        if self.steps_per_sample < 1:
            raise ValueError("steps_per_sample must be >= 1")
        if self.proposal_stddev is not None:
            self.proposal_stddev = np.asarray(self.proposal_stddev, dtype=float)
            if np.any(self.proposal_stddev <= 0):
                raise ValueError("proposal stddev entries must be positive")

    def resolve(self, problem):
        stddev = self.proposal_stddev
        if stddev is None:
            stddev = 0.25 * np.array([p.std for p in problem.priors])
        component_wise = self.component_wise
        if component_wise is None:
            component_wise = problem.dimension > COMPONENT_WISE_DIMENSION
        return stddev, component_wise


@dataclass
class MCMCConfig:
    n_samples: int = 1000
    n_replace: int = 25
    kernel: KernelConfig = field(default_factory=KernelConfig)
    level_policy: LevelPolicy | None = None
    stopping: StoppingPolicy = field(default_factory=StoppingPolicy)

    def __post_init__(self):
        if not 1 <= self.n_replace < self.n_samples:
            raise ValueError("need 1 <= n_replace < n_samples")

    def resolved_level_policy(self):
        if self.level_policy is not None:
            return self.level_policy
        f = self.n_replace / self.n_samples
        return LevelPolicy(f_init=f, f_slope=0.0, f_max=f)


def constrained_mh_step(state, log_L_state, log_lambda, kernel_stddev,
                        component_wise, problem, logL_fn, rng):
    """One Metropolis step targeting the prior restricted above the level.

    Symmetric Gaussian proposal (full-vector or coordinate-wise), acceptance
    on the prior density ratio, then the likelihood constraint as a second
    gate.  The likelihood is evaluated only for prior-accepted candidates
    that differ from the current state.
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
        return state, log_L_state, True

    log_L_candidate = logL_fn(candidate)
    if log_L_candidate > log_lambda:
        return candidate, log_L_candidate, True
    return state, log_L_state, False


def replenish(passing, passing_log_L, log_lambda, kernel_stddev,
              component_wise, steps_per_sample, problem, logL_fn, seed_paths):
    """Replacement samples above the level, one short chain per seed path.

    Each chain starts at a survivor drawn by its own generator, seeded from
    its entry of seed_paths, and takes steps_per_sample constrained steps.
    """
    if len(passing) == 0:
        raise LevelUnreachableError("level unreachable: no surviving samples")
    if len(seed_paths) < 1:
        raise ValueError("need at least one chain")
    out_samples, out_log_L = [], []
    for path in seed_paths:
        rng = np.random.default_rng(np.random.SeedSequence(list(path)))
        start = rng.integers(len(passing))
        state = np.array(passing[start], dtype=float)
        log_L = passing_log_L[start]
        for _ in range(steps_per_sample):
            state, log_L, _ = constrained_mh_step(
                state, log_L, log_lambda, kernel_stddev, component_wise,
                problem, logL_fn, rng)
        out_samples.append(state)
        out_log_L.append(log_L)
    return np.asarray(out_samples), np.asarray(out_log_L)


def chi_mcmc(chi_prev, n_pass, n_total):
    """Telescoped mass update from the pre-replenishment pass fraction."""
    if not 0 <= n_pass <= n_total:
        raise ValueError("n_pass outside [0, n_total]")
    return chi_prev * n_pass / n_total


class _MCMCLevels(LevelStrategy):
    """A fixed-size population, replenished above each level by MCMC."""

    def __init__(self, problem, config, seed):
        super().__init__(problem, config, seed)
        self.kernel_stddev, self.component_wise = config.kernel.resolve(
            problem)
        self.level_policy = config.resolved_level_policy()
        rng0 = np.random.default_rng(np.random.SeedSequence([seed, 0]))
        self.samples = problem.sample_prior(rng0, config.n_samples)
        self.log_L = np.array([self.logL_fn(s) for s in self.samples])

    def level(self, iteration, trace):
        log_lambda, _ = select_level(np.sort(self.log_L), self.level_policy,
                                     iteration, trace.log_lambda_current)
        return log_lambda

    def mass(self, iteration, log_lambda, trace):
        self.passing = self.log_L > log_lambda
        chi = chi_mcmc(trace.chi_current, int(self.passing.sum()),
                       self.config.n_samples)
        return chi, self.samples[~self.passing], None, NEG_INF

    def advance(self, iteration, log_lambda, trace):
        passing = self.passing
        n_new = self.config.n_samples - int(passing.sum())
        new_samples, new_log_L = replenish(
            self.samples[passing], self.log_L[passing], log_lambda,
            self.kernel_stddev, self.component_wise,
            self.config.kernel.steps_per_sample, self.problem, self.logL_fn,
            [(self.seed, iteration, chain) for chain in range(n_new)])
        self.samples = np.vstack([self.samples[passing], new_samples])
        self.log_L = np.concatenate([self.log_L[passing], new_log_L])


def run_lla_mcmc(problem, config, seed):
    """Run the full MCMC evidence loop."""
    return run_levels(_MCMCLevels(problem, config, seed))
