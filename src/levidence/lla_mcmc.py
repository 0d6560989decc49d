"""Level-adapted MCMC estimator.

The super-level prior mass telescopes as a product of per-iteration pass
fractions.  Samples rejected at each new level are replenished by Markov
chains whose stationary distribution is the prior conditioned on the
super-level region.  All of a level's replacement chains advance together as
the rows of one (n, d) array.  A step accepts on the prior ratio first, for
all rows at once against each row's cached log prior, and only then
evaluates the likelihood gate on the rows that moved, so prior-rejected
proposals cost no likelihood evaluations.  Up to COMPONENT_WISE_DIMENSION
the proposal moves the full vector, and each chain draws from its own
generator: chain c of iteration i from the stream of
SeedSequence([seed, i, c]), which core.keyed_generators yields for a whole
level at once.  Above it each coordinate accepts on its own prior ratio
(the modified Metropolis of Au & Beck 2001), cached per coordinate from
core.log_terms, which makes one log_pdf call per block of identical prior
marginals; and the whole refill draws from three generators spawned from
SeedSequence([seed, i]), in one call each, chain c taking row c
(Papaioannou et al. 2015).  replenish is the only code that moves a chain,
and constrained_mh_step the only step.  _PopulationLevels is the one
population strategy: LLA-MCMC is that population with n_replace deaths per
level, and nested sampling (baselines._NestedLevels) a subclass of it with
one.  A prior std that is not finite and positive is rejected before any
chain moves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# run_levels calls evidence_update, finalize_estimate, shell_statistics and
# should_stop; perfbench/layers.py wraps them here, so they stay imported
from .core import (NEG_INF, ConfigFieldError,  # noqa: F401
                   TerminationReason, check_count, evidence_update,
                   finalize_estimate, keyed_generators, log_terms,
                   shell_statistics)
from .schedule import (LevelPolicy, LevelStrategy,  # noqa: F401
                       StoppingPolicy, StopRun, run_levels, select_level,
                       should_stop)

COMPONENT_WISE_DIMENSION = 10


@dataclass
class KernelConfig:
    steps_per_sample: int = 5

    def __post_init__(self):
        check_count("steps_per_sample", self.steps_per_sample, 1)

    def resolve(self, problem):
        """Proposal stddev, a quarter of each prior stddev.

        A prior std that is not finite and positive raises ValueError
        naming the coordinate: 0, NaN or inf would freeze every chain.
        """
        std = np.array([p.std for p in problem.priors], dtype=float)
        bad = np.flatnonzero(~((std > 0) & (std < math.inf)))
        if len(bad):
            raise ValueError("prior %d has std %r; the proposal scale needs "
                             "a finite std > 0" % (bad[0], float(std[bad[0]])))
        return 0.25 * std


@dataclass
class MCMCConfig:
    """Each level rejects the fixed fraction n_replace / n_samples."""

    n_samples: int = 1000
    n_replace: int = 25
    kernel: KernelConfig = field(default_factory=KernelConfig)
    stopping: StoppingPolicy = field(default_factory=StoppingPolicy)

    def __post_init__(self):
        if not 1 <= self.n_replace < self.n_samples:
            raise ConfigFieldError("n_replace",
                                   "need 1 <= n_replace < n_samples")
        check_count("n_samples", self.n_samples, 2)
        check_count("n_replace", self.n_replace, 1)


def constrained_mh_step(state, log_L, log_p, log_lambda, delta, log_u,
                        logL_fn, problem):
    """One Metropolis step of every chain, targeting the prior restricted
    above the level.

    Row i of state proposes state[i] + delta[i].  log_p caches each row's log
    prior: (n,) for full-vector moves, or per coordinate, (n, d), for
    component-wise moves, where each coordinate accepts on its own prior
    ratio.  log_u, of log_p's shape, holds the log uniforms of that test.
    logL_fn, a CountingLikelihood, evaluates only the rows whose candidate
    differs from their state, and a candidate at or below log_lambda is
    rejected.
    Returns new (state, log_L, log_p) arrays.
    """
    eta = state + delta
    log_p_eta = (problem.log_prior(eta) if log_p.ndim == 1
                 else log_terms(problem.blocks, eta))
    accept = log_u < log_p_eta - log_p
    candidate = np.where(accept.reshape(len(state), -1), eta, state)
    moved = np.flatnonzero((candidate != state).any(axis=1))
    candidate_log_L = log_L.copy()
    candidate_log_L[moved] = logL_fn.rows(candidate[moved])
    # rows that did not move stay above the level, as every state does
    keep = candidate_log_L > log_lambda
    keep_p = keep if log_p.ndim == 1 else keep[:, None]
    return (np.where(keep[:, None], candidate, state),
            np.where(keep, candidate_log_L, log_L),
            np.where(keep_p, np.where(accept, log_p_eta, log_p), log_p))


def replenish(passing, passing_log_L, log_lambda, kernel_stddev,
              steps_per_sample, problem, logL_fn, n, level_key, rngs):
    """n replacement samples above the level, one short chain each.

    Each chain starts at a survivor and takes steps_per_sample constrained
    steps; all chains advance together as the rows of one array.  A chain's
    draws do not depend on its state, so they are taken up front, from the
    streams that the kernel's dimension test picks:
    - full-vector moves (d <= COMPONENT_WISE_DIMENSION): chain c draws
      from the c-th generator rngs yields (core.keyed_generators, for the
      callers) its start index, then per step a standard normal vector and
      one uniform;
    - component-wise moves: three generators spawned from
      SeedSequence(level_key) draw n start indices, (n, steps, d) normals
      and (n, steps, d) uniforms, one call each, and chain c takes row c;
      rngs is not iterated.
    Either way a chain's row does not depend on the other chains of the
    batch.
    """
    if len(passing) == 0:
        raise StopRun(TerminationReason.degenerate_level,
                      "level unreachable: no surviving samples")
    if n < 1:
        raise ValueError("need at least one chain")
    d = problem.dimension
    component_wise = d > COMPONENT_WISE_DIMENSION
    if component_wise:
        starts_rng, z_rng, u_rng = (
            np.random.default_rng(child)
            for child in np.random.SeedSequence(level_key).spawn(3))
        starts = starts_rng.integers(len(passing), size=n)
        # chain-major draws, viewed step-major like the per-chain ones
        z = z_rng.standard_normal((n, steps_per_sample, d)).transpose(1, 0, 2)
        u = u_rng.random((n, steps_per_sample, d)).transpose(1, 0, 2)
    else:
        starts = np.empty(n, dtype=np.intp)
        z = np.empty((steps_per_sample, n, d))
        u = np.empty((steps_per_sample, n))
        for c, rng in enumerate(rngs):
            starts[c] = rng.integers(len(passing))
            for s in range(steps_per_sample):
                # random() is uniform() on [0, 1) without its bounds arithmetic
                rng.standard_normal(out=z[s, c])
                u[s, c] = rng.random()
    delta = np.multiply(z, kernel_stddev, out=z)
    log_u = np.log(u, out=u)

    state, log_L = passing[starts], passing_log_L[starts]
    log_p = (log_terms(problem.blocks, state) if component_wise
             else problem.log_prior(state))
    for s in range(steps_per_sample):
        state, log_L, log_p = constrained_mh_step(
            state, log_L, log_p, log_lambda, delta[s], log_u[s], logL_fn,
            problem)
    return state, log_L


def chi_mcmc(chi_prev, n_pass, n_total):
    """Telescoped mass update from the pre-replenishment pass fraction."""
    if not 0 <= n_pass <= n_total:
        raise ValueError("n_pass outside [0, n_total]")
    return chi_prev * n_pass / n_total


class _PopulationLevels(LevelStrategy):
    """n points, sorted once per refill by a stable sort, so the dead,
    order[:cursor], are in their order of death: by log L, ties in slot
    order.  A level is select_level over the living points at the fraction
    n_kill / n.  Every living point at or below it dies, ties included, and
    chi shrinks by the living points' pass fraction.  Once batch have died,
    replenish refills them from the survivors.  The parts generators and
    place default to LLA-MCMC's.
    """

    def __init__(self, problem, config, seed, n, n_kill, batch):
        super().__init__(problem, config, seed)
        self.kernel_stddev = config.kernel.resolve(problem)
        f = n_kill / n
        self.level_policy = LevelPolicy(f_init=f, f_slope=0.0, f_max=f)
        self.batch = batch
        rng0 = np.random.default_rng(np.random.SeedSequence([seed, 0]))
        self.samples = problem.sample_prior(rng0, n)
        self.log_L = self.logL_fn.rows(self.samples)
        self._sort()

    def _sort(self):
        self.order = np.argsort(self.log_L, kind="stable")
        self.sorted_log_L = self.log_L[self.order]
        self.cursor = 0                 # the dead points are order[:cursor]

    def level(self, iteration, trace):
        log_lambda, _ = select_level(self.sorted_log_L[self.cursor:],
                                     self.level_policy, iteration,
                                     trace.log_lambda_current)
        return log_lambda

    def mass(self, iteration, log_lambda, trace):
        # the dead lie at or below the last level, before the cursor
        n_dead = int(np.searchsorted(self.sorted_log_L, log_lambda, "right"))
        dying = self.order[self.cursor:n_dead]
        n_alive = len(self.order) - self.cursor
        self.cursor = n_dead
        chi = chi_mcmc(trace.chi_current, n_alive - len(dying), n_alive)
        return chi, self.samples[np.sort(dying)], None, NEG_INF

    def advance(self, iteration, log_lambda, trace):
        if self.cursor < self.batch:
            return
        above = self.log_L > log_lambda
        self.place(above, *replenish(
            self.samples[above], self.log_L[above], log_lambda,
            self.kernel_stddev, self.config.kernel.steps_per_sample,
            self.problem, self.logL_fn, self.cursor, [self.seed, iteration],
            self.generators(iteration)))
        self._sort()

    def generators(self, iteration):
        """Full-vector chain c of iteration i draws from
        SeedSequence([seed, i, c]); none is built until replenish asks."""
        yield from keyed_generators((self.seed, iteration), range(self.cursor))

    def place(self, above, samples, log_L):
        """The survivors (above the level) in order, then the new points."""
        self.samples = np.vstack([self.samples[above], samples])
        self.log_L = np.concatenate([self.log_L[above], log_L])


def run_lla_mcmc(problem, config, seed):
    """Run the full MCMC evidence loop: each level kills the n_replace
    lowest of n_samples (more on a tie) and refills them at once."""
    return run_levels(_PopulationLevels(problem, config, seed,
                                        config.n_samples, config.n_replace, 1))
