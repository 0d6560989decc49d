"""Level-adapted stratified sampling estimator.

The prior is cut into equal-mass strata through the inverse marginal CDFs.
Each level draws every active stratum's uniforms from its own generator and
maps the whole level into the strata's cells in one inverse-CDF pass.  The
samples accumulate in one pool, each row tagged with its stratum; strata
whose pooled samples all fall below the current level are retired.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

# run_levels calls evidence_update, finalize_estimate, shell_statistics and
# should_stop; perfbench/layers.py wraps them here, so they stay imported
from .core import (NEG_INF, ConfigFieldError, TerminationReason,  # noqa: F401
                   evidence_update, finalize_estimate, from_unit,
                   keyed_generators, shell_statistics)
from .schedule import (LevelPolicy, LevelStrategy,  # noqa: F401
                       StoppingPolicy, StopRun, run_levels, select_level,
                       should_stop)

MAX_STRATA = 10**6
NEAR_MISS_LOG_MARGIN = 1.0


class StratificationError(ValueError):
    pass


@dataclass
class StrataGrid:
    """Tensor grid of equal-mass prior strata with one cumulative sample pool.

    Row j of samples and log_L was drawn in stratum strata[owner[j]].
    """

    per_dim_counts: tuple
    strata: list                 # multi-indices, 1-based per dimension
    mass: float                  # identical for every stratum
    samples: np.ndarray          # (n, d)
    log_L: np.ndarray            # (n,)
    owner: np.ndarray            # (n,) positions in strata
    active: np.ndarray           # bool per stratum


@dataclass
class SSConfig:
    per_dim_counts: tuple = (5,)
    n_per_iteration: int = 500
    level_policy: LevelPolicy = field(default_factory=LevelPolicy)
    stopping: StoppingPolicy = field(default_factory=StoppingPolicy)

    def __post_init__(self):
        if not all(c >= 1 for c in self.per_dim_counts):
            raise ConfigFieldError("per_dim_counts", "per-dimension stratum "
                                   "counts must be >= 1")
        self.per_dim_counts = tuple(int(c) for c in self.per_dim_counts)
        if not self.n_per_iteration >= 1:
            raise ConfigFieldError("n_per_iteration",
                                   "n_per_iteration must be >= 1")


def build_strata(problem, per_dim_counts):
    """All-active equal-mass grid, with one count per dimension or a single
    count for all of them; the total stratum count is capped."""
    counts = tuple(int(c) for c in per_dim_counts)
    if len(counts) == 1:
        counts *= problem.dimension
    if len(counts) != problem.dimension:
        raise ConfigFieldError("per_dim_counts", "per_dim_counts needs 1 or "
                               "%d entries" % problem.dimension)
    total = math.prod(counts)
    if total > MAX_STRATA:
        raise ConfigFieldError("per_dim_counts", "per_dim_counts gives %d "
                               "strata, more than %d" % (total, MAX_STRATA))
    strata = list(itertools.product(*(range(1, c + 1) for c in counts)))
    return StrataGrid(per_dim_counts=counts, strata=strata, mass=1.0 / total,
                      samples=np.empty((0, len(counts))), log_L=np.empty(0),
                      owner=np.empty(0, dtype=int),
                      active=np.ones(total, dtype=bool))


def sample_stratum(problem, per_dim_counts, owner, u):
    """Prior samples via inverse CDFs: row j lies in the stratum at grid
    position owner[j] (C order, as build_strata lists them), placed in its
    cell by column j of the (d, n) uniforms u."""
    counts = np.reshape(per_dim_counts, (-1, 1))
    cell = np.array(np.unravel_index(owner, per_dim_counts))
    lo, hi = cell / counts, (cell + 1) / counts
    # u on the half-open cell (lo, hi]
    return from_unit(problem.blocks, lo + (hi - lo) * (1.0 - u))


def _active_counts(grid, log_lambda):
    """Pool sizes and exceedance counts of the active strata, in order."""
    n_strata = len(grid.strata)
    sizes = np.bincount(grid.owner, minlength=n_strata)[grid.active]
    if np.any(sizes == 0):
        raise StratificationError("stratum never sampled")
    exceed = np.bincount(grid.owner[grid.log_L > log_lambda],
                         minlength=n_strata)[grid.active]
    return sizes, exceed


def chi_ss(grid, log_lambda):
    """Mass-weighted pooled exceedance fraction over the active strata."""
    sizes, exceed = _active_counts(grid, log_lambda)
    # summed left to right in stratum order, not pairwise as np.sum would,
    # so the estimate does not depend on how the terms are grouped
    return sum((grid.mass * exceed / sizes).tolist())


def var_chi_ss(grid, log_lambda, chi_hat):
    """Plug-in variance of the stratified mass estimate (diagnostic)."""
    sizes, exceed = _active_counts(grid, log_lambda)
    n_cum = int(sizes.sum())
    if n_cum == 0:
        return 0.0
    between = sum((grid.mass * (exceed / sizes - chi_hat) ** 2).tolist())
    pooled_binomial = chi_hat * (1.0 - chi_hat)
    return max(pooled_binomial - between, 0.0) / n_cum


class _SSLevels(LevelStrategy):
    """Tops up every active stratum's share of the pool each iteration."""

    def __init__(self, problem, config, seed):
        super().__init__(problem, config, seed)
        self.grid = build_strata(problem, config.per_dim_counts)

    def level(self, iteration, trace):
        grid = self.grid
        active = np.flatnonzero(grid.active).tolist()
        # an even split of the budget, the remainder to the first strata;
        # every active stratum gets at least one sample
        base, rem = divmod(max(self.config.n_per_iteration, len(active)),
                           len(active))
        sizes = [base + (i < rem) for i in range(len(active))]
        # stratum pos draws from SeedSequence([seed, iteration, pos])'s stream
        rngs = keyed_generators((self.seed, iteration), active)
        u = np.hstack([rng.random((self.problem.dimension, n_s))
                       for n_s, rng in zip(sizes, rngs)])
        owner = np.repeat(active, sizes)
        new = sample_stratum(self.problem, grid.per_dim_counts, owner, u)
        grid.samples = np.vstack([grid.samples, new])
        grid.log_L = np.concatenate([grid.log_L, self.logL_fn.rows(new)])
        grid.owner = np.concatenate([grid.owner, owner])

        # the level looks at every likelihood value ever drawn (retired
        # strata included) so the order statistic stays continuous when a
        # stratum is retired; mass estimation still uses active strata only
        log_lambda, _ = select_level(np.sort(grid.log_L),
                                     self.config.level_policy, iteration,
                                     trace.log_lambda_current)
        return log_lambda

    def mass(self, iteration, log_lambda, trace):
        grid = self.grid
        # the variance is taken at the clamped estimate the trace records
        chi = min(chi_ss(grid, log_lambda), trace.chi_current)
        trace.var_chi.append(var_chi_ss(grid, log_lambda, chi))

        # shell rows in stratum-major order, each weighted by its stratum's
        # mass over its pool size
        sizes = np.bincount(grid.owner, minlength=len(grid.strata))
        rows = np.argsort(grid.owner, kind="stable")
        log_L = grid.log_L[rows]
        rows = rows[grid.active[grid.owner[rows]]
                    & (trace.log_lambda_current < log_L)
                    & (log_L <= log_lambda)]
        return (chi, grid.samples[rows], grid.mass / sizes[grid.owner[rows]],
                NEG_INF)

    def advance(self, iteration, log_lambda, trace):
        grid = self.grid
        top = np.full(len(grid.strata), NEG_INF)
        np.maximum.at(top, grid.owner, grid.log_L)
        survivors = grid.active & (top > log_lambda)
        near_miss = grid.active & ~survivors & (
            top > log_lambda - NEAR_MISS_LOG_MARGIN)
        for pos in np.flatnonzero(near_miss):
            warnings.warn(
                "stratum %s deactivated with top log-likelihood within "
                "1 log-unit of the level" % (grid.strata[pos],),
                RuntimeWarning)
        grid.active = survivors
        trace.active_counts.append(int(survivors.sum()))
        if not survivors.any():
            raise StopRun(TerminationReason.chi_floor)


def run_lla_ss(problem, config, seed):
    """Run the full stratified-sampling evidence loop."""
    return run_levels(_SSLevels(problem, config, seed))
