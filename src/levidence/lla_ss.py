"""Level-adapted stratified sampling estimator.

The prior is cut into equal-mass strata through the inverse marginal CDFs.
Each level draws every active stratum's uniforms from its own generator and
maps the whole level into the strata's cells in one inverse-CDF pass.  The
samples accumulate in lla_is's weighted pool, a row of stratum s weighing
m / n_s, its stratum's mass over its pool size: importance sampling from the
stratified proposal.  Strata whose pooled samples all fall below the current
level are retired, and their rows weigh 0.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

# perfbench/layers.py wraps chi_ss (the pool's chi_weighted) and what the
# level loop calls here, so they stay imported
from .core import (NEG_INF, ConfigFieldError, TerminationReason,  # noqa: F401
                   check_count, evidence_update, finalize_estimate,
                   from_unit, keyed_generators, shell_statistics)
from .lla_is import _WeightedPoolLevels, chi_weighted as chi_ss  # noqa: F401
from .schedule import (LevelPolicy, StoppingPolicy,  # noqa: F401
                       StopRun, run_levels, select_level, should_stop)

MAX_STRATA = 10**6
NEAR_MISS_LOG_MARGIN = 1.0


class StratificationError(ValueError):
    pass


@dataclass
class StrataGrid:
    """Tensor grid of equal-mass prior strata."""

    per_dim_counts: tuple
    strata: list                 # multi-indices, 1-based per dimension
    mass: float                  # identical for every stratum
    active: np.ndarray           # bool per stratum


@dataclass
class SSConfig:
    per_dim_counts: tuple = (5,)
    n_per_iteration: int = 500
    level_policy: LevelPolicy = field(default_factory=LevelPolicy)
    stopping: StoppingPolicy = field(default_factory=StoppingPolicy)

    def __post_init__(self):
        for c in self.per_dim_counts:
            check_count("per_dim_counts", c, 1)
        self.per_dim_counts = tuple(int(c) for c in self.per_dim_counts)
        check_count("n_per_iteration", self.n_per_iteration, 1)


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


def var_chi_ss(grid, owner, log_L, log_lambda, chi_hat):
    """Plug-in variance of the stratified mass estimate (diagnostic); row j
    of log_L was drawn in stratum owner[j]."""
    n_strata = len(grid.strata)
    sizes = np.bincount(owner, minlength=n_strata)[grid.active]
    if np.any(sizes == 0):
        raise StratificationError("stratum never sampled")
    exceed = np.bincount(owner[log_L > log_lambda],
                         minlength=n_strata)[grid.active]
    n_cum = int(sizes.sum())
    if n_cum == 0:
        return 0.0
    between = sum((grid.mass * (exceed / sizes - chi_hat) ** 2).tolist())
    pooled_binomial = chi_hat * (1.0 - chi_hat)
    return max(pooled_binomial - between, 0.0) / n_cum


class _SSLevels(_WeightedPoolLevels):
    """Tops up every active stratum's share of the pool each iteration; a
    row's tag is its stratum's position in the grid."""

    def __init__(self, problem, config, seed):
        super().__init__(problem, config, seed)
        self.grid = build_strata(problem, config.per_dim_counts)

    def draw(self, iteration):
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
        # the pool keeps the rows of retired strata, at weight 0: the level
        # is an order statistic of every value ever drawn, so it stays
        # continuous when a stratum is retired
        self.extend(sample_stratum(self.problem, grid.per_dim_counts, owner,
                                   u), owner)

    def weights(self):
        """m / n_s for a row of active stratum s, 0 for a retired one."""
        owner = self.tags
        return np.where(self.grid.active[owner],
                        self.grid.mass / np.bincount(owner)[owner], 0.0)

    def mass(self, iteration, log_lambda, trace):
        chi, *shell = super().mass(iteration, log_lambda, trace)
        # the variance is taken at the clamped estimate the trace records
        trace.var_chi.append(var_chi_ss(self.grid, self.tags, self.log_L,
                                        log_lambda,
                                        min(chi, trace.chi_current)))
        return (chi, *shell)

    def advance(self, iteration, log_lambda, trace):
        grid = self.grid
        top = np.full(len(grid.strata), NEG_INF)
        np.maximum.at(top, self.tags, self.log_L)
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
