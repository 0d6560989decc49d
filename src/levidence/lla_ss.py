"""Level-adapted stratified sampling estimator.

The prior is cut into equal-mass strata through the inverse marginal CDFs.
Samples accumulate in per-stratum pools across iterations; strata whose
pooled samples all fall below the current level are retired and never
sampled again.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

# run_levels calls evidence_update, finalize_estimate, shell_statistics and
# should_stop; perfbench/layers.py wraps them here, so they stay imported
from .core import (NEG_INF, TerminationReason, evidence_update,  # noqa: F401
                   finalize_estimate, shell_statistics)
from .schedule import (LevelPolicy, LevelStrategy,  # noqa: F401
                       StoppingPolicy, StopRun, run_levels, select_level,
                       should_stop)

MAX_STRATA = 10**6
NEAR_MISS_LOG_MARGIN = 1.0


class StratificationError(ValueError):
    pass


@dataclass
class StrataGrid:
    """Tensor grid of equal-mass prior strata with cumulative sample pools."""

    per_dim_counts: tuple
    strata: list                 # multi-indices, 1-based per dimension
    mass: float                  # identical for every stratum
    pools: dict                  # index -> dict(samples=[...], log_L=[...])
    active: list                 # subset of strata, in index order

    def pool_size(self, stratum):
        return len(self.pools[stratum]["log_L"])

    def pool_max_log_L(self, stratum):
        ls = self.pools[stratum]["log_L"]
        return max(ls) if ls else NEG_INF


@dataclass
class SSConfig:
    per_dim_counts: tuple = (5,)
    n_per_iteration: int = 500
    level_policy: LevelPolicy = field(default_factory=LevelPolicy)
    stopping: StoppingPolicy = field(default_factory=StoppingPolicy)

    def __post_init__(self):
        self.per_dim_counts = tuple(int(c) for c in self.per_dim_counts)
        if any(c < 1 for c in self.per_dim_counts):
            raise ValueError("per-dimension stratum counts must be >= 1")
        if self.n_per_iteration < 1:
            raise ValueError("n_per_iteration must be >= 1")


def build_strata(problem, per_dim_counts):
    """All-active equal-mass grid; total stratum count is capped."""
    counts = tuple(int(c) for c in per_dim_counts)
    if len(counts) != problem.dimension:
        raise ValueError("per_dim_counts length must equal the dimension")
    total = math.prod(counts)
    if total > MAX_STRATA:
        raise StratificationError("stratification infeasible in this dimension")
    strata = list(itertools.product(*(range(1, c + 1) for c in counts)))
    pools = {s: {"samples": [], "log_L": []} for s in strata}
    return StrataGrid(per_dim_counts=counts, strata=strata, mass=1.0 / total,
                      pools=pools, active=list(strata))


def sample_stratum(problem, per_dim_counts, stratum, n, rng):
    """Draw prior samples restricted to one stratum via inverse CDFs."""
    if n < 1:
        raise ValueError("n must be >= 1")
    out = np.empty((n, problem.dimension))
    for k, (prior, c, s_k) in enumerate(
            zip(problem.priors, per_dim_counts, stratum)):
        lo, hi = (s_k - 1) / c, s_k / c
        # u on the half-open cell (lo, hi], clear of infinite quantiles
        u = np.clip(lo + (hi - lo) * (1.0 - rng.uniform(size=n)),
                    1e-16, 1.0 - 1e-16)
        out[:, k] = [prior.inverse_cdf(ui) for ui in u]
    return out


def chi_ss(grid, log_lambda):
    """Mass-weighted pooled exceedance fraction over the active strata."""
    total = 0.0
    for s in grid.active:
        pool = grid.pools[s]["log_L"]
        if not pool:
            raise StratificationError("stratum never sampled")
        exceed = sum(1 for l in pool if l > log_lambda)
        total += grid.mass * exceed / len(pool)
    return total


def var_chi_ss(grid, log_lambda, chi_hat):
    """Plug-in variance of the stratified mass estimate (diagnostic)."""
    n_cum = sum(grid.pool_size(s) for s in grid.active)
    if n_cum == 0:
        return 0.0
    between = 0.0
    for s in grid.active:
        pool = grid.pools[s]["log_L"]
        frac = sum(1 for l in pool if l > log_lambda) / len(pool)
        between += grid.mass * (frac - chi_hat) ** 2
    pooled_binomial = chi_hat * (1.0 - chi_hat)
    return max(pooled_binomial - between, 0.0) / n_cum


def _allocate(n_total, n_strata):
    """Even split of the per-iteration budget; remainder to the first strata."""
    base, rem = divmod(n_total, n_strata)
    return [base + (1 if i < rem else 0) for i in range(n_strata)]


class _SSLevels(LevelStrategy):
    """Tops up every active stratum's pool each iteration."""

    def __init__(self, problem, config, seed):
        super().__init__(problem, config, seed)
        self.grid = build_strata(problem, config.per_dim_counts)
        self.stratum_ids = {s: i for i, s in enumerate(self.grid.strata)}

    def level(self, iteration, trace):
        grid = self.grid
        counts = _allocate(max(self.config.n_per_iteration, len(grid.active)),
                           len(grid.active))
        for s, n_s in zip(grid.active, counts):
            if n_s == 0:
                continue
            rng = np.random.default_rng(np.random.SeedSequence(
                [self.seed, iteration, self.stratum_ids[s]]))
            new = sample_stratum(self.problem, grid.per_dim_counts, s, n_s,
                                 rng)
            pool = grid.pools[s]
            for row in new:
                pool["samples"].append(row)
                pool["log_L"].append(self.logL_fn(row))

        # the level looks at every likelihood value ever drawn (retired
        # strata included) so the order statistic stays continuous when a
        # stratum is retired; mass estimation still uses active strata only
        pooled = np.sort(np.concatenate(
            [grid.pools[s]["log_L"] for s in grid.strata]))
        log_lambda, _ = select_level(pooled, self.config.level_policy,
                                     iteration, trace.log_lambda_current)
        return log_lambda

    def mass(self, iteration, log_lambda, trace):
        grid = self.grid
        # the variance is taken at the clamped estimate the trace records
        chi = min(chi_ss(grid, log_lambda), trace.chi_current)
        trace.var_chi.append(var_chi_ss(grid, log_lambda, chi))

        shell_samples, shell_weights = [], []
        lam_prev = trace.log_lambda_current
        for s in grid.active:
            pool = grid.pools[s]
            per_sample_w = grid.mass / len(pool["log_L"])
            for row, l in zip(pool["samples"], pool["log_L"]):
                if lam_prev < l <= log_lambda:
                    shell_samples.append(row)
                    shell_weights.append(per_sample_w)
        return chi, np.asarray(shell_samples), shell_weights or None, NEG_INF

    def advance(self, iteration, log_lambda, trace):
        grid = self.grid
        survivors = []
        for s in grid.active:
            top = grid.pool_max_log_L(s)
            if top > log_lambda:
                survivors.append(s)
            elif top > log_lambda - NEAR_MISS_LOG_MARGIN:
                warnings.warn(
                    "stratum %s deactivated with top log-likelihood within "
                    "1 log-unit of the level" % (s,), RuntimeWarning)
        grid.active = survivors
        trace.active_counts.append(len(survivors))
        if not grid.active:
            raise StopRun(TerminationReason.chi_floor)


def run_lla_ss(problem, config, seed):
    """Run the full stratified-sampling evidence loop."""
    return run_levels(_SSLevels(problem, config, seed))
