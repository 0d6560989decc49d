"""The level loop shared by the estimators: level selection and stopping.

`run_levels` is the one rectangle-rule loop over iso-likelihood levels.
Each estimator plugs into it as a `LevelStrategy` that differs only in how
it draws samples and estimates the prior mass chi above each level.  Every
run ends with a `TerminationReason`: either `should_stop` returns one, or a
step raises `StopRun(reason)`, the one exception the package raises to catch
itself; `run_levels` is where every stop arrives.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .core import (NEG_INF, ConfigFieldError, CountingLikelihood, LevelTrace,
                   TerminationReason, check_count, evidence_update,
                   finalize_estimate, shell_statistics)


class StopRun(RuntimeError):
    """Raised by a strategy step to end the level loop for `reason`."""

    def __init__(self, reason, message=None):
        super().__init__(message or reason.value)
        self.reason = reason


@dataclass
class LevelPolicy:
    """Rejection-fraction schedule f(i) = min(f_max, f_init + f_slope*(i-1)).

    When the candidate level does not strictly exceed the previous one, the
    fraction is escalated multiplicatively (capped) and retried a bounded
    number of times before signalling degeneracy.
    """

    f_init: float = 0.025
    f_slope: float = 0.025
    f_max: float = 0.3
    escalation_factor: float = 1.5
    escalation_cap: float = 0.9
    max_escalations: int = 10

    def __post_init__(self):
        # each test is written so that a NaN fails it
        if not 0 < self.f_init < 1:
            raise ConfigFieldError("f_init", "f_init must lie in (0, 1)")
        if not 0 < self.f_max < 1:
            raise ConfigFieldError("f_max", "f_max must lie in (0, 1)")
        if not self.f_slope >= 0:
            raise ConfigFieldError("f_slope", "f_slope must be >= 0")
        if not self.escalation_factor > 1:
            raise ConfigFieldError("escalation_factor",
                                   "escalation_factor must be > 1")
        if not 0 < self.escalation_cap < 1:
            raise ConfigFieldError("escalation_cap",
                                   "escalation_cap must lie in (0, 1)")
        check_count("max_escalations", self.max_escalations, 0)

    def fraction(self, iteration):
        """f(iteration), in (0, 1) for every iteration >= 1."""
        return min(self.f_max, self.f_init + self.f_slope * (iteration - 1))


@dataclass
class StoppingPolicy:
    delta_evidence_tol: float = 1e-4
    chi_tol: float = 0.005
    max_iterations: int = 100
    max_evals: int = 20000

    def __post_init__(self):
        for name in ("delta_evidence_tol", "chi_tol"):
            if not getattr(self, name) > 0:
                raise ConfigFieldError(name, "%s must be positive" % name)
        check_count("max_iterations", self.max_iterations, 1)
        check_count("max_evals", self.max_evals, 1)


def select_level(sorted_log_likelihoods, policy, iteration, log_lambda_prev):
    """Pick the next level as the ceil(f*N)-th lowest pooled log-likelihood.

    Escalates f when the order statistic fails to strictly exceed the
    previous level; raises StopRun(degenerate_level) when escalation is
    exhausted.  Returns (log_lambda_new, n_reject).
    """
    xs = sorted_log_likelihoods
    n = len(xs)
    if n == 0:
        raise ValueError("no likelihood values to select a level from")
    f = policy.fraction(iteration)
    for _ in range(policy.max_escalations + 1):
        n_reject = min(max(int(math.ceil(f * n)), 1), n)
        candidate = xs[n_reject - 1]
        if candidate > log_lambda_prev:
            return float(candidate), n_reject
        if f >= policy.escalation_cap:
            break
        f = min(f * policy.escalation_factor, policy.escalation_cap)
    raise StopRun(TerminationReason.degenerate_level,
                  "no likelihood value strictly exceeds the previous level")


def should_stop(trace, policy, last_log_increment):
    """Evaluate the stopping criteria in fixed priority order.

    Order: relative evidence change, chi floor, iteration cap, eval cap.
    The relative change is that of last_log_increment against the trace's
    running log-evidence.  Returns the first criterion's TerminationReason
    that holds, or None to go on.
    """
    if len(trace) == 0:
        raise ValueError("stopping policy needs at least one iteration")
    log_E = trace.log_evidence
    if log_E > NEG_INF and last_log_increment > NEG_INF:
        # a zero increment (clamped nonmonotone chi) carries no convergence
        # information, so only real increments can satisfy this criterion
        rel_change = math.exp(min(last_log_increment - log_E, 0.0))
        if rel_change < policy.delta_evidence_tol:
            return TerminationReason.delta_evidence
    if trace.chi_current < policy.chi_tol:
        return TerminationReason.chi_floor
    if len(trace) >= policy.max_iterations:
        return TerminationReason.max_iterations
    if trace.n_evals[-1] >= policy.max_evals:
        return TerminationReason.max_evals
    return None


class LevelStrategy:
    """How one estimator builds its level ladder inside `run_levels`.

    Subclasses supply three steps, each called with the 1-based iteration:
    - level(iteration, trace): draw or top up samples, return the next
      log-level, strictly above trace.log_lambda_current;
    - mass(iteration, log_lambda, trace): return (chi, shell_samples,
      shell_weights, log_bound), where chi estimates the prior mass above
      log_lambda, the shell holds the samples between the previous level and
      log_lambda (weights may be None), and log_bound bounds what the mass
      above log_lambda can still add to the evidence (NEG_INF for none);
    - advance(iteration, log_lambda, trace): prepare the next iteration;
    - tail(trace): after the loop, None or (log_lambda, log_increment,
      shell_samples) for a last row that credits the mass left above.
    The first three steps end the run by raising StopRun.
    """

    def __init__(self, problem, config, seed):
        self.problem = problem
        self.config = config
        self.seed = seed
        self.logL_fn = CountingLikelihood(problem.log_likelihood,
                                          problem.log_likelihood_rows)

    def advance(self, iteration, log_lambda, trace):
        pass

    def tail(self, trace):
        return None


def run_levels(strategy):
    """Run the rectangle-rule level loop of one strategy to its stop.

    A chi above the previous one is clamped silently.  The delta-evidence
    criterion sees the larger of the last increment and the strategy's
    bound, so a bound can only postpone that criterion, never the others.
    However the loop ends, the strategy's tail row, if any, is recorded.
    """
    trace = LevelTrace()
    try:
        for iteration in itertools.count(1):
            log_lambda = strategy.level(iteration, trace)
            chi, shell, weights, log_bound = strategy.mass(
                iteration, log_lambda, trace)
            chi_prev = trace.chi_current
            chi = min(chi, chi_prev)
            log_inc = evidence_update(log_lambda, chi_prev, chi)
            trace.add_level(log_lambda, chi, log_inc,
                            *shell_statistics(shell, weights),
                            strategy.logL_fn.count)
            reason = should_stop(trace, strategy.config.stopping,
                                 max(log_inc, log_bound))
            if reason is not None:
                break
            strategy.advance(iteration, log_lambda, trace)
    except StopRun as exc:
        reason = exc.reason
    if (tail := strategy.tail(trace)) is not None:
        log_lambda, log_inc, shell = tail
        trace.add_level(log_lambda, 0.0, log_inc, *shell_statistics(shell),
                        strategy.logL_fn.count)
    return finalize_estimate(trace, reason, strategy.logL_fn.count,
                             strategy.problem.dimension)
