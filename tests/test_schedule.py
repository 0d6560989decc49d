"""Unit tests for level selection, the stopping criteria and the loop."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from levidence.core import (NEG_INF, BayesianProblem, LevelTrace,
                            TerminationReason, uniform_prior)
from levidence.schedule import (DegenerateLevelError, LevelPolicy,
                                LevelStrategy, StoppingPolicy, StopRun,
                                run_levels, select_level, should_stop)


class TestLevelPolicy:
    def test_schedule_values(self):
        pol = LevelPolicy(f_init=0.025, f_slope=0.025, f_max=0.3)
        assert pol.fraction(1) == pytest.approx(0.025)
        assert pol.fraction(4) == pytest.approx(0.1)
        assert pol.fraction(100) == pytest.approx(0.3)

    def test_fraction_outside_unit_interval_raises(self):
        with pytest.raises(ValueError, match="f_init"):
            LevelPolicy(f_init=0.0, f_slope=0.0, f_max=0.5)

    @pytest.mark.parametrize("field, value", [
        ("f_init", math.nan), ("f_init", 1.0), ("f_max", 0.0),
        ("f_max", math.nan), ("f_slope", -0.1), ("f_slope", math.nan),
        ("escalation_factor", 1.0), ("escalation_factor", 0.5),
        ("escalation_factor", math.nan), ("escalation_cap", 1.0),
        ("escalation_cap", math.nan), ("max_escalations", -1)])
    def test_invalid_policy_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            LevelPolicy(**{field: value})


class TestSelectLevel:
    def test_order_statistic(self):
        xs = np.arange(100, dtype=float)  # sorted 0..99
        pol = LevelPolicy(f_init=0.025, f_slope=0.025, f_max=0.3)
        # iteration 1: f = 0.025, n_reject = ceil(2.5) = 3 -> xs[2]
        lam, n_reject = select_level(xs, pol, 1, NEG_INF)
        assert lam == 2.0
        assert n_reject == 3

    def test_example_schedule_first_iteration(self):
        xs = np.arange(1000, dtype=float)
        pol = LevelPolicy(f_init=0.025, f_slope=0.025, f_max=0.3)
        lam, n_reject = select_level(xs, pol, 1, NEG_INF)
        assert n_reject == 25
        assert lam == xs[24]

    def test_escalation_past_stalled_level(self):
        xs = np.arange(100, dtype=float)
        pol = LevelPolicy(f_init=0.1, f_slope=0.0, f_max=0.1,
                          escalation_factor=2.0, escalation_cap=0.9)
        # previous level sits above the scheduled candidate xs[9]
        lam, _ = select_level(xs, pol, 1, 15.0)
        assert lam > 15.0

    def test_degenerate_when_everything_at_previous_level(self):
        xs = np.zeros(50)
        pol = LevelPolicy(f_init=0.1, f_slope=0.0, f_max=0.1)
        with pytest.raises(DegenerateLevelError):
            select_level(xs, pol, 1, 0.0)

    def test_empty_input_raises(self):
        with pytest.raises(ValueError):
            select_level(np.array([]), LevelPolicy(), 1, NEG_INF)

    def test_escalation_respects_cap(self):
        xs = np.arange(1000, dtype=float)
        pol = LevelPolicy(f_init=0.5, f_slope=0.0, f_max=0.5,
                          escalation_factor=10.0, escalation_cap=0.9)
        # one escalation jumps straight to the cap, not past it
        lam, n_reject = select_level(xs, pol, 1, 898.5)
        assert lam == 899.0
        assert n_reject == 900
        # nothing above the cap order statistic -> degeneracy, not f = 1
        with pytest.raises(DegenerateLevelError):
            select_level(xs, pol, 1, 998.5)


def _trace(chi, log_E_incs, n_evals, iterations=None):
    t = LevelTrace()
    iterations = iterations or len(log_E_incs)
    for i in range(iterations):
        t.add_level(float(i), chi if i == iterations - 1 else 1.0 - 1e-9 * i,
                    log_E_incs[min(i, len(log_E_incs) - 1)], None, None,
                    n_evals)
    return t


class TestShouldStop:
    def _policy(self, **kw):
        base = dict(delta_evidence_tol=1e-4, chi_tol=0.005,
                    max_iterations=100, max_evals=20000)
        base.update(kw)
        return StoppingPolicy(**base)

    def test_delta_evidence_fires(self):
        t = LevelTrace()
        t.add_level(0.0, 0.5, 0.0, None, None, 100)
        t.add_level(1.0, 0.4, -20.0, None, None, 200)
        stop, reason = should_stop(t, self._policy(), -20.0)
        assert stop and reason == TerminationReason.delta_evidence

    def test_delta_skips_zero_increment(self):
        # a clamped nonmonotone chi gives a -inf increment: no information
        t = LevelTrace()
        t.add_level(0.0, 0.5, 0.0, None, None, 100)
        t.add_level(1.0, 0.5, NEG_INF, None, None, 200)
        stop, reason = should_stop(t, self._policy(), NEG_INF)
        assert not stop

    def test_chi_floor(self):
        t = LevelTrace()
        t.add_level(0.0, 0.004, 0.0, None, None, 100)
        stop, reason = should_stop(t, self._policy(), 0.0)
        assert stop and reason == TerminationReason.chi_floor

    def test_chi_at_tolerance_does_not_stop(self):
        t = LevelTrace()
        t.add_level(0.0, 0.005, 0.0, None, None, 100)
        stop, _ = should_stop(t, self._policy(), 0.0)
        assert not stop

    def test_max_iterations(self):
        t = LevelTrace()
        for i in range(3):
            t.add_level(float(i), 0.5, 0.0, None, None, 100)
        stop, reason = should_stop(t, self._policy(max_iterations=3), 0.0)
        assert stop and reason == TerminationReason.max_iterations

    def test_max_evals(self):
        t = LevelTrace()
        t.add_level(0.0, 0.5, 0.0, None, None, 20000)
        stop, reason = should_stop(t, self._policy(), 0.0)
        assert stop and reason == TerminationReason.max_evals

    def test_priority_chi_floor_before_caps(self):
        t = LevelTrace()
        t.add_level(0.0, 0.001, 0.0, None, None, 10**6)
        stop, reason = should_stop(t, self._policy(), 0.0)
        assert stop and reason == TerminationReason.chi_floor

    def test_empty_trace_raises(self):
        with pytest.raises(ValueError):
            should_stop(LevelTrace(), self._policy(), 0.0)

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            StoppingPolicy(chi_tol=0.0)
        with pytest.raises(ValueError):
            StoppingPolicy(max_evals=0)
        for field in ("delta_evidence_tol", "chi_tol", "max_iterations",
                      "max_evals"):
            with pytest.raises(ValueError):
                StoppingPolicy(**{field: math.nan})


class _Halving(LevelStrategy):
    """Level i at log-likelihood i/1000, chi halving, a fixed log bound."""

    def __init__(self, stopping, log_bound=NEG_INF, stop_after=None):
        problem = BayesianProblem(1, [uniform_prior(0.0, 1.0)],
                                  lambda t: 0.0)
        super().__init__(problem, SimpleNamespace(stopping=stopping), 0)
        self.log_bound, self.stop_after = log_bound, stop_after

    def level(self, iteration, trace):
        self.logL_fn(np.zeros(1))
        return 1e-3 * iteration

    def mass(self, iteration, log_lambda, trace):
        return 0.5 ** iteration, np.zeros((1, 1)), None, self.log_bound

    def advance(self, iteration, log_lambda, trace):
        if iteration == self.stop_after:
            raise StopRun(TerminationReason.degenerate_level)


class TestRunLevels:
    def test_running_evidence_and_counts(self):
        est = run_levels(_Halving(StoppingPolicy(max_iterations=5)))
        assert est.termination_reason == TerminationReason.max_iterations
        assert est.trace.n_evals == [1, 2, 3, 4, 5]
        expect = np.log(sum(np.exp(1e-3 * i) * 0.5 ** i for i in range(1, 6)))
        assert est.log_evidence == pytest.approx(expect, rel=1e-12)

    def test_bound_postpones_only_delta_evidence(self):
        loose = StoppingPolicy(delta_evidence_tol=0.9, max_iterations=6)
        assert len(run_levels(_Halving(loose)).trace) < 6
        est = run_levels(_Halving(loose, log_bound=100.0))
        assert est.termination_reason == TerminationReason.max_iterations
        assert len(est.trace) == 6

    def test_step_stops_run(self):
        est = run_levels(_Halving(StoppingPolicy(), stop_after=3))
        assert est.termination_reason == TerminationReason.degenerate_level
        assert len(est.trace) == 3

    def test_default_tail_adds_no_row(self):
        est = run_levels(_Halving(StoppingPolicy(max_iterations=4)))
        assert len(est.trace) == 4

    @pytest.mark.parametrize("stopping, stop_after, reason", [
        (StoppingPolicy(max_iterations=4), None,
         TerminationReason.max_iterations),
        (StoppingPolicy(), 4, TerminationReason.degenerate_level),
    ])
    def test_tail_recorded_after_any_stop(self, stopping, stop_after, reason):
        class Tailed(_Halving):
            def tail(self, trace):
                # the mass left above the last level, at log-likelihood 1
                return 1.0, np.log(trace.chi_current), np.ones((2, 1))

        est = run_levels(Tailed(stopping, stop_after=stop_after))
        assert est.termination_reason == reason
        trace = est.trace
        assert len(trace) == 5
        assert trace.log_lambda[-1] == 1.0 and trace.chi[-1] == 0.0
        assert trace.log_evidence_increments[-1] == np.log(0.5 ** 4)
        assert trace.shell_means[-1] == [1.0]
        assert trace.n_evals[-1] == 4
        # the tail's increment is part of the estimate
        expect = np.log(sum(np.exp(1e-3 * i) * 0.5 ** i for i in range(1, 5))
                        + 0.5 ** 4)
        assert est.log_evidence == pytest.approx(expect, rel=1e-12)
