"""Tests for the plain Monte Carlo and nested-sampling baselines."""

import math

import numpy as np
import pytest

from levidence import lla_mcmc
from levidence.baselines import (NESTED_REFILL_FRACTION, NESTED_WALK_STEPS,
                                 NestedConfig, _NestedLevels, run_mc,
                                 run_nested)
from levidence.core import (NEG_INF, BayesianProblem, LevelTrace,
                            MarginalPrior, TerminationReason, log_sum_exp,
                            normal_prior, uniform_prior)
from levidence.lla_mcmc import KernelConfig, MCMCConfig, run_lla_mcmc
from levidence.schedule import StoppingPolicy, run_levels


def _uniform_problem():
    return BayesianProblem(
        dimension=1,
        priors=[uniform_prior(0.0, 1.0)],
        log_likelihood=lambda t: math.log(2.0) + math.log(t[0])
        if t[0] > 0 else NEG_INF,
    )


def _gaussian_problem_12d():
    # above COMPONENT_WISE_DIMENSION, so nested walks with the array kernel
    return BayesianProblem(
        dimension=12, priors=[uniform_prior(-1.0, 1.0)] * 12,
        log_likelihood=lambda t: -0.5 * float(t @ t) / 0.3 ** 2)


def _gaussian_problem():
    return BayesianProblem(
        dimension=1, priors=[normal_prior(0.0, 1.0)],
        log_likelihood=lambda t: -0.5 * math.log(2 * math.pi)
        - 0.5 * t[0] ** 2)


# log L = round(k theta) on U(0, 1) at n_live = 100 and seed 11, recorded
# before the live set was kept sorted between refills.  At k = 20 about
# five points tie on each plateau, more than the three dead slots a refill
# waits for, so ties straddle refills and every level refills; at k = 100
# single deaths, ties and levels without a refill mix.  Levels are integers.
# The n_evals traces and totals were re-recorded when refills moved after
# the stop check: a refill's evaluations count towards the next level, and
# none is drawn after the last one
TIED_LADDERS = {
    20: dict(
        reason=TerminationReason.degenerate_level,
        log_evidence=16.96756997836168, total_evals=5068,
        log_lambda=list(range(21)),
        chi=[0.97, 0.8826999999999999, 0.8473919999999999,
             0.7541788799999999, 0.6938445696, 0.6522138954239999,
             0.5804703669273599, 0.534032737573171, 0.4913101185673174,
             0.46183151145327833, 0.4248849905370161, 0.39939189110479517,
             0.3394831074390759, 0.2749813170256515, 0.2392337458123168,
             0.2033486839404693, 0.16064546031297072, 0.11727118602846863,
             0.06567186417594244, 0.021671715178061005, 0.0],
        n_evals=[100, 157, 323, 403, 613, 762, 881, 1094, 1248, 1403,
                 1520, 1673, 1790, 2077, 2421, 2664, 2930, 3279, 3700, 4315,
                 5068]),
    100: dict(
        reason=TerminationReason.chi_floor,
        log_evidence=95.18847259931732, total_evals=6553,
        log_lambda=[2, 3, 4, 5, 6, 7, 8, 9, 13, 14, 15, 16, 17, 18, 19, 20,
                    22, 24, 25, 26, 28, 29, 30, 31, 32, 34, 35, 36, 37, 38,
                    40, 41, 43, 44, 46, 47, 48, 49, 50, 51, 54, 55, 56, 57,
                    58, 59, 60, 61, 62, 63, 64, 65, 66, 67, 68, 69, 70, 71,
                    72, 73, 74, 75, 76, 77, 78, 79, 80, 81, 82, 83, 84, 85,
                    86, 87, 88, 89, 90, 91, 92, 93, 94, 95, 96, 97, 98, 99,
                    100],
        chi_last=0.003874429477949219,
        n_evals=[100, 157, 233, 233, 233, 290, 290, 366, 366, 482, 482, 559,
                 559, 619, 619, 674, 753, 753, 812, 812, 892, 945, 945, 1005,
                 1080, 1157, 1226, 1226, 1285, 1285, 1345, 1345, 1405, 1405,
                 1461, 1461, 1536, 1536, 1592, 1672, 1732, 1787, 1879, 1879,
                 1997, 1997, 2066, 2138, 2138, 2185, 2240, 2315, 2369, 2443,
                 2555, 2555, 2676, 2676, 2822, 2822, 2897, 2972, 3074, 3074,
                 3139, 3191, 3264, 3264, 3431, 3554, 3641, 3743, 3896, 4001,
                 4117, 4246, 4361, 4597, 4714, 4926, 5081, 5217, 5504, 5700,
                 6044, 6553, 6553]),
}


class TestRunMC:
    def test_uniform_linear_within_error_bars(self):
        est = run_mc(_uniform_problem(), 20000, seed=0)
        assert abs(est.log_evidence) < 3 * est.standard_error_log
        assert est.total_evals == 20000

    def test_gaussian_within_error_bars(self):
        expect = -0.5 * math.log(2 * math.pi * 2.0)
        est = run_mc(_gaussian_problem(), 20000, seed=1)
        assert abs(est.log_evidence - expect) < 3 * est.standard_error_log

    def test_standard_error_shrinks_with_n(self):
        small = run_mc(_uniform_problem(), 500, seed=2)
        large = run_mc(_uniform_problem(), 50000, seed=2)
        assert large.standard_error_log < small.standard_error_log

    def test_standard_error_magnitude(self):
        # L = 2 theta: Var(L)/E[L]^2 = 1/3, so SE of log ~ sqrt(1/(3n))
        n = 10000
        est = run_mc(_uniform_problem(), n, seed=3)
        assert est.standard_error_log == pytest.approx(
            math.sqrt(1.0 / (3.0 * n)), rel=0.1)

    def test_deterministic_given_seed(self):
        a = run_mc(_uniform_problem(), 1000, seed=4)
        b = run_mc(_uniform_problem(), 1000, seed=4)
        assert a.log_evidence == b.log_evidence

    def test_zero_likelihood_everywhere(self):
        problem = BayesianProblem(
            dimension=1, priors=[uniform_prior(0.0, 1.0)],
            log_likelihood=lambda t: NEG_INF)
        with pytest.warns(RuntimeWarning):
            est = run_mc(problem, 100, seed=0)
        assert est.log_evidence == NEG_INF

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            run_mc(_uniform_problem(), 0, seed=0)


class TestRunNested:
    def test_uniform_linear_accuracy(self):
        # seeds 0-39 all end on chi_floor (chi_tol 0.005).  The region
        # above the level grows narrower than the fixed proposal scale, so
        # a refill chain that never moves duplicates a survivor; the copy
        # dies with the original at the level they tie at.  The final live
        # set's tail credits the mass left
        cfg = NestedConfig(n_live=300,
                           kernel=KernelConfig(steps_per_sample=40),
                           stopping=StoppingPolicy(max_iterations=20000,
                                                   max_evals=10**6))
        est = run_nested(_uniform_problem(), cfg, seed=0)
        assert abs(est.log_evidence) < 0.05

    def test_gaussian_accuracy(self):
        expect = -0.5 * math.log(2 * math.pi * 2.0)
        cfg = NestedConfig(n_live=300,
                           stopping=StoppingPolicy(max_iterations=20000,
                                                   max_evals=10**6))
        est = run_nested(_gaussian_problem(), cfg, seed=1)
        assert est.log_evidence == pytest.approx(expect, abs=0.05)

    def test_rejects_a_frozen_proposal(self):
        # a prior std of 0 or NaN gives a proposal scale under which no
        # refill chain ever moves
        g = normal_prior(0.0, 1.0)
        for std in (0.0, math.nan):
            problem = BayesianProblem(
                dimension=1,
                priors=[MarginalPrior(g.log_pdf, g.inverse_cdf, g.support,
                                      std=std)],
                log_likelihood=lambda t: -0.5 * t[0] ** 2)
            with pytest.raises(ValueError, match="prior 0 has std"):
                run_nested(problem, NestedConfig(), seed=7)

    def test_volume_model_is_deterministic_shrinkage(self):
        # all but the final live-set row: death i, with j = (i - 1) mod k
        # slots already empty, leaves n_alive - 1 of n_alive = n_live - j
        # living points above the level, where k = ceil(0.025 n_live) dead
        # slots are refilled at once; at n_live <= 40, k = 1 and chi is
        # (1 - 1/n_live)^i
        for n_live, k in ((40, 1), (100, 3)):
            assert math.ceil(NESTED_REFILL_FRACTION * n_live) == k
            cfg = NestedConfig(n_live=n_live,
                               stopping=StoppingPolicy(max_iterations=50,
                                                       max_evals=10**6))
            est = run_nested(_uniform_problem(), cfg, seed=2)
            chi = est.trace.chi[:-1]
            assert len(chi) == 50
            for i, x in enumerate(chi, start=1):
                n_alive = n_live - (i - 1) % k
                x_prev = chi[i - 2] if i > 1 else 1.0
                assert x == x_prev * (n_alive - 1) / n_alive
                if k == 1:
                    assert x == pytest.approx((1 - 1 / n_live) ** i,
                                              rel=1e-12)

    def test_tied_points_die_together(self, monkeypatch):
        # log L = floor(4 theta) has four plateaus: every living point on
        # the lowest dies at the first level, chi drops by their fraction,
        # and one refill draws their chains with keys 1..m in slot order
        problem = BayesianProblem(
            dimension=1, priors=[uniform_prior(0.0, 1.0)],
            log_likelihood=lambda t: float(math.floor(4.0 * t[0])))
        refills = []

        def recording(passing, passing_log_L, log_lambda, *args):
            refills.append([rng.bit_generator.state["state"]
                            for rng in args[-1]])
            return replenish(passing, passing_log_L, log_lambda, *args)

        replenish = lla_mcmc.replenish
        monkeypatch.setattr(lla_mcmc, "replenish", recording)
        levels = _NestedLevels(problem, NestedConfig(n_live=40), 3)
        tied = np.flatnonzero(levels.log_L == 0.0)
        m = len(tied)
        assert 1 < m < 40
        trace = LevelTrace()
        dying = levels.samples[tied].tolist()
        assert levels.level(1, trace) == 0.0
        chi, dead, _, _ = levels.mass(1, 0.0, trace)
        assert chi == (40 - m) / 40
        assert dead.tolist() == dying
        assert refills == [] and levels.cursor == m
        levels.advance(1, 0.0, trace)
        assert refills == [
            [np.random.default_rng(np.random.SeedSequence([3, j]))
             .bit_generator.state["state"] for j in range(1, m + 1)]]
        assert levels.cursor == 0 and levels.n_refilled == m
        assert np.all(levels.log_L > 0.0)
        # on the top plateau every living point ties, so no chain can
        # start; the run stops there and its tail row credits the plateau
        est = run_nested(problem, NestedConfig(n_live=40, stopping=(
            StoppingPolicy(max_iterations=1000, max_evals=10**6))), 3)
        assert est.termination_reason == TerminationReason.degenerate_level
        assert est.trace.log_lambda == [0.0, 1.0, 2.0, 3.0]

    @pytest.mark.parametrize("k", sorted(TIED_LADDERS))
    def test_tied_ladder_is_pinned(self, k):
        pin = TIED_LADDERS[k]
        problem = BayesianProblem(
            dimension=1, priors=[uniform_prior(0.0, 1.0)],
            log_likelihood=lambda t: float(round(k * t[0])))
        est = run_nested(problem, NestedConfig(n_live=100, stopping=(
            StoppingPolicy(max_iterations=1000, max_evals=10**6))), 11)
        assert est.termination_reason == pin["reason"]
        assert est.log_evidence == pin["log_evidence"]
        assert est.total_evals == pin["total_evals"]
        assert est.trace.log_lambda == pin["log_lambda"]
        assert est.trace.n_evals == pin["n_evals"]
        if "chi" in pin:
            assert est.trace.chi == pin["chi"]
        else:
            assert est.trace.chi[-2] == pin["chi_last"]

    def test_dead_slots_refill_in_batches(self, monkeypatch):
        # n_live = 100 refills k = 3 dead slots per replenish call, looked
        # up on lla_mcmc; the chain of death i draws from
        # SeedSequence([seed, i])'s stream
        refills = []

        def recording(passing, passing_log_L, log_lambda, *args):
            rngs = args[-1]
            refills.append([rng.bit_generator.state["state"]
                            for rng in rngs])
            assert np.all(passing_log_L > log_lambda)
            assert len(passing) == 100 - len(rngs)
            return replenish(passing, passing_log_L, log_lambda, *args)

        replenish = lla_mcmc.replenish
        monkeypatch.setattr(lla_mcmc, "replenish", recording)
        cfg = NestedConfig(n_live=100,
                           stopping=StoppingPolicy(max_iterations=30))
        est = run_nested(_uniform_problem(), cfg, seed=6)
        assert est.termination_reason == TerminationReason.max_iterations
        # the refill due at the 30th death would come after the stop
        assert refills == [
            [np.random.default_rng(np.random.SeedSequence([6, i]))
             .bit_generator.state["state"] for i in range(j, j + 3)]
            for j in range(1, 28, 3)]
        # each refill's evaluations count towards the level after its last
        # death, so the count grows only every third level
        n_evals = est.trace.n_evals[:-1]
        assert n_evals[0] == n_evals[1] == n_evals[2] == 100
        assert n_evals[3] > 100 and n_evals[4] == n_evals[3]

    @pytest.mark.parametrize("tied", (True, False))
    def test_refill_fills_the_slots_in_order_of_death(self, monkeypatch,
                                                      tied):
        # replenish returns point j as the row (10 + j) at log L 100 + j;
        # the j-th new point goes into the slot of the j-th death, deaths
        # ordered by log L and then by slot.  Tied: at n_live = 40 the
        # first level kills the whole lowest plateau of floor(4 theta) in
        # one refill.  Untied: at n_live = 100 three single deaths of
        # distinct log L share one refill
        if tied:
            problem, n_live = BayesianProblem(
                dimension=1, priors=[uniform_prior(0.0, 1.0)],
                log_likelihood=lambda t: float(math.floor(4.0 * t[0]))), 40
        else:
            problem, n_live = _uniform_problem(), 100
        expected = []

        def recognisable(passing, passing_log_L, log_lambda, *args):
            dead = np.flatnonzero(levels.log_L <= log_lambda)
            dead = dead[np.lexsort((dead, levels.log_L[dead]))]
            expected.append((dead, levels.log_L[dead]))
            n = len(args[-1])
            return (10.0 + np.arange(n, dtype=float)[:, None],
                    100.0 + np.arange(n, dtype=float))

        monkeypatch.setattr(lla_mcmc, "replenish", recognisable)
        batch = math.ceil(NESTED_REFILL_FRACTION * n_live)
        levels = _NestedLevels(problem, NestedConfig(
            n_live=n_live,
            stopping=StoppingPolicy(max_iterations=batch + 1)), 4)
        run_levels(levels)
        ((slots, dead_log_L),) = expected
        if tied:
            assert len(slots) > 1 and np.ptp(dead_log_L) == 0
        else:
            # the order of death is not the slot order
            assert len(slots) == 3 and sorted(slots) != slots.tolist()
        assert levels.samples[slots, 0].tolist() == [
            10.0 + j for j in range(len(slots))]
        assert levels.log_L[slots].tolist() == [
            100.0 + j for j in range(len(slots))]

    @pytest.mark.parametrize("max_iterations", (1, 7))
    def test_no_refill_after_the_last_level(self, monkeypatch,
                                            max_iterations):
        # at n_live = 40 a refill is due at every death, but the last
        # level's dead point stays dead: the tail has 39 living points
        refills = []

        def recording(*args):
            refills.append(len(args[-1]))
            return replenish(*args)

        replenish = lla_mcmc.replenish
        monkeypatch.setattr(lla_mcmc, "replenish", recording)
        cfg = NestedConfig(n_live=40, stopping=StoppingPolicy(
            max_iterations=max_iterations))
        levels = _NestedLevels(_uniform_problem(), cfg, 5)
        est = run_levels(levels)
        assert est.termination_reason == TerminationReason.max_iterations
        assert refills == [1] * (max_iterations - 1)
        assert levels.cursor == 1
        assert est.total_evals == est.trace.n_evals[-2]
        assert est.trace.log_evidence_increments[-1] == pytest.approx(
            log_sum_exp(np.delete(levels.log_L, levels.order[0]))
            - math.log(39) + math.log(est.trace.chi[-2]), rel=1e-12)

    def test_tail_credits_live_slots_only(self):
        # 50 deaths at n_live = 100 leave 50 mod 3 = 2 slots dead; each of
        # the 98 live points carries chi_final / 98
        cfg = NestedConfig(n_live=100,
                           stopping=StoppingPolicy(max_iterations=50))
        levels = _NestedLevels(_uniform_problem(), cfg, 2)
        trace = run_levels(levels).trace
        assert levels.cursor == 2
        alive = np.ones(100, dtype=bool)
        alive[levels.order[:levels.cursor]] = False
        assert np.all(levels.log_L[~alive] <= trace.log_lambda[-2])
        assert trace.log_evidence_increments[-1] == pytest.approx(
            log_sum_exp(levels.log_L[alive]) - math.log(98)
            + math.log(trace.chi[-2]), rel=1e-12)
        assert trace.shell_means[-1] == pytest.approx(
            levels.samples[alive].mean(axis=0).tolist())

    def test_zero_likelihood_region(self):
        # L = 2 theta above 0.02 and 0 below: the first level escalates its
        # fraction past the first live set's points at log L = -inf, and
        # the run goes on to its chi floor.  Over seeds 0-19 every run ends
        # there, with an error of sd 0.027 nats
        problem = BayesianProblem(
            dimension=1, priors=[uniform_prior(0.0, 1.0)],
            log_likelihood=lambda t: math.log(2.0 * t[0])
            if t[0] > 0.02 else NEG_INF)
        cfg = NestedConfig(n_live=500,
                           stopping=StoppingPolicy(max_iterations=20000,
                                                   max_evals=10**6))
        est = run_nested(problem, cfg, seed=0)
        assert est.termination_reason == TerminationReason.chi_floor
        assert est.trace.log_lambda[0] > NEG_INF
        assert abs(est.log_evidence - math.log(1 - 0.02 ** 2)) < 0.1

    @pytest.mark.parametrize("run, config", [
        (run_nested, NestedConfig(n_live=50)),
        (run_lla_mcmc, MCMCConfig(n_samples=100, n_replace=5))],
        ids=["nested", "lla_mcmc"])
    def test_zero_likelihood_everywhere(self, run, config):
        # no level can exceed -inf, so the run records none, and nested's
        # live set has nothing above the last level to credit
        problem = BayesianProblem(
            dimension=1, priors=[uniform_prior(0.0, 1.0)],
            log_likelihood=lambda t: NEG_INF)
        est = run(problem, config, seed=0)
        assert est.termination_reason == TerminationReason.degenerate_level
        assert est.log_evidence == NEG_INF and len(est.trace) == 0

    def test_levels_strictly_increase(self):
        cfg = NestedConfig(n_live=100,
                           stopping=StoppingPolicy(max_iterations=200,
                                                   max_evals=10**6))
        for problem in (_uniform_problem(), _gaussian_problem_12d()):
            est = run_nested(problem, cfg, seed=3)
            lam = est.trace.log_lambda
            assert all(b > a for a, b in zip(lam, lam[1:]))

    def test_plateau_terminates_degenerate(self):
        problem = BayesianProblem(
            dimension=1, priors=[uniform_prior(0.0, 1.0)],
            log_likelihood=lambda t: 0.25)  # log-likelihood is constant
        cfg = NestedConfig(n_live=50,
                           stopping=StoppingPolicy(max_iterations=1000,
                                                   max_evals=10**6))
        est = run_nested(problem, cfg, seed=4)
        assert est.termination_reason == TerminationReason.degenerate_level
        # a constant log-likelihood integrates exactly
        assert est.log_evidence == pytest.approx(0.25, abs=1e-12)

    def test_deterministic_given_seed(self):
        cfg = NestedConfig(n_live=100,
                           stopping=StoppingPolicy(max_iterations=500,
                                                   max_evals=10**6))
        a = run_nested(_uniform_problem(), cfg, seed=5)
        b = run_nested(_uniform_problem(), cfg, seed=5)
        assert a.log_evidence == b.log_evidence
        assert a.total_evals == b.total_evals

    def test_live_set_bound_does_not_bypass_caps(self):
        # on a nearly flat likelihood the live-set bound keeps vetoing the
        # delta-evidence stop; the iteration and eval caps must still apply
        problem = BayesianProblem(
            dimension=1, priors=[uniform_prior(0.0, 1.0)],
            log_likelihood=lambda t: -1e-3 * t[0])
        cfg = NestedConfig(n_live=50, stopping=StoppingPolicy(
            delta_evidence_tol=0.05, max_iterations=50))
        est = run_nested(problem, cfg, seed=0)
        assert est.termination_reason == TerminationReason.max_iterations
        assert len(est.trace) <= 51
        cfg = NestedConfig(n_live=50, stopping=StoppingPolicy(
            delta_evidence_tol=0.05, max_iterations=10**6, max_evals=500))
        est = run_nested(problem, cfg, seed=0)
        assert est.termination_reason == TerminationReason.max_evals
        assert est.total_evals <= 500 + NESTED_WALK_STEPS

    def test_invalid_config(self):
        for n in (1, math.nan):
            with pytest.raises(ValueError, match="n_live"):
                NestedConfig(n_live=n)
