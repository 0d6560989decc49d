"""What a traced run wraps in the package, and the per-layer metrics.

Layers are the package's modules.  The wrapped names are the ones the
estimator modules look up at call time (``levidence.lla_mcmc.select_level``
and its siblings), one class (``GaussianISD``) and the per-instance
callables of every problem that ``make_benchmark`` returns while tracing.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

from levidence import baselines, cli, lla_is, lla_mcmc, lla_ss, models
from tracer import covered

ESTIMATORS = ("lla_mcmc", "lla_is", "lla_ss", "nested", "mc")


def record_estimate(tracer, estimator, config, est):
    """Counters read off a returned estimate."""
    tracer.add(estimator + ".estimates")
    iterations = len(est.trace)
    if estimator == "lla_mcmc":
        tracer.add("lla_mcmc.iterations", iterations)
    elif estimator == "lla_is":
        tracer.add("lla_is.useful_evals", config.n_initial * iterations)
        tracer.add("lla_is.evals", est.total_evals)
    elif estimator == "lla_ss":
        active = getattr(est.trace, "active_counts", None)
        tracer.add("lla_ss.active_strata_final",
                   active[-1] if active else math.prod(config.per_dim_counts))
    elif estimator == "nested":
        tracer.add("nested.iterations", iterations)


def _escalations(tracer, args, result, _):
    # replay select_level's fraction schedule up to the n_reject it returned
    xs, policy, iteration = args[0], args[1], args[2]
    n, n_reject = len(xs), result[1]
    f, k = policy.fraction(iteration), 0
    while (min(max(math.ceil(f * n), 1), n) != n_reject
           and f < policy.escalation_cap):
        f = min(f * policy.escalation_factor, policy.escalation_cap)
        k += 1
    tracer.add("schedule.escalations", k)


def _mh_before(args):
    return args[6].count  # the CountingLikelihood passed as logL_fn


def _mh_after(tracer, args, result, evals_before):
    tracer.add("lla_mcmc.mh_moves", not np.array_equal(result[0], args[0]))
    tracer.add("lla_mcmc.mh_logliks", args[6].count - evals_before)


def _instrument_problems(tracer, args, result, _):
    problems = ([p for _, p, _ in result] if isinstance(result, list)
                else [result[0]])
    for problem in problems:
        tracer.patch(problem, "log_likelihood", "models.loglik", leaf=True)
        tracer.patch(problem, "log_prior", "core.log_prior",
                     materialize=False)
        tracer.patch(problem, "sample_prior", "core.sample_prior",
                     materialize=False)
        for prior in problem.priors:
            tracer.patch(prior, "log_pdf", "core.prior_log_pdf", leaf=True)
            tracer.patch(prior, "inverse_cdf", "core.inverse_cdf", leaf=True)


def _record_cli_mcmc(tracer, args, result, _):
    record_estimate(tracer, "lla_mcmc", args[1], result)


def install(tracer):
    """Wrap every layer boundary; tracer.restore() undoes all of it."""
    for mod in (lla_mcmc, lla_is, lla_ss, baselines):
        tracer.patch(mod, "evidence_update", "core.evidence_update")
        tracer.patch(mod, "shell_statistics", "core.shell_statistics")
        tracer.patch(mod, "finalize_estimate", "core.finalize_estimate")
        tracer.patch(mod, "should_stop", "schedule.should_stop")
    for mod in (lla_mcmc, lla_is, lla_ss):
        tracer.patch(mod, "select_level", "schedule.select_level",
                     post=_escalations)
    tracer.patch(lla_mcmc, "constrained_mh_step", "lla_mcmc.mh_step",
                 materialize=False, pre=_mh_before, post=_mh_after)
    tracer.patch(lla_mcmc, "replenish", "lla_mcmc.replenish")
    tracer.patch(baselines, "constrained_mh_step", "baselines.mh_step",
                 materialize=False)
    tracer.patch(lla_is.GaussianISD, "log_pdf", "lla_is.isd_log_pdf",
                 leaf=True)
    tracer.patch(lla_is.GaussianISD, "sample", "lla_is.isd_sample")
    tracer.patch(lla_is, "fit_isd", "lla_is.fit_isd")
    tracer.patch(lla_ss, "sample_stratum", "lla_ss.sample_stratum")
    tracer.patch(lla_ss, "chi_ss", "lla_ss.chi_ss")
    tracer.patch(lla_ss, "var_chi_ss", "lla_ss.var_chi_ss")
    for mod in (models, cli):
        tracer.patch(mod, "make_benchmark", "models.make_benchmark",
                     post=_instrument_problems)
    tracer.patch(cli, "posterior_model_probabilities", "selection.posterior")
    tracer.patch(cli, "run_lla_mcmc", "estimate.lla_mcmc", estimate=True,
                 post=_record_cli_mcmc)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, untraced, traced, serial, workers):
    """Per-layer metrics of one traced run.

    untraced, traced and serial are the round lists of the three phases
    (serial is empty except on model_selection).  Counts and times are
    totals over the traced rounds unless the name says otherwise.
    """
    stats, count = tracer.stats(), tracer.counters()

    def calls(name):
        return stats.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return stats.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return stats.get(name, (0, 0.0, 0.0))[2]

    def c(name):
        return count.get(name, 0)

    wall_untraced = sum(r.wall for r in untraced)
    wall_traced = sum(r.wall for r in traced)
    spans = tracer.spans()
    estimate_spans = [(s[2], s[3]) for s in spans
                      if s[1].startswith("estimate.")]
    cli_overhead = sum(end - start - covered(estimate_spans, start, end)
                       for _, name, start, end, *_ in spans
                       if name == "cli.main")

    m = {
        "core.prior_log_pdf.calls": calls("core.prior_log_pdf"),
        "core.prior_log_pdf.s": total("core.prior_log_pdf"),
        "core.log_prior.s": total("core.log_prior"),
        "core.inverse_cdf.calls": calls("core.inverse_cdf"),
        "core.sample_prior.s": total("core.sample_prior"),
        "core.evidence_update.s": total("core.evidence_update"),
        "core.shell_statistics.s": total("core.shell_statistics"),
        "core.finalize_estimate.s": total("core.finalize_estimate"),
        "schedule.select_level.calls": calls("schedule.select_level"),
        "schedule.select_level.s": total("schedule.select_level"),
        "schedule.escalations": c("schedule.escalations"),
        "schedule.should_stop.s": total("schedule.should_stop"),
        "lla_mcmc.mh_step.calls": calls("lla_mcmc.mh_step"),
        "lla_mcmc.mh_step.self_s": own("lla_mcmc.mh_step"),
        "lla_mcmc.replenish.self_s": own("lla_mcmc.replenish"),
        "lla_mcmc.mh_move_frac": _ratio(c("lla_mcmc.mh_moves"),
                                        calls("lla_mcmc.mh_step")),
        "lla_mcmc.loglik_per_step": _ratio(c("lla_mcmc.mh_logliks"),
                                           calls("lla_mcmc.mh_step")),
        "lla_mcmc.iterations": _ratio(c("lla_mcmc.iterations"),
                                      c("lla_mcmc.estimates")),
        "lla_is.isd_log_pdf.calls": calls("lla_is.isd_log_pdf"),
        "lla_is.isd_log_pdf.s": total("lla_is.isd_log_pdf"),
        "lla_is.isd_sample.s": total("lla_is.isd_sample"),
        "lla_is.fit_isd.s": total("lla_is.fit_isd"),
        "lla_is.useful_eval_frac": _ratio(c("lla_is.useful_evals"),
                                          c("lla_is.evals")),
        "lla_ss.sample_stratum.calls": calls("lla_ss.sample_stratum"),
        "lla_ss.sample_stratum.s": total("lla_ss.sample_stratum"),
        "lla_ss.chi_ss.s": total("lla_ss.chi_ss"),
        "lla_ss.var_chi_ss.s": total("lla_ss.var_chi_ss"),
        "lla_ss.active_strata_final": _ratio(c("lla_ss.active_strata_final"),
                                             c("lla_ss.estimates")),
        "lla_ss.near_miss_warnings": c("lla_ss.near_miss_warnings"),
        "baselines.mh_step.calls": calls("baselines.mh_step"),
        "baselines.mh_step.s": total("baselines.mh_step"),
        "baselines.nested_iterations": _ratio(c("nested.iterations"),
                                              c("nested.estimates")),
        "models.loglik.calls": calls("models.loglik"),
        "models.loglik.s": total("models.loglik"),
        "models.loglik_share": _ratio(total("models.loglik"), wall_traced),
        "models.make_benchmark.s": total("models.make_benchmark"),
        "selection.posterior.s": total("selection.posterior"),
        "cli.overhead_s": cli_overhead,
        "cli.serial_wall_s": (statistics.median(r.wall for r in serial)
                              if serial else 0.0),
        "cli.replication_efficiency": _ratio(
            sum(r.wall for r in serial), workers * wall_untraced)
        if serial else 0.0,
        "trace.overhead_frac": _ratio(wall_traced, wall_untraced) - 1.0,
    }

    # per-estimator cost comes from the untraced rounds, where the benchmark
    # times its own estimator calls; estimates made inside the command line
    # are charged an equal share of the single-threaded round they ran in
    timed = {}
    for r in untraced:
        for e in r.estimates:
            if e.seconds is not None:
                timed.setdefault(e.estimator, []).append(e.seconds)
    for r in serial:
        for e in r.estimates:
            timed.setdefault(e.estimator, []).append(
                r.wall / len(r.estimates))
    for est in ESTIMATORS:
        values = timed.get(est, [])
        m["estimate_s." + est] = statistics.median(values) if values else 0.0
        m["estimate_n." + est] = len(values)

    estimates = [e for r in untraced for e in r.estimates]
    m["accuracy.abs_log_error"] = statistics.fmean(
        e.abs_error for e in estimates)
    m["accuracy.gate_misses"] = sum(e.gate_ok is False for e in estimates)
    return m
