"""The benchmark's traced mode wraps package names; they must stay there.

perfbench/layers.py patches module attributes, a class and per-problem
callables by name, and the recorder raises AttributeError for a name the
package no longer has.  A traced run must also leave the package as it
found it.
"""

import importlib
from pathlib import Path

from levidence import baselines, cli, lla_is, lla_mcmc, lla_ss, models

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
OWNERS = (lla_mcmc, lla_is, lla_ss, baselines, models, cli,
          lla_is.GaussianISD)


def test_install_then_restore_puts_back_every_original(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    tracer = importlib.import_module("tracer").Tracer()
    before = [dict(vars(owner)) for owner in OWNERS]
    layers.install(tracer)  # AttributeError if a wrapped name is gone
    try:
        assert any(vars(owner).get(name) is not value
                   for owner, snapshot in zip(OWNERS, before)
                   for name, value in snapshot.items())
        # a benchmark made while tracing gets per-instance wrappers
        problem, _ = models.make_benchmark("uniform_linear", 0)
        assert "log_prior" in vars(problem)
    finally:
        tracer.restore()
    for owner, snapshot in zip(OWNERS, before):
        now = vars(owner)
        assert now.keys() == snapshot.keys()
        assert all(now[name] is value for name, value in snapshot.items())
    assert "log_prior" not in vars(problem)
    assert "sample_prior" not in vars(problem)
