"""End-to-end tests for the command-line interface."""

import concurrent.futures
import contextlib
import csv
import math
import multiprocessing
import os
import pickle
import signal
import threading
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from levidence import cli
from levidence.baselines import run_mc
from levidence.cli import (ConfigError, load_config, main, read_record,
                           replication_seed)
from levidence.core import ConfigFieldError
from levidence.schedule import StoppingPolicy


def _write(path, text):
    path.write_text(text)
    return str(path)


MC_CONFIG = """\
[experiment]
benchmark = uniform_linear
estimator = mc
seed = 7
replications = 3

[mc]
n = 2000
"""

MCMC_CONFIG = """\
[experiment]
benchmark = uniform_linear
estimator = lla_mcmc
seed = 7
replications = 2

[lla_mcmc]
n_samples = 200
n_replace = 20

[stopping]
max_iterations = 40
max_evals = 4000
"""

IS_CONFIG = """\
[experiment]
benchmark = uniform_linear
estimator = lla_is
seed = 7

[lla_is]
n_initial = 200
"""

SS_CONFIG = """\
[experiment]
benchmark = bimodal_2d
estimator = lla_ss
seed = 7

[lla_ss]
n_per_iteration = 100
per_dim_counts = 5,5,5
"""

SS_RUN_CONFIG = SS_CONFIG.replace("5,5,5", "5") + """
[stopping]
max_evals = 3000
"""

HIGHDIM_SS_CONFIG = """\
[experiment]
benchmark = highdim_gaussian_100
estimator = lla_ss
seed = 7
"""


@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs, so that --workers 2 forks on any machine."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)


class TestLoadConfig:
    def test_valid(self, tmp_path):
        cfg = load_config(_write(tmp_path / "a.ini", MC_CONFIG))
        assert cfg["benchmark"] == "uniform_linear"
        assert cfg["estimator"] == "mc"
        assert cfg["seed"] == 7
        assert cfg["replications"] == 3

    def test_missing_experiment_section(self, tmp_path):
        path = _write(tmp_path / "a.ini", "[mc]\nn = 10\n")
        with pytest.raises(ConfigError, match=r"a\.ini:1: missing"):
            load_config(path)

    def test_missing_estimator_field(self, tmp_path):
        path = _write(tmp_path / "a.ini",
                      "[experiment]\nbenchmark = uniform_linear\nseed = 1\n")
        with pytest.raises(ConfigError,
                           match="missing required field 'estimator'"):
            load_config(path)

    def test_unknown_estimator_reports_line(self, tmp_path):
        path = _write(tmp_path / "a.ini",
                      "[experiment]\nbenchmark = uniform_linear\n"
                      "estimator = bogus\nseed = 1\n")
        with pytest.raises(ConfigError, match=r"a\.ini:3: unknown estimator"):
            load_config(path)

    def test_unknown_benchmark(self, tmp_path):
        path = _write(tmp_path / "a.ini",
                      "[experiment]\nbenchmark = nope\n"
                      "estimator = mc\nseed = 1\n")
        with pytest.raises(ConfigError, match="non-runnable benchmark"):
            load_config(path)

    def test_bad_seed_value(self, tmp_path):
        path = _write(tmp_path / "a.ini",
                      "[experiment]\nbenchmark = uniform_linear\n"
                      "estimator = mc\nseed = -3\n")
        with pytest.raises(ConfigError, match="seed must be"):
            load_config(path)

    def test_non_integer_seed_reports_line(self, tmp_path):
        path = _write(tmp_path / "a.ini",
                      "[experiment]\nbenchmark = uniform_linear\n"
                      "estimator = mc\nseed = seven\n")
        with pytest.raises(ConfigError, match=r"a\.ini:4: bad value"):
            load_config(path)

    def test_config_errors_exit_2(self, tmp_path, capsys, two_cpus):
        cases = [
            ("[mc]\nn = 10\n", [], "a.ini:1: missing"),
            # a misspelled key in a section that is read
            (IS_CONFIG + "\n[level]\nf_inti = 0.1\n", [],
             "a.ini:10: unknown key 'f_inti'"),
            (MC_CONFIG + "n_samples = 10\n", [], "a.ini:9: unknown key"),
            (MC_CONFIG + "\n[stopping]\nmax_eval = 10\n", [],
             "a.ini:11: unknown key"),
            # max_escalations is read, so a bad value is reported
            (IS_CONFIG + "\n[level]\nmax_escalations = many\n", [],
             "a.ini:10: bad value for 'max_escalations'"),
            # lla_mcmc fixes its level fraction, so it reads no [level]
            (MCMC_CONFIG + "\n[level]\nf_init = 0.1\n", [],
             "a.ini:15: lla_mcmc does not read [level]"),
            (MC_CONFIG + "\n[stoping]\nmax_evals = 10\n", [],
             "a.ini:10: mc does not read [stoping]"),
            # three counts for two dimensions, found as the run starts
            (SS_CONFIG, [], "a.ini:8: per_dim_counts needs 1 or 2 entries"),
            # the same error, raised in a pool's worker process
            (SS_CONFIG, ["--workers", "2", "--replications-override", "2"],
             "a.ini:8: per_dim_counts needs 1 or 2 entries"),
            # too many strata: the default grid at d = 100 is reported at
            # the [lla_ss] header, or at line 1 without one, and an explicit
            # count at its own line
            (HIGHDIM_SS_CONFIG, [], "a.ini:1: per_dim_counts gives 78886"),
            (HIGHDIM_SS_CONFIG + "\n[lla_ss]\nn_per_iteration = 100\n", [],
             "a.ini:6: per_dim_counts gives 78886"),
            (HIGHDIM_SS_CONFIG + "\n[lla_ss]\nn_per_iteration = 100\n"
             "per_dim_counts = 5\n", [],
             "a.ini:8: per_dim_counts gives 78886"),
            # values out of range, NaN included, exit 2 at their key
            (IS_CONFIG + "\n[level]\nmax_escalations = -1\n", [],
             "a.ini:10: max_escalations must be >= 0"),
            (IS_CONFIG + "\n[stopping]\ndelta_evidence_tol = nan\n", [],
             "a.ini:10: delta_evidence_tol must be positive"),
            (IS_CONFIG + "\n[stopping]\nchi_tol = nan\n", [],
             "a.ini:10: chi_tol must be positive"),
            (IS_CONFIG + "stddev_multiplier = nan\n", [],
             "a.ini:8: stddev_multiplier must be positive"),
            # an infinite ISD stddev would sample NaN points
            (IS_CONFIG + "stddev_multiplier = inf\n", [],
             "a.ini:8: stddev_multiplier must be positive and finite"),
            (IS_CONFIG + "stddev_override = inf\n", [],
             "a.ini:8: stddev_override must be positive and finite"),
            (IS_CONFIG + "stddev_override = nan\n", [],
             "a.ini:8: stddev_override must be positive and finite"),
            (MC_CONFIG.replace("n = 2000", "n = 0"), [],
             "a.ini:8: n must be >= 1"),
            # configparser would copy [DEFAULT] into every section
            (MC_CONFIG + "\n[DEFAULT]\nn = 10\n", [],
             "a.ini:10: mc does not read [DEFAULT]"),
            # command-line overrides are checked as the file's values are
            (MC_CONFIG, ["--seed-override", "-1"], "seed must be"),
            (MC_CONFIG, ["--workers", "0"], "workers must be >= 1"),
            (MC_CONFIG, ["--workers", "-3"], "workers must be >= 1"),
        ]
        for text, extra, message in cases:
            path = _write(tmp_path / "a.ini", text)
            code = main(["run", "--config", path,
                         "--out-dir", str(tmp_path / "out")] + extra)
            assert code == 2
            assert message in capsys.readouterr().err

    def test_nested_kernel_keys_reach_config(self, tmp_path, monkeypatch):
        # the runner calls the module's run_nested as it is at build time
        monkeypatch.setattr(cli, "run_nested", lambda problem, conf, s: conf)
        text = MC_CONFIG.replace("mc", "nested").replace("n = 2000",
                                                          "n_live = 50")
        for extra, steps in (("", 20), ("steps_per_sample = 7\n", 7)):
            cfg = load_config(_write(tmp_path / "n.ini", text + extra))
            runner = cli._estimator_runner(cfg, None, StoppingPolicy())
            conf = runner(0)
            assert conf.n_live == 50
            assert conf.kernel.steps_per_sample == steps


@contextlib.contextmanager
def _deadline(seconds):
    """Raise TimeoutError in the block after `seconds`."""
    def expire(signum, frame):
        raise TimeoutError("no result within %d s" % seconds)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the replication pool forks")


class TestReplicationPool:
    def test_config_errors_survive_pickling(self):
        exc = pickle.loads(pickle.dumps(ConfigError("a.ini", 8, "bad n")))
        assert type(exc) is ConfigError
        assert str(exc) == "a.ini:8: bad n"
        exc = pickle.loads(pickle.dumps(ConfigFieldError("n", "bad n")))
        assert type(exc) is ConfigFieldError
        assert (str(exc), exc.field) == ("bad n", "n")

    def test_pool_size_is_capped(self, monkeypatch):
        sizes = []

        class FakePool:
            """Runs the map in this process and records the pool size."""

            def __init__(self, max_workers, mp_context, initializer,
                         initargs):
                sizes.append(max_workers)
                self.runner, = initargs

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, seeds):
                return map(self.runner, seeds)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            FakePool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                            raising=False)
        # (workers, replications) -> pool size; None runs in this process
        for workers, replications, size in ((8, 2, 2), (8, 5, 3),
                                            (2, 5, 2), (10**6, 10**3, 3),
                                            (1, 5, None), (4, 1, None)):
            sizes.clear()
            seeds, results = cli._run_replications(
                lambda s: -s, 7, replications, workers)
            assert results == [-s for s in seeds]
            assert sizes == ([size] if size else [])

    @needs_fork
    def test_replications_run_in_other_processes(self, two_cpus):
        with _deadline(60):
            _, pids = cli._run_replications(lambda s: os.getpid(), 7, 3, 2)
        assert len(pids) == 3
        assert os.getpid() not in pids

    def test_threaded_process_does_not_fork(self, two_cpus):
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            _, pids = cli._run_replications(lambda s: os.getpid(), 7, 2, 2)
        finally:
            release.set()
            thread.join(10)
        assert not thread.is_alive()
        assert pids == [os.getpid()] * 2

    @needs_fork
    def test_dead_worker_ends_the_run(self, two_cpus):
        with _deadline(60), pytest.raises(BrokenProcessPool):
            cli._run_replications(lambda s: os._exit(3), 7, 2, 2)


class TestReplicationSeed:
    def test_deterministic_and_distinct(self):
        assert replication_seed(7, 0) == replication_seed(7, 0)
        assert replication_seed(7, 0) != replication_seed(7, 1)
        assert replication_seed(7, 0) != replication_seed(8, 0)


def test_written_floats_read_back_exactly():
    # levels one ulp apart stay distinct in a written trace, so its levels
    # read back strictly increasing; NumPy floats are written as floats
    x = np.float64(-77.61393380534312)
    values = [x, np.nextafter(x, 0.0), 0.1, -0.0, 5e-324, 1.7e308,
              123456789.123456789, -math.inf, math.inf]
    for v in values:
        text = cli._fmt(v)
        assert float(text) == v and math.copysign(1.0, float(text)) == \
            math.copysign(1.0, v), text
    assert cli._fmt(x) != cli._fmt(np.nextafter(x, 0.0))
    assert [cli._fmt(v) for v in (x, -math.inf, math.nan, 7, "")] == [
        "-77.61393380534312", "-inf", "nan", "7", ""]


class TestRun:
    def test_outputs_and_exit_code(self, tmp_path, capsys):
        cfg = _write(tmp_path / "mc.ini", MC_CONFIG)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out-dir", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "benchmark=uniform_linear" in stdout
        assert "wall_time_seconds=" in stdout

        rows = list(csv.reader(open(out / "summary.csv")))
        assert rows[0] == ["replication", "seed", "log_evidence",
                           "reference_log_evidence", "error_percent",
                           "cov_percent", "termination_reason", "total_evals"]
        assert len(rows) == 1 + 3 + 1  # header, replications, aggregate
        assert rows[-1][0] == "aggregate"

        rec = read_record(out / "record.txt")
        assert rec["benchmark"] == "uniform_linear"
        assert rec["replications"] == "3"
        assert float(rec["reference_log_evidence"]) == 0.0
        assert float(rec["error_percent"]) < 10.0
        for r in range(3):
            trace = list(csv.reader(open(out / ("trace_rep%03d.csv" % r))))
            assert trace[0][0] == "iteration"
            assert len(trace) >= 2

    def test_adaptive_estimator_trace(self, tmp_path, capsys):
        cfg = _write(tmp_path / "m.ini", MCMC_CONFIG)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out-dir", str(out)]) == 0
        trace = list(csv.reader(open(out / "trace_rep000.csv")))
        lam = [float(r[1]) for r in trace[1:]]
        chi = [float(r[2]) for r in trace[1:]]
        assert all(b > a for a, b in zip(lam, lam[1:]))
        assert all(b <= a for a, b in zip(chi, chi[1:]))

    def test_worker_count_does_not_change_outputs(self, tmp_path, capsys):
        # 3 replications on 2 workers split unevenly
        names = ["summary.csv", "record.txt"] + [
            "trace_rep%03d.csv" % r for r in range(3)]
        for tag, text in (("mcmc", MCMC_CONFIG), ("ss", SS_RUN_CONFIG)):
            cfg = _write(tmp_path / (tag + ".ini"), text)
            files = []
            for workers in (1, 2, 3):
                out = tmp_path / ("%s_w%d" % (tag, workers))
                assert main(["run", "--config", cfg, "--out-dir", str(out),
                             "--replications-override", "3",
                             "--workers", str(workers)]) == 0
                files.append([(out / name).read_bytes() for name in names])
            assert files[0] == files[1] == files[2]

    def test_seed_override_changes_results(self, tmp_path, capsys):
        cfg = _write(tmp_path / "mc.ini", MC_CONFIG)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", cfg, "--out-dir", str(a)]) == 0
        assert main(["run", "--config", cfg, "--out-dir", str(b),
                     "--seed-override", "11"]) == 0
        ra, rb = read_record(a / "record.txt"), read_record(b / "record.txt")
        assert ra["log_evidence"] != rb["log_evidence"]
        assert rb["seed"] == "11"


def _record(path, benchmark, log_E):
    path.write_text("benchmark = %s\nlog_evidence = %s\n"
                    % (benchmark, log_E))
    return str(path)


class TestSelect:
    def test_probabilities_from_records(self, tmp_path, capsys):
        recs = [
            _record(tmp_path / "d1.txt", "polynomial_regression_d1", "-120.0"),
            _record(tmp_path / "d2.txt", "polynomial_regression_d2", "-40.0"),
            _record(tmp_path / "d3.txt", "polynomial_regression_d3", "-42.0"),
        ]
        out = tmp_path / "sel"
        assert main(["select", *recs, "--out-dir", str(out)]) == 0
        rows = list(csv.reader(open(out / "selection.csv")))
        assert rows[0] == ["model", "log_evidence", "prior_prob",
                           "posterior_prob"]
        probs = [float(r[3]) for r in rows[1:]]
        assert sum(probs) == pytest.approx(1.0, abs=1e-9)
        assert probs[1] > probs[2] > probs[0]

    def test_mismatched_benchmarks_exit_2(self, tmp_path, capsys):
        recs = [
            _record(tmp_path / "a.txt", "conjugate_gaussian", "-10.0"),
            _record(tmp_path / "b.txt", "uniform_linear", "0.0"),
        ]
        assert main(["select", *recs]) == 2
        assert "different benchmarks" in capsys.readouterr().err

    def test_polynomial_degrees_are_one_family(self, tmp_path, capsys):
        recs = [
            _record(tmp_path / "a.txt", "polynomial_regression_d1", "-5.0"),
            _record(tmp_path / "b.txt", "polynomial_regression_d2", "-4.0"),
        ]
        assert main(["select", *recs]) == 0

    def test_priors_applied(self, tmp_path, capsys):
        recs = [
            _record(tmp_path / "a.txt", "polynomial_regression_d1", "0.0"),
            _record(tmp_path / "b.txt", "polynomial_regression_d2", "0.0"),
        ]
        assert main(["select", *recs, "--priors", "0.9,0.1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        probs = [float(line.split(",")[3]) for line in lines[1:]]
        assert probs == pytest.approx([0.9, 0.1], abs=1e-9)

    def test_wrong_prior_count_exit_2(self, tmp_path, capsys):
        recs = [
            _record(tmp_path / "a.txt", "polynomial_regression_d1", "0.0"),
            _record(tmp_path / "b.txt", "polynomial_regression_d2", "0.0"),
        ]
        for priors in ("0.5,0.3,0.2", "a,b", "0.3,0.3", "nan,nan"):
            assert main(["select", *recs, "--priors", priors]) == 2
            assert "error: <args>:1: " in capsys.readouterr().err

    def test_single_record_exit_2(self, tmp_path, capsys):
        rec = _record(tmp_path / "a.txt", "uniform_linear", "0.0")
        assert main(["select", rec]) == 2

    def test_unreadable_record_exit_2(self, tmp_path, capsys):
        rec = _record(tmp_path / "a.txt", "uniform_linear", "0.0")
        assert main(["select", rec, str(tmp_path / "missing.txt")]) == 2


class TestConvergence:
    def test_budget_sweep(self, tmp_path, capsys):
        cfg = _write(tmp_path / "m.ini", MCMC_CONFIG)
        out = tmp_path / "conv"
        assert main(["convergence", "--config", cfg, "--out-dir", str(out),
                     "--budgets", "1000,4000"]) == 0
        rows = list(csv.reader(open(out / "convergence.csv")))
        assert rows[0] == ["budget", "mean_abs_error_percent", "cov_percent"]
        assert [r[0] for r in rows[1:]] == ["1000", "4000"]
        # the larger budget should not be less accurate on this problem
        errs = [float(r[1]) for r in rows[1:]]
        assert errs[1] <= errs[0]

    def test_mc_draws_the_budget(self, tmp_path, capsys, monkeypatch):
        # mc has no stopping policy: each budget is its sample count, in
        # place of [mc] n = 2000
        drawn = []

        def recording(problem, n, seed):
            drawn.append(n)
            return run_mc(problem, n, seed)

        monkeypatch.setattr(cli, "run_mc", recording)
        cfg = _write(tmp_path / "mc.ini", MC_CONFIG)
        out = tmp_path / "conv"
        assert main(["convergence", "--config", cfg, "--out-dir", str(out),
                     "--budgets", "100,10000"]) == 0
        assert drawn == [100] * 3 + [10000] * 3
        rows = list(csv.reader(open(out / "convergence.csv")))
        assert rows[1][1:] != rows[2][1:]

    def test_worker_count_does_not_change_table(self, tmp_path, capsys):
        cfg = _write(tmp_path / "m.ini", MCMC_CONFIG)
        tables = []
        for workers in (1, 2):
            out = tmp_path / ("w%d" % workers)
            assert main(["convergence", "--config", cfg, "--out-dir",
                         str(out), "--budgets", "1000,4000",
                         "--workers", str(workers)]) == 0
            tables.append((out / "convergence.csv").read_bytes())
        assert tables[0] == tables[1]

    def test_empty_budget_list_exit_2(self, tmp_path, capsys):
        cfg = _write(tmp_path / "m.ini", MCMC_CONFIG)
        assert main(["convergence", "--config", cfg,
                     "--out-dir", str(tmp_path / "c"), "--budgets", ","]) == 2

    def test_negative_budget_exit_2(self, tmp_path, capsys):
        cfg = _write(tmp_path / "m.ini", MCMC_CONFIG)
        for extra in (["--budgets", "100,-5"],
                      ["--budgets", "100,abc"],
                      ["--budgets", "100", "--replications-override", "0"],
                      ["--budgets", "100",
                       "--seed-override", str(2**64)],
                      ["--budgets", "100", "--workers", "0"]):
            assert main(["convergence", "--config", cfg,
                         "--out-dir", str(tmp_path / "c")] + extra) == 2
            assert "error: <args>:1: " in capsys.readouterr().err
