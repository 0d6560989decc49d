"""End-to-end tests for the command-line interface."""

import csv

import pytest

from levidence.cli import (ConfigError, load_config, main, read_record,
                           replication_seed)


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

    def test_config_errors_exit_2(self, tmp_path, capsys):
        cases = [
            ("[mc]\nn = 10\n", "a.ini:1: missing"),
            # a misspelled key in a section that is read
            (MCMC_CONFIG + "\n[level]\nf_inti = 0.1\n",
             "a.ini:16: unknown key 'f_inti'"),
            (MC_CONFIG + "n_samples = 10\n", "a.ini:9: unknown key"),
            (MC_CONFIG + "\n[stopping]\nmax_eval = 10\n",
             "a.ini:11: unknown key"),
            # max_escalations is read, so a bad value is reported
            (MCMC_CONFIG + "\n[level]\nmax_escalations = many\n",
             "a.ini:16: bad value for 'max_escalations'"),
        ]
        for text, message in cases:
            path = _write(tmp_path / "a.ini", text)
            code = main(["run", "--config", path,
                         "--out-dir", str(tmp_path / "out")])
            assert code == 2
            assert message in capsys.readouterr().err


class TestReplicationSeed:
    def test_deterministic_and_distinct(self):
        assert replication_seed(7, 0) == replication_seed(7, 0)
        assert replication_seed(7, 0) != replication_seed(7, 1)
        assert replication_seed(7, 0) != replication_seed(8, 0)


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
        cfg = _write(tmp_path / "m.ini", MCMC_CONFIG)
        out1, out4 = tmp_path / "w1", tmp_path / "w4"
        assert main(["run", "--config", cfg, "--out-dir", str(out1),
                     "--workers", "1"]) == 0
        assert main(["run", "--config", cfg, "--out-dir", str(out4),
                     "--workers", "4"]) == 0
        for name in ("summary.csv", "record.txt", "trace_rep000.csv",
                     "trace_rep001.csv"):
            assert (out1 / name).read_bytes() == (out4 / name).read_bytes()

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
        assert main(["select", *recs, "--priors", "0.5,0.3,0.2"]) == 2

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

    def test_empty_budget_list_exit_2(self, tmp_path, capsys):
        cfg = _write(tmp_path / "m.ini", MCMC_CONFIG)
        assert main(["convergence", "--config", cfg,
                     "--out-dir", str(tmp_path / "c"), "--budgets", ","]) == 2

    def test_negative_budget_exit_2(self, tmp_path, capsys):
        cfg = _write(tmp_path / "m.ini", MCMC_CONFIG)
        for extra in (["--budgets", "100,-5"],
                      ["--budgets", "100", "--replications-override", "0"]):
            assert main(["convergence", "--config", cfg,
                         "--out-dir", str(tmp_path / "c")] + extra) == 2
