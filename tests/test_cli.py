"""CLI: configuration checks, exit codes and the records CSV."""

import csv
import json
import re

import numpy as np
import pytest

import nfisac
from nfisac import OptimizerConfig
from nfisac.cli import EXIT_OK, EXIT_USAGE, ConfigError, main, parse_config
from nfisac.estimator import wrap_angle
from nfisac.harness import run_trial, run_trials

# A sweep small enough for tier-1: 8 elements, 16 subcarriers, two trials.
TINY = {
    "n_antennas": 8,
    "subcarriers": 16,
    "ofdm_symbols": 2,
    "radii_m": [0.5],
    "distances_m": [10.0],
    "trials_per_point": 2,
    "master_seed": 17,
    "grid": {"d_max_m": 40.0, "n_basins": 4},
    "optimizer": {"max_iters": 200},
}


def write_config(tmp_path, data):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return str(path)


class TestAngleGridCheck:
    def test_rejects_n_theta_off_the_element_lattice(self):
        message = "multiple of n_antennas = 64; nearest valid: 64 or 128"
        with pytest.raises(ConfigError, match=message):
            parse_config(overrides={"grid": {"n_theta": 100}})

    def test_below_one_period_names_only_the_element_count(self):
        with pytest.raises(ConfigError, match="nearest valid: 64$"):
            parse_config(overrides={"grid": {"n_theta": 10}})

    def test_accepts_multiples_and_auto(self):
        assert parse_config(overrides={"grid": {"n_theta": 192}}).grid["n_theta"] == 192
        assert parse_config(overrides={"grid": {"n_theta": "auto"}}).grid["n_theta"] == "auto"

    def test_main_exits_with_usage_code(self, tmp_path, capsys):
        config = write_config(tmp_path, {"n_antennas": 8, "grid": {"n_theta": 100}})
        code = main(["--config", config, "crlb-sweep", "--output", str(tmp_path / "out.csv")])
        assert code == EXIT_USAGE
        assert "nearest valid: 96 or 104" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()


class TestRecordsCsv:
    def test_records_parse_back_bit_identical(self, tmp_path):
        config = write_config(tmp_path, TINY)
        records_path = tmp_path / "records.csv"
        code = main([
            "--config", config, "monte-carlo",
            "--output", str(tmp_path / "summary.csv"), "--records", str(records_path),
        ])
        assert code == EXIT_OK
        expected = run_trials(parse_config(config).sweep_config())

        lines = records_path.read_text().splitlines()
        assert lines[0].startswith("# nfisac")
        rows = list(csv.DictReader(lines[1:]))
        assert len(rows) == len(expected) == 2
        for row, record in zip(rows, expected):
            for name in ("radius_m", "d_true_m", "theta_true_rad", "d_hat_m",
                         "theta_hat_rad", "snr_db", "rate_est_bps", "rate_opt_bps"):
                assert float(row[name]).hex() == float(getattr(record, name)).hex(), name
            assert row["converged"] == ("1" if record.converged else "0")
            assert row["success"] == ("1" if record.success else "0")
            assert int(row["seed"]) == record.seed


class TestEstimate:
    def test_estimate_reproduces_the_trial_of_its_seed(self, tmp_path):
        # One synthesis path: the command draws the bank a trial with the
        # same seed, radius, distance and angle draws, so both estimate alike.
        config = write_config(tmp_path, TINY)
        output = tmp_path / "estimate.csv"
        code = main([
            "--config", config, "--seed", "23", "estimate", "--radius", "0.5",
            "--distance", "12", "--theta-deg", "40", "--output", str(output),
        ])
        assert code == EXIT_OK
        row = next(csv.DictReader(output.read_text().splitlines()[1:]))
        record = run_trial(
            parse_config(config).sweep_config(), 0.5, 12.0, float(np.deg2rad(40.0)), 23
        )
        assert float(row["d_hat_m"]).hex() == record.d_hat_m.hex()
        theta_hat = np.deg2rad(float(row["theta_hat_deg"]))
        assert abs(wrap_angle(theta_hat) - record.theta_hat_rad) < 1e-12


def rerun_argv(sidecar, config_path, outputs):
    """The command line a sidecar describes, with fresh output paths."""
    argv = ["--config", config_path, "--seed", str(sidecar["master_seed"]), sidecar["command"]]
    for dest, value in sidecar["arguments"].items():
        flag = "--" + dest.replace("_", "-")
        if value is True:
            argv.append(flag)
        elif value is not False:
            argv += [flag, str(value)]
    return argv + outputs


class TestSidecar:
    def test_rerun_from_the_sidecar_alone_is_byte_identical(self, tmp_path):
        config = write_config(tmp_path, TINY)
        first = tmp_path / "first"
        first.mkdir()
        code = main([
            "--config", config, "monte-carlo", "--reduced-m", "--trials", "1",
            "--output", str(first / "summary.csv"), "--records", str(first / "records.csv"),
        ])
        assert code == EXIT_OK
        sidecar = json.loads((first / "summary.csv.config.json").read_text())
        assert sidecar["arguments"] == {"trials": 1, "reduced_m": True, "workers": 1}
        assert sidecar["worker_env"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
        assert sidecar["tool"] == f"nfisac {nfisac.__version__}"
        assert sidecar["numpy"] == np.__version__

        second = tmp_path / "second"
        second.mkdir()
        config_again = second / "config.json"
        config_again.write_text(json.dumps(sidecar["config"]))
        code = main(rerun_argv(sidecar, str(config_again), [
            "--output", str(second / "summary.csv"), "--records", str(second / "records.csv"),
        ]))
        assert code == EXIT_OK
        for name in ("summary.csv", "records.csv"):
            assert (second / name).read_bytes() == (first / name).read_bytes(), name


class TestOptimizerSettings:
    @pytest.mark.parametrize("key, value", [("max_iters", -5), ("max_backtracks", 0)])
    def test_config_rejects_out_of_range_counts(self, key, value):
        with pytest.raises(ValueError, match=f"^{key} must be >= "):
            OptimizerConfig(**{key: value})

    def test_zero_iteration_budget_is_valid(self):
        assert OptimizerConfig(max_iters=0).max_iters == 0

    @pytest.mark.parametrize(
        "key, value", [("grad_tol", -1.0), ("max_iters", -3), ("max_backtracks", 0)]
    )
    def test_parse_config_names_the_optimizer_key(self, key, value):
        with pytest.raises(ConfigError, match=f"key 'optimizer.{key}'"):
            parse_config(overrides={"optimizer": {key: value}})

    @pytest.mark.parametrize("key, value", [("grad_tol", -1.0), ("max_iters", -3)])
    def test_main_exits_with_usage_code(self, tmp_path, capsys, key, value):
        config = write_config(tmp_path, {**TINY, "optimizer": {key: value}})
        output = tmp_path / "beam.csv"
        code = main([
            "--config", config, "optimize-beamformer",
            "--radius", "0.5", "--distance", "10", "--output", str(output),
        ])
        assert code == EXIT_USAGE
        assert f"optimizer.{key}" in capsys.readouterr().err
        assert not output.exists()

    def test_optimize_prints_a_plain_float_trace(self, tmp_path, capsys):
        config = write_config(tmp_path, TINY)
        code = main([
            "--config", config, "optimize-beamformer",
            "--radius", "0.5", "--distance", "10", "--output", str(tmp_path / "beam.csv"),
        ])
        assert code == EXIT_OK
        printed = re.search(r"trace=(\S+) ", capsys.readouterr().out).group(1)
        assert float(printed) > 0.0


class TestConfigKinds:
    @pytest.mark.parametrize("overrides, key", [
        ({"optimizer": {"max_iters": "many"}}, "optimizer.max_iters"),
        ({"grid": {"n_d": "x"}}, "grid.n_d"),
        ({"subcarriers": "128"}, "subcarriers"),
        ({"radii_m": "ab"}, "radii_m"),
        ({"workers": 1.5}, "workers"),
        ({"workers": True}, "workers"),
        ({"tx_power_mw": False}, "tx_power_mw"),
        ({"lm": {"tol_score": "small"}}, "lm.tol_score"),
        ({"distances_m": []}, "distances_m"),
        ({"distances_m": [10.0, True]}, "distances_m"),
        ({"theta_policy": "random"}, "theta_policy"),
        ({"grid": {"n_theta": None}}, "grid.n_theta"),
    ])
    def test_parse_config_names_the_key(self, overrides, key):
        with pytest.raises(ConfigError, match=f"^key '{re.escape(key)}' must be "):
            parse_config(overrides=overrides)

    @pytest.mark.parametrize("overrides", [
        {"optimizer": {"max_iters": "many"}},
        {"grid": {"n_d": "x"}},
        {"subcarriers": "128"},
        {"radii_m": "ab"},
        {"workers": 1.5},
    ])
    def test_main_exits_with_usage_code(self, tmp_path, capsys, overrides):
        config = write_config(tmp_path, {**TINY, **overrides})
        output = tmp_path / "bounds.csv"
        code = main(["--config", config, "crlb-sweep", "--output", str(output)])
        assert code == EXIT_USAGE
        key = next(iter(overrides))
        assert f"key '{key}" in capsys.readouterr().err
        assert not output.exists()

    def test_numbers_of_either_json_kind_are_accepted(self):
        cfg = parse_config(overrides={
            "tx_power_mw": 100, "theta_policy": 30, "radii_m": [1],
            "grid": {"d_max_m": 40}, "lm": {"tol_score": 1e-9},
        })
        assert cfg.radii_m == (1.0,) and cfg.theta_policy == 30


class TestVerbose:
    @pytest.mark.parametrize("command", ["monte-carlo", "rate-sweep"])
    def test_progress_on_stderr_and_identical_outputs(self, tmp_path, capsys, command):
        config = write_config(tmp_path, TINY)
        outputs = {}
        for flags in ([], ["--verbose"]):
            out = tmp_path / ("verbose" if flags else "quiet")
            out.mkdir()
            argv = ["--config", config, *flags, command, "--output", str(out / "main.csv")]
            if command == "monte-carlo":
                argv += ["--records", str(out / "records.csv")]
            assert main(argv) == EXIT_OK
            captured = capsys.readouterr()
            outputs[bool(flags)] = (
                captured.out,
                {p.name: p.read_bytes() for p in sorted(out.iterdir())},
            )
            lines = captured.err.splitlines()
            if flags:
                assert [line.split(" done:")[0] for line in lines] == ["trial 1/2", "trial 2/2"]
                assert "R=0.5 m, d=10 m" in lines[0]
            else:
                assert lines == []
        assert outputs[True] == outputs[False]
