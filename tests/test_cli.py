"""CLI: configuration checks, exit codes and the records CSV."""

import csv
import dataclasses
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import nfisac
from nfisac.cli import (
    EXIT_OK,
    EXIT_USAGE,
    ConfigError,
    _warn_unless_rate_monotone,
    main,
    parse_config,
)
from nfisac.estimator import wrap_angle
from nfisac.harness import SweepPoint, TrialRecord, run_trial, run_trials

# A sweep small enough for tier-1: 8 elements, 16 subcarriers, two trials.
TINY = {
    "n_antennas": 8,
    "subcarriers": 16,
    "ofdm_symbols": 2,
    "radii_m": [0.5],
    "distances_m": [10.0],
    "trials_per_point": 2,
    "master_seed": 17,
    "grid": {"d_max_m": 40.0},
}


def write_config(tmp_path, data):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return str(path)


class TestDistanceRange:
    """A distance must lie on the grid of the largest radius: [max(2R, 1 m), grid.d_max_m]."""

    @pytest.mark.parametrize("distances", [[0.8], [150.0]])
    def test_config_distance_off_the_grid_names_the_key(self, distances):
        # Off the grid the estimate is wrong yet reads converged (M = 128,
        # R = 0.5 m: d = 150 m with the grid ending at 100 m gave 33-87 m,
        # d = 0.8 m gave 1.01-1.06 m).
        overrides = {"radii_m": [0.5], "distances_m": distances, "grid": {"d_max_m": 100.0}}
        with pytest.raises(ConfigError, match="^key 'distances_m': distance "):
            parse_config(overrides=overrides)

    def test_both_ends_are_inclusive(self):
        # The default R = 5 m, d = 10 m cell sits on the lower end.
        cfg = parse_config(overrides={"radii_m": [5.0], "distances_m": [10.0, 400.0]})
        assert cfg.distances_m == (10.0, 400.0)

    def test_d_max_must_exceed_the_grid_start(self):
        with pytest.raises(ConfigError, match="^key 'grid.d_max_m' = 10.0 m must exceed "):
            parse_config(overrides={"radii_m": [5.0], "distances_m": [10.0],
                                    "grid": {"d_max_m": 10.0}})

    @pytest.mark.parametrize("distance", ["0.8", "41"])
    def test_estimate_distance_off_the_grid_exits_with_usage_code(
        self, tmp_path, capsys, distance
    ):
        config = write_config(tmp_path, TINY)
        output = tmp_path / "estimate.csv"
        code = main([
            "--config", config, "estimate", "--radius", "0.5", "--distance", distance,
            "--output", str(output),
        ])
        assert code == EXIT_USAGE
        assert "argument '--distance'" in capsys.readouterr().err
        assert not output.exists()


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


class TestUnidentifiableCell:
    def test_monte_carlo_writes_nan_bounds_and_exits_ok(self, tmp_path):
        # One element at theta = 0: crlb-sweep flags the cell, and the
        # summary of its trials carries NaN bounds instead of aborting.
        config = write_config(tmp_path, {
            "n_antennas": 1, "radii_m": [0.5], "distances_m": [10.0],
            "grid": {"d_max_m": 40.0},
        })
        output = tmp_path / "summary.csv"
        code = main([
            "--config", config, "--seed", "3", "monte-carlo", "--reduced-m",
            "--trials", "1", "--output", str(output),
        ])
        assert code == EXIT_OK
        (row,) = csv.DictReader(output.read_text().splitlines()[1:])
        assert row["crlb_d_m"] == row["crlb_theta_rad"] == "nan"
        assert row["n_trials"] == "1"


class TestEstimate:
    @pytest.mark.parametrize("flags", [[], ["--reduced-m"]])
    def test_estimate_reproduces_the_trial_of_its_seed(self, tmp_path, flags):
        # One synthesis path: the command draws the bank a trial with the
        # same seed, radius, distance and angle draws, so both estimate alike,
        # at the trial's subcarrier count for the beam as for the data.
        config = write_config(tmp_path, TINY)
        output = tmp_path / "estimate.csv"
        code = main([
            "--config", config, "--seed", "23", "estimate", "--radius", "0.5",
            "--distance", "12", "--theta-deg", "40", *flags, "--output", str(output),
        ])
        assert code == EXIT_OK
        row = next(csv.DictReader(output.read_text().splitlines()[1:]))
        sweep = parse_config(config).sweep_config(reduced_m=bool(flags))
        record = run_trial(sweep, 0.5, 12.0, float(np.deg2rad(40.0)), 23)
        assert float(row["d_hat_m"]).hex() == record.d_hat_m.hex()
        theta_hat = np.deg2rad(float(row["theta_hat_deg"]))
        assert abs(wrap_angle(theta_hat) - record.theta_hat_rad) < 1e-12

    def test_zero_noise_prints_the_truth_as_plain_floats(self, tmp_path, capsys):
        # Without noise the estimate is the truth; the beam is still optimized
        # at the config's noise power, which its bound needs.
        config = write_config(tmp_path, TINY)
        code = main([
            "--config", config, "estimate", "--radius", "0.5", "--distance", "12",
            "--theta-deg", "40", "--zero-noise", "--reduced-m",
            "--output", str(tmp_path / "estimate.csv"),
        ])
        assert code == EXIT_OK
        printed = capsys.readouterr().out
        found = re.fullmatch(r"d_hat=(\S+) m  theta_hat=(\S+) deg  converged=True\n", printed)
        assert found, printed
        assert float(found.group(1)) == pytest.approx(12.0, abs=1e-6)
        assert float(found.group(2)) == pytest.approx(40.0, abs=1e-6)


class TestRateSweep:
    def test_rows_are_the_monte_carlo_summary_columns(self, tmp_path):
        config = write_config(tmp_path, {**TINY, "distances_m": [10.0, 20.0]})
        paths = {name: tmp_path / f"{name}.csv" for name in ("monte-carlo", "rate-sweep")}
        for command, path in paths.items():
            argv = ["--config", config, "--seed", "31", command, "--output", str(path)]
            assert main(argv) == EXIT_OK
        tables = {
            command: list(csv.DictReader(path.read_text().splitlines()[1:]))
            for command, path in paths.items()
        }
        rate = tables["rate-sweep"]
        assert list(rate[0]) == [
            "radius_m", "d_m", "mean_snr_db", "mean_rate_est_bps", "mean_rate_opt_bps",
            "n_trials",
        ]
        assert len(rate) == 2
        assert rate == [{name: row[name] for name in rate[0]} for row in tables["monte-carlo"]]

    @staticmethod
    def points(snr_and_rate, radius=0.5):
        return [
            SweepPoint(
                radius_m=radius, d_m=10.0 * (i + 1), rmse_d_m=0.0, rmse_theta_rad=0.0,
                rmse_d_se_m=0.0, rmse_theta_se_rad=0.0, crlb_d_m=1.0, crlb_theta_rad=1.0,
                convergence_rate=1.0, success_rate=1.0, mean_snr_db=snr,
                mean_rate_est_bps=rate, mean_rate_opt_bps=rate, n_trials=1,
            )
            for i, (snr, rate) in enumerate(snr_and_rate)
        ]

    def test_c_opt_warning_fires_only_off_monotone(self):
        # Rows come in distance order; the check sorts each radius by SNR.
        monotone = self.points([(20.0, 6.0), (5.0, 2.0), (12.0, 4.0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _warn_unless_rate_monotone(monotone)
        broken = self.points([(20.0, 6.0), (5.0, 2.0), (12.0, 1.0)], radius=2.0)
        with pytest.warns(UserWarning, match="not monotone in SNR for radius 2.0 m") as seen:
            _warn_unless_rate_monotone(monotone + broken)
        assert len(seen) == 1


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
        assert sidecar["config"]["grid"] == {"d_max_m": 40.0}
        assert "lm" not in sidecar["config"] and "optimizer" not in sidecar["config"]
        records_header = (first / "records.csv").read_text().splitlines()[1]
        assert records_header.split(",") == [f.name for f in dataclasses.fields(TrialRecord)]

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


class TestCommandLineNumbers:
    @pytest.mark.parametrize("command, flags, named", [
        ("monte-carlo", ["--trials", "0"], "--trials"),
        ("monte-carlo", ["--workers", "0"], "--workers"),
        ("rate-sweep", ["--workers", "-3"], "--workers"),
        ("optimize-beamformer", ["--radius", "0.5", "--distance", "10", "--theta-deg", "nan"],
         "--theta-deg"),
        ("estimate", ["--radius", "0.5", "--distance", "10", "--theta-deg", "inf"],
         "--theta-deg"),
        ("optimize-beamformer", ["--radius", "0", "--distance", "10"], "--radius"),
        ("estimate", ["--radius", "0", "--distance", "10"], "--radius"),
        ("optimize-beamformer", ["--radius", "0.5", "--distance", "0.3"], "--distance"),
        ("optimize-beamformer", ["--radius", "0.5", "--distance", "inf"], "--distance"),
    ])
    def test_out_of_range_flag_exits_with_usage_code(
        self, tmp_path, capsys, command, flags, named
    ):
        # Each flag gets the check of the config value it stands in for.
        config = write_config(tmp_path, TINY)
        output = tmp_path / "out.csv"
        code = main(["--config", config, command, *flags, "--output", str(output)])
        assert code == EXIT_USAGE
        assert f"argument '{named}'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]

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
        ({"subcarriers": "128"}, "subcarriers"),
        ({"radii_m": "ab"}, "radii_m"),
        ({"workers": 1.5}, "workers"),
        ({"workers": True}, "workers"),
        ({"tx_power_mw": False}, "tx_power_mw"),
        ({"grid": {"d_max_m": "far"}}, "grid.d_max_m"),
        ({"distances_m": []}, "distances_m"),
        ({"distances_m": [10.0, True]}, "distances_m"),
        ({"theta_policy": "random"}, "theta_policy"),
        ({"grid": {"d_max_m": "far"}}, "grid.d_max_m"),
        ({"grid": {"d_max_m": True}}, "grid.d_max_m"),
    ])
    def test_parse_config_names_the_key(self, overrides, key):
        with pytest.raises(ConfigError, match=f"^key '{re.escape(key)}' must be "):
            parse_config(overrides=overrides)

    @pytest.mark.parametrize("overrides", [
        {"grid": {"d_max_m": "far"}},
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

    @pytest.mark.parametrize("key", [
        "doppler_hz", "carrier_ghz", "grid.n_d", "grid.n_theta", "grid.n_basins", "lm",
        "optimizer",
    ])
    def test_removed_carrier_and_doppler_keys_are_unknown(self, key):
        # The carrier is set by wavelength_mm alone, and the bank's law has
        # no Doppler term; the grid's nodes and the solvers' settings are
        # worked out or constant, not configured. A config that names any of
        # them is rejected.
        section, _, name = key.rpartition(".")
        overrides = {section: {name: 1.0}} if section else {key: 1.0}
        with pytest.raises(ConfigError, match=f"^unknown key '{re.escape(key)}'"):
            parse_config(overrides=overrides)

    def test_numbers_of_either_json_kind_are_accepted(self):
        cfg = parse_config(overrides={
            "tx_power_mw": 100, "theta_policy": 30, "radii_m": [1], "distances_m": [10, 40],
            "grid": {"d_max_m": 40},
        })
        assert cfg.radii_m == (1.0,) and cfg.theta_policy == 30
        assert cfg.distances_m == (10.0, 40.0) and cfg.grid["d_max_m"] == 40


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


def test_package_version_matches_pyproject():
    # A regex, not tomllib: tomllib is not in Python 3.10.
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    (version,) = re.findall(r'(?m)^version = "([^"]+)"$', text)
    assert version == nfisac.__version__
