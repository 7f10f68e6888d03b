"""Command-line front end: JSON config, subcommands, plot-ready CSV.

The config names the scenario and nothing else. It is one flat JSON
object whose keys are the fields of ``RunConfig``: wavelength_mm,
subcarriers, subcarrier_spacing_khz, ofdm_symbols, cp_fraction,
tx_power_mw, noise_power_dbm, n_antennas, radii_m, distances_m,
theta_policy, trials_per_point, master_seed, workers and grid_d_max_m.
``GridSpec.for_array`` builds each radius' grid out to grid_d_max_m. The
solver settings (the beamformer's Newton, the refinement, the grid's
nodes per lobe and the coarse search's basin budget) are module
constants. Values are written in natural units (kHz, mW, dBm, mm, m,
degrees) and normalized to SI internally; every run writes the
fully-resolved config, master seed and command arguments, and the
compute environment, to a JSON sidecar next to its output, so any CSV
can be regenerated byte for byte from the sidecar alone (see
``write_sidecar``). The ``monte-carlo`` CSVs have one column per field
of the dataclass they list, in field order:
``SweepPoint`` for the summary, ``TrialRecord`` for the records. A config
value of the wrong kind (a string for a count, a bool for a number, NaN
or an infinity anywhere) is a config error that names its key, and a
command-line number out of its config value's range is one that names
its flag. ``-v/--verbose`` prints one progress line per finished Monte
Carlo trial to stderr and changes no output. Exit codes: 0 success,
1 usage/config error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .beamformer import optimize_beamformer
from .estimator import estimate
from .geometry import PolarPosition, UcaGeometry
from .grid import GridSpec, grid_d_min_m
from .harness import (
    WORKER_ENV,
    SweepConfig,
    SweepPoint,
    TrialRecord,
    crlb_sweep,
    derive_seed,
    grid_for_radius,
    nearfield_guard,
    run_trials,
    summarize,
)
from .signal import OfdmConfig, synthesize_bank

CONFIG_ENV_VAR = "NFISAC_CONFIG"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2


class ConfigError(ValueError):
    """Malformed or out-of-range configuration input."""


def dbm_to_watt(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


@dataclass(frozen=True)
class RunConfig:
    """Fully-resolved run configuration in natural units."""

    wavelength_mm: float = 5.0
    subcarriers: int = 2048
    subcarrier_spacing_khz: float = 480.0
    ofdm_symbols: int = 14
    cp_fraction: float = 0.07
    tx_power_mw: float = 100.0
    noise_power_dbm: float = -74.0
    n_antennas: int = 64
    radii_m: tuple[float, ...] = (0.5, 1.0, 2.0, 5.0)
    distances_m: tuple[float, ...] = (10.0, 20.0, 50.0, 100.0, 200.0, 400.0)
    theta_policy: str | float = "uniform"
    trials_per_point: int = 200
    master_seed: int = 20260810
    workers: int = 1
    grid_d_max_m: float = 400.0

    def ofdm_config(self, reduced_m: bool = False) -> OfdmConfig:
        spacing = self.subcarrier_spacing_khz * 1e3
        return OfdmConfig(
            m_subcarriers=128 if reduced_m else self.subcarriers,
            n_symbols=self.ofdm_symbols,
            delta_f_hz=spacing,
            t_cp_s=self.cp_fraction / spacing,
            p_t_w=self.tx_power_mw * 1e-3,
            sigma2_w=dbm_to_watt(self.noise_power_dbm),
        )

    @property
    def wavelength_m(self) -> float:
        return self.wavelength_mm * 1e-3

    def sweep_config(
        self,
        reduced_m: bool = False,
        trials: int | None = None,
        seed: int | None = None,
        workers: int | None = None,
    ) -> SweepConfig:
        return SweepConfig(
            radii_m=self.radii_m,
            distances_m=self.distances_m,
            ofdm=self.ofdm_config(reduced_m),
            # Only d_max_m is read: grid_for_radius builds each radius' grid.
            grid=GridSpec(d_min_m=1.0, d_max_m=self.grid_d_max_m),
            theta_policy=(
                float(np.deg2rad(self.theta_policy))
                if not isinstance(self.theta_policy, str)
                else self.theta_policy
            ),
            trials_per_point=trials if trials is not None else self.trials_per_point,
            master_seed=seed if seed is not None else self.master_seed,
            n_a=self.n_antennas,
            wavelength_m=self.wavelength_m,
            workers=workers if workers is not None else self.workers,
        )


def parse_config(
    path: str | os.PathLike | None = None, overrides: dict | None = None
) -> RunConfig:
    """Load and validate a config: file (JSON), then inline overrides.

    Missing keys fall back to the built-in system defaults; unknown keys
    are rejected by name; value errors name the offending key.
    """
    data: dict = {}
    if path is not None:
        try:
            with open(path) as handle:
                data = json.load(handle)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}")
        if not isinstance(data, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
    if overrides:
        data = {**data, **overrides}

    defaults = RunConfig()
    known = {f.name for f in dataclasses.fields(RunConfig)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown key '{sorted(unknown)[0]}' in configuration")

    kwargs: dict = {}
    for key, value in data.items():
        if key in ("radii_m", "distances_m"):
            _require(
                isinstance(value, (list, tuple)) and value and all(map(_is_number, value)),
                f"key '{key}' must be a nonempty list of finite numbers, got {value!r}",
            )
            kwargs[key] = tuple(float(v) for v in value)
        else:
            _check_kind(key, value, getattr(defaults, key))
            kwargs[key] = value
    cfg = RunConfig(**kwargs)
    _validate(cfg)
    return cfg


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _is_number(value) -> bool:
    """A finite JSON number: ``json.load`` also reads NaN and +-Infinity, which are not."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return isinstance(value, int) or math.isfinite(value)


def _check_kind(key: str, value, default) -> None:
    """A value must be of its default's kind: an integer, or any finite number.

    A string default ('uniform') also admits a finite number; bools are
    never numbers here.
    """
    if isinstance(default, str):
        ok, kind = value == default or _is_number(value), f"'{default}' or a finite number"
    elif isinstance(default, int):
        ok, kind = _is_number(value) and isinstance(value, int), "an integer"
    else:
        ok, kind = _is_number(value), "a finite number"
    _require(ok, f"key '{key}' must be {kind}, got {value!r}")


def _validate(cfg: RunConfig) -> None:
    _require(cfg.wavelength_mm > 0, "key 'wavelength_mm' must be positive")
    _require(cfg.subcarriers >= 1, "key 'subcarriers' must be >= 1")
    _require(cfg.ofdm_symbols >= 1, "key 'ofdm_symbols' must be >= 1")
    _require(cfg.subcarrier_spacing_khz > 0, "key 'subcarrier_spacing_khz' must be positive")
    _require(cfg.cp_fraction >= 0, "key 'cp_fraction' must be nonnegative")
    _require(cfg.tx_power_mw > 0, "key 'tx_power_mw' must be positive")
    _require(cfg.n_antennas >= 1, "key 'n_antennas' must be >= 1")
    _check_count("key 'trials_per_point'", cfg.trials_per_point)
    _check_count("key 'workers'", cfg.workers)
    _require(all(r > 0 for r in cfg.radii_m), "key 'radii_m' entries must be positive")
    max_radius = max(cfg.radii_m)
    d_max = cfg.grid_d_max_m
    _require(
        d_max > grid_d_min_m(max_radius),
        f"key 'grid_d_max_m' = {d_max} m must exceed max(2 x largest radius, 1 m) "
        f"= {grid_d_min_m(max_radius)} m",
    )
    for distance in cfg.distances_m:
        _check_distance("key 'distances_m'", distance, max_radius, d_max)


def _check_count(name: str, value: int) -> None:
    _require(value >= 1, f"{name} must be >= 1")


def _check_arguments(args) -> None:
    """Command-line numbers get the checks of the config values they stand in for."""
    for flag in ("trials", "workers"):
        value = getattr(args, flag, None)
        if value is not None:
            _check_count(f"argument '--{flag}'", value)
    if hasattr(args, "radius"):
        _require(args.radius > 0, "argument '--radius' must be positive")
    if hasattr(args, "theta_deg"):
        _require(
            np.isfinite(args.theta_deg), "argument '--theta-deg' must be a finite angle in degrees"
        )


def _check_distance(name: str, distance: float, radius: float, d_max_m: float) -> None:
    """A distance must lie on the coarse grid of the radius: [max(2R, 1 m), grid_d_max_m].

    Outside it no grid node lies near the target, so the estimate lands
    elsewhere, yet still reads converged.
    """
    d_min = grid_d_min_m(radius)
    _require(
        d_min <= distance <= d_max_m,
        f"{name}: distance {distance} m lies outside [{d_min}, {d_max_m}] m, "
        f"the range grid of radius {radius} m from max(2R, 1 m) to grid_d_max_m",
    )


def _blas_build() -> dict | None:
    """Name, version and build configuration of numpy's BLAS, or None if numpy cannot say."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 takes no mode
        return None
    keys = ("name", "version", "openblas configuration")
    return {key: blas[key] for key in keys if key in blas}


def write_sidecar(
    output_path: str, cfg: RunConfig, seed: int, command: str, arguments: dict
) -> None:
    """JSON sidecar: tool and numpy versions, config, seed, and the command's resolved arguments.

    ``arguments`` maps each argument's dest to its resolved value (flags as
    booleans); output paths are left out. Rerunning ``command`` with
    ``--config`` holding ``config``, ``--seed master_seed`` and
    ``--<dest with - for _> value`` for each argument (a bare flag when True)
    regenerates the output byte for byte. The compute environment goes
    along, since it sets the speed but not the output: ``blas``, the BLAS
    build numpy reports (None where it cannot); ``cpu_count``, the CPUs
    the run could use (its affinity set where the OS has one); and
    ``thread_env``, each BLAS thread variable of WORKER_ENV as found in the
    environment (None when unset). A command that takes ``workers`` also
    records ``worker_env``, the environment its pool workers start with
    (one BLAS thread each).
    """
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count()
    sidecar = {
        "tool": f"nfisac {__version__}",
        "numpy": np.__version__,
        "blas": _blas_build(),
        "cpu_count": cpus,
        "thread_env": {name: os.environ.get(name) for name in WORKER_ENV},
        "command": command,
        "master_seed": seed,
        "arguments": arguments,
        "config": dataclasses.asdict(cfg),
    }
    if "workers" in arguments:
        sidecar["worker_env"] = dict(WORKER_ENV)
    with open(str(output_path) + ".config.json", "w") as handle:
        json.dump(sidecar, handle, indent=2)
        handle.write("\n")


def write_csv(path: str, header: list[str], rows: list[list], seed: int, command: str) -> None:
    """CSV with a '#' provenance comment, fixed header, repr-exact floats."""
    with open(path, "w") as handle:
        handle.write(f"# nfisac {__version__} command={command} seed={seed}\n")
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(_format_cell(cell) for cell in row) + "\n")


def _format_cell(cell) -> str:
    if isinstance(cell, (bool, np.bool_)):
        return "1" if cell else "0"
    if isinstance(cell, (float, np.floating)):
        return repr(float(cell))
    return str(cell)


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nfisac",
        description=(
            "Near-field ISAC estimation lab: range-angle bounds, beamformer "
            "optimization, ML estimation and Monte Carlo sweeps for a UCA."
        ),
    )
    parser.add_argument(
        "--config",
        default=os.environ.get(CONFIG_ENV_VAR),
        help=f"JSON config path (default: ${CONFIG_ENV_VAR} if set, else built-ins)",
    )
    parser.add_argument("--seed", type=int, default=None, help="override master_seed")
    parser.add_argument(
        "-v", "--verbose", action="store_true",
        help="report progress (one line per finished trial) on stderr",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    crlb = sub.add_parser("crlb-sweep", help="closed-form bound table, no Monte Carlo")
    crlb.add_argument("--output", required=True)

    opt = sub.add_parser("optimize-beamformer", help="trace-optimal transmit beam")
    opt.add_argument("--radius", type=float, required=True, help="UCA radius, m")
    opt.add_argument("--distance", type=float, required=True, help="UE distance, m")
    opt.add_argument("--theta-deg", type=float, default=0.0, help="UE azimuth, degrees")
    opt.add_argument("--output", required=True)

    est = sub.add_parser(
        "estimate", help="draw one matched-filter bank, as a monte-carlo trial does, and estimate"
    )
    est.add_argument("--radius", type=float, required=True)
    est.add_argument("--distance", type=float, required=True)
    est.add_argument("--theta-deg", type=float, default=0.0)
    est.add_argument("--zero-noise", action="store_true", help="disable receiver noise")
    est.add_argument("--reduced-m", action="store_true", help="use M = 128 subcarriers")
    est.add_argument("--output", required=True)

    mc = sub.add_parser("monte-carlo", help="RMSE/CRLB/rate sweep over trials")
    mc.add_argument("--output", required=True)
    mc.add_argument("--records", default=None, help="optional per-trial record CSV")
    mc.add_argument("--trials", type=int, default=None, help="override trials_per_point")
    mc.add_argument("--reduced-m", action="store_true", help="use M = 128 subcarriers")
    mc.add_argument("--workers", type=int, default=None)

    return parser


def _cmd_crlb_sweep(args, cfg: RunConfig, seed: int) -> int:
    sweep = cfg.sweep_config(seed=seed)
    rows = crlb_sweep(sweep)
    header = [
        "radius_m", "d_m", "crlb_d_m", "crlb_theta_rad", "snr_db",
        "crlb_theta_deg", "trace", "status",
    ]
    data = [
        [
            r.radius_m, r.d_m, r.crlb_d_m, r.crlb_theta_rad, r.snr_db,
            float(np.rad2deg(r.crlb_theta_rad)), r.trace, r.status,
        ]
        for r in rows
    ]
    write_csv(args.output, header, data, seed, "crlb-sweep")
    write_sidecar(args.output, cfg, seed, "crlb-sweep", {})
    return EXIT_OK


def _cmd_optimize(args, cfg: RunConfig, seed: int) -> int:
    _require(
        args.radius < args.distance < np.inf,
        f"argument '--distance': distance {args.distance} m must be finite and exceed "
        f"the radius {args.radius} m",
    )
    geom = UcaGeometry(cfg.n_antennas, args.radius, cfg.wavelength_m)
    pos = PolarPosition(args.distance, float(np.deg2rad(args.theta_deg)))
    result = optimize_beamformer(geom, pos, cfg.ofdm_config())
    header = ["element", "re", "im"]
    data = [
        [k, float(np.real(v)), float(np.imag(v))]
        for k, v in enumerate(result.beamformer)
    ]
    write_csv(args.output, header, data, seed, "optimize-beamformer")
    arguments = {"radius": args.radius, "distance": args.distance, "theta_deg": args.theta_deg}
    write_sidecar(args.output, cfg, seed, "optimize-beamformer", arguments)
    print(
        f"trace={float(result.trace_history[-1])!r} iterations={result.iterations} "
        f"converged={result.converged} grad_norm={result.final_grad_norm!r}"
    )
    return EXIT_OK


def _cmd_estimate(args, cfg: RunConfig, seed: int) -> int:
    _check_distance("argument '--distance'", args.distance, args.radius, cfg.grid_d_max_m)
    sweep = cfg.sweep_config(reduced_m=args.reduced_m, seed=seed)
    geom = sweep.geometry(args.radius)
    truth = PolarPosition(args.distance, float(np.deg2rad(args.theta_deg)))
    # The beam is the one the reproduced trial optimizes, at the noise
    # power of the config even under --zero-noise: its bound needs sigma^2 > 0.
    beam = optimize_beamformer(geom, truth, sweep.ofdm).beamformer
    ofdm = dataclasses.replace(sweep.ofdm, sigma2_w=0.0) if args.zero_noise else sweep.ofdm
    bank = synthesize_bank(geom, truth, beam, ofdm, derive_seed(seed, 2))
    result = estimate(bank, geom, grid_for_radius(sweep, args.radius))
    header = [
        "radius_m", "d_true_m", "theta_true_deg", "d_hat_m", "theta_hat_deg",
        "cost", "converged", "iterations", "basin_index",
    ]
    data = [[
        args.radius, args.distance, args.theta_deg, result.d_hat_m,
        float(np.rad2deg(result.theta_hat_rad)), result.cost,
        result.converged, result.iterations, result.basin_index,
    ]]
    write_csv(args.output, header, data, seed, "estimate")
    arguments = {
        "radius": args.radius, "distance": args.distance, "theta_deg": args.theta_deg,
        "zero_noise": args.zero_noise, "reduced_m": args.reduced_m,
    }
    write_sidecar(args.output, cfg, seed, "estimate", arguments)
    print(
        f"d_hat={float(result.d_hat_m)!r} m  "
        f"theta_hat={float(np.rad2deg(result.theta_hat_rad))!r} deg  "
        f"converged={bool(result.converged)}"
    )
    return EXIT_OK


def _write_table(path: str, cls, items, seed: int, command: str) -> None:
    """CSV of dataclass instances: one column per field of ``cls``, in field order."""
    header = [f.name for f in dataclasses.fields(cls)]
    rows = [[getattr(item, name) for name in header] for item in items]
    write_csv(path, header, rows, seed, command)


def _progress(args):
    """With --verbose, a ``run_trials`` progress callback printing to stderr."""
    if not args.verbose:
        return None
    start = time.perf_counter()

    def report(done: int, total: int, record) -> None:
        print(
            f"trial {done}/{total} done: R={record.radius_m:g} m, d={record.d_true_m:g} m, "
            f"d_hat={record.d_hat_m:.6g} m, success={int(record.success)} "
            f"({time.perf_counter() - start:.1f} s)",
            file=sys.stderr, flush=True,
        )

    return report


def _cmd_monte_carlo(args, cfg: RunConfig, seed: int) -> int:
    sweep = cfg.sweep_config(
        reduced_m=args.reduced_m, trials=args.trials, seed=seed, workers=args.workers
    )
    nearfield_guard(sweep)
    records = run_trials(sweep, _progress(args))
    _write_table(args.output, SweepPoint, summarize(sweep, records), seed, "monte-carlo")
    arguments = {
        "trials": sweep.trials_per_point, "reduced_m": args.reduced_m, "workers": sweep.workers,
    }
    write_sidecar(args.output, cfg, seed, "monte-carlo", arguments)
    if args.records:
        _write_table(args.records, TrialRecord, records, seed, "monte-carlo-records")
    return EXIT_OK


_COMMANDS = {
    "crlb-sweep": _cmd_crlb_sweep,
    "optimize-beamformer": _cmd_optimize,
    "estimate": _cmd_estimate,
    "monte-carlo": _cmd_monte_carlo,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        _check_arguments(args)
        seed = args.seed if args.seed is not None else cfg.master_seed
        return _COMMANDS[args.command](args, cfg, seed)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
