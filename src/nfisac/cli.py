"""Command-line front end: JSON config, subcommands, plot-ready CSV.

Configuration values are written in natural units (GHz, kHz, mW, dBm,
mm, m, degrees) and normalized to SI internally; every run writes the
fully-resolved config plus master seed to a JSON sidecar next to its
output so any CSV can be regenerated bit-for-bit. Exit codes: 0 success,
1 usage/config error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .beamformer import OptimizerConfig, optimize_beamformer
from .estimator import GridSpec, LmSettings, estimate
from .geometry import PolarPosition, UcaGeometry
from .harness import (
    SweepConfig,
    crlb_sweep,
    derive_seed,
    grid_for_radius,
    nearfield_guard,
    rate_sweep,
    rmse_sweep,
    run_trials,
    summarize,
)
from .signal import OfdmConfig, generate_pilots, synthesize_observation

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

    carrier_ghz: float = 60.0
    wavelength_mm: float = 5.0
    subcarriers: int = 2048
    subcarrier_spacing_khz: float = 480.0
    ofdm_symbols: int = 14
    cp_fraction: float = 0.07
    tx_power_mw: float = 100.0
    noise_power_dbm: float = -74.0
    n_antennas: int = 64
    doppler_hz: float = 0.0
    radii_m: tuple[float, ...] = (0.5, 1.0, 2.0, 5.0)
    distances_m: tuple[float, ...] = (10.0, 20.0, 50.0, 100.0, 200.0, 400.0)
    theta_policy: str | float = "uniform"
    trials_per_point: int = 200
    master_seed: int = 20260810
    workers: int = 1
    grid: dict = field(
        default_factory=lambda: {
            "d_max_m": 400.0,
            "n_d": 256,
            "n_theta": "auto",
            "n_basins": 15,
        }
    )
    optimizer: dict = field(
        default_factory=lambda: {
            "max_iters": 2000,
            "grad_tol": 1e-8,
            "armijo_c": 1e-4,
            "backtrack_factor": 0.5,
            "initial_step": 1.0,
            "max_backtracks": 50,
        }
    )
    lm: dict = field(
        default_factory=lambda: {
            "max_iters": 100,
            "lambda_init": 1e-3,
            "lambda_factor": 10.0,
            "tol_score": 1e-10,
            "step_tol_d_m": 1e-7,
            "step_tol_theta_rad": 1e-9,
            "fd_step_d_m": 1e-4,
            "fd_step_theta_rad": 1e-5,
        }
    )

    def ofdm_config(self, reduced_m: bool = False) -> OfdmConfig:
        spacing = self.subcarrier_spacing_khz * 1e3
        return OfdmConfig(
            m_subcarriers=128 if reduced_m else self.subcarriers,
            n_symbols=self.ofdm_symbols,
            delta_f_hz=spacing,
            t_cp_s=self.cp_fraction / spacing,
            p_t_w=self.tx_power_mw * 1e-3,
            sigma2_w=dbm_to_watt(self.noise_power_dbm),
            carrier_hz=self.carrier_ghz * 1e9,
            nu0_hz=self.doppler_hz,
        )

    @property
    def wavelength_m(self) -> float:
        return self.wavelength_mm * 1e-3

    def grid_spec(self) -> GridSpec:
        n_theta = self.grid["n_theta"]
        return GridSpec(
            d_min_m=1.0,  # re-anchored per radius by the harness
            d_max_m=self.grid["d_max_m"],
            n_d=self.grid["n_d"],
            n_theta=self.n_antennas if n_theta == "auto" else int(n_theta),
            n_basins=self.grid["n_basins"],
        )

    def optimizer_config(self) -> OptimizerConfig:
        return OptimizerConfig(**self.optimizer)

    def lm_settings(self) -> LmSettings:
        return LmSettings(d_max_m=1.5 * self.grid["d_max_m"], **self.lm)

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
            grid=self.grid_spec(),
            optimizer=self.optimizer_config(),
            lm=self.lm_settings(),
            theta_policy=(
                float(np.deg2rad(self.theta_policy))
                if not isinstance(self.theta_policy, str)
                else self.theta_policy
            ),
            trials_per_point=trials if trials is not None else self.trials_per_point,
            master_seed=seed if seed is not None else self.master_seed,
            n_a=self.n_antennas,
            wavelength_m=self.wavelength_m,
            n_theta_auto=self.grid["n_theta"] == "auto",
            workers=workers if workers is not None else self.workers,
        )


_SUBDICT_KEYS = {"grid", "optimizer", "lm"}


def _merge_section(name: str, defaults: dict, given: dict) -> dict:
    unknown = set(given) - set(defaults)
    if unknown:
        raise ConfigError(
            f"unknown key '{name}.{sorted(unknown)[0]}' in configuration"
        )
    merged = dict(defaults)
    merged.update(given)
    return merged


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
        if key in _SUBDICT_KEYS:
            if not isinstance(value, dict):
                raise ConfigError(f"key '{key}' must be a JSON object")
            kwargs[key] = _merge_section(key, getattr(defaults, key), value)
        elif key in ("radii_m", "distances_m"):
            kwargs[key] = tuple(float(v) for v in value)
        else:
            kwargs[key] = value
    cfg = RunConfig(**kwargs)
    _validate(cfg)
    return cfg


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _validate(cfg: RunConfig) -> None:
    _require(cfg.wavelength_mm > 0, "key 'wavelength_mm' must be positive")
    _require(cfg.carrier_ghz > 0, "key 'carrier_ghz' must be positive")
    _require(cfg.subcarriers >= 1, "key 'subcarriers' must be >= 1")
    _require(cfg.ofdm_symbols >= 1, "key 'ofdm_symbols' must be >= 1")
    _require(cfg.subcarrier_spacing_khz > 0, "key 'subcarrier_spacing_khz' must be positive")
    _require(cfg.cp_fraction >= 0, "key 'cp_fraction' must be nonnegative")
    _require(cfg.tx_power_mw > 0, "key 'tx_power_mw' must be positive")
    _require(cfg.n_antennas >= 1, "key 'n_antennas' must be >= 1")
    _require(cfg.trials_per_point >= 1, "key 'trials_per_point' must be >= 1")
    _require(cfg.workers >= 1, "key 'workers' must be >= 1")
    _require(all(r > 0 for r in cfg.radii_m), "key 'radii_m' entries must be positive")
    _require(
        all(d > 0 for d in cfg.distances_m), "key 'distances_m' entries must be positive"
    )
    max_radius = max(cfg.radii_m)
    for distance in cfg.distances_m:
        _require(
            distance > max_radius,
            f"key 'distances_m': distance {distance} m does not exceed the "
            f"largest radius {max_radius} m (source must lie outside the array)",
        )
    if not isinstance(cfg.theta_policy, str):
        _require(
            np.isfinite(cfg.theta_policy),
            "key 'theta_policy' must be 'uniform' or a finite angle in degrees",
        )
    _require(cfg.grid["d_max_m"] > max_radius * 2, "key 'grid.d_max_m' too small")
    _require(cfg.grid["n_d"] >= 2, "key 'grid.n_d' must be >= 2")
    _require(cfg.grid["n_basins"] >= 1, "key 'grid.n_basins' must be >= 1")
    n_theta = cfg.grid["n_theta"]
    _require(
        n_theta == "auto" or (isinstance(n_theta, int) and n_theta >= 1),
        "key 'grid.n_theta' must be 'auto' or a positive integer",
    )
    if n_theta != "auto" and n_theta % cfg.n_antennas:
        # The coarse grid evaluates angles on a polyphase lattice of q
        # phases per element spacing.
        below = n_theta - n_theta % cfg.n_antennas
        nearest = [count for count in (below, below + cfg.n_antennas) if count > 0]
        raise ConfigError(
            f"key 'grid.n_theta' = {n_theta} must be a multiple of n_antennas = "
            f"{cfg.n_antennas}; nearest valid: {' or '.join(map(str, nearest))}"
        )


def resolved_config_dict(cfg: RunConfig) -> dict:
    """JSON-serializable view of the fully-resolved configuration."""
    out = dataclasses.asdict(cfg)
    out["radii_m"] = list(cfg.radii_m)
    out["distances_m"] = list(cfg.distances_m)
    return out


def write_sidecar(output_path: str, cfg: RunConfig, seed: int, command: str) -> None:
    sidecar = {
        "tool": f"nfisac {__version__}",
        "command": command,
        "master_seed": seed,
        "config": resolved_config_dict(cfg),
    }
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
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    crlb = sub.add_parser("crlb-sweep", help="closed-form bound table, no Monte Carlo")
    crlb.add_argument("--output", required=True)

    opt = sub.add_parser("optimize-beamformer", help="trace-optimal transmit beam")
    opt.add_argument("--radius", type=float, required=True, help="UCA radius, m")
    opt.add_argument("--distance", type=float, required=True, help="UE distance, m")
    opt.add_argument("--theta-deg", type=float, default=0.0, help="UE azimuth, degrees")
    opt.add_argument("--output", required=True)

    est = sub.add_parser("estimate", help="synthesize one observation and estimate")
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

    rate = sub.add_parser("rate-sweep", help="achievable-rate curves C_est and C_opt")
    rate.add_argument("--output", required=True)
    rate.add_argument("--trials", type=int, default=None)
    rate.add_argument("--reduced-m", action="store_true")
    rate.add_argument("--workers", type=int, default=None)

    return parser


def _cmd_crlb_sweep(args, cfg: RunConfig) -> int:
    seed = args.seed if args.seed is not None else cfg.master_seed
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
    write_sidecar(args.output, cfg, seed, "crlb-sweep")
    return EXIT_OK


def _cmd_optimize(args, cfg: RunConfig) -> int:
    seed = args.seed if args.seed is not None else cfg.master_seed
    geom = UcaGeometry(cfg.n_antennas, args.radius, cfg.wavelength_m)
    pos = PolarPosition(args.distance, float(np.deg2rad(args.theta_deg)))
    result = optimize_beamformer(geom, pos, cfg.ofdm_config(), cfg.optimizer_config())
    header = ["element", "re", "im"]
    data = [
        [k, float(np.real(v)), float(np.imag(v))]
        for k, v in enumerate(result.beamformer)
    ]
    write_csv(args.output, header, data, seed, "optimize-beamformer")
    write_sidecar(args.output, cfg, seed, "optimize-beamformer")
    print(
        f"trace={result.trace_history[-1]!r} iterations={result.iterations} "
        f"converged={result.converged} grad_norm={result.final_grad_norm!r}"
    )
    return EXIT_OK


def _cmd_estimate(args, cfg: RunConfig) -> int:
    seed = args.seed if args.seed is not None else cfg.master_seed
    ofdm = cfg.ofdm_config(args.reduced_m)
    if args.zero_noise:
        ofdm = dataclasses.replace(ofdm, sigma2_w=0.0)
    geom = UcaGeometry(cfg.n_antennas, args.radius, cfg.wavelength_m)
    truth = PolarPosition(args.distance, float(np.deg2rad(args.theta_deg)))
    beam = optimize_beamformer(geom, truth, cfg.ofdm_config(), cfg.optimizer_config()).beamformer
    pilots = generate_pilots(ofdm, derive_seed(seed, 1))
    obs = synthesize_observation(geom, truth, beam, ofdm, pilots, derive_seed(seed, 2))
    sweep = cfg.sweep_config(seed=seed)
    grid = grid_for_radius(
        dataclasses.replace(sweep, radii_m=(args.radius,)), args.radius
    )
    result = estimate(obs, geom, grid, cfg.lm_settings())
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
    write_sidecar(args.output, cfg, seed, "estimate")
    print(
        f"d_hat={result.d_hat_m!r} m  theta_hat={np.rad2deg(result.theta_hat_rad)!r} deg  "
        f"converged={result.converged}"
    )
    return EXIT_OK


_SUMMARY_HEADER = [
    "radius_m", "d_m", "rmse_d_m", "rmse_theta_rad", "crlb_d_m", "crlb_theta_rad",
    "convergence_rate", "success_rate", "mean_snr_db", "mean_rate_est_bps",
    "mean_rate_opt_bps", "n_trials", "rmse_d_se_m", "rmse_theta_se_rad",
]


def _summary_rows(points) -> list[list]:
    return [
        [
            p.radius_m, p.d_m, p.rmse_d_m, p.rmse_theta_rad, p.crlb_d_m,
            p.crlb_theta_rad, p.convergence_rate, p.success_rate, p.mean_snr_db,
            p.mean_rate_est_bps, p.mean_rate_opt_bps, p.n_trials,
            p.rmse_d_se_m, p.rmse_theta_se_rad,
        ]
        for p in points
    ]


def _cmd_monte_carlo(args, cfg: RunConfig) -> int:
    seed = args.seed if args.seed is not None else cfg.master_seed
    sweep = cfg.sweep_config(
        reduced_m=args.reduced_m, trials=args.trials, seed=seed, workers=args.workers
    )
    nearfield_guard(sweep)
    records = run_trials(sweep)
    points = summarize(sweep, records)
    write_csv(args.output, _SUMMARY_HEADER, _summary_rows(points), seed, "monte-carlo")
    write_sidecar(args.output, cfg, seed, "monte-carlo")
    if args.records:
        header = [
            "radius_m", "d_true_m", "theta_true_rad", "d_hat_m", "theta_hat_rad",
            "converged", "success", "snr_db", "rate_est_bps", "rate_opt_bps", "seed",
        ]
        rows = [
            [
                r.radius_m, r.d_true_m, r.theta_true_rad, r.d_hat_m, r.theta_hat_rad,
                r.converged, r.success, r.snr_db, r.rate_est_bps, r.rate_opt_bps, r.seed,
            ]
            for r in records
        ]
        write_csv(args.records, header, rows, seed, "monte-carlo-records")
    return EXIT_OK


def _cmd_rate_sweep(args, cfg: RunConfig) -> int:
    seed = args.seed if args.seed is not None else cfg.master_seed
    sweep = cfg.sweep_config(
        reduced_m=args.reduced_m, trials=args.trials, seed=seed, workers=args.workers
    )
    nearfield_guard(sweep)
    points = rate_sweep(sweep)
    header = ["radius_m", "d_m", "mean_snr_db", "mean_rate_est_bps", "mean_rate_opt_bps", "n_trials"]
    rows = [
        [p.radius_m, p.d_m, p.mean_snr_db, p.mean_rate_est_bps, p.mean_rate_opt_bps, p.n_trials]
        for p in points
    ]
    write_csv(args.output, header, rows, seed, "rate-sweep")
    write_sidecar(args.output, cfg, seed, "rate-sweep")
    return EXIT_OK


_COMMANDS = {
    "crlb-sweep": _cmd_crlb_sweep,
    "optimize-beamformer": _cmd_optimize,
    "estimate": _cmd_estimate,
    "monte-carlo": _cmd_monte_carlo,
    "rate-sweep": _cmd_rate_sweep,
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
        return _COMMANDS[args.command](args, cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
