"""Monte Carlo driver over radius and distance: one trial engine and a bound table.

``run_trials`` runs every trial of a sweep and ``summarize`` reduces the
records to one RMSE/CRLB/rate row per (radius, distance) cell, which the
``monte-carlo`` command prints with the records.
``crlb_sweep`` is the deterministic bound table, with no trials.

One trial = optimize the transmit beam at the true position, draw the
matched-filter bank of a noisy observation with it from the bank's exact
law, run the ML estimator on the bank, then score the trial:
received SNR at the truth, achievable rate with a beam rebuilt from the
estimate (C_est) and with the true-position beam (C_opt), convergence
and success flags. Trials are seeded individually from the master seed
with a splitmix64 mix, so aggregation order never matters and any trial
can be reproduced in isolation.
"""

from __future__ import annotations

import multiprocessing
import os
from collections.abc import Callable, Iterator
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .beamformer import conjugate_focus_beamformer, optimize_beamformer
from .crlb import CrlbBound, UnidentifiableParametersError, crlb_at
from .estimator import GridSpec, estimate, wrap_angle
from .geometry import PolarPosition, UcaGeometry, rayleigh_distance
# A trial calls neither generate_pilots nor synthesize_observation; they stay
# importable here because bench/spans.py wraps them by name on this module.
from .signal import (  # noqa: F401
    OfdmConfig,
    achievable_rate,
    generate_pilots,
    synthesize_bank,
    synthesize_observation,
    ue_received_snr,
)

SUCCESS_TOL_D_M = 0.5
SUCCESS_TOL_THETA_RAD = np.deg2rad(2.0)

# Environment of every pool worker: one BLAS thread each. Two workers that
# each start a BLAS thread per core oversubscribe the cores, and on a 2-core
# box made a pooled sweep several times slower than a serial one.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def _splitmix64(state: int) -> int:
    """One splitmix64 output step (public-domain mixing constants)."""
    state = (state + _SPLITMIX_GAMMA) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(master_seed: int, *indices: int) -> int:
    """Fold indices into the master seed, one splitmix64 round per index.

    Distinct index tuples give (with overwhelming probability) distinct
    64-bit child seeds; the map is pure, so trials can run in any order
    or process and still see their own stream.
    """
    state = master_seed & _MASK64
    for index in indices:
        state = _splitmix64(state ^ ((index + 1) & _MASK64))
    return state


@dataclass(frozen=True)
class SweepConfig:
    """Scenario matrix for the Monte Carlo sweeps.

    ``theta_policy`` is either the string 'uniform' (a fresh azimuth per
    trial) or a fixed angle in radians. Of the grid template only
    ``d_max_m`` is read, the config's grid_d_max_m: ``grid_for_radius``
    builds each radius' grid with ``GridSpec.for_array``. The beamformer's
    Newton settings are constants of ``beamformer``.
    """

    radii_m: tuple[float, ...]
    distances_m: tuple[float, ...]
    ofdm: OfdmConfig
    grid: GridSpec
    theta_policy: str | float = "uniform"
    trials_per_point: int = 200
    master_seed: int = 0
    n_a: int = 64
    wavelength_m: float = 0.005
    workers: int = 1

    def __post_init__(self) -> None:
        if not self.radii_m or not self.distances_m:
            raise ValueError("radii_m and distances_m must be non-empty")
        if self.trials_per_point < 1:
            raise ValueError("trials_per_point must be >= 1")
        if isinstance(self.theta_policy, str) and self.theta_policy != "uniform":
            raise ValueError(
                f"theta_policy must be 'uniform' or an angle in radians, "
                f"got {self.theta_policy!r}"
            )

    def geometry(self, radius_m: float) -> UcaGeometry:
        return UcaGeometry(self.n_a, radius_m, self.wavelength_m)


@dataclass(frozen=True)
class TrialRecord:
    """Everything one Monte Carlo trial produced."""

    radius_m: float
    d_true_m: float
    theta_true_rad: float
    d_hat_m: float
    theta_hat_rad: float
    converged: bool
    success: bool
    snr_db: float
    rate_est_bps: float
    rate_opt_bps: float
    seed: int


@dataclass(frozen=True)
class SweepPoint:
    """Aggregated results for one (radius, distance) cell.

    The field order is the column order of the published summary table.
    """

    radius_m: float
    d_m: float
    rmse_d_m: float
    rmse_theta_rad: float
    crlb_d_m: float
    crlb_theta_rad: float
    convergence_rate: float
    success_rate: float
    mean_snr_db: float
    mean_rate_est_bps: float
    mean_rate_opt_bps: float
    n_trials: int
    rmse_d_se_m: float
    rmse_theta_se_rad: float


@dataclass(frozen=True)
class CrlbPoint:
    """Deterministic bound table row for one (radius, distance) cell."""

    radius_m: float
    d_m: float
    crlb_d_m: float
    crlb_theta_rad: float
    trace: float
    snr_db: float
    status: str


# Grid specs kept per process: one per (array, numerology, d_max_m).
GRID_CACHE_SIZE = 8


@lru_cache(maxsize=GRID_CACHE_SIZE)
def _grid_spec(geom: UcaGeometry, ofdm: OfdmConfig, d_max_m: float) -> GridSpec:
    return GridSpec.for_array(geom, ofdm, d_max_m)


def grid_for_radius(cfg: SweepConfig, radius_m: float) -> GridSpec:
    """The coarse grid of one radius: ``GridSpec.for_array`` out to the template's ``d_max_m``.

    It is built once per radius and reused: it is memoised on the inputs it
    reads (array, OFDM numerology and ``d_max_m``), not on the whole sweep,
    so sweeps that differ only in seed or trial count share it.
    """
    return _grid_spec(cfg.geometry(radius_m), cfg.ofdm, cfg.grid.d_max_m)


def _angle_error(est: float, true: float) -> float:
    """Signed angular error wrapped to [-pi, pi)."""
    return float((est - true + np.pi) % (2.0 * np.pi) - np.pi)


def run_trial(
    cfg: SweepConfig,
    radius_m: float,
    d_true_m: float,
    theta_true_rad: float,
    seed: int,
) -> TrialRecord:
    """One full pipeline pass, deterministic in ``seed``.

    The estimator reads the data only through the matched-filter bank, so
    the trial draws the bank from its law (``synthesize_bank``, noise seed
    derive_seed(seed, 2)) and builds neither pilots nor the observation.
    """
    geom = cfg.geometry(radius_m)
    truth = PolarPosition(d_true_m, wrap_angle(theta_true_rad))
    beam = optimize_beamformer(geom, truth, cfg.ofdm).beamformer
    bank = synthesize_bank(geom, truth, beam, cfg.ofdm, derive_seed(seed, 2))
    result = estimate(bank, geom, grid_for_radius(cfg, radius_m))

    estimate_pos = PolarPosition(result.d_hat_m, wrap_angle(result.theta_hat_rad))
    success = (
        result.converged
        and abs(result.d_hat_m - d_true_m) <= SUCCESS_TOL_D_M
        and abs(_angle_error(result.theta_hat_rad, theta_true_rad)) <= SUCCESS_TOL_THETA_RAD
    )
    snr = ue_received_snr(geom, truth, beam, cfg.ofdm)
    rate_est = achievable_rate(
        geom, truth, conjugate_focus_beamformer(geom, estimate_pos), cfg.ofdm
    )
    rate_opt = achievable_rate(
        geom, truth, conjugate_focus_beamformer(geom, truth), cfg.ofdm
    )
    # Plain Python scalars, so a record is JSON-serializable as it stands.
    return TrialRecord(
        radius_m=float(radius_m),
        d_true_m=float(d_true_m),
        theta_true_rad=truth.theta_rad,
        d_hat_m=float(result.d_hat_m),
        theta_hat_rad=wrap_angle(result.theta_hat_rad),
        converged=bool(result.converged),
        success=bool(success),
        snr_db=float(10.0 * np.log10(snr)) if snr > 0.0 else -np.inf,
        rate_est_bps=rate_est,
        rate_opt_bps=rate_opt,
        seed=seed,
    )


def _trial_theta(cfg: SweepConfig, seed: int) -> float:
    if cfg.theta_policy == "uniform":
        return float(np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi))
    return float(cfg.theta_policy)


def _trial_args(cfg: SweepConfig):
    for ri, radius in enumerate(cfg.radii_m):
        for di, distance in enumerate(cfg.distances_m):
            for trial in range(cfg.trials_per_point):
                seed = derive_seed(cfg.master_seed, ri, di, trial)
                theta = _trial_theta(cfg, derive_seed(seed, 3))
                yield cfg, radius, distance, theta, seed


def _run_one(args) -> TrialRecord:
    cfg, radius, distance, theta, seed = args
    return run_trial(cfg, radius, distance, theta, seed)


@contextmanager
def _worker_environment() -> Iterator[None]:
    """Set WORKER_ENV in this process's environment, restoring it on exit.

    Spawned workers copy the environment when they start, before they
    import numpy, which is when BLAS reads its thread count.
    """
    saved = {name: os.environ.get(name) for name in WORKER_ENV}
    os.environ.update(WORKER_ENV)
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                del os.environ[name]
            else:
                os.environ[name] = value


def run_trials(
    cfg: SweepConfig,
    progress: Callable[[int, int, TrialRecord], None] | None = None,
) -> list[TrialRecord]:
    """All trials of the sweep, sorted canonically for determinism.

    ``progress``, if given, is called as progress(done, total, record) as
    each trial finishes. With ``cfg.workers`` > 1 the trials run in that
    many spawned processes, each started with WORKER_ENV; spawned workers
    import the main module, so a script must call this under
    ``if __name__ == "__main__":``.
    """
    args = list(_trial_args(cfg))
    records = []

    def finished(record: TrialRecord) -> None:
        records.append(record)
        if progress is not None:
            progress(len(records), len(args), record)

    if cfg.workers > 1:
        spawn = multiprocessing.get_context("spawn")
        with _worker_environment(), ProcessPoolExecutor(cfg.workers, spawn) as pool:
            for record in pool.map(_run_one, args, chunksize=1):
                finished(record)
    else:
        for a in args:
            finished(_run_one(a))
    records.sort(key=lambda r: (r.radius_m, r.d_true_m, r.seed))
    return records


def _cell_bound(
    cfg: SweepConfig, radius_m: float, d_m: float
) -> tuple[CrlbBound, np.ndarray | None]:
    """The bound of a cell: at theta = 0 with the trace-optimized beam.

    It stands for every trial of the cell, whatever its angle. A UCA is
    invariant only under rotations by 2 pi / n_a, and the optimized bound's
    standard deviations vary with theta in between: by at most 4e-12
    (relative) at n_a = 64 (R = 0.5 m, d = 200 m, M = 128) and 1e-5 at
    n_a = 8 (R = 0.5 m, d = 10 m). At n_a = 1 the theta = 0 cell is
    unidentifiable, though a trial at another angle may not be. Returns the
    bound and the beam, or a NaN bound and no beam where range and angle
    are not jointly identifiable.
    """
    geom = cfg.geometry(radius_m)
    pos = PolarPosition(d_m, 0.0)
    try:
        beam = optimize_beamformer(geom, pos, cfg.ofdm).beamformer
        return crlb_at(geom, pos, beam, cfg.ofdm), beam
    except UnidentifiableParametersError:
        return CrlbBound(np.nan, np.nan, np.nan), None


def summarize(cfg: SweepConfig, records: list[TrialRecord]) -> list[SweepPoint]:
    """Aggregate trial records into one row per (radius, distance).

    RMSE uses every trial, converged or not, so threshold-regime outliers
    show up at full weight; the standard errors are delta-method
    estimates from the spread of the squared errors.
    """
    points = []
    for radius in cfg.radii_m:
        for distance in cfg.distances_m:
            group = [
                r
                for r in records
                if r.radius_m == radius and r.d_true_m == distance
            ]
            if not group:
                continue
            err_d = np.array([r.d_hat_m - r.d_true_m for r in group])
            err_t = np.array(
                [_angle_error(r.theta_hat_rad, r.theta_true_rad) for r in group]
            )
            n = len(group)
            rmse_d = float(np.sqrt(np.mean(err_d**2)))
            rmse_t = float(np.sqrt(np.mean(err_t**2)))

            def rmse_se(sq_errors, rmse):
                if n < 2 or rmse == 0.0:
                    return 0.0
                return float(np.std(sq_errors, ddof=1) / (2.0 * rmse * np.sqrt(n)))

            bound, _ = _cell_bound(cfg, radius, distance)
            points.append(
                SweepPoint(
                    radius_m=radius,
                    d_m=distance,
                    rmse_d_m=rmse_d,
                    rmse_theta_rad=rmse_t,
                    rmse_d_se_m=rmse_se(err_d**2, rmse_d),
                    rmse_theta_se_rad=rmse_se(err_t**2, rmse_t),
                    crlb_d_m=float(np.sqrt(bound.var_d)),
                    crlb_theta_rad=float(np.sqrt(bound.var_theta)),
                    convergence_rate=float(np.mean([r.converged for r in group])),
                    success_rate=float(np.mean([r.success for r in group])),
                    mean_snr_db=float(np.mean([r.snr_db for r in group])),
                    mean_rate_est_bps=float(np.mean([r.rate_est_bps for r in group])),
                    mean_rate_opt_bps=float(np.mean([r.rate_opt_bps for r in group])),
                    n_trials=n,
                )
            )
    return points


def crlb_sweep(cfg: SweepConfig) -> list[CrlbPoint]:
    """Deterministic bound table: no Monte Carlo, one row per cell.

    Unidentifiable geometries are reported as flagged rows rather than
    aborting the sweep.
    """
    rows = []
    for radius in cfg.radii_m:
        for distance in cfg.distances_m:
            bound, beam = _cell_bound(cfg, radius, distance)
            snr_db = np.nan
            if beam is not None:
                snr = ue_received_snr(
                    cfg.geometry(radius), PolarPosition(distance, 0.0), beam, cfg.ofdm
                )
                snr_db = 10.0 * np.log10(snr) if snr > 0.0 else -np.inf
            rows.append(
                CrlbPoint(
                    radius_m=radius,
                    d_m=distance,
                    crlb_d_m=float(np.sqrt(bound.var_d)),
                    crlb_theta_rad=float(np.sqrt(bound.var_theta)),
                    trace=bound.trace,
                    snr_db=snr_db,
                    status="ok" if beam is not None else "unidentifiable",
                )
            )
    return rows


def nearfield_guard(cfg: SweepConfig) -> None:
    """Check that every distance sits inside the smallest radius' near field."""
    smallest = min(cfg.radii_m)
    boundary = rayleigh_distance(cfg.geometry(smallest))
    for distance in cfg.distances_m:
        if distance > boundary:
            raise ValueError(
                f"distance {distance} m exceeds the near-field boundary "
                f"{boundary} m of the smallest radius {smallest} m"
            )
