"""Golden trial records: chunk 0 of two benchmark seeds on the three benchmark workloads.

The sweeps are rebuilt as the benchmark builds them (``bench/run.py``,
``build_sweep``): ``cli.parse_config`` with the workload's radii and distances
as overrides, then ``RunConfig.sweep_config`` with the workload's subcarrier
count and trials per cell, serially. The stored file holds every field of
every record and the ML estimate's cost of every trial, floats as exact hex
strings, beside the environment that produced them: the numpy version, the
BLAS build numpy reports, and the machine. A record carries no cost, and the
estimate depends on the cost only through comparisons, so the costs catch a
rounding change the records cannot see. ``tests/test_golden_records.py``
reruns the trials and compares.

Regenerate after a change that moves records on purpose, and say in
CHANGES.md how many records changed, which fields, and why:

    PYTHONPATH=src python3 tests/golden_records.py
"""

from __future__ import annotations

import json
import platform
from pathlib import Path

import numpy as np

from nfisac import cli, harness
from nfisac.beamformer import optimize_beamformer
from nfisac.estimator import estimate, wrap_angle
from nfisac.geometry import PolarPosition
from nfisac.signal import synthesize_bank

DATA_PATH = Path(__file__).resolve().parent / "data" / "golden_records.json"
SEEDS = (77, 5151)
# name -> (radii_m, distances_m, reduced_m, trials per cell): the benchmark's workloads.
WORKLOADS = {
    "small-array": ((0.5,), (10.0, 50.0, 200.0), True, 2),
    "large-aperture": ((5.0,), (20.0,), True, 1),
    "wideband": ((0.5,), (10.0,), False, 1),
}


def build_sweep(workload: str, seed: int) -> harness.SweepConfig:
    """The serial sweep of one workload's chunk 0 at master seed ``seed``."""
    radii, distances, reduced_m, trials = WORKLOADS[workload]
    cfg = cli.parse_config(overrides={"radii_m": list(radii), "distances_m": list(distances)})
    return cfg.sweep_config(reduced_m=reduced_m, trials=trials, seed=seed, workers=1)


def record_hex(record: harness.TrialRecord) -> dict:
    """A record's fields by name, floats as exact hex strings."""
    return {
        name: float(value).hex() if isinstance(value, float) else value
        for name, value in vars(record).items()
    }


def trial_costs(cfg: harness.SweepConfig) -> list[str]:
    """``MlEstimate.cost`` of each trial of the sweep as an exact hex string, in record order.

    Each trial's bank is redrawn and estimated as ``harness.run_trial`` does.
    """
    costs = []
    for _, radius, distance, theta, seed in harness._trial_args(cfg):
        geom = cfg.geometry(radius)
        truth = PolarPosition(distance, wrap_angle(theta))
        beam = optimize_beamformer(geom, truth, cfg.ofdm).beamformer
        bank = synthesize_bank(geom, truth, beam, cfg.ofdm, harness.derive_seed(seed, 2))
        result = estimate(bank, geom, harness.grid_for_radius(cfg, radius))
        costs.append(((float(radius), float(distance), seed), float(result.cost).hex()))
    # run_trials sorts its records by (radius, distance, seed).
    return [cost for _, cost in sorted(costs)]


def run_all() -> tuple[dict[str, list[dict]], dict[str, list[str]]]:
    """Records and estimate costs of every (workload, seed) chunk, keyed "workload/seed"."""
    records, costs = {}, {}
    for workload in WORKLOADS:
        for seed in SEEDS:
            cfg = build_sweep(workload, seed)
            key = f"{workload}/{seed}"
            records[key] = [record_hex(r) for r in harness.run_trials(cfg)]
            costs[key] = trial_costs(cfg)
    return records, costs


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def environment() -> dict:
    """What sets the records' last bits: numpy, its BLAS build, the machine."""
    return {
        "numpy": np.__version__,
        "blas": cli._blas_build(),
        "machine": platform.machine(),
        "cpu": _cpu_model(),
    }


def main() -> None:
    DATA_PATH.parent.mkdir(exist_ok=True)
    records, costs = run_all()
    data = {"environment": environment(), "seeds": list(SEEDS), "records": records, "costs": costs}
    with open(DATA_PATH, "w") as handle:
        json.dump(data, handle, indent=1)
        handle.write("\n")
    print(f"wrote {sum(map(len, data['records'].values()))} records to {DATA_PATH}")


if __name__ == "__main__":
    main()
