"""Golden trial records: chunk 0 of two benchmark seeds on the three benchmark workloads.

The sweeps are rebuilt as the benchmark builds them (``bench/run.py``,
``build_sweep``): ``cli.parse_config`` with the workload's radii and distances
as overrides, then ``RunConfig.sweep_config`` with the workload's subcarrier
count and trials per cell, serially. The stored file holds every field of
every record and the ML estimate's cost of every trial, floats as exact hex
strings, and the coarse search's basins (range index, angle index) of every
trial, beside the environment that produced them: the numpy version, the
BLAS build numpy reports, and the machine. A record carries no cost, and the
estimate depends on the cost only through comparisons, so the costs catch a
rounding change the records cannot see; the basins catch a change in what
the coarse search hands the refinement. Costs and basins come from the same
``run_trials`` pass as the records. ``tests/test_golden_records.py`` reruns
the trials and compares.

Regenerate after a change that moves records on purpose, and say in
CHANGES.md how many records changed, which fields, and why:

    PYTHONPATH=src python3 tests/golden_records.py
"""

from __future__ import annotations

import json
import platform
from pathlib import Path

import numpy as np

from nfisac import cli, estimator, harness

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


def run_chunk(cfg: harness.SweepConfig) -> tuple[list[dict], list[str], list[list]]:
    """Records, estimate costs and grid basins of a serial sweep's trials, in record order.

    One ``harness.run_trials`` pass: ``harness.estimate`` and
    ``estimator.coarse_grid_search`` are wrapped while it runs, and each
    trial's ``MlEstimate.cost`` (an exact hex string) and basins
    ([range index, angle index] pairs, best first) are keyed by the record
    that the trial's progress call hands back.
    """
    seen = {}
    real_estimate, real_search = harness.estimate, estimator.coarse_grid_search

    def estimating(*args, **kwargs):
        result = real_estimate(*args, **kwargs)
        seen["cost"] = float(result.cost).hex()
        return result

    def searching(*args, **kwargs):
        basins = real_search(*args, **kwargs)
        seen["basins"] = [[b.d_index, b.theta_index] for b in basins]
        return basins

    by_trial = {}

    def progress(done, total, record):
        by_trial[(record.radius_m, record.d_true_m, record.seed)] = (
            seen.pop("cost"),
            seen.pop("basins"),
        )

    harness.estimate, estimator.coarse_grid_search = estimating, searching
    try:
        records = harness.run_trials(cfg, progress)
    finally:
        harness.estimate, estimator.coarse_grid_search = real_estimate, real_search
    keys = [(r.radius_m, r.d_true_m, r.seed) for r in records]
    return (
        [record_hex(r) for r in records],
        [by_trial[key][0] for key in keys],
        [by_trial[key][1] for key in keys],
    )


def run_all() -> tuple[dict[str, list[dict]], dict[str, list[str]], dict[str, list[list]]]:
    """Records, estimate costs and grid basins of each chunk, keyed "workload/seed"."""
    records, costs, basins = {}, {}, {}
    for workload in WORKLOADS:
        for seed in SEEDS:
            key = f"{workload}/{seed}"
            records[key], costs[key], basins[key] = run_chunk(build_sweep(workload, seed))
    return records, costs, basins


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
    records, costs, basins = run_all()
    data = {
        "environment": environment(),
        "seeds": list(SEEDS),
        "records": records,
        "costs": costs,
        "basins": basins,
    }
    with open(DATA_PATH, "w") as handle:
        json.dump(data, handle, indent=1)
        handle.write("\n")
    print(f"wrote {sum(map(len, data['records'].values()))} records to {DATA_PATH}")


if __name__ == "__main__":
    main()
