"""Golden trial records: chunk 0 of two benchmark seeds on the three benchmark workloads.

The sweeps are rebuilt as the benchmark builds them (``bench/run.py``,
``build_sweep``): ``cli.parse_config`` with the workload's radii and distances
as overrides, then ``RunConfig.sweep_config`` with the workload's subcarrier
count and trials per cell, serially. The stored file holds every field of
every record, floats as exact hex strings, beside the environment that
produced them: the numpy version, the BLAS build numpy reports, and the
machine. ``tests/test_golden_records.py`` reruns the trials and compares.

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


def run_all() -> dict[str, list[dict]]:
    """Records of every (workload, seed) chunk, keyed "workload/seed"."""
    return {
        f"{workload}/{seed}": [record_hex(r) for r in harness.run_trials(build_sweep(workload, seed))]
        for workload in WORKLOADS
        for seed in SEEDS
    }


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
    data = {"environment": environment(), "seeds": list(SEEDS), "records": run_all()}
    with open(DATA_PATH, "w") as handle:
        json.dump(data, handle, indent=1)
        handle.write("\n")
    print(f"wrote {sum(map(len, data['records'].values()))} records to {DATA_PATH}")


if __name__ == "__main__":
    main()
