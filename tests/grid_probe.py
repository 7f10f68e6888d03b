"""Row probe: coarse-grid rows evaluated, time and record hash per (radius, distance) cell.

Runs each cell's trials through ``harness.run_trial`` serially, as a one-cell
``monte-carlo`` sweep on the CLI defaults would, and counts the range rows
every ``grid._cost_rows`` call evaluates. Per cell it prints the rows
evaluated per trial (mean, min-max), the wall time per trial in ms (after one
untimed trial of the first cell, with each cell's grid built beforehand), and
a hash of the cell's records with every float as an
exact hex string, so two checkouts' tables show whether a change kept
records bit for bit. Not a test; run it from the repository root:

    PYTHONPATH=src python3 tests/grid_probe.py --reduced-m
    PYTHONPATH=src python3 tests/grid_probe.py --radii 5 --distances 20 --reduced-m --trials 4
"""

from __future__ import annotations

import argparse
import hashlib
import json
import time

import golden_records

from nfisac import cli, grid, harness


def probe_cell(radius: float, distance: float, reduced_m: bool, trials: int, seed: int) -> dict:
    """Rows per trial, ms per trial and the record hash of one cell's trials."""
    cfg = cli.parse_config(
        overrides={"radii_m": [radius], "distances_m": [distance]}
    ).sweep_config(reduced_m=reduced_m, trials=trials, seed=seed, workers=1)
    harness.grid_for_radius(cfg, radius)
    real = grid._cost_rows
    rows = []

    def counting(bank, geom, d_values, workspace):
        rows[-1] += d_values.size
        return real(bank, geom, d_values, workspace)

    grid._cost_rows = counting
    records, seconds = [], 0.0
    try:
        for args in harness._trial_args(cfg):
            rows.append(0)
            start = time.perf_counter()
            records.append(harness.run_trial(*args))
            seconds += time.perf_counter() - start
    finally:
        grid._cost_rows = real
    text = json.dumps([golden_records.record_hex(r) for r in records])
    return {
        "rows": rows,
        "ms": 1e3 * seconds / len(records),
        "hash": hashlib.sha256(text.encode()).hexdigest()[:12],
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--radii", type=float, nargs="+", default=[0.5, 1.0, 2.0, 5.0])
    parser.add_argument(
        "--distances", type=float, nargs="+", default=[10.0, 20.0, 50.0, 100.0, 200.0, 400.0]
    )
    parser.add_argument("--reduced-m", action="store_true", help="M = 128 subcarriers, not 2048")
    parser.add_argument("--trials", type=int, default=2, help="trials per cell")
    parser.add_argument("--seed", type=int, default=4242, help="master seed of every cell")
    args = parser.parse_args()
    probe_cell(args.radii[0], args.distances[0], args.reduced_m, 1, args.seed)
    print("radius_m  d_m  rows/trial  (min-max)  ms/trial  records")
    for radius in args.radii:
        for distance in args.distances:
            cell = probe_cell(radius, distance, args.reduced_m, args.trials, args.seed)
            rows = cell["rows"]
            print(
                f"{radius:8g} {distance:4g} {sum(rows) / len(rows):11.1f}  "
                f"({min(rows)}-{max(rows)}) {cell['ms']:9.1f}  {cell['hash']}",
                flush=True,
            )


if __name__ == "__main__":
    main()
