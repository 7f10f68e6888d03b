"""Time one set-up of a benchmark workload in a fresh interpreter.

Set-up is what runs before the first trial: importing numpy and nfisac,
building the workload's config the way ``nfisac monte-carlo`` does, and the
first grid (``harness.grid_for_radius``) of every radius. Interpreter start-up
is not counted. ``run.py`` starts this several times and keeps the median.

    python3 bench/setup_probe.py small-array 1   # prints seconds as the last line
"""

import sys
import time

import run


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    start = time.perf_counter()
    program = run.load_program()
    sweep = run.build_sweep(program, workload, seed)
    for radius in sweep.radii_m:
        program["harness"].grid_for_radius(sweep, radius)
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()
