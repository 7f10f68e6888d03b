"""Monte Carlo trial benchmark for nfisac.

Runs the same path as ``nfisac monte-carlo``: ``cli.parse_config`` and
``RunConfig.sweep_config``, then ``harness.run_trials`` and
``harness.summarize``, in-process from ``src/`` of the checkout it sits in, and
reads the ``TrialRecord`` objects directly.

    python3 bench/run.py --workload small-array --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped. A run works
through chunks of trials: chunk 0 is the sweep ``nfisac monte-carlo --seed
<seed>`` runs, and every later chunk has a master seed of its own, derived from
``--seed`` and its index. A warm-up first runs one trial per cell of chunk 0,
untimed; chunk 0 must then reproduce those records bit for bit. The workload's
first chunks (its accuracy set) always run, and accuracy comes from them
alone, so it is fixed by the seed. Further chunks run while one more still
fits in ``--seconds``, and speed counts every chunk. ``--trace 1`` runs the first
half of the accuracy set's chunks untraced, then with every layer wrapped (see
``spans.py``), then a few ``small-array`` trials serially and through the
process pool, and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Exit codes: 0 success,
1 a correctness check failed (the JSON line says ``"correct": false``),
2 the program could not be loaded or the arguments are wrong (no JSON line).
Each run also writes its result, with the environment, under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from spans import SpanTable, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

EXIT_OK, EXIT_INCORRECT, EXIT_CANNOT_RUN = 0, 1, 2

HIT_TOL_D_M = 0.5
HIT_TOL_THETA_RAD = math.radians(2.0)
SETUP_REPEATS = 21
# The pool comparison in a traced run: this many workers on the first trial of
# every cell of POOL_WORKLOAD's chunk 0, BLAS threads left as found. It runs on
# the cheapest trials whatever the workload: two large-aperture trials took 24 s
# in the pool against 6 s serially on a 2-core box.
POOL_WORKERS = 2
POOL_WORKLOAD = "small-array"


@dataclasses.dataclass(frozen=True)
class Workload:
    """One serial scenario on the CLI defaults (64 elements, 5 mm, 480 kHz, -74 dBm, auto grid)."""

    radii_m: tuple[float, ...]
    distances_m: tuple[float, ...]
    reduced_m: bool  # M = 128 subcarriers instead of 2048
    trials_per_point: int  # per chunk
    accuracy_chunks: int  # always run; about 15 s on a 2-core box

    @property
    def traced_chunks(self) -> int:
        return max(1, self.accuracy_chunks // 2)


# Why each workload exists is recorded in BENCHMARK.json and bench/NOTES.md.
WORKLOADS = {
    "small-array": Workload((0.5,), (10.0, 50.0, 200.0), True, 2, 5),
    "large-aperture": Workload((5.0,), (20.0,), True, 1, 4),
    "wideband": Workload((0.5,), (10.0,), False, 1, 4),
}

# name -> unit; the --trace 0 metrics, in BENCHMARK.json order.
END_TO_END = {
    "setup_s": "s",
    "trials_per_s": "1/s",
    "cpu_s_per_trial": "s",
    "peak_rss_mb": "MiB",
    "hit_rate": "ratio",
}

# Printed and written with every --trace 0 result, but not in the JSON line:
# see bench/NOTES.md for why they are not gated.
REPORTED = {
    "rmse_d_m": "m",
    "rmse_theta_rad": "rad",
    "failed_share": "ratio",
}

# name -> unit; the --trace 1 metrics. "_s" layers are inclusive seconds per
# trial, over calls made inside trials.
PER_LAYER = {
    "estimator.polish_s": "s",
    "estimator.refine_s": "s",
    "estimator.refine_iters": "count",
    "estimator.refine_converged_share": "ratio",
    "estimator.cost_calls": "count",
    "estimator.cost_s": "s",
    "estimator.basins_refined": "count",
    "estimator.winner_rank_mean": "count",
    "estimator.grid_s": "s",
    "estimator.grid_cells": "count",
    "estimator.grid_cells_per_s": "1/s",
    "estimator.grid_bytes": "B",
    "estimator.mf_bank_s": "s",
    "signal.synth_s": "s",
    "signal.score_s": "s",
    "beamformer.s": "s",
    "beamformer.iters": "count",
    "beamformer.converged_share": "ratio",
    "crlb.s": "s",
    "harness.grid_for_radius_s": "s",
    "harness.trial_s": "s",
    "harness.summarize_s": "s",
    "harness.child_cpu_s_per_trial": "s",
    "harness.pool_speedup": "ratio",
    "trace.overhead_trials_per_s": "1/s",
}

# Top-level layers of one trial, for the printed share table.
TRIAL_LAYERS = {
    "beamformer": ("beamformer.optimize",),
    "signal.synth": ("signal.generate_pilots", "signal.synthesize_observation"),
    "estimator.mf_bank": ("estimator.mf_bank",),
    "estimator.grid": ("estimator.grid",),
    "estimator.polish+refine": ("estimator.polish", "estimator.refine"),
    "signal.score": ("signal.score",),
}


class ProgramMissing(RuntimeError):
    """The checkout holds no importable ``src/nfisac``."""


class ProgramFailed(RuntimeError):
    """A pass of trials raised inside the program."""


def load_program() -> dict:
    """Import nfisac from this checkout's ``src/`` and nowhere else."""
    package = ROOT / "src" / "nfisac"
    if not (package / "__init__.py").is_file():
        raise ProgramMissing(f"no nfisac package at {package}")
    sys.path.insert(0, str(ROOT / "src"))
    import nfisac
    from nfisac import cli, estimator, harness

    if Path(nfisac.__file__).resolve().parent != package.resolve():
        raise ProgramMissing(f"nfisac was imported from {nfisac.__file__}, not {package}")
    return {"cli": cli, "harness": harness, "estimator": estimator}


def chunk_seed(seed: int, chunk: int) -> int:
    """Master seed of a chunk: ``seed`` itself for chunk 0, else a 63-bit hash of both."""
    if chunk == 0:
        return seed
    digest = hashlib.sha256(f"{seed}/{chunk}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def build_sweep(program: dict, workload: str, seed: int, trials_per_point: int | None = None,
                workers: int = 1, chunk: int = 0):
    """The SweepConfig ``nfisac monte-carlo`` builds for one chunk of this workload and seed."""
    w = WORKLOADS[workload]
    cfg = program["cli"].parse_config(
        overrides={"radii_m": list(w.radii_m), "distances_m": list(w.distances_m)}
    )
    sweep = cfg.sweep_config(
        reduced_m=w.reduced_m,
        trials=trials_per_point or w.trials_per_point,
        seed=chunk_seed(seed, chunk),
        workers=workers,
    )
    program["harness"].nearfield_guard(sweep)
    return sweep


def measure_setup(workload: str, seed: int) -> list[float]:
    """Set-up seconds of SETUP_REPEATS fresh interpreters (see setup_probe.py)."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.split()[-1]))
    return times


@dataclasses.dataclass
class Pass:
    records: list
    wall_s: float
    cpu_s: float  # user + sys of this process and its children
    child_cpu_s: float


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def timed_pass(harness, sweep) -> Pass:
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    child0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    try:
        records = harness.run_trials(sweep)
    except Exception as exc:
        raise ProgramFailed(f"run_trials raised {exc!r}") from exc
    wall = time.perf_counter() - start
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    child1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    child_cpu = _cpu(child1) - _cpu(child0)
    return Pass(records, wall, _cpu(self1) - _cpu(self0) + child_cpu, child_cpu)


def peak_rss_mb() -> float:
    """Larger of this process's and its largest child's peak RSS (ru_maxrss is KiB)."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def expected_trials(harness, sweep) -> dict[int, tuple[float, float]]:
    """Trial seed -> (radius, distance) for every trial the sweep must run."""
    return {
        harness.derive_seed(sweep.master_seed, ri, di, t): (radius, distance)
        for ri, radius in enumerate(sweep.radii_m)
        for di, distance in enumerate(sweep.distances_m)
        for t in range(sweep.trials_per_point)
    }


def n_trials(sweep) -> int:
    return len(sweep.radii_m) * len(sweep.distances_m) * sweep.trials_per_point


def check_records(harness, sweep, records) -> tuple[int, list[str]]:
    """(failed trials, errors): one record per attempted trial, finite and in range."""
    expected = expected_trials(harness, sweep)
    got = {r.seed: (r.radius_m, r.d_true_m) for r in records}
    missing = len(expected.keys() - got.keys())
    errors = []
    if missing or len(records) != len(expected) or got.items() - expected.items():
        errors.append(f"{len(records)} records for {len(expected)} trials, {missing} missing")
    d_cap = 1.5 * sweep.grid.d_max_m
    non_finite = 0
    for r in records:
        if not (math.isfinite(r.d_hat_m) and math.isfinite(r.theta_hat_rad)):
            non_finite += 1
            errors.append(f"trial {r.seed}: non-finite estimate ({r.d_hat_m}, {r.theta_hat_rad})")
        elif not r.radius_m < r.d_hat_m < d_cap:
            errors.append(f"trial {r.seed}: d_hat {r.d_hat_m} outside ({r.radius_m}, {d_cap})")
    return missing + non_finite, errors


def record_bits(record) -> tuple:
    """Every field of a TrialRecord, floats as exact hex strings."""
    return tuple(
        float(v).hex() if isinstance(v, float) else v
        for v in (getattr(record, f.name) for f in dataclasses.fields(record))
    )


def same_records(a, b) -> bool:
    return None not in b and [record_bits(r) for r in a] == [record_bits(r) for r in b]


def angle_error(estimate: float, truth: float) -> float:
    return (estimate - truth + math.pi) % (2.0 * math.pi) - math.pi


def accuracy(records) -> dict[str, float]:
    """Hit rate and RMSEs computed from the records; ``converged`` is not used."""
    err_d = [r.d_hat_m - r.d_true_m for r in records]
    err_t = [angle_error(r.theta_hat_rad, r.theta_true_rad) for r in records]
    hits = sum(
        bool(abs(ed) <= HIT_TOL_D_M and abs(et) <= HIT_TOL_THETA_RAD)
        for ed, et in zip(err_d, err_t)
    )
    return {
        "hit_rate": hits / len(records),
        "rmse_d_m": math.sqrt(sum(e * e for e in err_d) / len(records)),
        "rmse_theta_rad": math.sqrt(sum(e * e for e in err_t) / len(records)),
    }


def check_summary(points, records) -> list[str]:
    total = sum(p.n_trials for p in points)
    if total != len(records):
        return [f"summarize counted {total} trials, records hold {len(records)}"]
    return []


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "seed": seed,
    }


def check_chunks(harness, sweeps, passes) -> tuple[int, int, list[str]]:
    """(attempted, failed, errors) over the chunks run, each against its own sweep."""
    attempted, failed, errors = 0, 0, []
    for sweep, done in zip(sweeps, passes):
        chunk_failed, chunk_errors = check_records(harness, sweep, done.records)
        attempted += n_trials(sweep)
        failed += chunk_failed
        errors += chunk_errors
    return attempted, failed, errors


def run_untraced(program, workload: str, seed: int, seconds: float, trials_per_point):
    """End-to-end metrics: set-up, a warm-up, the accuracy set, then chunks while one fits."""
    harness = program["harness"]
    w = WORKLOADS[workload]
    setup = measure_setup(workload, seed)
    start = time.perf_counter()
    sweeps = [build_sweep(program, workload, seed, trials_per_point)]
    warm_up = harness.run_trials(dataclasses.replace(sweeps[0], trials_per_point=1))
    passes = [timed_pass(harness, sweeps[0])]
    while len(passes) < w.accuracy_chunks or (
        time.perf_counter() - start + statistics.fmean(p.wall_s for p in passes) <= seconds
    ):
        sweeps.append(build_sweep(program, workload, seed, trials_per_point, chunk=len(sweeps)))
        passes.append(timed_pass(harness, sweeps[-1]))
    peak = peak_rss_mb()  # before the checks below run trials of their own

    attempted, failed, errors = check_chunks(harness, sweeps, passes)
    by_seed = {r.seed: r for r in passes[0].records}
    if not same_records(warm_up, [by_seed.get(r.seed) for r in warm_up]):
        errors.append("the warm-up and chunk 0 disagree on the records of their common trials")
    accuracy_set = [r for p in passes[:w.accuracy_chunks] for r in p.records]
    errors += check_summary(harness.summarize(sweeps[0], accuracy_set), accuracy_set)

    n = sum(len(p.records) for p in passes)
    metrics = {
        "setup_s": statistics.median(setup),
        "trials_per_s": n / sum(p.wall_s for p in passes),
        "cpu_s_per_trial": sum(p.cpu_s for p in passes) / n,
        "peak_rss_mb": peak,
        **accuracy(accuracy_set),
        "failed_share": failed / attempted,
    }
    detail = {
        "chunks": len(passes),
        "accuracy_trials": len(accuracy_set),
        "chunk_wall_s": [p.wall_s for p in passes],
        "setup_runs_s": setup,
    }
    return attempted, failed, errors, metrics, detail


def layer_metrics(table: SpanTable, n: int) -> dict[str, float]:
    def per_trial(*names: str) -> float:
        return sum(table.incl_s[name] for name in names) / n

    cells = [a["cells"] for a in table.attrs["estimator.grid"]]
    return {
        "estimator.polish_s": per_trial("estimator.polish"),
        "estimator.refine_s": per_trial("estimator.refine"),
        "estimator.refine_iters": table.mean_attr("estimator.refine", "iterations"),
        "estimator.refine_converged_share": table.mean_attr("estimator.refine", "converged"),
        "estimator.cost_calls": table.count["estimator.cost"] / n,
        "estimator.cost_s": per_trial("estimator.cost"),
        "estimator.basins_refined": table.count["estimator.refine"] / n,
        "estimator.winner_rank_mean": table.mean_attr("estimator.estimate", "winner_rank"),
        "estimator.grid_s": per_trial("estimator.grid"),
        "estimator.grid_cells": sum(cells) / len(cells),
        "estimator.grid_cells_per_s": sum(cells) / table.incl_s["estimator.grid"],
        # Computed, not measured: the full float64 cost surface of one grid.
        "estimator.grid_bytes": 8.0 * sum(cells) / len(cells),
        "estimator.mf_bank_s": per_trial("estimator.mf_bank"),
        "signal.synth_s": per_trial("signal.generate_pilots", "signal.synthesize_observation"),
        "signal.score_s": per_trial("signal.score"),
        "beamformer.s": per_trial("beamformer.optimize"),
        "beamformer.iters": table.mean_attr("beamformer.optimize", "iterations"),
        "beamformer.converged_share": table.mean_attr("beamformer.optimize", "converged"),
        "crlb.s": per_trial("crlb.fim", "crlb.crlb_at"),
        "harness.grid_for_radius_s": per_trial("harness.grid_for_radius"),
        "harness.trial_s": statistics.median(table.trial_s),
    }


def trial_shares(table: SpanTable) -> dict[str, float]:
    """Share of summed trial time spent in each top-level layer (inclusive)."""
    total = sum(table.trial_s)
    shares = {layer: sum(table.incl_s[n] for n in names) / total for layer, names in TRIAL_LAYERS.items()}
    shares["other"] = 1.0 - sum(shares.values())
    return shares


def run_traced(program, workload: str, seed: int, trials_per_point):
    """Per-layer metrics: the traced chunks untraced, then traced, then the pool comparison."""
    harness = program["harness"]
    sweeps = [build_sweep(program, workload, seed, trials_per_point, chunk=chunk)
              for chunk in range(WORKLOADS[workload].traced_chunks)]
    untraced = [timed_pass(harness, sweep) for sweep in sweeps]
    tracer = Tracer(program)
    with tracer:
        traced = [timed_pass(harness, sweep) for sweep in sweeps]
        records = [r for p in traced for r in p.records]
        with tracer.span("harness.summarize") as summary_span:
            points = harness.summarize(sweeps[0], records)
    subset = build_sweep(program, POOL_WORKLOAD, seed, trials_per_point=1)
    serial = timed_pass(harness, subset)
    pooled = timed_pass(harness, dataclasses.replace(subset, workers=POOL_WORKERS))

    attempted, failed, errors = check_chunks(harness, sweeps, untraced)
    if any(not same_records(a.records, b.records) for a, b in zip(untraced, traced)):
        errors.append("tracing changed the records")
    if workload == POOL_WORKLOAD:
        by_seed = {r.seed: r for r in untraced[0].records}
        if not same_records(serial.records, [by_seed.get(r.seed) for r in serial.records]):
            errors.append("a smaller sweep changed the records of its trials")
    if not same_records(serial.records, pooled.records):
        errors.append("pool records differ from serial records")
    errors += check_summary(points, records)

    n = len(records)
    untraced_wall = sum(p.wall_s for p in untraced)
    traced_wall = sum(p.wall_s for p in traced)
    table = SpanTable(tracer.spans)
    metrics = layer_metrics(table, n)
    metrics.update({
        "harness.summarize_s": (summary_span[4] - summary_span[3]) * 1e-9,
        "harness.child_cpu_s_per_trial": pooled.child_cpu_s / len(pooled.records),
        "harness.pool_speedup": serial.wall_s / pooled.wall_s,
        "trace.overhead_trials_per_s": n / traced_wall - n / untraced_wall,
    })
    detail = {
        "trial_shares": trial_shares(table),
        "self_s_per_trial": {name: s / n for name, s in sorted(table.self_s.items())},
        "calls_per_trial": {name: c / n for name, c in sorted(table.count.items())},
        "traced_trials": n,
        "untraced_trials_per_s": n / untraced_wall,
        "traced_trials_per_s": n / traced_wall,
        "pool_trials": len(pooled.records),
        "pool_serial_wall_s": serial.wall_s,
        "pool_wall_s": pooled.wall_s,
    }
    return attempted, failed, errors, metrics, detail, tracer


def _print_table(title: str, values: dict, units: dict) -> None:
    print(title)
    for name, value in values.items():
        unit = units.get(name, "")
        print(f"  {name:34s} {value!r:>24} {unit}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--trials-per-point", type=int, default=None,
        help="shrink every chunk (smoke tests); default is the workload's own size",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        program = load_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"error: cannot load the program: {exc}", file=sys.stderr)
        return EXIT_CANNOT_RUN

    env = environment(args.seed)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("env " + json.dumps(env))
    tracer = None
    try:
        if args.trace:
            attempted, failed, errors, values, detail, tracer = run_traced(
                program, args.workload, args.seed, args.trials_per_point)
            gated = PER_LAYER
        else:
            attempted, failed, errors, values, detail = run_untraced(
                program, args.workload, args.seed, args.seconds, args.trials_per_point)
            gated = END_TO_END
    except ProgramFailed as exc:
        traceback.print_exc()
        sweep = build_sweep(program, args.workload, args.seed, args.trials_per_point)
        attempted = n_trials(sweep)
        failed, errors, values, detail, gated = attempted, [str(exc)], {}, {}, {}

    _print_table("metrics", values, {**END_TO_END, **REPORTED, **PER_LAYER})
    for key, value in detail.items():
        print(f"{key} {json.dumps(value)}")
    for error in errors:
        print(f"error: {error}", file=sys.stderr)

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    header = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env}
    with open(OUT_DIR / f"{stem}.json", "w") as handle:
        json.dump({**header, "errors": errors, "metrics": values, "detail": detail}, handle, indent=1)
    if tracer is not None:
        tracer.write(OUT_DIR / f"{stem}-spans.json", header)

    correct = not errors
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in gated.items() if name in values
        },
    }
    print(json.dumps(result))
    return EXIT_OK if correct else EXIT_INCORRECT


if __name__ == "__main__":
    sys.exit(main())
