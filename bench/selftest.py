"""The benchmark's own tests, kept out of the repository's test suite.

    python3 -m pytest -q bench/selftest.py

Each test runs tiny trial sets (one trial per cell), so the whole file takes
well under a minute on a 2-core box.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _invoke(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def _spec_units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def _result_units(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.fixture(scope="module")
def program():
    return run.load_program()


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_smoke_untraced(workload):
    result = _result(_invoke("--workload", workload, "--seed", "3", "--seconds", "1",
                             "--trace", "0", "--trials-per-point", "1"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert _result_units(result) == _spec_units("end_to_end")
    assert all(result["metrics"][k]["value"] > 0
               for k in ("setup_s", "trials_per_s", "cpu_s_per_trial", "peak_rss_mb"))


def test_smoke_traced():
    result = _result(_invoke("--workload", "small-array", "--seed", "3", "--seconds", "1",
                             "--trace", "1", "--trials-per-point", "1"))
    assert result["correct"] and result["failed"] == 0
    assert _result_units(result) == _spec_units("per_layer")


def test_same_seed_same_accuracy(program):
    first = run.run_untraced(program, "small-array", 7, 0.0, 1)[3]
    second = run.run_untraced(program, "small-array", 7, 0.0, 1)[3]
    keys = ("hit_rate", "rmse_d_m", "rmse_theta_rad")
    assert [first[k] for k in keys] == [second[k] for k in keys]


def test_different_seed_different_theta(program):
    harness = program["harness"]
    thetas = [
        [r.theta_true_rad for r in harness.run_trials(run.build_sweep(program, "small-array", seed, 1))]
        for seed in (1, 2)
    ]
    assert len(thetas[0]) == 3 and all(a != b for a, b in zip(*thetas))


def test_fails_without_program():
    stripped = run.OUT_DIR / "stripped"
    shutil.rmtree(stripped, ignore_errors=True)
    stripped.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", stripped)
    for path in SPEC["paths"]:
        shutil.copytree(run.ROOT / path, stripped / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    try:
        done = _invoke("--workload", "small-array", "--seed", "1", "--seconds", "1", "--trace", "0",
                       cwd=stripped)
    finally:
        shutil.rmtree(stripped)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_chunk_seeds():
    assert run.chunk_seed(7, 0) == 7
    seeds = {run.chunk_seed(seed, chunk) for seed in (1, 2) for chunk in range(1, 6)}
    assert len(seeds) == 10 and all(0 <= s < 2**63 for s in seeds)
