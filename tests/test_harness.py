"""Monte Carlo harness: pool = serial, plain record types, one grid per radius, rates."""

import dataclasses
import json
import multiprocessing
import os
import typing
from concurrent.futures import ProcessPoolExecutor

from nfisac import (
    GridSpec,
    OfdmConfig,
    OptimizerConfig,
    SweepConfig,
    TrialRecord,
    harness,
    run_trials,
)


def record_bits(record):
    """Every field of a TrialRecord, floats as exact hex strings."""
    return tuple(
        float(value).hex() if isinstance(value, float) else value
        for value in dataclasses.astuple(record)
    )


def test_pool_records_equal_serial_records():
    sweep = SweepConfig(
        radii_m=(0.5,),
        distances_m=(10.0, 20.0),
        ofdm=OfdmConfig(16, 2, 480e3, 0.07 / 480e3, 0.1, 10.0 ** (-10.4), 60e9),
        grid=GridSpec(d_min_m=1.0, d_max_m=40.0, n_basins=4),
        optimizer=OptimizerConfig(max_iters=200),
        trials_per_point=1,
        master_seed=23,
        n_a=8,
    )
    serial = run_trials(sweep)
    pooled = run_trials(dataclasses.replace(sweep, workers=2))
    assert len(serial) == 2
    assert [record_bits(r) for r in pooled] == [record_bits(r) for r in serial]


def test_pool_workers_start_with_one_blas_thread(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "7")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    names = list(harness.WORKER_ENV)
    spawn = multiprocessing.get_context("spawn")
    with harness._worker_environment(), ProcessPoolExecutor(1, spawn) as pool:
        seen = list(pool.map(os.getenv, names, timeout=120))
    assert seen == ["1", "1"]
    # The parent's own environment is restored.
    assert os.environ["OPENBLAS_NUM_THREADS"] == "7"
    assert "OMP_NUM_THREADS" not in os.environ


def tiny_sweep(**changes):
    sweep = SweepConfig(
        radii_m=(0.5,),
        distances_m=(10.0,),
        ofdm=OfdmConfig(16, 2, 480e3, 0.07 / 480e3, 0.1, 10.0 ** (-10.4), 60e9),
        grid=GridSpec(d_min_m=1.0, d_max_m=40.0, n_basins=4),
        optimizer=OptimizerConfig(max_iters=200),
        trials_per_point=2,
        master_seed=29,
        n_a=8,
    )
    return dataclasses.replace(sweep, **changes)


def test_record_fields_are_plain_python_types():
    hints = typing.get_type_hints(TrialRecord)
    (record, _) = run_trials(tiny_sweep())
    for field in dataclasses.fields(record):
        value = getattr(record, field.name)
        assert type(value) is hints[field.name], (field.name, type(value))
    as_dict = dataclasses.asdict(record)
    assert json.loads(json.dumps(as_dict)) == as_dict


def test_grid_is_built_once_per_radius(monkeypatch):
    sweep = tiny_sweep()
    harness._grid_spec.cache_clear()
    built = []
    original = harness.adaptive_d_nodes

    def counting(*args, **kwargs):
        built.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(harness, "adaptive_d_nodes", counting)
    cached = run_trials(sweep)
    # A second sweep differing only in its seed reuses the spec.
    run_trials(dataclasses.replace(sweep, master_seed=30, trials_per_point=1))
    assert len(built) == 1

    fresh = []
    for record in cached:
        harness._grid_spec.cache_clear()
        fresh.append(harness.run_trial(
            sweep, record.radius_m, record.d_true_m, record.theta_true_rad, record.seed
        ))
    assert len(built) == 3
    assert [record_bits(r) for r in fresh] == [record_bits(r) for r in cached]


def test_estimated_beam_rate_never_exceeds_the_optimum():
    # Both beams are conjugate-focused, f = conj(a(p)) with |a_k| = 1/sqrt(n_a),
    # so |h^T f_est| = |sum_k g_k a_k(truth) conj(a_k(est))| <= sum_k g_k / sqrt(n_a)
    # = |h^T f_opt|: C_est <= C_opt in every trial, up to rounding.
    records = run_trials(tiny_sweep(distances_m=(10.0, 30.0), trials_per_point=3))
    assert len(records) == 6
    for record in records:
        assert record.rate_est_bps <= record.rate_opt_bps * (1.0 + 1e-12)
