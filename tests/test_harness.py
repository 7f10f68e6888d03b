"""Monte Carlo harness: pool = serial, plain record types, one grid per radius, rates."""

import dataclasses
import json
import math
import multiprocessing
import os
import typing
from concurrent.futures import ProcessPoolExecutor

import pytest

from nfisac import (
    GridSpec,
    OfdmConfig,
    SweepConfig,
    TrialRecord,
    adaptive_d_nodes,
    auto_n_theta,
    estimator,
    grid_for_radius,
    harness,
    run_trials,
)
from nfisac.cli import parse_config

from conftest import record_bits


def test_pool_records_equal_serial_records():
    sweep = SweepConfig(
        radii_m=(0.5,),
        distances_m=(10.0, 20.0),
        ofdm=OfdmConfig(16, 2, 480e3, 0.07 / 480e3, 0.1, 10.0 ** (-10.4)),
        grid=GridSpec(d_min_m=1.0, d_max_m=40.0),
        trials_per_point=1,
        master_seed=23,
        n_a=8,
    )
    serial = run_trials(sweep)
    pooled = run_trials(dataclasses.replace(sweep, workers=2))
    assert len(serial) == 2
    assert [record_bits(r) for r in pooled] == [record_bits(r) for r in serial]


def test_a_trial_never_builds_the_raw_observation(monkeypatch):
    # The trial draws the matched-filter bank from its law: no pilots, no
    # N x M x n_a observation, no symbol-axis collapse.
    def forbidden(*args, **kwargs):
        raise AssertionError("the trial built the raw observation")

    monkeypatch.setattr(harness, "synthesize_observation", forbidden)
    monkeypatch.setattr(harness, "generate_pilots", forbidden)
    monkeypatch.setattr(estimator, "matched_filter_bank", forbidden)
    sweep = tiny_sweep(ofdm=OfdmConfig(128, 14, 480e3, 0.07 / 480e3, 0.1, 10.0 ** (-10.4)))
    record = harness.run_trial(sweep, 0.5, 10.0, 1.1, 7)
    assert math.isfinite(record.d_hat_m) and math.isfinite(record.theta_hat_rad)
    assert record.seed == 7


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
        ofdm=OfdmConfig(16, 2, 480e3, 0.07 / 480e3, 0.1, 10.0 ** (-10.4)),
        grid=GridSpec(d_min_m=1.0, d_max_m=40.0),
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


@pytest.mark.parametrize("radius", [0.5, 5.0])
def test_the_sweep_grid_is_the_one_derived_recipe(radius):
    # The config sets only the grid's far end; its start, basin budget,
    # range nodes and angle count follow from the array and the numerology.
    sweep = parse_config().sweep_config(reduced_m=True)
    geom = sweep.geometry(radius)
    d_min = max(2.0 * radius, 1.0)
    assert grid_for_radius(sweep, radius) == GridSpec(
        d_min_m=d_min,
        d_max_m=400.0,
        n_theta=auto_n_theta(geom),
        n_basins=15,
        d_nodes=adaptive_d_nodes(geom, sweep.ofdm, d_min, 400.0),
    )


def test_estimated_beam_rate_never_exceeds_the_optimum():
    # Both beams are conjugate-focused, f = conj(a(p)) with |a_k| = 1/sqrt(n_a),
    # so |h^T f_est| = |sum_k g_k a_k(truth) conj(a_k(est))| <= sum_k g_k / sqrt(n_a)
    # = |h^T f_opt|: C_est <= C_opt in every trial, up to rounding.
    records = run_trials(tiny_sweep(distances_m=(10.0, 30.0), trials_per_point=3))
    assert len(records) == 6
    for record in records:
        assert record.rate_est_bps <= record.rate_opt_bps * (1.0 + 1e-12)


def test_derive_seed_is_pure_and_separates_index_tuples():
    assert harness.derive_seed(7, 1, 2, 3) == harness.derive_seed(7, 1, 2, 3)
    tuples = [(i, j, k) for i in range(3) for j in range(4) for k in range(25)]
    seeds = [harness.derive_seed(11, *t) for t in tuples]
    assert len(set(seeds)) == len(tuples)
    # Children of children, other masters and shorter tuples stay distinct too.
    more = [harness.derive_seed(s, 1) for s in seeds[:20]]
    more += [harness.derive_seed(12, *t) for t in tuples[:20]]
    more += [harness.derive_seed(11, i) for i in range(20)]
    assert len(set(seeds + more)) == len(seeds) + len(more)
    # Seeds span the unsigned 64-bit range.
    assert all(0 <= s < 2**64 for s in seeds + more)


def make_record(radius, d_true, d_hat, theta_hat, success, converged=True, seed=0):
    return TrialRecord(
        radius_m=radius, d_true_m=d_true, theta_true_rad=1.0, d_hat_m=d_hat,
        theta_hat_rad=theta_hat, converged=converged, success=success,
        snr_db=10.0, rate_est_bps=1.0, rate_opt_bps=2.0, seed=seed,
    )


def test_summarize_counts_hits_and_rmse_per_cell():
    sweep = tiny_sweep(radii_m=(0.5, 2.0), distances_m=(10.0, 30.0))
    records = [
        make_record(0.5, 10.0, 10.1, 1.0 + 0.01, True),
        make_record(0.5, 10.0, 9.7, 1.0 - 0.03, True, seed=1),
        make_record(0.5, 10.0, 13.0, 2 * math.pi + 0.9, False, False, seed=2),
        make_record(0.5, 30.0, 30.0, 1.0, True),
        make_record(2.0, 30.0, 29.0, 1.2, False, seed=3),
        make_record(2.0, 30.0, 31.0, 0.8, False, seed=4),
    ]
    points = harness.summarize(sweep, records)
    # Cells with no records are left out; order is radius, then distance.
    assert [(p.radius_m, p.d_m) for p in points] == [(0.5, 10.0), (0.5, 30.0), (2.0, 30.0)]
    first, second, third = points
    assert [p.n_trials for p in points] == [3, 1, 2]
    assert first.success_rate == 2 / 3 and first.convergence_rate == 2 / 3
    assert second.success_rate == 1.0 and third.success_rate == 0.0
    assert first.rmse_d_m == pytest.approx(((0.1**2 + 0.3**2 + 3.0**2) / 3) ** 0.5, rel=1e-12)
    # Angle errors wrap to (-pi, pi]: 2 pi + 0.9 against 1.0 is an error of -0.1.
    assert first.rmse_theta_rad == pytest.approx(
        ((0.01**2 + 0.03**2 + 0.1**2) / 3) ** 0.5, rel=1e-9
    )
    assert second.rmse_d_m == 0.0 and second.rmse_d_se_m == 0.0
    assert third.rmse_d_m == pytest.approx(1.0, rel=1e-12)
    assert third.rmse_theta_rad == pytest.approx(0.2, rel=1e-12)
    assert all(p.crlb_d_m > 0.0 and p.crlb_theta_rad > 0.0 for p in points)


def test_crlb_sweep_flags_a_single_element_as_unidentifiable():
    # One element cannot separate range from angle: every cell is a flagged
    # row of NaNs, and the sweep does not abort.
    rows = harness.crlb_sweep(tiny_sweep(radii_m=(0.5, 2.0), distances_m=(10.0, 30.0), n_a=1))
    cells = [(r.radius_m, r.d_m) for r in rows]
    assert cells == [(0.5, 10.0), (0.5, 30.0), (2.0, 10.0), (2.0, 30.0)]
    for row in rows:
        assert row.status == "unidentifiable"
        values = (row.crlb_d_m, row.crlb_theta_rad, row.trace, row.snr_db)
        assert all(math.isnan(v) for v in values)
    ok = harness.crlb_sweep(tiny_sweep())
    assert [r.status for r in ok] == ["ok"] and math.isfinite(ok[0].trace)


def test_summarize_gives_nan_bounds_for_an_unidentifiable_cell():
    # The trials run; the cell's bound, at theta = 0 with one element, does
    # not exist. The summary keeps the row with NaN bounds, as crlb_sweep does.
    sweep = tiny_sweep(n_a=1, trials_per_point=1, master_seed=3)
    (row,) = harness.crlb_sweep(sweep)
    assert row.status == "unidentifiable"
    records = run_trials(sweep)
    (point,) = harness.summarize(sweep, records)
    assert point.n_trials == 1 and math.isfinite(point.rmse_d_m)
    assert math.isnan(point.crlb_d_m) and math.isnan(point.crlb_theta_rad)
