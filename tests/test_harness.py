"""Monte Carlo harness: the process pool reproduces the serial sweep."""

import dataclasses

from nfisac import GridSpec, OfdmConfig, OptimizerConfig, SweepConfig, run_trials


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
