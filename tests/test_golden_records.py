"""Stored records, estimate costs and grid basins pin the estimator (``golden_records.py``)."""

import json
import math

import golden_records

REL_TOL = 1e-9


def close(want: str, got: str) -> bool:
    """Two hex floats within REL_TOL relative of each other, or both NaN."""
    a, b = float.fromhex(want), float.fromhex(got)
    if math.isnan(a) and math.isnan(b):
        return True
    return a == b or abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def test_trial_records_match_the_stored_ones():
    with open(golden_records.DATA_PATH) as handle:
        stored = json.load(handle)
    assert tuple(stored["seeds"]) == golden_records.SEEDS
    here = golden_records.environment()
    bitwise = here == stored["environment"]
    comparison = "bit for bit" if bitwise else f"to {REL_TOL:g} relative (environment differs)"
    print(f"golden records compared {comparison}")
    if not bitwise:
        # A basin list is a ranking of costs; another BLAS or machine may
        # break a near tie the other way without any record moving.
        print("golden basins skipped (environment differs)")
    fresh, fresh_costs, fresh_basins = golden_records.run_all()
    assert fresh.keys() == stored["records"].keys() == stored["costs"].keys()
    assert fresh.keys() == stored["basins"].keys()
    assert sum(map(len, fresh.values())) == 16
    for key, records in stored["records"].items():
        assert len(fresh[key]) == len(records) == len(stored["costs"][key]), key
        assert len(stored["basins"][key]) == len(records), key
        for want, got in zip(records, fresh[key]):
            where = f"{key} seed {want['seed']}, compared {comparison}"
            if bitwise:
                assert got == want, where
                continue
            assert got.keys() == want.keys(), where
            for name, value in want.items():
                if isinstance(value, str):
                    assert close(value, got[name]), f"{where}: {name}"
                else:
                    assert got[name] == value, f"{where}: {name}"
        for want, got, record in zip(stored["costs"][key], fresh_costs[key], records):
            where = f"{key} seed {record['seed']}: estimate cost, compared {comparison}"
            assert got == want if bitwise else close(want, got), where
        if bitwise:
            for want, got, record in zip(stored["basins"][key], fresh_basins[key], records):
                assert got == want, f"{key} seed {record['seed']}: grid basins"
