"""Stored trial records pin the estimator's output (see ``golden_records.py``)."""

import json
import math

import golden_records

REL_TOL = 1e-9


def test_trial_records_match_the_stored_ones():
    with open(golden_records.DATA_PATH) as handle:
        stored = json.load(handle)
    assert tuple(stored["seeds"]) == golden_records.SEEDS
    here = golden_records.environment()
    bitwise = here == stored["environment"]
    comparison = "bit for bit" if bitwise else f"to {REL_TOL:g} relative (environment differs)"
    print(f"golden records compared {comparison}")
    fresh = golden_records.run_all()
    assert fresh.keys() == stored["records"].keys()
    assert sum(map(len, fresh.values())) == 16
    for key, records in stored["records"].items():
        assert len(fresh[key]) == len(records), key
        for want, got in zip(records, fresh[key]):
            where = f"{key} seed {want['seed']}, compared {comparison}"
            if bitwise:
                assert got == want, where
                continue
            assert got.keys() == want.keys(), where
            for name, value in want.items():
                if isinstance(value, str):
                    a, b = float.fromhex(value), float.fromhex(got[name])
                    close = a == b or abs(a - b) <= REL_TOL * max(abs(a), abs(b))
                    assert close or (math.isnan(a) and math.isnan(b)), f"{where}: {name}"
                else:
                    assert got[name] == value, f"{where}: {name}"
