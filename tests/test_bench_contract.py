"""The benchmark calls and wraps program functions by name; every name must resolve."""

import importlib.util
import numbers
import re
from pathlib import Path

from nfisac import (
    GridSpec,
    PolarPosition,
    cli,
    conjugate_focus_beamformer,
    estimator,
    harness,
    synthesize_bank,
)

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
RUN = SPANS.parent / "run.py"
SETUP_PROBE = SPANS.parent / "setup_probe.py"


def load_spans():
    """Import ``bench/spans.py`` from its file, without touching it."""
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_attribute_resolves():
    # ``Tracer.__enter__`` does getattr(module, attribute) for each entry,
    # so a renamed or deleted function makes a traced run raise.
    modules = {"harness": harness, "estimator": estimator}
    wraps = load_spans().WRAPS
    assert wraps
    missing = [
        (module, attribute)
        for module, attribute, _, _ in wraps
        if not callable(getattr(modules[module], attribute, None))
    ]
    assert missing == []


def test_traced_estimate_attributes_are_numbers(geom64, reduced_ofdm):
    # A traced run averages these attributes over the spans of each name; a
    # missing span or a non-numeric value makes it raise.
    truth = PolarPosition(50.0, 1.3)
    bank = synthesize_bank(
        geom64, truth, conjugate_focus_beamformer(geom64, truth), reduced_ofdm, 41
    )
    spec = GridSpec.for_array(geom64, reduced_ofdm, 100.0)
    spans = load_spans()
    with spans.Tracer({"harness": harness, "estimator": estimator}) as tracer:
        harness.estimate(bank, geom64, spec)
    attrs = {}
    for _, _, name, _, _, values in tracer.spans:
        if values is not None:
            attrs.setdefault(name, []).append(values)
    assert set(attrs) == {"estimator.estimate", "estimator.grid", "estimator.refine"}
    for values in attrs["estimator.refine"]:
        assert type(values["converged"]) is bool
        assert isinstance(values["iterations"], numbers.Real)
    assert all(isinstance(v["cells"], numbers.Real) for v in attrs["estimator.grid"])
    assert all(isinstance(v["winner_rank"], numbers.Real) for v in attrs["estimator.estimate"])


def test_every_untraced_name_the_benchmark_calls_resolves():
    # ``bench/run.py`` and ``bench/setup_probe.py`` drive the program through
    # these directly, outside the tracer: ``harness.run_trials(...)`` or
    # ``program["cli"].parse_config(...)``.
    called = {
        call
        for script in (RUN, SETUP_PROBE)
        for call in re.findall(r'\b(harness|cli)(?:"\])?\.(\w+)\(', script.read_text())
    }
    assert {
        ("cli", "parse_config"),
        ("harness", "derive_seed"),
        ("harness", "grid_for_radius"),
        ("harness", "nearfield_guard"),
        ("harness", "run_trials"),
        ("harness", "summarize"),
    } <= called
    modules = {"cli": cli, "harness": harness}
    missing = [
        (module, name)
        for module, name in sorted(called)
        if not callable(getattr(modules[module], name, None))
    ]
    assert missing == []
    # ``build_sweep`` then calls RunConfig.sweep_config with these keywords.
    cfg = cli.parse_config(overrides={"radii_m": [0.5], "distances_m": [10.0]})
    sweep = cfg.sweep_config(reduced_m=True, trials=1, seed=77, workers=1)
    harness.nearfield_guard(sweep)
    assert sweep.ofdm.m_subcarriers == 128 and sweep.trials_per_point == 1
    # ``check_records`` reads the grid's far end off the sweep.
    assert type(sweep.grid.d_max_m) is float
