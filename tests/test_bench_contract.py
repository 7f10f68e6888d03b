"""The benchmark's tracer wraps program functions by name; every name must resolve."""

import importlib.util
from pathlib import Path

from nfisac import estimator, harness

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


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
