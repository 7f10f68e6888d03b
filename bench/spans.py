"""Span tracing from outside the program: wrap public functions where they are looked up.

``harness`` binds ``optimize_beamformer``, ``estimate``, ``generate_pilots`` and
the rest by name at import time, and ``estimator`` calls its own module globals
(``coarse_grid_search``, ``polish_basin``, ``lm_refine``, ``cost``). Replacing
the attribute on the module that does the calling is therefore what puts a
wrapper on the call path; replacing it on the defining module would miss most
calls. Each wrapper records one span (id, parent, name, start, end, attrs) and
returns the wrapped function's value unchanged. Spans stay in memory until
``write``.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps


def _grid_cells(args, kwargs) -> int:
    spec = kwargs["spec"] if "spec" in kwargs else args[3]
    return spec.n_d * spec.n_theta


# (caller module, attribute, span name, attrs extractor or None). Extractors
# read counts off the arguments and the returned value; they never alter them.
WRAPS = (
    ("harness", "run_trial", "harness.trial", lambda r, a, k: {"seed": r.seed}),
    ("harness", "optimize_beamformer", "beamformer.optimize",
     lambda r, a, k: {"iterations": r.iterations, "converged": bool(r.converged)}),
    ("harness", "generate_pilots", "signal.generate_pilots", None),
    ("harness", "synthesize_observation", "signal.synthesize_observation", None),
    ("harness", "grid_for_radius", "harness.grid_for_radius", None),
    ("harness", "estimate", "estimator.estimate",
     lambda r, a, k: {"winner_rank": r.basin_index + 1}),
    ("harness", "ue_received_snr", "signal.score", None),
    ("harness", "achievable_rate", "signal.score", None),
    ("harness", "crlb_at", "crlb.crlb_at", None),
    ("estimator", "matched_filter_bank", "estimator.mf_bank", None),
    ("estimator", "coarse_grid_search", "estimator.grid",
     lambda r, a, k: {"cells": _grid_cells(a, k)}),
    ("estimator", "polish_basin", "estimator.polish", None),
    ("estimator", "lm_refine", "estimator.refine",
     lambda r, a, k: {"iterations": r[2], "converged": bool(r[1])}),
    ("estimator", "cost", "estimator.cost", None),
    ("estimator", "fim", "crlb.fim", None),
)

SPAN_FIELDS = ["id", "parent", "name", "start_ns", "end_ns", "attrs"]


class Tracer:
    """Records spans while installed; ``with Tracer(modules):`` restores the originals on exit."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _open(self, name: str) -> list:
        span = [len(self.spans), self._stack[-1] if self._stack else -1, name,
                time.perf_counter_ns(), 0, None]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def _close(self, span: list) -> None:
        self._stack.pop()
        span[4] = time.perf_counter_ns()

    def _wrap(self, fn, name, extract):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if extract is not None:
                span[5] = extract(result, args, kwargs)
            return result

        return wrapper

    @contextmanager
    def span(self, name: str):
        """A span around a call the benchmark makes itself."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def __enter__(self) -> "Tracer":
        for module_name, attr, name, extract in WRAPS:
            module = self.modules[module_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, extract))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def write(self, path, header: dict) -> None:
        with open(path, "w") as handle:
            json.dump({**header, "span_fields": SPAN_FIELDS, "spans": self.spans},
                      handle, separators=(",", ":"))
            handle.write("\n")


class SpanTable:
    """Per-name totals over the spans that ran inside trial spans.

    Self time is a span's duration minus the durations of its direct children.
    """

    def __init__(self, spans: list[list]):
        child_ns = defaultdict(int)
        inside: set[int] = set()
        for span in spans:  # a parent is always recorded before its children
            if span[1] >= 0:
                child_ns[span[1]] += span[4] - span[3]
            if span[2] == "harness.trial" or span[1] in inside:
                inside.add(span[0])
        self.count = defaultdict(int)
        self.incl_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.attrs = defaultdict(list)
        for span in spans:
            if span[0] not in inside:
                continue
            name, dur = span[2], span[4] - span[3]
            self.count[name] += 1
            self.incl_s[name] += dur * 1e-9
            self.self_s[name] += (dur - child_ns[span[0]]) * 1e-9
            if span[5] is not None:
                self.attrs[name].append(span[5])
        self.trial_s = [(s[4] - s[3]) * 1e-9 for s in spans if s[2] == "harness.trial"]

    def mean_attr(self, name: str, key: str) -> float:
        values = [a[key] for a in self.attrs[name]]
        return sum(values) / len(values)
