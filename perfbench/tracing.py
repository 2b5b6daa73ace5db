"""Spans around the package's public functions, patched in from outside.

The traced pass replaces module attributes (``girthspec.cli.profile``,
``girthspec.spectra.rank_of_biadjacency``, ...) with wrappers that record
a span per call, and restores them afterwards. A layer's self time is the
duration of its spans minus the time covered by their child spans. A
target that no longer exists is skipped and listed in ``missing``, so a
refactor that removes a name yields a missing metric, not a crash.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# metric -> "module:attribute[.attribute]" targets whose calls it covers.
# Each module that imported a function by name has its own binding, so
# every binding the package calls through is listed.
LAYER_TARGETS = {
    "cli.load_graph_s": ["girthspec.cli:load_graph"],
    "graph_core.parse_s": ["girthspec.cli:parse_alist",
                           "girthspec.cli:parse_edge_list"],
    "graph_core.profile_s": ["girthspec.cli:profile",
                             "girthspec.edge_matrix:profile",
                             "girthspec.cycle_count:profile",
                             "girthspec.spectral_transfer:profile"],
    "spectra.adjacency_spectrum_s": ["girthspec.cli:adjacency_spectrum"],
    "spectra.rank_audit_s": ["girthspec.spectra:rank_of_biadjacency"],
    "spectral_transfer.derive_s": ["girthspec.cli:TransferParameters.from_graph",
                                   "girthspec.cli:derive_edge_spectrum"],
    "cycle_count.counts_from_spectrum_s": ["girthspec.cli:counts_from_spectrum"],
    "cycle_count.brute_s": ["girthspec.cli:brute_force_counts"],
    "cycle_count.cross_check_s": ["girthspec.cli:g_plus_4_cross_check"],
    "edge_matrix.build_s": ["girthspec.edge_matrix:build_edge_matrix"],
    "edge_matrix.trace_s": ["girthspec.cli:trace_power_counts",
                            "girthspec.edge_matrix:trace_powers"],
    "edge_matrix.direct_s": ["girthspec.cli:edge_spectrum_direct"],
}
# metric whose span the benchmark opens itself, around each cli.main call
ROOT_SPAN = "cli.self_s"
# per-op call counts reported next to the self times
COUNTED = {"graph_core.profile_s": "graph_core.profile_calls",
           "edge_matrix.build_s": "edge_matrix.build_calls"}


class Tracer:
    """In-memory spans: (op, span id, parent id, metric, start, end)."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.op = 0
        self._stack: list[int] = []
        self._next_id = 0

    @contextmanager
    def span(self, metric: str):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((self.op, span_id, parent, metric, start, end))

    def wrap(self, fn, metric: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(metric):
                return fn(*args, **kwargs)
        return traced

    def self_times(self) -> dict[str, float]:
        child_time: dict[int, float] = defaultdict(float)
        for _, _, parent, _, start, end in self.spans:
            child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for _, span_id, _, metric, start, end in self.spans:
            totals[metric] += end - start - child_time[span_id]
        return dict(totals)

    def calls(self) -> Counter:
        return Counter(metric for *_, metric, _, _ in self.spans)


def _resolve(target: str):
    """(owner object, attribute name, raw attribute), or None if gone."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    try:
        raw = inspect.getattr_static(owner, attr)
    except AttributeError:
        return None
    return owner, attr, raw


@contextmanager
def patched(tracer: Tracer):
    """Wrap every target that exists; yield the metrics with none left."""
    undo = []
    missing = []
    try:
        for metric, targets in LAYER_TARGETS.items():
            found = 0
            for target in targets:
                resolved = _resolve(target)
                if resolved is None:
                    continue
                owner, attr, raw = resolved
                if isinstance(raw, (classmethod, staticmethod)):
                    new = type(raw)(tracer.wrap(raw.__func__, metric))
                elif callable(raw):
                    new = tracer.wrap(raw, metric)
                else:
                    continue
                setattr(owner, attr, new)
                undo.append((owner, attr, raw))
                found += 1
            if not found:
                missing.append(metric)
        yield missing
    finally:
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)
