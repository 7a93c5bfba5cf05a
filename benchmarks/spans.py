"""Spans and counters for the traced benchmark run.

The program is not modified: a :class:`Tracer` replaces public names in
the module namespaces that look them up (``ptop.cli.as_pspace``,
``ptop.levels.verify_pairwise``, ...) with wrappers that record a span
per call, and puts the originals back afterwards.  Spans stay in memory
as ``(name, start, end, parent, op)`` tuples until the run reports.

``masks`` helpers run inside ``maps`` and ``covers`` loops and get no
spans of their own, since wrapping per-bit helpers would distort the
timings; their cost is part of their callers' self time.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

# (namespace, name looked up there, span name = <layer>.<function>)
PATCHED = [
    ("ptop.cli", "parse_pspace", "fileio.parse_pspace"),
    ("ptop.cli", "parse_pmap", "fileio.parse_pmap"),
    ("ptop.cli", "serialize_pspace", "fileio.serialize_pspace"),
    ("ptop.cli", "as_pspace", "core.as_pspace"),
    ("ptop.cli", "verify_pairwise", "core.verify_pairwise"),
    ("ptop.cli", "verify_exhaustive", "core.verify_exhaustive"),
    ("ptop.cli", "complete", "core.complete"),
    ("ptop.cli", "decompose", "levels.decompose"),
    ("ptop.cli", "subspace", "maps.subspace"),
    ("ptop.cli", "continuity_witness", "maps.continuity_witness"),
    ("ptop.cli", "connectivity_threshold", "covers.connectivity_threshold"),
    ("ptop.cli", "disconnection_witness", "covers.disconnection_witness"),
    ("ptop.cli", "qcover_witness", "covers.qcover_witness"),
    ("ptop.cli", "min_subcover", "covers.min_subcover"),
    ("ptop.cli", "random_pspace", "generate.random_pspace"),
    ("ptop.levels", "level_cut", "levels.level_cut"),
    ("ptop.levels", "verify_pairwise", "core.verify_pairwise"),
    ("ptop.maps", "verify_pairwise", "core.verify_pairwise"),
    ("ptop.generate", "reconstruct", "levels.reconstruct"),
    ("ptop.generate", "topology_closure", "generate.topology_closure"),
]

# Counters taken from a call's arguments and result, outside its span.
# ``core.as_pspace.cells`` is computed (4^n pair cells per call), not measured.
COUNTERS = {
    "core.as_pspace": lambda args, r: {"cells": 4 ** args[0].n},
    "core.verify_pairwise": lambda args, r: {"reports": len(r)},
    "core.complete": lambda args, r: {"raised": sum(o > i for i, o in zip(args[0].table, r.table))},
    "fileio.parse_pspace": lambda args, r: {"bytes": len(args[0].encode())},
    "fileio.serialize_pspace": lambda args, r: {"bytes": len(r.encode())},
    "levels.decompose": lambda args, r: {"levels": len(r.levels)},
    "maps.continuity_witness": lambda args, r: {"witnesses": int(r is not None)},
    "covers.min_subcover": lambda args, r: {"members": len(args[0].members)},
    "generate.random_pspace": lambda args, r: {"levels": len(set(r.table))},
}

# Spans under these layers are debug-assert pair scans, reported apart.
NESTING_LAYERS = ("levels.", "maps.")

# Every per-layer metric the traced run reports: (name, unit, better).
LAYER_METRICS = [
    ("cli.interp_start_ms", "ms", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("fileio.parse_pspace.self_s", "s", "lower"),
    ("fileio.parse_pspace.bytes", "bytes", "lower"),
    ("fileio.serialize_pspace.self_s", "s", "lower"),
    ("fileio.serialize_pspace.bytes", "bytes", "lower"),
    ("fileio.parse_pmap.self_s", "s", "lower"),
    ("core.as_pspace.self_s", "s", "lower"),
    ("core.as_pspace.calls", "count", "lower"),
    ("core.as_pspace.cells", "count", "lower"),
    ("core.verify_pairwise.self_s", "s", "lower"),
    ("core.verify_pairwise.reports", "count", "lower"),
    ("core.verify_pairwise.nested_s", "s", "lower"),
    ("core.complete.self_s", "s", "lower"),
    ("core.complete.raised", "count", "lower"),
    ("core.verify_exhaustive.self_s", "s", "lower"),
    ("levels.decompose.self_s", "s", "lower"),
    ("levels.decompose.levels", "count", "lower"),
    ("levels.level_cut.self_s", "s", "lower"),
    ("levels.reconstruct.self_s", "s", "lower"),
    ("maps.subspace.self_s", "s", "lower"),
    ("maps.continuity_witness.self_s", "s", "lower"),
    ("maps.continuity_witness.witnesses", "count", "lower"),
    ("covers.min_subcover.self_s", "s", "lower"),
    ("covers.min_subcover.members", "count", "lower"),
    ("covers.connectivity_threshold.self_s", "s", "lower"),
    ("covers.disconnection_witness.self_s", "s", "lower"),
    ("covers.qcover_witness.self_s", "s", "lower"),
    ("generate.random_pspace.self_s", "s", "lower"),
    ("generate.topology_closure.self_s", "s", "lower"),
    ("generate.random_pspace.levels", "count", "lower"),
    ("trace.untraced_ops_per_s", "1/s", "higher"),
    ("trace.traced_ops_per_s", "1/s", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


class Tracer:
    """In-memory span store; ``op`` tags new spans with the current op id."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = -1

    def wrap(self, fn, name: str):
        count = COUNTERS.get(name)

        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            self.spans.append(None)
            self.stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[index] = (name, start, end, parent, self.op)
            if count is not None:
                for key, value in count(args, result).items():
                    self.counts[f"{name}.{key}"] += value
            return result

        return traced

    @contextmanager
    def patched(self):
        """Route the names in :data:`PATCHED` through span-recording wrappers."""
        saved = []
        try:
            for module_name, attr, span in PATCHED:
                module = importlib.import_module(module_name)
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self.wrap(getattr(module, attr), span))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self) -> dict[str, float]:
        """Per span name, summed duration minus the time of direct children.

        Pair scans under a ``levels`` or ``maps`` span are summed under
        ``core.verify_pairwise.nested`` instead.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent, _) in enumerate(spans):
            key = name
            if name == "core.verify_pairwise" and self._under(i, NESTING_LAYERS):
                key = "core.verify_pairwise.nested"
            out[key] += end - start - child_time[i]
        return out

    def _under(self, index: int, prefixes: tuple[str, ...]) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0].startswith(prefixes):
                return True
            parent = self.spans[parent][3]
        return False

    def layer_metrics(self, cycles: int) -> dict[str, float]:
        """Self times (``*.self_s``, ``*.nested_s``) and counters per traced cycle."""
        values: dict[str, float] = {}
        for name, seconds in self.self_times().items():
            suffix = "_s" if name.endswith(".nested") else ".self_s"
            values[name + suffix] = seconds / cycles
        calls = sum(1 for span in self.spans if span[0] == "core.as_pspace")
        values["core.as_pspace.calls"] = calls / cycles
        for key, total in self.counts.items():
            values[key] = total / cycles
        return values
