"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps module-level names of the package from outside: each call
of a wrapped name becomes a span (id, name, parent id, start, end). A span's
self time is its duration minus the durations of its wrapped children.

A coverage run makes millions of leaf calls (Beta draws, multinomial
tables), so leaf spans are not kept one by one: each is folded into
per-(parent name, name) totals. Every span with wrapped children, and every
root span, is kept in memory until `dump` writes them out.
"""

from __future__ import annotations

import itertools
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


@contextmanager
def _patched(targets):
    """Temporarily replace ``(module, attribute, value)`` targets."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in targets]
    try:
        for module, attr, value in targets:
            setattr(module, attr, value)
        yield
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)


class Tracer:
    """Records spans around wrapped calls and aggregates them per name."""

    def __init__(self):
        # name -> [calls, total seconds, self seconds, calls without wrapped children]
        self.stats = defaultdict(lambda: [0, 0.0, 0.0, 0])
        # name -> parent name -> [calls, total seconds]
        self._edges_to = defaultdict(dict)
        self.spans = []
        self._stack = []
        self._ids = itertools.count(1)

    def call(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        return self.wrap(name, fn)(*args, **kwargs)

    def wrap(self, name, fn):
        """``fn`` recording a span called ``name`` around each call."""
        # Bound once per wrapper: the leaf calls are hot.
        stack, spans, ids = self._stack, self.spans, self._ids
        stat = self.stats[name]
        by_parent = self._edges_to[name]

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [next(ids), name, 0.0, 0]  # id, name, child seconds, child count
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[2]
                if not frame[3]:
                    stat[3] += 1
                if parent is None:
                    spans.append((frame[0], name, 0, start, end))
                else:
                    if frame[3]:
                        spans.append((frame[0], name, parent[0], start, end))
                    parent[2] += duration
                    parent[3] += 1
                    edge = by_parent.get(parent[1])
                    if edge is None:
                        edge = by_parent[parent[1]] = [0, 0.0]
                    edge[0] += 1
                    edge[1] += duration

        traced.__wrapped__ = fn
        return traced

    def installed(self, targets):
        """Context that wraps each ``(module, attribute, span name)`` target."""
        return _patched([(module, attr, self.wrap(name, getattr(module, attr)))
                        for module, attr, name in targets])

    def calls(self, name) -> int:
        return self.stats[name][0] if name in self.stats else 0

    def self_s(self, name) -> float:
        return self.stats[name][2] if name in self.stats else 0.0

    def childless(self, name) -> int:
        return self.stats[name][3] if name in self.stats else 0

    def edge_calls(self, parent, name) -> int:
        """Calls of ``name`` made directly from spans called ``parent``."""
        edge = self._edges_to.get(name, {}).get(parent)
        return edge[0] if edge else 0

    def dump(self, path, meta) -> None:
        """Write the kept spans, the folded leaf totals and ``meta`` as JSON."""
        doc = {
            "meta": meta,
            "span_fields": ["id", "name", "parent", "start_s", "end_s"],
            "spans": self.spans,
            "edges": [[parent, name, calls, total]
                      for name, by_parent in sorted(self._edges_to.items())
                      for parent, (calls, total) in sorted(by_parent.items())],
            "stats": {name: dict(zip(("calls", "total_s", "self_s", "childless"), values))
                      for name, values in sorted(self.stats.items())},
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
