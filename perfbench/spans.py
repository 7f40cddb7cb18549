"""In-memory spans recorded around the benchmark's calls into the package.

A span has a name, an optional kind (score kind or structure family), a
start, an end and a parent. Spans are kept in a list while the run goes and
written out when it ends. A span with no parent is a root: one op, one eval
pass, one set-up repetition or one probe repetition. Per-layer times are the
median, over roots, of each span name's total duration inside one root.
"""
from __future__ import annotations

import statistics
import time
from contextlib import contextmanager, nullcontext

_NULL = nullcontext()

# when a span name occurs under several root names, its per-layer time comes
# from the first root name listed here that contains it
ROOT_PRIORITY = ("op", "eval", "probe", "setup")


class Tracer:
    """Span recorder; when disabled, span() costs one attribute test."""

    def __init__(self, source: str, enabled: bool = True):
        self.source = source
        self.enabled = enabled
        self.origin = time.perf_counter()
        self.spans: list[list] = []  # [name, kind, start, end, parent, root]
        self._stack: list[int] = []

    def span(self, name: str, kind: str | None = None):
        return self._record(name, kind) if self.enabled else _NULL

    @contextmanager
    def _record(self, name, kind):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        root = idx if parent is None else self.spans[parent][5]
        rec = [name, kind, time.perf_counter(), None, parent, root]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name: duration minus its children's."""
        child = [0.0] * len(self.spans)
        for name, kind, t0, t1, parent, root in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out: dict[str, float] = {}
        for (name, kind, t0, t1, _, _), c in zip(self.spans, child):
            key = name if kind is None else f"{name}.{kind}"
            out[key] = out.get(key, 0.0) + (t1 - t0) - c
        return out

    def median_ms(self) -> dict[str, float]:
        """Per-layer metric name -> median per-root total, in ms."""
        totals: dict[tuple, dict[int, float]] = {}
        for name, kind, t0, t1, parent, root in self.spans:
            if parent is None:
                continue
            root_name = self.spans[root][0]
            per_root = totals.setdefault((name, kind, root_name), {})
            per_root[root] = per_root.get(root, 0.0) + (t1 - t0)
        out: dict[str, float] = {}
        for root_name in reversed(ROOT_PRIORITY):  # higher priority overwrites
            for (name, kind, rn), per_root in totals.items():
                if rn == root_name:
                    metric = f"{name}_ms" if kind is None else f"{name}_ms.{kind}"
                    out[metric] = 1e3 * statistics.median(per_root.values())
        return out

    def to_json(self) -> list[dict]:
        return [{"source": self.source, "name": name, "kind": kind,
                 "start_s": t0 - self.origin, "end_s": t1 - self.origin, "parent": parent}
                for name, kind, t0, t1, parent, _ in self.spans]
