"""In-memory spans recorded by the benchmark around calls into the program.

A span has a name, start and end (``time.perf_counter`` seconds), the id of
the span that caused it and a trace id shared by every span of one
operation.  Spans are kept in a list and written out once, when the run
ends.  A disabled tracer hands out a no-op context, so the untraced run
pays one attribute check per span site.

Self time is a span's duration minus the part of its interval that its
children cover (the union of the child intervals, so overlapping children
on other threads are not counted twice).
"""

from __future__ import annotations

import contextvars
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

_current: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=None)


@dataclass
class Span:
    span_id: int
    trace_id: int
    parent_id: int | None
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder; ``enabled=False`` records nothing."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = bool(enabled)
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        # Time spent inside the tracer's own bookkeeping, the direct part of
        # the tracing overhead.
        self.bookkeeping_s = 0.0

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield None
            return
        begin = time.perf_counter()
        parent = _current.get()
        with self._lock:
            span_id = next(self._ids)
        record = Span(
            span_id=span_id,
            trace_id=parent.trace_id if parent is not None else span_id,
            parent_id=parent.span_id if parent is not None else None,
            name=name,
            start=0.0,
            attrs=dict(attrs),
        )
        token = _current.set(record)
        record.start = time.perf_counter()
        self.bookkeeping_s += record.start - begin
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            _current.reset(token)
            self.spans.append(record)
            self.bookkeeping_s += time.perf_counter() - record.end

    def self_times(self) -> dict[int, float]:
        """Self time of every recorded span, keyed by span id."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent_id is not None:
                children.setdefault(span.parent_id, []).append(span)
        result = {}
        for span in self.spans:
            covered = 0.0
            cursor = span.start
            for child in sorted(children.get(span.span_id, []), key=lambda s: s.start):
                lo, hi = max(child.start, cursor), min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            result[span.span_id] = span.duration - covered
        return result

    def self_time_by_name(self, root_name: str) -> tuple[list[float], dict[str, list[float]]]:
        """Per-root durations and, per span name, self time summed per root.

        Returns ``(root_durations, {name: [self seconds per root, ...]})``
        over every trace whose root span is named ``root_name``; a name that
        is absent from one trace contributes 0 for it.
        """
        selfs = self.self_times()
        roots = [s for s in self.spans if s.name == root_name and s.parent_id is None]
        by_trace: dict[int, dict[str, float]] = {root.trace_id: {} for root in roots}
        for span in self.spans:
            if span.trace_id in by_trace:
                bucket = by_trace[span.trace_id]
                bucket[span.name] = bucket.get(span.name, 0.0) + selfs[span.span_id]
        names = sorted({name for bucket in by_trace.values() for name in bucket})
        per_name = {
            name: [by_trace[root.trace_id].get(name, 0.0) for root in roots]
            for name in names
        }
        return [root.duration for root in roots], per_name

    def write(self, path: Path) -> None:
        """Write every span as one JSON line (times relative to the first)."""
        if not self.enabled:
            return
        origin = min((s.start for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s.start):
                handle.write(json.dumps({
                    "span_id": span.span_id,
                    "trace_id": span.trace_id,
                    "parent_id": span.parent_id,
                    "name": span.name,
                    "start_s": round(span.start - origin, 6),
                    "end_s": round(span.end - origin, 6),
                    "attrs": span.attrs,
                }, default=str) + "\n")
