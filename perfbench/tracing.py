"""In-memory span recorder for the traced run.

Spans are recorded from the benchmark's own files around calls into
the program's public functions; the program itself is not instrumented.
A span is (name, start, end, parent, trace id); spans of one crawl job
share a trace id, and ``write`` dumps them with their self times when
the run ends.
"""

from __future__ import annotations

import itertools
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    trace_id: str
    attrs: Dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._stack: List[Span] = []

    @contextmanager
    def span(self, name: str, trace_id: str = None, **attrs):
        """Time the enclosed block as a child of the innermost open span."""
        parent = self._stack[-1] if self._stack else None
        tid = trace_id or (parent.trace_id if parent else name)
        s = Span(next(self._ids), name, time.perf_counter(), 0.0,
                 parent.span_id if parent else None, tid, dict(attrs))
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            self.spans.append(s)

    def add(self, name: str, start: float, end: float, parent: Span,
            **attrs) -> Span:
        """Record a span whose times were measured elsewhere (the
        per-round phases ``run_crawl`` reports)."""
        s = Span(next(self._ids), name, start, end, parent.span_id,
                 parent.trace_id, dict(attrs))
        self.spans.append(s)
        return s

    def self_time(self, span: Span) -> float:
        """Duration minus the union of the intervals its children cover."""
        kids = sorted((c.start, c.end) for c in self.spans
                      if c.parent == span.span_id)
        covered, cur_s, cur_e = 0.0, None, None
        for s, e in kids:
            s, e = max(s, span.start), min(e, span.end)
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        return span.duration - covered

    def write(self, path) -> None:
        rows = [dict(asdict(s), self_s=self.self_time(s))
                for s in sorted(self.spans, key=lambda s: s.start)]
        with open(path, "w") as f:
            json.dump(rows, f)
