"""Benchmark-side span recorder.

Spans are recorded from the benchmark's own files, around calls into
each layer's public functions; nothing inside ``src/`` is touched.
Every span carries a name, start, end, the id of the span that caused
it, and the iteration/request id it belongs to.  Spans stay in memory
until :func:`write_chrome` writes them out once, at the end.

A disabled tracer (the untraced end-to-end run) hands out a shared
no-op context manager, so the measured code path is the same shape in
both runs and the difference between them is the tracing overhead.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional


class Span:
    __slots__ = ("id", "parent", "name", "op", "tid", "start", "end", "args")

    def __init__(
        self,
        span_id: int,
        parent: Optional[int],
        name: str,
        op: Optional[str],
        tid: int,
        start: float,
        args: Dict[str, Any],
    ) -> None:
        self.id = span_id
        self.parent = parent
        self.name = name
        self.op = op
        self.tid = tid
        self.start = start
        self.end = start
        self.args = args

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; thread-aware (one stack per thread)."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self._origin = time.perf_counter()
        self._lock = threading.Lock()
        self._next_id = 0
        self._local = threading.local()

    @contextmanager
    def span(
        self, name: str, op: Optional[str] = None, **args: Any
    ) -> Iterator[Optional[Span]]:
        """Record one span; ``op`` names the iteration or request it
        belongs to (inherited from the enclosing span when omitted)."""
        if not self.enabled:
            yield None
            return
        stack: List[Span] = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        span = Span(
            span_id,
            parent.id if parent is not None else None,
            name,
            op if op is not None else (parent.op if parent else None),
            threading.get_ident(),
            time.perf_counter(),
            args,
        )
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)

    def chrome_events(self, pid: int = 1) -> List[Dict[str, Any]]:
        tids = {tid: i for i, tid in enumerate(
            sorted({s.tid for s in self.spans})
        )}
        events = []
        for span in sorted(self.spans, key=lambda s: s.start):
            args = dict(span.args)
            args["id"] = span.id
            if span.parent is not None:
                args["parent"] = span.parent
            if span.op is not None:
                args["op"] = span.op
            events.append(
                {
                    "name": span.name,
                    "ph": "X",
                    "ts": (span.start - self._origin) * 1e6,
                    "dur": span.seconds * 1e6,
                    "pid": pid,
                    "tid": tids[span.tid],
                    "args": args,
                }
            )
        return events


def write_chrome(path: str, events: List[Dict[str, Any]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
