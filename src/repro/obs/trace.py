"""Span tracing over the execution event bus.

The :class:`SpanTracer` is a bus subscriber
(:meth:`repro.exec.events.EventBus.subscribe`) that folds the
``phase_start`` / ``phase_end`` event stream into nested **spans** with
monotonic timings, and attaches every other event to the span that was
open when it fired (lifecycle events as per-span counts).

Tracks
------
Spans nest per *track* (:func:`track_key`).  Live events land on a
track derived from the emitting thread (``WorkQueueScheduler``
workers interleave their phase events on one shared bus; per-thread
tracks keep their stacks apart); events replayed from a process
shard carry the replay's ``track`` label
(``shard-0``, ``shard-1``, …), so each worker's timeline stays a
self-consistent tree even though the replay happens sequentially at
merge time.

Exports
-------
:meth:`SpanTracer.to_chrome` renders the span forest in the Chrome
``trace_event`` JSON format (load it at ``chrome://tracing`` or
https://ui.perfetto.dev); the ``repro trace`` subcommand prints a
written file as an indented tree for terminals.
"""

from __future__ import annotations

import json
import threading
from typing import Any, Dict, Iterator, List, Optional

from ..exec.events import PHASE_END, PHASE_START, EventBus

__all__ = ["Span", "SpanTracer", "track_key"]


class Span:
    """One closed or open phase interval.

    ``start`` / ``end`` are ``time.monotonic()`` values (worker-side
    monotonic values rebased onto the parent timeline for replayed
    shards); ``end`` is None while the span is open.  ``events`` counts
    the non-phase events that fired while this span was innermost.
    """

    __slots__ = ("name", "track", "start", "end", "payload", "children", "events")

    def __init__(
        self,
        name: str,
        track: str,
        start: float,
        payload: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.name = name
        self.track = track
        self.start = start
        self.end: Optional[float] = None
        self.payload: Dict[str, Any] = dict(payload or {})
        self.children: List["Span"] = []
        self.events: Dict[str, int] = {}

    @property
    def duration(self) -> float:
        """Span length in seconds (0.0 while still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def count_event(self, event: str, count: int = 1) -> None:
        self.events[event] = self.events.get(event, 0) + count

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, preorder."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:
        state = "open" if self.end is None else f"{self.duration * 1e3:.2f}ms"
        return f"Span({self.name!r}, track={self.track!r}, {state})"


class SpanTracer:
    """Turns bus events into a span forest, one tree stack per track.

    Attach with :meth:`attach`; call :meth:`finalize` after the run to
    close any spans left open by an abnormal exit, then export.

    The tracer is an ordinary subscriber: it sees replayed shard
    events with their original (rebased) timestamps and their shard
    ``track`` label, so cross-process traces are complete and correctly
    timed without any scheduler-specific code here.
    """

    def __init__(self, process_name: str = "repro") -> None:
        self.process_name = process_name
        self.roots: List[Span] = []
        self._stacks: Dict[str, List[Span]] = {}
        self._orphans: Dict[str, int] = {}
        self._first_ts: Optional[float] = None
        self._last_ts: Optional[float] = None
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Bus plumbing
    # ------------------------------------------------------------------

    def attach(self, bus: EventBus) -> "SpanTracer":
        bus.subscribe(self.on_event)
        return self

    def on_event(
        self,
        event: str,
        timestamp: float,
        payload: Dict[str, Any],
        track: Optional[str],
    ) -> None:
        """Subscriber entry point (see ``repro.exec.events.Handler``)."""
        with self._lock:
            if self._first_ts is None or timestamp < self._first_ts:
                self._first_ts = timestamp
            if self._last_ts is None or timestamp > self._last_ts:
                self._last_ts = timestamp
            key = track_key(track)
            stack = self._stacks.setdefault(key, [])
            if event == PHASE_START:
                name = str(payload.get("phase", "?"))
                extra = {k: v for k, v in payload.items() if k != "phase"}
                span = Span(name, key, timestamp, extra)
                if stack:
                    stack[-1].children.append(span)
                else:
                    self.roots.append(span)
                stack.append(span)
            elif event == PHASE_END:
                name = str(payload.get("phase", "?"))
                if not stack:
                    return  # unmatched end: dropped, not fatal
                # Close up to and including the innermost span with the
                # right name — a handler that missed an inner end event
                # must not corrupt every enclosing span.
                while stack:
                    span = stack.pop()
                    span.end = timestamp
                    if span.name == name:
                        break
            else:
                count = payload.get("count", 1)
                amount = count if isinstance(count, int) else 1
                if stack:
                    stack[-1].count_event(event, amount)
                else:
                    self._orphans[event] = (
                        self._orphans.get(event, 0) + amount
                    )

    def finalize(self) -> "SpanTracer":
        """Close every span still open (abnormal exits, live peeks)."""
        with self._lock:
            last = self._last_ts
            for stack in self._stacks.values():
                while stack:
                    span = stack.pop()
                    if span.end is None:
                        span.end = last if last is not None else span.start
        return self

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------

    @property
    def observed_window(self) -> float:
        """Seconds between the first and last observed event."""
        if self._first_ts is None or self._last_ts is None:
            return 0.0
        return self._last_ts - self._first_ts

    @property
    def orphan_events(self) -> Dict[str, int]:
        """Events that fired with no phase open on their track."""
        return dict(self._orphans)

    def all_spans(self) -> List[Span]:
        """Every span, preorder per root."""
        spans: List[Span] = []
        for root in self.roots:
            spans.extend(root.walk())
        return spans

    def event_totals(self) -> Dict[str, int]:
        """Non-phase event counts summed over all spans (plus orphans)."""
        totals = dict(self._orphans)
        for span in self.all_spans():
            for event, count in span.events.items():
                totals[event] = totals.get(event, 0) + count
        return totals

    def coverage(self) -> float:
        """Fraction of the observed window covered by root spans.

        The acceptance property for the tracer: the union of root-span
        intervals must cover (nearly) the whole window between the
        first and last event, i.e. the tracer does not lose measurable
        time between or outside phases.
        """
        window = self.observed_window
        if window <= 0.0:
            return 1.0
        intervals = sorted(
            (root.start, root.end if root.end is not None else root.start)
            for root in self.roots
        )
        covered = 0.0
        cursor: Optional[float] = None
        for start, end in intervals:
            if cursor is None or start > cursor:
                covered += end - start
                cursor = end
            elif end > cursor:
                covered += end - cursor
                cursor = end
        return min(1.0, covered / window)

    # ------------------------------------------------------------------
    # Exports
    # ------------------------------------------------------------------

    def to_chrome(self) -> Dict[str, Any]:
        """The span forest as a Chrome ``trace_event`` JSON object.

        Spans become ``"X"`` (complete) events with microsecond ``ts``
        / ``dur`` on one ``tid`` per track; per-span event counts ride
        in ``args``.  The object serializes with ``json.dump`` as-is.
        """
        base = self._first_ts if self._first_ts is not None else 0.0
        tracks = sorted({span.track for span in self.all_spans()})
        tids = {track: i + 1 for i, track in enumerate(tracks)}
        trace_events: List[Dict[str, Any]] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": 1,
                "tid": 0,
                "args": {"name": self.process_name},
            }
        ]
        for track in tracks:
            trace_events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 1,
                    "tid": tids[track],
                    "args": {"name": track},
                }
            )
        for span in self.all_spans():
            end = span.end if span.end is not None else span.start
            args: Dict[str, Any] = dict(span.payload)
            if span.events:
                args["events"] = dict(span.events)
            trace_events.append(
                {
                    "name": span.name,
                    "cat": "phase",
                    "ph": "X",
                    "ts": (span.start - base) * 1e6,
                    "dur": (end - span.start) * 1e6,
                    "pid": 1,
                    "tid": tids[span.track],
                    "args": args,
                }
            )
        return {"traceEvents": trace_events, "displayTimeUnit": "ms"}

    def write_chrome(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_chrome(), fh)


_MAIN_THREAD_ID = threading.main_thread().ident


def track_key(track: Optional[str]) -> str:
    """The track an event's phase stack lives on: the replay label, or
    for a live event (``track=None``) the emitting thread."""
    if track is not None:
        return track
    ident = threading.get_ident()
    if ident == _MAIN_THREAD_ID:
        return "main"
    return f"thread-{ident}"
