"""Instrumentation event bus for the execution core.

Engines publish task-lifecycle events to an :class:`EventBus` for
whoever watches a run: the :mod:`repro.obs` tracing and metrics sinks,
an :class:`EventLog`, a shard's :class:`EventRecorder`.  Subscribers
attach without the engines knowing about them.  The bus carries
observers' events only — counters are plain integer adds on the stats
object at the place the counted thing happens (as the paper's tasks
keep their own, §8.1), so a run nobody watches publishes nothing.

Event vocabulary (the ``on_*`` hooks of the execution model):

==================  ==================================================
``task_start``      an ETask/engine run begins (payload: kind, root)
``task_complete``   a run or root-task finished
``match``           a match was accepted as valid
``match_checked``   a match entered constraint validation
``vtask_spawn``     a VTask began validating one constraint target
``vtask_match``     a VTask found a containing match
``cancel``          work was canceled (payload: kind, count)
``promote``         a VTask match was promoted to task processing
``cache_hit``       set-operation cache hits (sampled; payload: count)
``cache_miss``      set-operation cache misses (sampled; payload: count)
``kernel_intersect``  a candidate set operation ran (payload: count)
``shard_retry``     a failed shard is re-dispatched (payload: shard,
                    attempt, delay, error, roots)
``shard_failed``    a shard exhausted its retries or failed terminally
                    (payload: shard, attempt, error, roots)
``run_degraded``    a run merged under ``on_failure="degrade"``
                    (payload: unprocessed, failures)
``phase_start``     a runtime phase opened (payload: phase, ...)
``phase_end``       a runtime phase closed (payload: phase)
``match_added``     a standing query gained a match after a mutation
                    batch (payload: subscription, pattern, vertices)
``match_retracted`` a standing query lost a match after a mutation
                    batch (payload: subscription, pattern, vertices)
``delta``           one delta pass for one subscription finished
                    (payload: subscription, added, retracted,
                    frontier, revalidated, mode, elapsed)
==================  ==================================================

Phases are nested: ``phase_start``/``phase_end`` pairs delimit the
``run`` → ``shard`` → ``pattern`` → ``align`` → ``bridge`` hierarchy
the :class:`repro.obs.SpanTracer` turns into span trees.

One gate decides whether anything is emitted: :attr:`EventBus.observed`
— whether the bus has any subscriber at all.  Emitters read it once
per session / task / cache and skip their ``emit`` calls when it is
false, so an unobserved run makes none; with any subscriber attached
every event is published, and a subscriber to a single event receives
it.  Handler exceptions are isolated — a raising subscriber is logged
and skipped so it cannot abort the mining hot path (construct the bus
with ``strict=True`` to re-raise instead, which tests do).

Cross-process completeness: an :class:`EventRecorder` captures every
event (with monotonic timestamps) on a shard worker's bus; the
serialized record travels back over the process boundary and
:func:`replay_events` re-emits it into the parent bus at merge time,
preserving the original relative timings for timed subscribers.
"""

from __future__ import annotations

import logging
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

logger = logging.getLogger(__name__)

Handler = Callable[..., None]
#: Timed handlers receive ``(event, timestamp, payload, track)`` where
#: ``timestamp`` is ``time.monotonic()`` at emission (or the original
#: worker-side time for replayed events) and ``track`` is ``None`` for
#: live events and a shard label during replay.
TimedHandler = Callable[[str, float, Dict[str, Any], Optional[str]], None]

TASK_START = "task_start"
TASK_COMPLETE = "task_complete"
MATCH = "match"
MATCH_CHECKED = "match_checked"
VTASK_SPAWN = "vtask_spawn"
VTASK_MATCH = "vtask_match"
CANCEL = "cancel"
PROMOTE = "promote"
CACHE_HIT = "cache_hit"
CACHE_MISS = "cache_miss"
KERNEL_INTERSECT = "kernel_intersect"
SHARD_RETRY = "shard_retry"
SHARD_FAILED = "shard_failed"
RUN_DEGRADED = "run_degraded"
PHASE_START = "phase_start"
PHASE_END = "phase_end"
MATCH_ADDED = "match_added"
MATCH_RETRACTED = "match_retracted"
DELTA = "delta"

EVENTS = (
    TASK_START,
    TASK_COMPLETE,
    MATCH,
    MATCH_CHECKED,
    VTASK_SPAWN,
    VTASK_MATCH,
    CANCEL,
    PROMOTE,
    CACHE_HIT,
    CACHE_MISS,
    KERNEL_INTERSECT,
    SHARD_RETRY,
    SHARD_FAILED,
    RUN_DEGRADED,
    PHASE_START,
    PHASE_END,
    MATCH_ADDED,
    MATCH_RETRACTED,
    DELTA,
)

#: Incremental (standing-query) events only fire on subscription delta
#: passes — single-run completeness checks exclude them, the
#: incremental suite covers them.
INCREMENTAL_EVENTS = (MATCH_ADDED, MATCH_RETRACTED, DELTA)

#: Resilience events only fire on faulted runs (retries, exhausted
#: shards, degraded merges) — clean-run completeness checks exclude
#: them, the chaos suite covers them.
RESILIENCE_EVENTS = (SHARD_RETRY, SHARD_FAILED, RUN_DEGRADED)

#: The well-known phase names (`payload["phase"]` of phase events).
PHASE_RUN = "run"
PHASE_SHARD = "shard"
PHASE_PATTERN = "pattern"
PHASE_ALIGN = "align"
PHASE_BRIDGE = "bridge"
PHASE_RETRY = "retry"

#: The lifecycle subset used by completeness properties: these events
#: must survive every scheduler boundary with identical multisets.
LIFECYCLE_EVENTS = (
    TASK_START,
    TASK_COMPLETE,
    MATCH,
    MATCH_CHECKED,
    VTASK_SPAWN,
    VTASK_MATCH,
    CANCEL,
    PROMOTE,
)


class EventBus:
    """Synchronous publish/subscribe hub for execution events.

    Parameters
    ----------
    strict:
        When True, subscriber exceptions propagate to the emitter
        (useful in tests); the default logs and continues so one bad
        handler cannot starve the others or abort a mining run.

    ``observed`` is whether any subscriber is attached — the one gate
    emitters test (once per session / task / cache) before publishing.
    It is a plain attribute, rewritten under the lock by every
    subscription change, so reading it costs nothing on the hot path.

    Thread safety: subscription changes are serialized by a lock and
    applied copy-on-write — every mutation installs a *new* handler
    list, never edits one in place.  :meth:`emit` therefore iterates
    an immutable snapshot without taking the lock: a subscriber added,
    removed, or self-removing concurrently with an emit (work-queue
    scheduler threads, concurrent daemon runs) can neither be skipped
    nor double-delivered within that emit, and the hot path stays a
    dict lookup plus a truthiness test.
    """

    __slots__ = ("_handlers", "_timed", "_lock", "strict", "observed")

    def __init__(self, strict: bool = False) -> None:
        self._handlers: Dict[str, Tuple[Handler, ...]] = {}
        self._timed: Tuple[TimedHandler, ...] = ()
        self._lock = threading.Lock()
        self.strict = strict
        self.observed = False

    def _refresh_observed(self) -> None:
        """Recompute :attr:`observed`; callers hold the lock."""
        self.observed = bool(self._timed) or any(self._handlers.values())

    def subscribe(self, event: str, handler: Handler) -> None:
        """Register ``handler`` for ``event`` (called on every emit)."""
        if event not in EVENTS:
            raise ValueError(f"unknown execution event {event!r}")
        with self._lock:
            self._handlers[event] = self._handlers.get(event, ()) + (
                handler,
            )
            self.observed = True

    def subscribe_all(self, handler: Handler) -> None:
        """Register ``handler`` for every event; it receives
        ``(event, **payload)``.  Relative order against other
        subscriptions is preserved per event."""
        with self._lock:
            for event in EVENTS:
                self._handlers[event] = self._handlers.get(event, ()) + (
                    _BoundEvent(event, handler),
                )
            self.observed = True

    def subscribe_timed(self, handler: TimedHandler) -> None:
        """Register a timestamp-aware handler for every event.

        Timed handlers receive ``(event, timestamp, payload, track)``;
        replayed events keep their original (rebased) timestamps, which
        is what makes shard-worker span timings survive the process
        boundary.
        """
        with self._lock:
            self._timed = self._timed + (handler,)
            self.observed = True

    def unsubscribe(self, event: str, handler: Handler) -> bool:
        """Remove one registration of ``handler`` from ``event``.

        Safe to call from inside a handler during an emit (the
        in-flight emit still completes over its snapshot; the next
        emit sees the updated list).  Returns whether a registration
        was removed.  ``subscribe_all`` registrations are matched by
        their wrapped handler too.
        """
        with self._lock:
            handlers = self._handlers.get(event, ())
            for index, existing in enumerate(handlers):
                # ``==`` (not ``is``): bound methods are fresh objects
                # on every attribute access but compare equal.
                if existing == handler or (
                    isinstance(existing, _BoundEvent)
                    and existing._handler == handler
                ):
                    self._handlers[event] = (
                        handlers[:index] + handlers[index + 1:]
                    )
                    self._refresh_observed()
                    return True
            return False

    def unsubscribe_all(self, handler: Handler) -> int:
        """Remove every registration of ``handler`` (plain and
        ``subscribe_all``-wrapped) from every event; returns how many
        registrations were removed."""
        removed = 0
        with self._lock:
            for event, handlers in list(self._handlers.items()):
                kept = tuple(
                    existing
                    for existing in handlers
                    if existing != handler
                    and not (
                        isinstance(existing, _BoundEvent)
                        and existing._handler == handler
                    )
                )
                removed += len(handlers) - len(kept)
                self._handlers[event] = kept
            self._refresh_observed()
        return removed

    def unsubscribe_timed(self, handler: TimedHandler) -> bool:
        """Remove one registration of a timed ``handler``."""
        with self._lock:
            for index, existing in enumerate(self._timed):
                if existing == handler:
                    self._timed = (
                        self._timed[:index] + self._timed[index + 1:]
                    )
                    self._refresh_observed()
                    return True
            return False

    def emit(self, event: str, **payload: Any) -> None:
        """Publish one event to all subscribers, in subscription order.

        A raising handler is isolated (logged and skipped) so the
        remaining handlers still run; under ``strict=True`` the first
        failure propagates instead.
        """
        handlers = self._handlers.get(event)
        if handlers:
            for handler in handlers:
                try:
                    handler(**payload)
                except Exception:
                    if self.strict:
                        raise
                    logger.exception(
                        "event handler %r failed for %r (skipped)",
                        handler, event,
                    )
        if self._timed:
            now = time.monotonic()
            for timed in self._timed:
                try:
                    timed(event, now, payload, None)
                except Exception:
                    if self.strict:
                        raise
                    logger.exception(
                        "timed event handler %r failed for %r (skipped)",
                        timed, event,
                    )

    def emit_replayed(
        self,
        event: str,
        timestamp: float,
        payload: Dict[str, Any],
        track: Optional[str] = None,
    ) -> None:
        """Deliver a recorded event with its original timestamp.

        Regular handlers see it exactly like a live emit; timed
        handlers receive the recorded ``timestamp`` (rebased by the
        caller) and the replay ``track`` label so span tracers can keep
        shard timelines apart.
        """
        handlers = self._handlers.get(event)
        if handlers:
            for handler in handlers:
                try:
                    handler(**payload)
                except Exception:
                    if self.strict:
                        raise
                    logger.exception(
                        "event handler %r failed for %r (skipped)",
                        handler, event,
                    )
        for timed in self._timed:
            try:
                timed(event, timestamp, payload, track)
            except Exception:
                if self.strict:
                    raise
                logger.exception(
                    "timed event handler %r failed for %r (skipped)",
                    timed, event,
                )


class _BoundEvent:
    """Adapter giving ``subscribe_all`` handlers the event name."""

    __slots__ = ("_event", "_handler")

    def __init__(
        self, event: str, handler: Callable[..., None]
    ) -> None:
        self._event = event
        self._handler = handler

    def __call__(self, **payload: Any) -> None:
        self._handler(self._event, **payload)


class EventLog:
    """Recording subscriber: keeps ``(event, payload)`` tuples.

    Useful in tests and for the CLI's machine-readable counter
    snapshots; not meant for hot production paths.  Appends are single
    bytecode ops, so concurrent workers sharing one log through the
    run's bus cannot corrupt it (each emit builds a fresh payload dict,
    so records never alias mutable state across events).
    """

    def __init__(self, bus: Optional[EventBus] = None) -> None:
        self.records: List[Any] = []
        if bus is not None:
            bus.subscribe_all(self.record)

    def record(self, event: str, **payload: Any) -> None:
        self.records.append((event, payload))

    def count(self, event: str) -> int:
        return sum(1 for name, _ in self.records if name == event)

    def multiset(self, events: Tuple[str, ...] = LIFECYCLE_EVENTS) -> Dict[str, int]:
        """Event-name counts restricted to ``events`` (completeness checks)."""
        counts: Dict[str, int] = {}
        for name, _ in self.records:
            if name in events:
                counts[name] = counts.get(name, 0) + 1
        return counts


#: One recorded event: ``(event, relative_timestamp, payload)``.
RecordedEvent = Tuple[str, float, Dict[str, Any]]


class EventRecorder:
    """Timed subscriber that captures a serializable event summary.

    Shard workers attach one to their bus; :meth:`serialize` produces a
    picklable list of ``(event, t_rel, payload)`` records whose
    timestamps are relative to the recorder's creation, so the parent
    can rebase them onto its own timeline at replay.
    """

    def __init__(self, bus: Optional[EventBus] = None) -> None:
        self.base = time.monotonic()
        self.records: List[RecordedEvent] = []
        if bus is not None:
            bus.subscribe_timed(self._on_event)

    def attach(self, bus: EventBus) -> "EventRecorder":
        bus.subscribe_timed(self._on_event)
        return self

    def _on_event(
        self,
        event: str,
        timestamp: float,
        payload: Dict[str, Any],
        track: Optional[str],
    ) -> None:
        self.records.append((event, timestamp - self.base, dict(payload)))

    def serialize(self) -> List[RecordedEvent]:
        """The picklable cross-process summary (relative timestamps)."""
        return list(self.records)


def replay_events(
    bus: EventBus,
    summary: List[RecordedEvent],
    base: Optional[float] = None,
    track: Optional[str] = None,
) -> int:
    """Re-emit a worker's recorded events into ``bus``.

    ``base`` anchors the worker's relative timestamps on the parent
    timeline (typically the instant the shard was dispatched; defaults
    to now).  ``track`` labels the replay for timed subscribers — span
    tracers open a separate track per shard so concurrent shard
    timelines do not interleave.  Returns the number of events
    replayed, so merge sites can assert zero loss.
    """
    anchor = base if base is not None else time.monotonic()
    for event, t_rel, payload in summary:
        bus.emit_replayed(event, anchor + t_rel, payload, track)
    return len(summary)
