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
``cache_hit``       set-operation cache hits, one per step-program
                    call, exact (payload: count)
``cache_miss``      set-operation cache misses, one per step-program
                    call, exact (payload: count)
``kernel_intersect``  candidate pools computed, one per step-program
                    call, exact (payload: count)
``shard_retry``     a failed shard is re-dispatched (payload: shard,
                    attempt, delay, error, roots)
``shard_failed``    a shard exhausted its retries or failed terminally
                    (payload: shard, attempt, error, roots)
``run_degraded``    a run merged under ``on_failure="degrade"``
                    (payload: unprocessed, failures)
``phase_start``     a runtime phase opened (payload: phase, ...)
``phase_end``       a runtime phase closed (payload: phase)
==================  ==================================================

Phases are nested: ``phase_start``/``phase_end`` pairs delimit the
``run`` → ``shard`` → ``pattern`` → ``align`` → ``bridge`` hierarchy
the :class:`repro.obs.SpanTracer` turns into span trees.

One gate decides whether anything is emitted: :attr:`EventBus.observed`
— whether the bus has any subscriber at all.  Emitters read it once
per session / task / cache and skip their ``emit`` calls when it is
false, so an unobserved run makes none; with any subscriber attached
every event is published to every subscriber.  Handler exceptions are
isolated — a raising subscriber is logged and skipped so it cannot
abort the mining hot path (construct the bus with ``strict=True`` to
re-raise instead, which tests do).

Cross-process completeness: an :class:`EventRecorder` captures every
event (with monotonic timestamps) on a shard worker's bus; the
serialized record travels back over the process boundary and
:func:`replay_events` delivers it into the parent bus at merge time,
through the same loop as a live emit, preserving the original relative
timings.
"""

from __future__ import annotations

import logging
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

logger = logging.getLogger(__name__)

#: Handlers receive ``(event, timestamp, payload, track)`` where
#: ``timestamp`` is ``time.monotonic()`` at emission (or the original
#: worker-side time for replayed events) and ``track`` is ``None`` for
#: live events and a shard label during replay.
Handler = Callable[[str, float, Dict[str, Any], Optional[str]], None]

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
)

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
    It is a plain attribute, set under the lock by :meth:`subscribe`,
    so reading it costs nothing on the hot path.

    Thread safety: subscriptions are serialized by a lock and applied
    copy-on-write — each one installs a *new* handler tuple, never
    edits one in place.  Delivery therefore iterates an immutable
    snapshot without taking the lock: a subscriber added concurrently
    with an emit (work-queue scheduler threads, a handler subscribing
    another) can neither corrupt that emit nor make it skip or repeat
    a handler; it hears the next emit.
    """

    __slots__ = ("_handlers", "_lock", "strict", "observed")

    def __init__(self, strict: bool = False) -> None:
        self._handlers: Tuple[Handler, ...] = ()
        self._lock = threading.Lock()
        self.strict = strict
        self.observed = False

    def subscribe(self, handler: Handler) -> None:
        """Register ``handler`` for every event.

        Replayed events keep their original (rebased) timestamps,
        which is what makes shard-worker span timings survive the
        process boundary.
        """
        with self._lock:
            self._handlers = self._handlers + (handler,)
            self.observed = True

    def emit(self, event: str, **payload: Any) -> None:
        """Publish one live event to all subscribers, in subscription
        order, stamped now on no track."""
        self._deliver(event, time.monotonic(), payload, None)

    def _deliver(
        self,
        event: str,
        timestamp: float,
        payload: Dict[str, Any],
        track: Optional[str],
    ) -> None:
        """The one delivery loop, for live and replayed events alike.

        A raising handler is isolated (logged and skipped) so the
        remaining handlers still run; under ``strict=True`` the first
        failure propagates instead.
        """
        for handler in self._handlers:
            try:
                handler(event, timestamp, payload, track)
            except Exception:
                if self.strict:
                    raise
                logger.exception(
                    "event handler %r failed for %r (skipped)",
                    handler, event,
                )


class EventLog:
    """Recording subscriber: keeps ``(event, payload)`` tuples.

    A test helper, not meant for hot production paths.  Appends are single
    bytecode ops, so concurrent workers sharing one log through the
    run's bus cannot corrupt it (each emit builds a fresh payload dict,
    so records never alias mutable state across events).
    """

    def __init__(self, bus: EventBus) -> None:
        self.records: List[Tuple[str, Dict[str, Any]]] = []
        bus.subscribe(self._on_event)

    def _on_event(
        self,
        event: str,
        timestamp: float,
        payload: Dict[str, Any],
        track: Optional[str],
    ) -> None:
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
    """Subscriber that captures a serializable event summary.

    Shard workers attach one to their bus; :meth:`serialize` produces a
    picklable list of ``(event, t_rel, payload)`` records whose
    timestamps are relative to the recorder's creation, so the parent
    can rebase them onto its own timeline at replay.
    """

    def __init__(self, bus: EventBus) -> None:
        self.base = time.monotonic()
        self.records: List[RecordedEvent] = []
        bus.subscribe(self._on_event)

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
    """Deliver a worker's recorded events into ``bus``.

    ``base`` anchors the worker's relative timestamps on the parent
    timeline (typically the instant the shard was dispatched; defaults
    to now).  ``track`` labels the replay — span tracers open a
    separate track per shard so concurrent shard timelines do not
    interleave.  Returns the number of events replayed, so merge sites
    can assert zero loss.
    """
    anchor = base if base is not None else time.monotonic()
    for event, t_rel, payload in summary:
        bus._deliver(event, anchor + t_rel, payload, track)
    return len(summary)
