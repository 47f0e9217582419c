"""Task caches (paper §2.3: "a local cache C with an entry per vertex").

Peregrine+ associates set-operation results with pattern vertices and
reuses previous entries to compute new ones; Contigra additionally
shares caches between fused/promoted tasks (paper §5).  We realize
both with a single engine-level :class:`SetOperationCache`: entries are
keyed by the *semantic identity* of the set operation (which data
vertices' adjacency lists were intersected), so any task computing the
same operation — the same ETask deeper in its tree, a fused VTask
after permutation, or a promoted ETask — hits the same entry.

The cache is bounded with true LRU eviction: hits refresh recency
(``move_to_end``), so hot intersection keys — the small anchor sets
every deep step re-derives — survive streams of one-shot entries.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable, Optional

from ..exec.events import CACHE_HIT, CACHE_MISS, EventBus
from .stats import MiningStats

#: Default sampling interval for cache events: one ``cache_hit`` /
#: ``cache_miss`` event per this many occurrences (with ``count`` set
#: to the interval), so tracing a run does not emit one bus event per
#: set operation.  Counters in :class:`MiningStats` stay exact either
#: way; the events are the coarse observability feed.
CACHE_EVENT_SAMPLE = 64

#: Semantic identity of one set operation.  The legacy frozenset-path
#: key is the frozenset of intersected data vertices; kernel-path keys
#: add the label restriction and kernel form (see
#: :mod:`repro.mining.candidates`).
CacheKey = Hashable


class SetOperationCache:
    """Bounded cache of adjacency-intersection results.

    Keys identify the set operation semantically (which data vertices'
    adjacency lists were intersected, plus any in-kernel label
    restriction); values are candidate pools in the producing path's
    form — frozensets on the legacy path, sorted tuples or big-int
    bitmasks on the kernel paths — always *before* symmetry /
    injectivity filtering, which is caller-local.
    """

    __slots__ = (
        "_entries", "_max_entries", "stats", "enabled",
        "_bus", "_event_sample", "_hits_pending", "_misses_pending",
        "graph_version",
    )

    def __init__(
        self,
        max_entries: int = 200_000,
        stats: Optional[MiningStats] = None,
        enabled: bool = True,
        bus: Optional[EventBus] = None,
        event_sample: int = CACHE_EVENT_SAMPLE,
        graph_version: Optional[str] = None,
    ) -> None:
        """``bus`` opts the cache into sampled ``cache_hit`` /
        ``cache_miss`` events: every ``event_sample``-th hit (miss)
        emits one event with ``count=event_sample``, gated on the bus
        actually having subscribers — unobserved runs pay one ``None``
        check per lookup.

        ``graph_version`` binds every entry to one graph content
        version (``Graph.version_key``).  Semantic keys stay
        version-free on the hot path; instead the *cache* is bound,
        and :meth:`rebind` must be called before serving a different
        version — it drops all entries (reported as derived-cache
        invalidations), so stale pools can never leak across graph
        versions."""
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        if event_sample < 1:
            raise ValueError("event_sample must be positive")
        self._entries: "OrderedDict[CacheKey, Any]" = OrderedDict()
        self._max_entries = max_entries
        self.stats = stats if stats is not None else MiningStats()
        self.enabled = enabled
        self._bus = bus
        self._event_sample = event_sample
        self._hits_pending = 0
        self._misses_pending = 0
        self.graph_version = graph_version

    def rebind(self, graph_version: Optional[str]) -> int:
        """Bind the cache to ``graph_version``, evicting stale entries.

        Returns the number of entries dropped (0 when the version is
        unchanged).  Drops are folded into the process-global
        derived-cache invalidation counters, so run records and the
        mutation-equivalence suite can prove stale pools were evicted
        rather than coincidentally unused.
        """
        if graph_version == self.graph_version:
            return 0
        dropped = len(self._entries)
        self._entries.clear()
        self.graph_version = graph_version
        if dropped:
            from ..graph.store import derived_cache

            derived_cache().note_invalidations(dropped)
        return dropped

    def __len__(self) -> int:
        return len(self._entries)

    def _count_miss(self) -> None:
        self.stats.cache_misses += 1
        if self._bus is not None:
            self._misses_pending += 1
            if self._misses_pending >= self._event_sample and (
                self._bus.has_subscribers(CACHE_MISS)
            ):
                self._bus.emit(CACHE_MISS, count=self._misses_pending)
                self._misses_pending = 0

    def lookup(self, key: CacheKey) -> Optional[Any]:
        """Cached candidates for ``key``, counting a hit or miss.

        A hit refreshes the entry's recency so repeatedly-reused
        intersections outlive one-shot ones under eviction pressure.
        """
        if not self.enabled:
            self._count_miss()
            return None
        value = self._entries.get(key)
        if value is None:
            self._count_miss()
            return None
        self._entries.move_to_end(key)
        self.stats.cache_hits += 1
        if self._bus is not None:
            self._hits_pending += 1
            if self._hits_pending >= self._event_sample and (
                self._bus.has_subscribers(CACHE_HIT)
            ):
                self._bus.emit(CACHE_HIT, count=self._hits_pending)
                self._hits_pending = 0
        return value

    def store(self, key: CacheKey, value: Any) -> None:
        """Insert a computed candidate pool, evicting LRU when full."""
        if not self.enabled:
            return
        if len(self._entries) >= self._max_entries:
            self._entries.popitem(last=False)
        self._entries[key] = value

    def clear(self) -> None:
        self._entries.clear()

