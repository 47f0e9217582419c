"""Task caches (paper §2.3: "a local cache C with an entry per vertex").

Peregrine+ associates set-operation results with pattern vertices and
reuses previous entries to compute new ones; Contigra additionally
shares caches between fused/promoted tasks (paper §5).  We realize
both with a single :class:`SetOperationCache` class: entries are
keyed by the *semantic identity* of the set operation (which data
vertices' adjacency lists were intersected), so any task computing the
same operation — the same ETask deeper in its tree, a fused VTask
after permutation, or a promoted ETask — hits the same entry.

A cache is scoped to one (pattern size, root) of a constraint-aware
run: every same-size pattern's ETask at that root, and the VTasks fused
with them, share it — Peregrine+'s multi-pattern reuse (PAPER.md
§8.1) — and it is dropped when the root is done.
(:class:`~repro.mining.engine.MiningEngine` gives each rooted task its
own.)  Either way it is short-lived, so it is a plain ``dict`` under a
fixed bound: at :data:`MAX_ENTRIES` the oldest-inserted entry makes
room.  No recency order is kept — on the ledger's workloads a cache
peaks far below the bound and never evicts, so there is nothing to
order.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Optional

from ..exec.events import CACHE_HIT, CACHE_MISS, EventBus
from .stats import MiningStats

#: Entries one cache holds before the oldest-inserted one is dropped.
MAX_ENTRIES = 200_000

#: Sampling interval for cache events: one ``cache_hit`` /
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
        "_entries", "stats", "enabled",
        "_bus", "_hits_pending", "_misses_pending",
    )

    def __init__(
        self,
        stats: Optional[MiningStats] = None,
        enabled: bool = True,
        bus: Optional[EventBus] = None,
    ) -> None:
        """``bus`` opts the cache into sampled ``cache_hit`` /
        ``cache_miss`` events: every :data:`CACHE_EVENT_SAMPLE`-th hit
        (miss) emits one event with ``count`` set to the interval.
        Whether the bus is observed is read here, once: a cache on an
        unobserved bus keeps no bus at all and pays one ``None`` check
        per lookup."""
        self._entries: Dict[CacheKey, Any] = {}
        self.stats = stats if stats is not None else MiningStats()
        self.enabled = enabled
        self._bus = bus if bus is not None and bus.observed else None
        self._hits_pending = 0
        self._misses_pending = 0

    def __len__(self) -> int:
        return len(self._entries)

    def _count_miss(self) -> None:
        self.stats.cache_misses += 1
        if self._bus is not None:
            self._misses_pending += 1
            if self._misses_pending >= CACHE_EVENT_SAMPLE:
                self._bus.emit(CACHE_MISS, count=self._misses_pending)
                self._misses_pending = 0

    def lookup(self, key: CacheKey) -> Optional[Any]:
        """Cached candidates for ``key``, counting a hit or miss."""
        if not self.enabled:
            self._count_miss()
            return None
        value = self._entries.get(key)
        if value is None:
            self._count_miss()
            return None
        self.stats.cache_hits += 1
        if self._bus is not None:
            self._hits_pending += 1
            if self._hits_pending >= CACHE_EVENT_SAMPLE:
                self._bus.emit(CACHE_HIT, count=self._hits_pending)
                self._hits_pending = 0
        return value

    def store(self, key: CacheKey, value: Any) -> None:
        """Insert a computed candidate pool, dropping the oldest-inserted
        entry at the bound."""
        if not self.enabled:
            return
        if len(self._entries) >= MAX_ENTRIES:
            del self._entries[next(iter(self._entries))]
        self._entries[key] = value

    def clear(self) -> None:
        self._entries.clear()
