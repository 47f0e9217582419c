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

A cache counts on its stats and emits no events.  Generated step
programs probe :attr:`SetOperationCache.get`, count a call's hits and
misses in locals, and add them to the stats at the end of the call; an
observed run gets them then, as exact counts
(:meth:`~repro.exec.context.TaskContext.report_steps`).
:meth:`SetOperationCache.lookup` is the counting probe for everything
else.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Optional

from .stats import MiningStats

#: Entries one cache holds before the oldest-inserted one is dropped.
MAX_ENTRIES = 200_000

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

    A disabled cache stores nothing, so every probe of it misses.
    """

    __slots__ = ("_entries", "get", "stats", "enabled")

    def __init__(
        self, stats: Optional[MiningStats] = None, enabled: bool = True
    ) -> None:
        self._entries: Dict[CacheKey, Any] = {}
        #: The entries' ``dict.get``: a probe that counts nothing.
        #: Generated step programs probe through it and count their own
        #: hits and misses (:mod:`repro.patterns.codegen`).
        self.get = self._entries.get
        self.stats = stats if stats is not None else MiningStats()
        self.enabled = enabled

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: CacheKey) -> Optional[Any]:
        """Cached candidates for ``key``, counting a hit or miss."""
        value = self._entries.get(key)
        if value is None:
            self.stats.cache_misses += 1
        else:
            self.stats.cache_hits += 1
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
