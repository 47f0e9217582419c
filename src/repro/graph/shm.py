"""Zero-copy shared-memory graph segments for process-shard workers.

``ProcessShardScheduler`` used to ship the whole data graph to every
worker inside every shard payload: ``Graph.__reduce__`` serializes the
full adjacency, so an ``n``-worker run paid ``n`` pickles, ``n``
transfers, and ``n`` unpickles of O(V + E) data before a single
candidate was computed (PR 7 only de-duplicated derived-artifact
*rebuilds* after arrival).  This module removes the transfer itself:

* :func:`publish_graph` materializes a graph's CSR arrays (header,
  offsets, flat neighbor array, labels) into **one**
  ``multiprocessing.shared_memory`` segment, keyed by the graph's
  content :attr:`~repro.graph.graph.Graph.fingerprint`.
* While a graph is published, ``Graph.__reduce__`` ships only
  ``(name, fingerprint, segment)`` — O(1) bytes regardless of graph
  size (regression-tested in ``tests/test_graph_store.py``).
* Unpickling goes through :func:`attach_graph`, which resolves via the
  process-global :class:`~repro.graph.store.DerivedCache` under the
  graph's content version: many shards landing in one worker attach to
  the segment **once**, and the attached CSR views are handed straight
  to :class:`~repro.graph.index.GraphIndex` (the ``csr=`` constructor
  path), so the kernel layer reads the segment's memory in place.

Lifecycle and crash safety
--------------------------

Segments are owned by the publishing process (the PID is recorded at
publish time).  Four reclamation paths cover every exit mode:

* leased — runs acquire segments through :func:`acquire_graph` /
  :func:`release_graph`; the segment is refcounted per active run and
  unlinked when the last run referencing its fingerprint finishes.
  This is what keeps a long-lived daemon from accumulating one
  segment per query until process death;
* explicit — :func:`unpublish_graph` / :func:`unpublish_all`
  (explicit :func:`publish_graph` calls *pin* the segment: it is
  never auto-reclaimed by a lease release, only by these);
* normal exit — an ``atexit`` hook runs :func:`unpublish_all` in the
  owner;
* failed runs — the process scheduler calls
  :meth:`SharedGraphManager.reclaim_unleased` when a run ends with
  dead shards, so a chaos-killed worker (``os._exit`` skips all
  child-side cleanup) cannot leak segments: the *parent* reclaims
  every segment no live run leases, and spares the ones a concurrent
  run still holds (covered in ``tests/test_chaos.py``).

Only the owner PID ever unlinks: forked workers inherit the publish
registry, and their (inherited) ``atexit`` hooks must not destroy
segments the parent is still serving.  Worker-side attaches are
deliberately unregistered from ``multiprocessing.resource_tracker``
(bpo-38119: until Python 3.13 every attach re-registers the segment,
and the tracker would unlink it when any attaching process exits and
spam leak warnings at shutdown); ownership is tracked here instead.
"""

from __future__ import annotations

import atexit
import os
import threading
from array import array
from multiprocessing import shared_memory
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from .graph import Graph
from .store import derived_cache, format_version_key

if TYPE_CHECKING:  # pragma: no cover - import-time only
    from ..obs.metrics import MetricsRegistry

__all__ = [
    "SharedGraphManager",
    "acquire_graph",
    "attach_graph",
    "publish_graph",
    "published_segment",
    "publish_shared_graph_metrics",
    "release_graph",
    "shared_graphs",
    "shm_counters",
    "unpublish_all",
    "unpublish_graph",
]

#: Segment header words (all int64): vertex count, edge count, flat
#: neighbor-array length, labeled flag.
_HEADER_WORDS = 4
_WORD = 8


class _PublishedSegment:
    """Owner-side record of one published graph segment.

    ``leases`` counts the active runs holding the segment through
    :meth:`SharedGraphManager.acquire`; ``pinned`` marks segments
    published explicitly (outside any run), which only an explicit
    unpublish (or the exit hooks) may reclaim.
    """

    __slots__ = ("fingerprint", "segment", "owner_pid", "leases", "pinned", "_shm")

    def __init__(
        self,
        fingerprint: str,
        shm: shared_memory.SharedMemory,
        pinned: bool = True,
    ) -> None:
        self.fingerprint = fingerprint
        self.segment = shm.name
        self.owner_pid = os.getpid()
        self.leases = 0
        self.pinned = pinned
        self._shm = shm


class _AttachedSegment:
    """Reader-side record: the segment plus its live CSR views.

    Views are released (innermost first) before the segment is closed,
    so interpreter shutdown never trips over exported buffers.
    """

    __slots__ = ("segment", "graph", "_shm", "_views")

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        views: List[memoryview],
        graph: Graph,
    ) -> None:
        self.segment = shm.name
        self.graph = graph
        self._shm = shm
        self._views = views

    def release(self) -> None:
        for view in reversed(self._views):
            try:
                view.release()
            except Exception:  # pragma: no cover - already released
                pass
        self._views = []
        try:
            self._shm.close()
        except Exception:  # pragma: no cover - shutdown races
            pass


class SharedGraphManager:
    """Create/attach/close/unlink lifecycle for shared graph segments.

    One process-global instance (:func:`shared_graphs`) backs the
    module-level helpers; separate instances exist for tests.  All
    operations are idempotent per fingerprint, and counters
    (``publishes`` / ``attaches`` / ``unlinks`` / ``releases``) are
    per-process cumulative — :func:`publish_shared_graph_metrics`
    mirrors them into the metrics registry.

    Run-scoped lifetimes go through :meth:`acquire` / :meth:`release`:
    each concurrent run holds one lease on its graph's fingerprint and
    the segment is unlinked when the last lease drops (unless the
    segment was also published explicitly, which pins it).  Publish
    bookkeeping is lock-protected so concurrent daemon runs sharing
    one graph cannot double-publish or unlink a segment another run
    still references.
    """

    def __init__(self) -> None:
        self._published: Dict[str, _PublishedSegment] = {}
        self._attached: Dict[str, _AttachedSegment] = {}
        self._lock = threading.RLock()
        self.counters: Dict[str, int] = {
            "publishes": 0,
            "attaches": 0,
            "unlinks": 0,
            "releases": 0,
        }

    # -- publishing (owner side) ----------------------------------------

    def publish(self, graph: Graph, pinned: bool = True) -> str:
        """Materialize ``graph`` into a segment; returns its name.

        Idempotent: re-publishing content that is already live returns
        the existing segment.  While published, pickling any
        same-content graph ships the O(1) segment reference instead of
        the adjacency.  ``pinned`` (the default for explicit publishes)
        exempts the segment from lease-driven reclamation; re-publishing
        a leased segment explicitly upgrades it to pinned.
        """
        with self._lock:
            return self._publish_locked(graph, pinned)

    def _publish_locked(self, graph: Graph, pinned: bool) -> str:
        fingerprint = graph.fingerprint
        existing = self._published.get(fingerprint)
        if existing is not None:
            if pinned:
                existing.pinned = True
            return existing.segment
        n = graph.num_vertices
        labeled = graph.is_labeled
        data = array("q", [n, graph.num_edges, 0, 1 if labeled else 0])
        offsets = array("q", [0])
        flat = array("q")
        for v in graph.vertices():
            flat.extend(graph.neighbors(v))
            offsets.append(len(flat))
        data[2] = len(flat)
        data.extend(offsets)
        data.extend(flat)
        if labeled:
            data.extend(graph.label(v) for v in graph.vertices())
        raw = data.tobytes()
        shm = shared_memory.SharedMemory(create=True, size=max(len(raw), 1))
        shm.buf[: len(raw)] = raw
        self._published[fingerprint] = _PublishedSegment(
            fingerprint, shm, pinned
        )
        self.counters["publishes"] += 1
        return shm.name

    def acquire(self, graph: Graph) -> str:
        """Take one run-scoped lease on ``graph``'s segment.

        Publishes the segment if it is not live yet (unpinned: it
        belongs to the runs referencing it) and increments its lease
        count; returns the fingerprint to :meth:`release` when the run
        finishes.
        """
        with self._lock:
            fingerprint = graph.fingerprint
            self._publish_locked(graph, pinned=False)
            self._published[fingerprint].leases += 1
            return fingerprint

    def release(self, fingerprint: str) -> bool:
        """Drop one lease; unlink when the last lease of an unpinned
        segment goes.  Returns whether the segment was reclaimed."""
        with self._lock:
            entry = self._published.get(fingerprint)
            if entry is None:
                return False
            if entry.leases > 0:
                entry.leases -= 1
            self.counters["releases"] += 1
            if entry.leases == 0 and not entry.pinned:
                return self.unpublish(fingerprint)
            return False

    def lease_count(self, fingerprint: str) -> int:
        """Active run leases on ``fingerprint`` (0 if unpublished)."""
        with self._lock:
            entry = self._published.get(fingerprint)
            return entry.leases if entry is not None else 0

    def published_segment(self, fingerprint: str) -> Optional[str]:
        """The live segment name for ``fingerprint``, if published."""
        entry = self._published.get(fingerprint)
        return entry.segment if entry is not None else None

    def unpublish(self, fingerprint: str) -> bool:
        """Close and unlink one published segment (owner only).

        Non-owner processes (forked workers inheriting the registry)
        drop their record and close their mapping but never unlink —
        the parent still serves the segment.
        """
        with self._lock:
            entry = self._published.pop(fingerprint, None)
        if entry is None:
            return False
        try:
            entry._shm.close()
        except Exception:  # pragma: no cover - shutdown races
            pass
        if entry.owner_pid == os.getpid():
            try:
                entry._shm.unlink()
                self.counters["unlinks"] += 1
                return True
            except FileNotFoundError:  # pragma: no cover - already gone
                return False
        return False

    def unpublish_all(self) -> int:
        """Reclaim every published segment this process owns."""
        count = 0
        for fingerprint in list(self._published):
            if self.unpublish(fingerprint):
                count += 1
        return count

    def reclaim_unleased(self) -> int:
        """Reclaim every owned segment no live run leases (called when
        a process-scheduler run ends with dead shards): a failed run
        must not unlink a segment a concurrent run still holds.  The
        failed run's own segment goes when its lease is released, like
        any other run's."""
        with self._lock:
            idle = [
                fingerprint
                for fingerprint, entry in self._published.items()
                if entry.leases == 0
            ]
        return sum(self.unpublish(fingerprint) for fingerprint in idle)

    # -- attaching (reader side) ----------------------------------------

    def attach(self, name: str, fingerprint: str, segment: str) -> Graph:
        """A :class:`Graph` attached to a published segment.

        Resolved through the :class:`DerivedCache` under the graph's
        content version: the first shard of a graph landing in a
        worker performs the real attach (one O(E) adjacency-row
        materialization, zero-copy CSR views for the kernel layer);
        every later shard of the same content reuses it.
        """
        version_key = format_version_key(name, fingerprint)
        graph: Graph = derived_cache().get_or_build(
            version_key,
            ("shm_graph", segment),
            lambda: self._attach_now(name, fingerprint, segment),
        )
        return graph

    def _attach_now(self, name: str, fingerprint: str, segment: str) -> Graph:
        # Idempotent per segment, independent of the cache key above:
        # attaching the same segment under a second alias must not open
        # a second mapping (the replaced record's views would still be
        # exported when its SharedMemory gets collected).
        existing = self._attached.get(segment)
        if existing is not None:
            return existing.graph
        try:
            shm = shared_memory.SharedMemory(name=segment)
        except FileNotFoundError:
            raise RuntimeError(
                f"shared graph segment {segment!r} for {name or 'graph'}"
                f"@{fingerprint[:12]} is gone — it was unlinked before "
                "this worker attached (publish lifetimes must cover "
                "every dispatch that references them)"
            ) from None
        if fingerprint not in self._published:
            # Attaching to someone else's segment: drop the resource
            # tracker's attach-side registration (see _untrack).  When
            # *this* process published the segment (self-unpickle, or a
            # forked worker inheriting the registry and the parent's
            # tracker), the create-side registration must stay — unlink
            # consumes it.
            _untrack(shm)
        full = memoryview(shm.buf).cast("q")
        views = [full]
        n = full[0]
        num_edges = full[1]
        flat_len = full[2]
        labeled = bool(full[3])
        base = _HEADER_WORDS
        offsets = full[base : base + n + 1]
        flat = full[base + n + 1 : base + n + 1 + flat_len]
        views.extend((offsets, flat))
        labels: Optional[Tuple[int, ...]] = None
        if labeled:
            label_view = full[
                base + n + 1 + flat_len : base + n + 1 + flat_len + n
            ]
            labels = tuple(label_view)
            label_view.release()
        graph = Graph.__new__(Graph)
        graph._adj = tuple(
            tuple(flat[offsets[v] : offsets[v + 1]]) for v in range(n)
        )
        graph._labels = labels
        graph._num_edges = num_edges
        graph._name = name
        graph._init_derived_handles()
        graph._fingerprint = fingerprint
        graph._shared_csr = (offsets, flat)
        self._attached[segment] = _AttachedSegment(shm, views, graph)
        self.counters["attaches"] += 1
        return graph

    def release_attachments(self) -> None:
        """Close every attached segment (views first; shutdown hook)."""
        for entry in self._attached.values():
            entry.release()
        self._attached.clear()


def _untrack(shm: shared_memory.SharedMemory) -> None:
    """Unregister an *attached* segment from the resource tracker.

    Until Python 3.13 (bpo-38119) every ``SharedMemory`` attach
    re-registers the segment, so the tracker unlinks it when the
    attaching process family exits and prints leak warnings for
    segments the owner already reclaimed.  Ownership is tracked by
    :class:`SharedGraphManager` instead.
    """
    try:  # pragma: no cover - depends on tracker implementation details
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")  # type: ignore[attr-defined]
    except Exception:  # pragma: no cover - tracker absent or renamed
        pass


# ----------------------------------------------------------------------
# Process-global default manager + module-level API
# ----------------------------------------------------------------------

_MANAGER = SharedGraphManager()


def shared_graphs() -> SharedGraphManager:
    """The process-global shared-graph manager."""
    return _MANAGER


def publish_graph(graph: Graph) -> str:
    """Publish ``graph`` to shared memory, pinned (see :meth:`publish`)."""
    return _MANAGER.publish(graph)


def acquire_graph(graph: Graph) -> str:
    """Take one run-scoped lease on ``graph``'s shared segment."""
    return _MANAGER.acquire(graph)


def release_graph(fingerprint: str) -> bool:
    """Drop one run lease; reclaims the segment when the last goes."""
    return _MANAGER.release(fingerprint)


def published_segment(fingerprint: str) -> Optional[str]:
    """Live segment name for ``fingerprint`` (None if unpublished)."""
    return _MANAGER.published_segment(fingerprint)


def unpublish_graph(fingerprint: str) -> bool:
    """Close and unlink one published segment (owner only)."""
    return _MANAGER.unpublish(fingerprint)


def unpublish_all() -> int:
    """Reclaim every published segment this process owns."""
    return _MANAGER.unpublish_all()


def attach_graph(name: str, fingerprint: str, segment: str) -> Graph:
    """Attach to a published graph segment (cache-deduplicated)."""
    return _MANAGER.attach(name, fingerprint, segment)


def shm_counters() -> Dict[str, int]:
    """Cumulative per-process publish/attach/unlink counters."""
    return dict(_MANAGER.counters)


def publish_shared_graph_metrics(registry: "MetricsRegistry") -> None:
    """Mirror the lifecycle counters into ``repro_shared_graph_*``.

    Exports ``repro_shared_graph_publish_total`` /
    ``repro_shared_graph_attach_total`` /
    ``repro_shared_graph_unlink_total`` /
    ``repro_shared_graph_release_total``.  Counters are monotone, so
    repeated publishing applies only the delta (same contract as
    :func:`repro.graph.store.publish_derived_cache_metrics`).  The
    attach counter is per-process: worker-side attaches show up in the
    worker's registry, not the parent's.
    """
    for key, metric in (
        ("publishes", "publish"),
        ("attaches", "attach"),
        ("unlinks", "unlink"),
        ("releases", "release"),
    ):
        series = registry.counter(
            f"repro_shared_graph_{metric}_total",
            help_text=f"Shared graph segment {key} in this process",
        )
        delta = float(_MANAGER.counters[key]) - series.value
        if delta > 0:
            series.inc(delta)


def _restore_shared_graph(name: str, fingerprint: str, segment: str) -> Graph:
    """Unpickle entry point for shared-memory graph references."""
    return attach_graph(name, fingerprint, segment)


def _cleanup() -> None:  # pragma: no cover - exercised at interpreter exit
    _MANAGER.release_attachments()
    _MANAGER.unpublish_all()


atexit.register(_cleanup)
