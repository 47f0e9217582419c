"""Versioned graph store: graph identity, snapshots, derived-artifact cache.

Graphs in this package are immutable values, but real deployments
mutate: edges arrive and depart, labels are reassigned, and every
derived artifact built from a snapshot — frozenset adjacency, kernel
indexes, label partitions, statistical summaries, set-operation cache
entries — must be scoped to exactly the snapshot it was derived from.
This module gives the system that identity and lifecycle:

* :func:`graph_fingerprint` — a content hash over the canonical
  adjacency and label arrays.  Two graphs share a fingerprint iff they
  are equal as labeled graphs; the old collision-prone
  ``name:Nv:Ne:Ll`` count signature survives only as a human-readable
  alias (:attr:`repro.graph.stats.GraphStats.size_signature`).
* :class:`DerivedCache` — the one version-keyed home for every derived
  artifact, behind ``get_or_build(graph_version, artifact_key,
  builder)``, with explicit invalidation and hit/miss/invalidation
  counters (exported as ``repro_derived_cache_{hits,misses,
  invalidations}`` metrics).  :class:`~repro.graph.graph.Graph`
  instances attach to their version's artifacts lazily, so two
  instances with equal content — e.g. the per-shard copies the
  process scheduler unpickles into one worker — share one kernel
  index instead of building one each.
* :class:`GraphStore` — a ``name -> [v1, v2, ...]`` registry of
  immutable snapshots.  :meth:`GraphStore.apply_batch` folds a
  :class:`MutationBatch` into the latest snapshot (structure-sharing
  untouched adjacency rows) and eagerly invalidates — frees —
  superseded versions' derived artifacts.

Two identities coexist by design.  The *registry coordinate*
``name@v3`` is a human handle into one store's mutation history; the
*content version* ``name@<fingerprint12>`` (``Graph.version_key``)
keys the :class:`DerivedCache` and run records, so artifact sharing
and invalidation are correct even for graphs that were never
registered anywhere.
"""

from __future__ import annotations

import hashlib
import logging
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    cast,
)

from .graph import Graph

if TYPE_CHECKING:  # pragma: no cover - import-time only
    from ..obs.metrics import MetricsRegistry

__all__ = [
    "DerivedCache",
    "GraphStore",
    "GraphVersion",
    "MutationBatch",
    "MutationListener",
    "apply_mutation",
    "derived_cache",
    "format_version_key",
    "graph_fingerprint",
    "graph_store",
    "publish_derived_cache_metrics",
    "reset_default_store",
]

logger = logging.getLogger(__name__)

_T = TypeVar("_T")

#: Mutation listeners receive ``(name, old, new, batch)`` after the new
#: snapshot is registered but before superseded artifacts are
#: invalidated (so they may still read derived state of ``old``).
MutationListener = Callable[
    [str, "GraphVersion", "GraphVersion", "MutationBatch"], None
]

#: Characters of the content hash shown in version keys and listings.
SHORT_FINGERPRINT_LEN = 12


def graph_fingerprint(
    adjacency: Sequence[Tuple[int, ...]],
    labels: Optional[Tuple[int, ...]],
) -> str:
    """Content hash (sha256 hex) of one canonical graph encoding.

    The encoding covers the full sorted adjacency structure and the
    label array, so any edge or label difference changes the hash;
    vertex count is implicit in the row structure.  Names are *not*
    hashed — identity of content is independent of what a dataset is
    called (the human name re-enters in :func:`format_version_key`).
    """
    hasher = hashlib.sha256()
    hasher.update(b"repro-graph-v1\x00")
    for neighbors in adjacency:
        hasher.update(b"\x01")
        for v in neighbors:
            hasher.update(str(v).encode("ascii"))
            hasher.update(b",")
    if labels is None:
        hasher.update(b"\x02U")
    else:
        hasher.update(b"\x02L")
        for lab in labels:
            hasher.update(str(lab).encode("ascii"))
            hasher.update(b",")
    return hasher.hexdigest()


def format_version_key(name: str, fingerprint: str) -> str:
    """Content version key ``name@<fp12>`` used by the derived cache."""
    return f"{name or 'graph'}@{fingerprint[:SHORT_FINGERPRINT_LEN]}"


# ----------------------------------------------------------------------
# DerivedCache
# ----------------------------------------------------------------------


class DerivedCache:
    """Version-keyed registry of derived artifacts.

    Artifacts live in per-version *scopes*, one plain dict per graph
    version owned by the cache.  A :class:`Graph` instance attaches
    to an artifact through ``get_or_build(..., attach=(graph, slot))``,
    so every instance of a version shares one object.  The protocol
    is deliberately small:

    * :meth:`get_or_build` — serve or build one artifact, counting a
      hit or miss (misses == builds, which is what the shard
      regression test counts).
    * :meth:`invalidate` — drop one artifact, one version's scope, or
      everything, counting every dropped entry as an invalidation.

    Scopes are bounded LRU over versions (``max_versions``); evicting
    a scope counts its entries as invalidations too.  Every scope is
    a graph version: facts about patterns alone are memoised where
    they are computed, not here.  Builders run
    outside the lock, so artifact builders may recursively use the
    cache; a racing duplicate build is benign (first store wins).

    Dropping frees: graphs memoize the artifacts they attach to, and a
    :class:`GraphStore` keeps every snapshot, so the cache tracks the
    attached instances of each version (weakly) and resets their
    references whenever it drops that version's artifacts — by
    :meth:`invalidate` or by LRU eviction alike.  An instance mined
    again afterwards re-attaches and rebuilds; a run already holding
    an artifact keeps its own reference until it ends.
    """

    def __init__(self, max_versions: int = 64) -> None:
        if max_versions < 1:
            raise ValueError("max_versions must be positive")
        self._scopes: "OrderedDict[str, Dict[Hashable, object]]" = (
            OrderedDict()
        )
        # version -> {id(graph): graph}, weak: who memoized references
        # into the scope (keyed by id because Graph hashes by content).
        self._holders: Dict[
            str, "weakref.WeakValueDictionary[int, Graph]"
        ] = {}
        self._max_versions = max_versions
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._invalidations = 0

    # -- core protocol --------------------------------------------------

    def get_or_build(
        self,
        graph_version: str,
        artifact_key: Hashable,
        builder: Callable[[], _T],
        attach: Optional[Tuple[Graph, str]] = None,
    ) -> _T:
        """Serve the artifact for ``(graph_version, artifact_key)``.

        On a miss, ``builder()`` runs (outside the lock) and its
        result is stored; a concurrent build of the same key keeps
        whichever value landed first, so all callers share one object.
        ``attach=(graph, slot)`` also memoizes the result in
        ``graph.<slot>`` and registers the graph as a holder, in one
        step under the lock — so a concurrent drop of the version
        either resets that reference or is over before it is written.
        """
        with self._lock:
            scope = self._scopes.get(graph_version)
            if scope is not None:
                self._scopes.move_to_end(graph_version)
                if artifact_key in scope:
                    self._hits += 1
                    return self._attach_locked(
                        graph_version, attach, cast(_T, scope[artifact_key])
                    )
            self._misses += 1
        value = builder()
        with self._lock:
            scope = self._scopes.get(graph_version)
            if scope is None:
                scope = {}
                self._scopes[graph_version] = scope
                self._evict_locked()
            value = cast(_T, scope.setdefault(artifact_key, value))
            return self._attach_locked(graph_version, attach, value)

    def peek(
        self, graph_version: str, artifact_key: Hashable
    ) -> Optional[object]:
        """The cached artifact, or ``None`` — without counters or LRU.

        A presence probe for consumers that fall back to a rebuild
        through a different path (e.g. the incremental registry's
        scratch re-mine): it must not inflate the hit/miss series the
        cache-warmth assertions read.
        """
        with self._lock:
            scope = self._scopes.get(graph_version)
            if scope is None:
                return None
            return scope.get(artifact_key)

    def invalidate(
        self,
        graph_version: Optional[str] = None,
        artifact_key: Optional[Hashable] = None,
    ) -> int:
        """Drop artifacts; returns how many entries were dropped.

        ``invalidate()`` clears everything; ``invalidate(version)``
        drops one version's scope; ``invalidate(version, key)`` drops
        one artifact.  Every dropped entry counts toward the
        invalidation counter.
        """
        with self._lock:
            if graph_version is None:
                dropped = sum(
                    self._drop_scope_locked(v) for v in list(self._scopes)
                )
            elif artifact_key is None:
                dropped = self._drop_scope_locked(graph_version)
            else:
                scope = self._scopes.get(graph_version)
                if scope is not None and artifact_key in scope:
                    del scope[artifact_key]
                    self._release_holders_locked(graph_version)
                    dropped = 1
                else:
                    dropped = 0
            self._invalidations += dropped
            return dropped

    # -- introspection --------------------------------------------------

    def counters(self) -> Dict[str, int]:
        """Cumulative ``{"hits", "misses", "invalidations"}`` counts."""
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "invalidations": self._invalidations,
            }

    def versions(self) -> List[str]:
        """Version keys currently holding artifacts (LRU order)."""
        with self._lock:
            return list(self._scopes)

    def artifact_count(self, graph_version: str) -> int:
        """Number of live artifacts under one version."""
        with self._lock:
            scope = self._scopes.get(graph_version)
            return len(scope) if scope else 0

    # -- internals ------------------------------------------------------

    def _attach_locked(
        self,
        graph_version: str,
        attach: Optional[Tuple[Graph, str]],
        value: _T,
    ) -> _T:
        if attach is not None:
            holder, slot = attach
            holders = self._holders.get(graph_version)
            if holders is None:
                holders = self._holders[graph_version] = (
                    weakref.WeakValueDictionary()
                )
            holders[id(holder)] = holder
            setattr(holder, slot, value)
        return value

    def _release_holders_locked(self, graph_version: str) -> None:
        """Reset every attached instance's references into one version."""
        holders = self._holders.pop(graph_version, None)
        if holders is not None:
            for holder in holders.values():
                holder._release_derived()

    def _drop_scope_locked(self, graph_version: str) -> int:
        """The one place a version's artifacts go away; returns how many."""
        self._release_holders_locked(graph_version)
        scope = self._scopes.pop(graph_version, None)
        return len(scope) if scope else 0

    def _evict_locked(self) -> None:
        while len(self._scopes) > self._max_versions:
            oldest = next(iter(self._scopes))
            self._invalidations += self._drop_scope_locked(oldest)


def publish_derived_cache_metrics(
    registry: "MetricsRegistry", cache: Optional[DerivedCache] = None
) -> None:
    """Mirror the cache counters into ``repro_derived_cache_*``.

    Counters are monotone, so publishing applies the delta since the
    registry last saw each series — safe to call repeatedly (e.g. at
    every metrics export point).
    """
    snapshot = (cache if cache is not None else derived_cache()).counters()
    for key, value in snapshot.items():
        series = registry.counter(
            f"repro_derived_cache_{key}",
            help_text=f"DerivedCache cumulative {key}",
        )
        delta = float(value) - series.value
        if delta > 0:
            series.inc(delta)


# ----------------------------------------------------------------------
# MutationBatch and structural mutation
# ----------------------------------------------------------------------


def _coerce_index(field: str, value: object) -> int:
    """One integer field of a batch, with a field-level error message.

    Accepts ints and integral floats (JSON numbers arrive as either);
    rejects bools, fractional floats, and everything else so malformed
    client payloads fail here — not as a ``TypeError`` deep inside
    :func:`apply_mutation`.
    """
    if isinstance(value, bool):
        raise ValueError(f"{field}: expected an integer, got {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        if value.is_integer():
            return int(value)
        raise ValueError(f"{field}: expected an integer, got {value!r}")
    raise ValueError(
        f"{field}: expected an integer, got {type(value).__name__} {value!r}"
    )


def _coerce_pairs(
    field: str, entries: Iterable[object]
) -> Tuple[Tuple[int, int], ...]:
    out: List[Tuple[int, int]] = []
    for i, entry in enumerate(entries):
        if isinstance(entry, (str, bytes)):
            raise ValueError(
                f"{field}[{i}]: expected a pair of integers, got {entry!r}"
            )
        try:
            first, second = entry  # type: ignore[misc]
        except (TypeError, ValueError):
            raise ValueError(
                f"{field}[{i}]: expected a pair of integers, got {entry!r}"
            ) from None
        out.append(
            (
                _coerce_index(f"{field}[{i}][0]", first),
                _coerce_index(f"{field}[{i}][1]", second),
            )
        )
    return tuple(out)


@dataclass(frozen=True)
class MutationBatch:
    """One batch of graph mutations, applied atomically.

    Edge sets use set semantics: adding an existing edge or removing
    an absent one is a no-op, so feeds may replay deltas idempotently.
    ``set_labels`` entries are ``(vertex, label)`` pairs; vertices
    appended via ``add_vertices`` default to label 0 on labeled
    graphs.  Self-loops are rejected (the substrate mines simple
    graphs only).
    """

    add_edges: Tuple[Tuple[int, int], ...] = ()
    remove_edges: Tuple[Tuple[int, int], ...] = ()
    set_labels: Tuple[Tuple[int, int], ...] = ()
    add_vertices: int = 0

    @classmethod
    def of(
        cls,
        add_edges: Iterable[Tuple[int, int]] = (),
        remove_edges: Iterable[Tuple[int, int]] = (),
        set_labels: Iterable[Tuple[int, int]] = (),
        add_vertices: int = 0,
    ) -> "MutationBatch":
        """Build a batch from any iterables (normalized to tuples).

        Every field is coerced and validated with a field-level
        ``ValueError`` — including ``add_vertices``, which used to be
        stored raw and let a float or string count from a parsed JSON
        payload explode deep inside :func:`apply_mutation`.
        """
        count = _coerce_index("add_vertices", add_vertices)
        if count < 0:
            raise ValueError(
                f"add_vertices: must be non-negative, got {count}"
            )
        return cls(
            add_edges=_coerce_pairs("add_edges", add_edges),
            remove_edges=_coerce_pairs("remove_edges", remove_edges),
            set_labels=_coerce_pairs("set_labels", set_labels),
            add_vertices=count,
        )

    @property
    def is_empty(self) -> bool:
        return not (
            self.add_edges
            or self.remove_edges
            or self.set_labels
            or self.add_vertices
        )


def apply_mutation(graph: Graph, batch: MutationBatch) -> Graph:
    """Pure function: ``graph`` with ``batch`` folded in.

    Only the adjacency rows of touched vertices are rebuilt; every
    untouched row is the *same tuple object* as in the source graph
    (the :class:`Graph` constructor preserves tuple identity), so a
    small batch over a large graph shares almost all of its structure
    with its parent snapshot.
    """
    if batch.add_vertices < 0:
        raise ValueError("add_vertices must be non-negative")
    old_n = graph.num_vertices
    n = old_n + batch.add_vertices
    adds: Dict[int, set] = {}
    removes: Dict[int, set] = {}
    for u, v in batch.add_edges:
        if u == v:
            raise ValueError(f"self-loop ({u}, {v}) not allowed")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        adds.setdefault(u, set()).add(v)
        adds.setdefault(v, set()).add(u)
    for u, v in batch.remove_edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        removes.setdefault(u, set()).add(v)
        removes.setdefault(v, set()).add(u)

    touched = set(adds) | set(removes)
    rows: List[Tuple[int, ...]] = list(graph.adjacency_rows())
    rows.extend(() for _ in range(batch.add_vertices))
    for v in touched:
        base = set(rows[v])
        base |= adds.get(v, set())
        base -= removes.get(v, set())
        rows[v] = tuple(sorted(base))

    labels: Optional[List[int]] = None
    if graph.labels is not None:
        labels = list(graph.labels)
        labels.extend(0 for _ in range(batch.add_vertices))
    elif batch.set_labels:
        raise ValueError("cannot set labels on an unlabeled graph")
    if labels is not None:
        for v, lab in batch.set_labels:
            if not (0 <= v < n):
                raise ValueError(f"label target {v} out of range for n={n}")
            labels[v] = lab

    return Graph(rows, labels=labels, name=graph.name)


# ----------------------------------------------------------------------
# GraphStore
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class GraphVersion:
    """One immutable snapshot in a store's mutation history."""

    name: str
    version: int
    graph: Graph
    fingerprint: str

    @property
    def ref(self) -> str:
        """Registry coordinate ``name@vN``."""
        return f"{self.name}@v{self.version}"

    @property
    def version_key(self) -> str:
        """Content version key (what the derived cache is keyed by)."""
        return self.graph.version_key

    def to_dict(self) -> Dict[str, object]:
        return {
            "ref": self.ref,
            "name": self.name,
            "version": self.version,
            "version_key": self.version_key,
            "fingerprint": self.fingerprint,
            "num_vertices": self.graph.num_vertices,
            "num_edges": self.graph.num_edges,
            "num_labels": self.graph.num_labels,
        }


class GraphStore:
    """Registry mapping ``name@version`` to immutable graph snapshots.

    Snapshots are cheap (structure-shared with their parents), so the
    store keeps the full version history; *derived artifacts* are the
    expensive part, so :meth:`apply_batch` eagerly invalidates the
    derived-cache scopes of every superseded version beyond
    ``derived_retain`` most-recent ones.  Invalidating frees: the
    cache resets the artifact references the kept snapshots memoized
    (see :class:`DerivedCache`), so the history costs adjacency rows,
    not one set of derived artifacts per mutation.  A superseded
    snapshot stays minable — its artifacts simply rebuild (and
    re-enter the cache) on demand.
    """

    def __init__(
        self,
        derived_retain: int = 1,
        cache: Optional[DerivedCache] = None,
    ) -> None:
        if derived_retain < 1:
            raise ValueError("derived_retain must be >= 1")
        self._versions: Dict[str, List[GraphVersion]] = {}
        self._retain = derived_retain
        self._cache = cache
        self._lock = threading.RLock()
        self._listeners: List[MutationListener] = []

    def _derived_cache(self) -> DerivedCache:
        return self._cache if self._cache is not None else derived_cache()

    # -- mutation listeners ---------------------------------------------

    def add_listener(self, listener: MutationListener) -> None:
        """Register a ``(name, old, new, batch)`` mutation callback.

        Listeners fire after the new snapshot is registered but
        *before* superseded derived artifacts are invalidated, so an
        incremental consumer (e.g. the standing-query registry) can
        still read cached state scoped to the old version.  Listener
        exceptions are logged and swallowed — a broken subscriber must
        not abort the mutation path.
        """
        with self._lock:
            self._listeners.append(listener)

    def remove_listener(self, listener: MutationListener) -> None:
        """Remove a previously-added listener (no-op if absent)."""
        with self._lock:
            try:
                self._listeners.remove(listener)
            except ValueError:
                pass

    def _live_version_keys(self) -> "set[str]":
        """Content keys inside any name's retained window (call locked)."""
        live: "set[str]" = set()
        for versions in self._versions.values():
            live.update(gv.version_key for gv in versions[-self._retain:])
        return live

    # -- registration and lookup ----------------------------------------

    def register(self, graph: Graph, name: Optional[str] = None) -> GraphVersion:
        """Register ``graph`` as the next version under ``name``.

        ``name`` defaults to the graph's own name (or ``"graph"``).
        Re-registering identical content as the latest version is a
        no-op returning the existing snapshot.
        """
        key = name if name is not None else (graph.name or "graph")
        if not key or "@" in key:
            raise ValueError(f"invalid store name {key!r}")
        with self._lock:
            versions = self._versions.setdefault(key, [])
            fingerprint = graph.fingerprint
            if versions and versions[-1].fingerprint == fingerprint:
                return versions[-1]
            entry = GraphVersion(key, len(versions) + 1, graph, fingerprint)
            versions.append(entry)
            return entry

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._versions)

    def versions(self, name: str) -> List[GraphVersion]:
        with self._lock:
            if name not in self._versions:
                raise KeyError(f"unknown graph {name!r}")
            return list(self._versions[name])

    def latest(self, name: str) -> GraphVersion:
        with self._lock:
            versions = self._versions.get(name)
            if not versions:
                raise KeyError(f"unknown graph {name!r}")
            return versions[-1]

    def get(self, name: str, version: Optional[int] = None) -> GraphVersion:
        with self._lock:
            versions = self._versions.get(name)
            if not versions:
                raise KeyError(f"unknown graph {name!r}")
            if version is None:
                return versions[-1]
            if not (1 <= version <= len(versions)):
                raise KeyError(
                    f"unknown version {name}@v{version} "
                    f"(have v1..v{len(versions)})"
                )
            return versions[version - 1]

    def resolve(self, spec: str) -> GraphVersion:
        """Resolve ``"name"``, ``"name@latest"``, or ``"name@vN"``."""
        name, sep, tag = spec.partition("@")
        if not sep or tag in ("", "latest"):
            return self.get(name)
        if tag.startswith("v") and tag[1:].isdigit():
            return self.get(name, int(tag[1:]))
        raise KeyError(
            f"bad graph spec {spec!r}: expected name, name@latest, or name@vN"
        )

    def entries(self) -> List[GraphVersion]:
        """All snapshots, grouped by name, ascending versions."""
        with self._lock:
            return [
                gv
                for name in sorted(self._versions)
                for gv in self._versions[name]
            ]

    # -- mutation -------------------------------------------------------

    def apply_batch(self, name: str, batch: MutationBatch) -> GraphVersion:
        """Fold ``batch`` into the latest snapshot of ``name``.

        Returns the new :class:`GraphVersion` (or the current one for
        an effectively-empty batch).  Derived artifacts of superseded
        versions beyond the ``derived_retain`` newest are invalidated
        here — the invalidation counters in
        :meth:`DerivedCache.counters` are the observable proof that
        stale artifacts were dropped rather than silently kept.

        Invalidation is guarded by *content liveness across the whole
        store*, not just this name's history: a content key is spared
        while it sits inside any name's retained window.  Without the
        cross-name check, a mutate-then-revert sequence (A→B→A
        re-registers A's fingerprint) or two names sharing content
        would drop artifacts still scoped to a latest version.

        Mutation listeners (see :meth:`add_listener`) are notified
        between registration and invalidation, outside the store lock.
        """
        with self._lock:
            current = self.latest(name)
            new_graph = apply_mutation(current.graph, batch)
            entry = self.register(new_graph, name)
            if entry is current:
                return entry
            listeners = tuple(self._listeners)
            versions = self._versions[name]
            live_keys = self._live_version_keys()
            stale_keys = [
                gv.version_key
                for gv in versions[: -self._retain]
                if gv.version_key not in live_keys
            ]
        for listener in listeners:
            try:
                listener(name, current, entry, batch)
            except Exception:  # noqa: BLE001 — listener isolation
                logger.exception(
                    "mutation listener failed for %s (v%d -> v%d)",
                    name, current.version, entry.version,
                )
        cache = self._derived_cache()
        for key in dict.fromkeys(stale_keys):
            cache.invalidate(key)
        return entry


# ----------------------------------------------------------------------
# Process-global defaults
# ----------------------------------------------------------------------

_DEFAULTS_LOCK = threading.Lock()
_DEFAULT_CACHE: Optional[DerivedCache] = None
_DEFAULT_STORE: Optional[GraphStore] = None


def derived_cache() -> DerivedCache:
    """The process-global :class:`DerivedCache`.

    One per process: graphs attach to it from any thread, and worker
    processes get their own via normal module initialization (so
    shards landing in one worker share artifacts, while separate
    workers stay independent — there is no cross-process memory to
    share in pure Python).
    """
    global _DEFAULT_CACHE
    cache = _DEFAULT_CACHE
    if cache is None:
        with _DEFAULTS_LOCK:
            cache = _DEFAULT_CACHE
            if cache is None:
                cache = DerivedCache()
                _DEFAULT_CACHE = cache
    return cache


def graph_store() -> GraphStore:
    """The process-global :class:`GraphStore` (CLI/daemon registry)."""
    global _DEFAULT_STORE
    store = _DEFAULT_STORE
    if store is None:
        with _DEFAULTS_LOCK:
            store = _DEFAULT_STORE
            if store is None:
                store = GraphStore()
                _DEFAULT_STORE = store
    return store


def reset_default_store() -> Tuple[GraphStore, DerivedCache]:
    """Replace both process-global defaults with fresh ones (tests)."""
    global _DEFAULT_CACHE, _DEFAULT_STORE
    with _DEFAULTS_LOCK:
        _DEFAULT_CACHE = DerivedCache()
        _DEFAULT_STORE = GraphStore()
        return _DEFAULT_STORE, _DEFAULT_CACHE

