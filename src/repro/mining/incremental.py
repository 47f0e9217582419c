"""Standing queries over dynamic graphs: delta-driven re-exploration.

A batch mine answers a containment query once; a *standing* query
stays registered against a store name and is re-answered after every
:class:`~repro.graph.store.MutationBatch` — but only over the region
the batch could possibly have changed.  The machinery:

* :func:`delta_frontier` — the touched-vertex frontier of a batch:
  endpoints of added/removed edges, relabeled vertices, and appended
  vertex ids.
* :func:`pattern_radius` — the largest BFS diameter over the query's
  patterns and every constraint's P⁺ (memoized per pattern, see
  :func:`pattern_diameter`).
* :func:`expand_frontier` — BFS expansion of the frontier to the
  pattern radius over the union of the old and new adjacency.
* :class:`SubscriptionRegistry` — holds :class:`Subscription` objects
  binding a :class:`StandingQuery` to a store name.  On each batch it
  re-mines the new version *seeded only from the region's
  label-partition intersections* (``EngineSession.run_roots`` filters
  every pattern's label-partition root candidates by the region), and
  re-derives only matches whose vertex set is contained in the region.
  Each pass hands the subscription's sink one :class:`DeltaUpdate`
  listing the added and the retracted matches — a retraction is a
  lookup in the subscription's per-version match index (kept in the
  :class:`~repro.graph.store.DerivedCache`), never a re-mine.

Correctness is anchored by a property oracle (see
``tests/test_incremental.py``): for any (graph, batch, query) the
incremental added/retracted sets must equal the set-diff of scratch
re-mines of the two versions, under all three schedulers.

One-ring argument, in full.  Let ``F`` be the frontier and ``r`` the
pattern radius.  A match is *changed* if it is valid in one version
and not in the other.  Either its own existence changed — then a
touched vertex lies in it, since a match is fixed by the edges and
labels among its own vertices — or it exists in both versions and a
containing P⁺ match exists in one version only, so that P⁺ match
holds a touched vertex.  In both cases the match lies inside a
pattern-shaped subgraph of one version that holds a vertex of ``F``;
that subgraph's diameter is at most ``r``, and distances in either
version bound distances in the union adjacency.  So every changed
match is *contained* in ``region`` = the ``r``-hop ball around ``F``,
and so is its exploration root.  Mining the full new graph from roots
in ``region`` therefore finds every new-version match contained in
``region``, and validates it against the whole graph (VTasks are not
restricted by roots).  Matches not contained in ``region`` are
unchanged and carried over from the previous index; promotion
overshoot (matches the restricted mine reaches beyond ``region``) is
discarded by the same predicate, so ``carried ∪ mined⊆region`` equals
a scratch re-mine.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    cast,
)

from ..core.constraints import ConstraintSet
from ..core.runtime import ContigraEngine, ContigraResult
from ..graph.graph import Graph
from ..graph.store import (
    DerivedCache,
    GraphStore,
    GraphVersion,
    MutationBatch,
    derived_cache,
    graph_store,
)
from ..obs.metrics import COUNT_BUCKETS
from ..patterns.pattern import Pattern
from ..request import run_engine

__all__ = [
    "DeltaUpdate",
    "StandingQuery",
    "Subscription",
    "SubscriptionRegistry",
    "delta_frontier",
    "expand_frontier",
    "pattern_diameter",
    "pattern_radius",
    "scratch_index",
]

#: A match index entry key: ``(pattern structure key, canonical
#: assignment)`` — the same identity the shard merger dedups on.
MatchKey = Tuple[Hashable, Tuple[int, ...]]
MatchIndex = Dict[MatchKey, Pattern]

DeltaSink = Callable[["DeltaUpdate"], None]


# ----------------------------------------------------------------------
# Delta planning: frontier and region expansion
# ----------------------------------------------------------------------


def delta_frontier(batch: MutationBatch, old_num_vertices: int) -> FrozenSet[int]:
    """Vertices a batch touches directly.

    Endpoints of added/removed edges, relabel targets, and every
    appended vertex id (``old_n .. old_n + add_vertices - 1``).
    """
    touched: Set[int] = set()
    for u, v in batch.add_edges:
        touched.add(u)
        touched.add(v)
    for u, v in batch.remove_edges:
        touched.add(u)
        touched.add(v)
    for v, _label in batch.set_labels:
        touched.add(v)
    touched.update(
        range(old_num_vertices, old_num_vertices + batch.add_vertices)
    )
    return frozenset(touched)


@lru_cache(maxsize=None)
def pattern_diameter(pattern: Pattern) -> int:
    """Largest shortest-path distance between two vertices of ``pattern``.

    A match of ``pattern`` in a data graph keeps every pattern edge, so
    no two of its vertices are farther apart than this.  Memoized per
    pattern for the life of the process, like the VTask alignment
    memos.  Raises :class:`ValueError` for a
    disconnected pattern, whose matches have no such bound.
    """

    diameter = 0
    for source in pattern.vertices():
        depth = {source: 0}
        queue = [source]
        for v in queue:
            for w in pattern.neighbors(v):
                if w not in depth:
                    depth[w] = depth[v] + 1
                    queue.append(w)
        if len(depth) < pattern.num_vertices:
            raise ValueError(
                f"pattern {pattern!r} is disconnected: no diameter"
            )
        diameter = max(diameter, max(depth.values()))
    return diameter


def pattern_radius(constraint_set: ConstraintSet) -> int:
    """Hop radius a query can see from any touched vertex.

    The largest :func:`pattern_diameter` over the workload patterns and
    every constraint's P⁺ (floor 1): a changed match lies inside a
    match of one of them that holds a touched vertex (module
    docstring).
    """
    patterns = list(constraint_set.patterns)
    patterns.extend(c.p_plus for c in constraint_set.all_constraints)
    return max([1] + [pattern_diameter(p) for p in patterns])


def expand_frontier(
    seeds: Iterable[int],
    hops: int,
    old_graph: Graph,
    new_graph: Graph,
) -> FrozenSet[int]:
    """BFS-expand ``seeds`` by ``hops`` over the union adjacency.

    The union of the old and new neighbor rows covers matches that
    exist in either version (a removed edge still carries reach to the
    match it destroyed; an added one to the match it created).
    Vertices beyond either graph's range contribute that graph's rows
    only.
    """
    old_n = old_graph.num_vertices
    new_n = new_graph.num_vertices
    frontier: Set[int] = {
        v for v in seeds if 0 <= v < max(old_n, new_n)
    }
    region: Set[int] = set(frontier)
    for _ in range(hops):
        nxt: Set[int] = set()
        for v in frontier:
            if v < old_n:
                nxt.update(old_graph.neighbors(v))
            if v < new_n:
                nxt.update(new_graph.neighbors(v))
        frontier = nxt - region
        if not frontier:
            break
        region.update(frontier)
    return frozenset(region)


# ----------------------------------------------------------------------
# Standing queries and delta updates
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class StandingQuery:
    """A containment query held open against a mutating graph.

    ``scheduler`` of ``None``/``"serial"`` mines in-process; the
    parallel schedulers shard the restricted root region exactly like
    a batch run shards the full root universe.
    """

    constraint_set: ConstraintSet
    scheduler: Optional[str] = None
    n_workers: int = 2
    adjacency: str = "auto"
    time_limit: Optional[float] = None

    @classmethod
    def mqc(
        cls,
        gamma: float,
        max_size: int,
        min_size: int = 3,
        scheduler: Optional[str] = None,
        n_workers: int = 2,
        adjacency: str = "auto",
        time_limit: Optional[float] = None,
    ) -> "StandingQuery":
        """Maximal quasi-clique workload (the serving daemon's shape)."""
        from ..apps.mqc import mqc_constraint_set

        return cls(
            constraint_set=mqc_constraint_set(gamma, max_size, min_size),
            scheduler=scheduler,
            n_workers=n_workers,
            adjacency=adjacency,
            time_limit=time_limit,
        )

    def engine(self, graph: Graph) -> ContigraEngine:
        return ContigraEngine(
            graph, self.constraint_set, adjacency=self.adjacency
        )

    @property
    def radius(self) -> int:
        return pattern_radius(self.constraint_set)


def _run_region(
    query: StandingQuery, graph: Graph, roots: Optional[Sequence[int]]
) -> ContigraResult:
    """Mine ``graph`` under ``query`` (roots None = full universe)."""
    return run_engine(
        query.engine(graph),
        scheduler=query.scheduler,
        n_workers=query.n_workers,
        time_limit=query.time_limit,
        roots=roots,
    )


def _index_of(result: ContigraResult) -> MatchIndex:
    return {
        (pattern.structure_key(), assignment): pattern
        for pattern, assignment in result.valid
    }


def scratch_index(graph: Graph, query: StandingQuery) -> MatchIndex:
    """Full re-mine of ``graph`` as a match index (the oracle path)."""
    return _index_of(_run_region(query, graph, None))


def _match_dict(pattern: Pattern, assignment: Tuple[int, ...]) -> Dict[str, Any]:
    return {
        "pattern": pattern.name or f"P{pattern.num_vertices}",
        "vertices": list(assignment),
    }


@dataclass
class DeltaUpdate:
    """One delta pass for one subscription, as its sink receives it."""

    subscription: str
    graph: str
    old_ref: str
    new_ref: str
    version_key: str
    added: List[Tuple[Pattern, Tuple[int, ...]]]
    retracted: List[Tuple[Pattern, Tuple[int, ...]]]
    frontier_size: int
    region_size: int
    revalidated: int
    matches: int
    mode: str  # "delta" | "scratch" | "noop"
    elapsed: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "type": "delta",
            "subscription": self.subscription,
            "graph": self.graph,
            "old": self.old_ref,
            "new": self.new_ref,
            "version_key": self.version_key,
            "added": [_match_dict(p, a) for p, a in self.added],
            "retracted": [_match_dict(p, a) for p, a in self.retracted],
            "frontier": self.frontier_size,
            "region": self.region_size,
            # Roots are mined in the region itself; the wire keeps the
            # field its readers know.
            "root_region": self.region_size,
            "revalidated": self.revalidated,
            "matches": self.matches,
            "mode": self.mode,
            "elapsed": self.elapsed,
        }


@dataclass
class Subscription:
    """One standing query bound to one store name."""

    id: str
    name: str
    query: StandingQuery
    tenant: Optional[str] = None
    sink: Optional[DeltaSink] = None
    last_version_key: str = ""
    matches: int = 0
    deltas: int = 0
    added_total: int = 0
    retracted_total: int = 0
    created_at: float = field(default_factory=time.time)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "graph": self.name,
            "tenant": self.tenant,
            "scheduler": self.query.scheduler or "serial",
            "radius": self.query.radius,
            "version_key": self.last_version_key,
            "matches": self.matches,
            "deltas": self.deltas,
            "added_total": self.added_total,
            "retracted_total": self.retracted_total,
        }


# ----------------------------------------------------------------------
# SubscriptionRegistry
# ----------------------------------------------------------------------


class SubscriptionRegistry:
    """Standing containment queries over a :class:`GraphStore`.

    ``attach()`` wires the registry into the store's mutation-listener
    hook; from then on every :meth:`GraphStore.apply_batch` drives one
    delta pass per subscription on the mutated name (on the mutating
    thread, before the store invalidates superseded artifacts — which
    is what keeps the old version's match index readable).

    Per-version match indexes live in the :class:`DerivedCache` under
    ``("standing_matches", subscription_id)``, scoped to the content
    version key like every other derived artifact — so the index
    follows the store's retention/liveness rules, and a cache-evicted
    index degrades to a scratch rebuild (``mode="scratch"``), never to
    a wrong answer.
    """

    def __init__(
        self,
        store: Optional[GraphStore] = None,
        cache: Optional[DerivedCache] = None,
        metrics: Optional[Any] = None,
    ) -> None:
        self._store = store if store is not None else graph_store()
        self._cache = cache if cache is not None else derived_cache()
        self._metrics = metrics
        self._subs: Dict[str, Subscription] = {}
        self._lock = threading.Lock()
        # Delta passes are serialized: concurrent apply_batch calls on
        # one name would otherwise interleave index reads/writes.
        self._delta_lock = threading.Lock()
        self._seq = 0
        self._attached_store: Optional[GraphStore] = None

    # -- lifecycle ------------------------------------------------------

    def attach(self, store: Optional[GraphStore] = None) -> None:
        """Start receiving mutation notifications from ``store``."""
        target = store if store is not None else self._store
        self.detach()
        target.add_listener(self.on_batch)
        self._attached_store = target

    def detach(self) -> None:
        if self._attached_store is not None:
            self._attached_store.remove_listener(self.on_batch)
            self._attached_store = None

    # -- subscription management ----------------------------------------

    def subscribe(
        self,
        name: str,
        query: StandingQuery,
        sink: Optional[DeltaSink] = None,
        tenant: Optional[str] = None,
    ) -> Subscription:
        """Open a standing query against store name ``name``.

        Eagerly mines the current latest version to seed the match
        index (a subscription must know its baseline before it can
        report deltas).  Raises :class:`KeyError` for an unknown name.
        """
        latest = self._store.latest(name)
        with self._lock:
            self._seq += 1
            sub_id = f"sub-{self._seq}"
        sub = Subscription(
            id=sub_id, name=name, query=query, tenant=tenant, sink=sink
        )
        index = self._index_for(sub, latest)
        sub.last_version_key = latest.version_key
        sub.matches = len(index)
        with self._lock:
            self._subs[sub.id] = sub
        return sub

    def unsubscribe(self, sub_id: str) -> bool:
        with self._lock:
            return self._subs.pop(sub_id, None) is not None

    def get(self, sub_id: str) -> Subscription:
        with self._lock:
            if sub_id not in self._subs:
                raise KeyError(f"unknown subscription {sub_id!r}")
            return self._subs[sub_id]

    def subscriptions(self) -> List[Subscription]:
        with self._lock:
            return sorted(self._subs.values(), key=lambda s: s.id)

    def __len__(self) -> int:
        with self._lock:
            return len(self._subs)

    # -- the delta pass -------------------------------------------------

    def on_batch(
        self,
        name: str,
        old: GraphVersion,
        new: GraphVersion,
        batch: MutationBatch,
    ) -> List[DeltaUpdate]:
        """Store-listener entry point: one delta pass per subscription.

        Matches the :data:`~repro.graph.store.MutationListener`
        signature; the returned updates are for direct callers (tests,
        benchmarks) — listener dispatch ignores them.
        """
        with self._lock:
            targets = [s for s in self._subs.values() if s.name == name]
        updates = []
        for sub in sorted(targets, key=lambda s: s.id):
            updates.append(self._delta(sub, old, new, batch))
        return updates

    def _index_key(self, sub: Subscription) -> Hashable:
        return ("standing_matches", sub.id)

    def _index_for(self, sub: Subscription, version: GraphVersion) -> MatchIndex:
        """The subscription's match index for ``version`` (build = scratch mine)."""
        return self._cache.get_or_build(
            version.version_key,
            self._index_key(sub),
            lambda: scratch_index(version.graph, sub.query),
        )

    def _delta(
        self,
        sub: Subscription,
        old: GraphVersion,
        new: GraphVersion,
        batch: MutationBatch,
    ) -> DeltaUpdate:
        with self._delta_lock:
            started = time.perf_counter()
            key = self._index_key(sub)
            cached_old = cast(
                Optional[MatchIndex], self._cache.peek(old.version_key, key)
            )
            mode = "delta" if cached_old is not None else "scratch"
            old_index: MatchIndex = (
                cached_old
                if cached_old is not None
                else scratch_index(old.graph, sub.query)
            )

            frontier = delta_frontier(batch, old.graph.num_vertices)
            region = expand_frontier(
                frontier, sub.query.radius, old.graph, new.graph
            )

            if not region:
                new_index: MatchIndex = dict(old_index)
                local_new: MatchIndex = {}
                local_old: MatchIndex = {}
                mode = "noop"
            else:
                mined = _index_of(
                    _run_region(sub.query, new.graph, sorted(region))
                )
                local_new = {
                    mk: p
                    for mk, p in mined.items()
                    if region.issuperset(mk[1])
                }
                local_old = {}
                new_index = {}
                for mk, p in old_index.items():
                    if region.issuperset(mk[1]):
                        local_old[mk] = p
                    else:
                        new_index[mk] = p
                new_index.update(local_new)

            # Deterministic event order (assignment, then structure) —
            # structure keys of unrelated patterns are not mutually
            # orderable, so compare their reprs.
            order = lambda kv: (kv[0][1], repr(kv[0][0]))  # noqa: E731
            added = [
                (p, mk[1])
                for mk, p in sorted(local_new.items(), key=order)
                if mk not in local_old
            ]
            retracted = [
                (p, mk[1])
                for mk, p in sorted(local_old.items(), key=order)
                if mk not in local_new
            ]

            stored = self._cache.get_or_build(
                new.version_key, key, lambda: new_index
            )
            update = DeltaUpdate(
                subscription=sub.id,
                graph=sub.name,
                old_ref=old.ref,
                new_ref=new.ref,
                version_key=new.version_key,
                added=added,
                retracted=retracted,
                frontier_size=len(frontier),
                region_size=len(region),
                revalidated=len(local_old),
                matches=len(stored),
                mode=mode,
                elapsed=time.perf_counter() - started,
            )
            sub.last_version_key = new.version_key
            sub.matches = len(stored)
            sub.deltas += 1
            sub.added_total += len(added)
            sub.retracted_total += len(retracted)

        self._publish(sub, update)
        return update

    def _publish(self, sub: Subscription, update: DeltaUpdate) -> None:
        self._observe(update)
        if sub.sink is not None:
            try:
                sub.sink(update)
            except Exception:  # noqa: BLE001 — sink isolation
                import logging

                logging.getLogger(__name__).exception(
                    "delta sink failed for subscription %s", sub.id
                )

    def _observe(self, update: DeltaUpdate) -> None:
        if self._metrics is None:
            return
        self._metrics.histogram(
            "repro_incremental_frontier_size",
            help_text="Touched-vertex frontier size per delta pass",
            buckets=COUNT_BUCKETS,
        ).observe(float(update.frontier_size))
        self._metrics.histogram(
            "repro_incremental_region_size",
            help_text="Re-mined region size (vertices) per delta pass",
            buckets=COUNT_BUCKETS,
        ).observe(float(update.region_size))
        self._metrics.histogram(
            "repro_incremental_revalidated_matches",
            help_text="Existing matches re-validated per delta pass",
            buckets=COUNT_BUCKETS,
        ).observe(float(update.revalidated))
        self._metrics.histogram(
            "repro_incremental_delta_seconds",
            help_text="Wall-clock seconds per delta pass",
        ).observe(update.elapsed)
        self._metrics.counter(
            "repro_incremental_matches_added",
            help_text="Matches added across all delta passes",
        ).inc(float(len(update.added)))
        self._metrics.counter(
            "repro_incremental_matches_retracted",
            help_text="Matches retracted across all delta passes",
        ).inc(float(len(update.retracted)))
