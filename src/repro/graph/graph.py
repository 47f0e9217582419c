"""Immutable data-graph representation used by the mining substrate.

The data graph is stored CSR-style: one flat tuple of sorted adjacency
lists, indexed by vertex id.  Vertices are dense integers ``0..n-1``.
Graphs are undirected and simple (no self loops, no parallel edges);
the builder (:mod:`repro.graph.builder`) enforces this.

Vertex labels are optional.  A labeled graph carries one integer label
per vertex; unlabeled graphs report ``None`` for every vertex and
``num_labels == 0``, matching the "Labels = 0" rows of Table 1 in the
paper.

Derived structure — frozenset adjacency, kernel indexes, the label
inverted index, label frequencies, max degree, and the statistical
summary — is *not* stored on the instance.  Each graph has a content
:attr:`fingerprint`, and every derived artifact lives in the
process-global :class:`~repro.graph.store.DerivedCache` under the
graph's :attr:`version_key`; instances hold only attached references
into that cache.  Two instances with equal content (e.g. the
per-shard copies a process scheduler unpickles into one worker, or
two versions of a stored graph whose mutation was reverted) therefore
share one set of artifacts instead of building one each, and
invalidating a version evicts its artifacts for every holder at once:
the cache resets the attached references of every live instance of
that version (:meth:`Graph._release_derived`), so the artifacts are
actually freed and the next use rebuilds them.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from .index import GraphIndex, _require_auto

if TYPE_CHECKING:  # pragma: no cover - import-time only
    from .stats import GraphStats

_T = TypeVar("_T")


class Graph:
    """An immutable, undirected, simple data graph.

    Parameters
    ----------
    adjacency:
        One sorted, duplicate-free sequence of neighbor ids per vertex.
        ``adjacency[v]`` must never contain ``v`` itself.
    labels:
        Optional per-vertex integer labels.  ``None`` means unlabeled.
    name:
        Optional human-readable dataset name, used in benchmark reports
        and as the prefix of the content version key.
    """

    __slots__ = (
        "_adj",
        "_labels",
        "_num_edges",
        "_name",
        "_fingerprint",
        "_version_key",
        "_adj_sets",
        "_index",
        "_label_index",
        "_label_freq",
        "_max_degree",
        "_stats",
        "_shared_csr",
        "__weakref__",  # the derived cache tracks attached instances weakly
    )

    def __init__(
        self,
        adjacency: Sequence[Sequence[int]],
        labels: Optional[Sequence[int]] = None,
        name: str = "",
    ) -> None:
        self._adj: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(neighbors) for neighbors in adjacency
        )
        if labels is not None and len(labels) != len(self._adj):
            raise ValueError(
                f"labels length {len(labels)} != vertex count {len(self._adj)}"
            )
        self._labels: Optional[Tuple[int, ...]] = (
            tuple(labels) if labels is not None else None
        )
        degree_sum = sum(len(neighbors) for neighbors in self._adj)
        if degree_sum % 2 != 0:
            raise ValueError("adjacency is not symmetric (odd degree sum)")
        self._num_edges = degree_sum // 2
        self._name = name
        self._init_derived_handles()

    def _init_derived_handles(self) -> None:
        """Null out identity memos and derived-cache references."""
        self._fingerprint: Optional[str] = None
        self._version_key: Optional[str] = None
        self._release_derived()
        # Zero-copy CSR views into a shared-memory segment, set only by
        # repro.graph.shm when this instance was attached rather than
        # built: kernel indexes adopt them instead of re-flattening.
        self._shared_csr: Optional[Tuple[Sequence[int], Sequence[int]]] = None

    def _release_derived(self) -> None:
        """Drop the lazily-attached derived-cache references.

        None of these are instance-private caches: each is attached on
        first use to the artifact the :class:`DerivedCache` owns for
        this graph's content version, shared with every other instance
        of the same version.  The cache calls this on every attached
        instance when it drops the version's scope, so a retained
        snapshot (the store keeps the full history) does not pin the
        artifacts it was invalidated to free; identity memos stay and
        the next use re-attaches.
        """
        self._adj_sets: Optional[Dict[int, FrozenSet[int]]] = None
        self._index: Optional[GraphIndex] = None
        self._label_index: Optional[Dict[int, Tuple[int, ...]]] = None
        self._label_freq: Optional[Dict[int, int]] = None
        self._max_degree: Optional[int] = None
        self._stats: Optional["GraphStats"] = None

    def _derived(
        self, slot: str, artifact_key: str, builder: Callable[[], _T]
    ) -> _T:
        """This version's artifact from the derived cache, built on a miss.

        The cache memoizes it in ``self.<slot>`` itself, atomically
        with registering this instance as a holder of the version —
        the same lock under which it resets the slot on a drop.
        """
        from .store import derived_cache

        return derived_cache().get_or_build(
            self.version_key, artifact_key, builder, attach=(self, slot)
        )

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------

    @property
    def fingerprint(self) -> str:
        """Content hash over adjacency + labels (lazy, then memoized).

        Equal iff the graphs are equal as labeled graphs — this is
        the collision-safe replacement for the old count-based
        ``name:Nv:Ne:Ll`` signature.
        """
        fp = self._fingerprint
        if fp is None:
            from .store import graph_fingerprint

            fp = graph_fingerprint(self._adj, self._labels)
            self._fingerprint = fp
        return fp

    @property
    def version_key(self) -> str:
        """Content version key ``name@<fp12>`` (derived-cache scope)."""
        key = self._version_key
        if key is None:
            from .store import format_version_key

            key = format_version_key(self._name, self.fingerprint)
            self._version_key = key
        return key

    def adjacency_rows(self) -> Tuple[Tuple[int, ...], ...]:
        """The raw adjacency tuple (for structure-sharing mutation)."""
        return self._adj

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def name(self) -> str:
        """Dataset name (may be empty)."""
        return self._name

    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``m``."""
        return self._num_edges

    def __len__(self) -> int:
        return len(self._adj)

    def vertices(self) -> range:
        """All vertex ids, densely numbered from zero."""
        return range(len(self._adj))

    def neighbors(self, v: int) -> Tuple[int, ...]:
        """Sorted neighbors of ``v``."""
        return self._adj[v]

    def degree(self, v: int) -> int:
        """Degree of ``v``."""
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``{u, v}`` exists (binary search)."""
        if u == v:
            return False
        neighbors = self._adj[u]
        if len(self._adj[v]) < len(neighbors):
            neighbors, v = self._adj[v], u
        i = bisect_left(neighbors, v)
        return i < len(neighbors) and neighbors[i] == v

    def neighbor_set(self, v: int) -> FrozenSet[int]:
        """Neighbors of ``v`` as a frozenset (lazily built per vertex).

        The mining engine's candidate computation is intersection-heavy;
        set form makes each intersection O(min degree).  Sets are built
        on first touch of each vertex — tasks that visit a handful of
        vertices of a large graph never pay an O(n + m) spike.  The
        per-vertex dict is the version's ``"adj_sets"`` artifact,
        shared by every instance of this graph version.
        """
        sets = self._adj_sets
        if sets is None:
            sets = self._derived("_adj_sets", "adj_sets", dict)
        cached = sets.get(v)
        if cached is None:
            cached = frozenset(self._adj[v])
            sets[v] = cached
        return cached

    def kernel_index(self, mode: str = "auto") -> GraphIndex:
        """The graph's :class:`~repro.graph.index.GraphIndex`.

        One index per version lives in the derived cache, so every
        engine, task, and same-version graph instance shares the
        lazily-built CSR arrays, bitsets, and label masks; the cache's
        miss counter is the build counter (what the shard regression
        test asserts on).
        """
        # Called per VTask bridge step: the memoized hit stays one
        # attribute read; a non-"auto" mode always takes the slow
        # path, where _require_auto raises.
        index = self._index
        if index is None or mode != "auto":
            _require_auto(mode)
            index = self._derived(
                "_index",
                "kernel_index",
                lambda: GraphIndex(self, csr=self._shared_csr),
            )
        return index

    def stats_summary(self) -> "GraphStats":
        """The :class:`~repro.graph.stats.GraphStats` summary.

        Content-versioned, so the summary can never go stale: a
        mutated graph is a new version with its own summary.  The
        static cost model calls this on every estimate; the resolved
        value is attached after the first call.
        """
        stats = self._stats
        if stats is None:
            from .stats import GraphStats

            stats = self._derived(
                "_stats", "stats", lambda: GraphStats.from_graph(self)
            )
        return stats

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate undirected edges once each, as ``(u, v)`` with ``u < v``."""
        for u, neighbors in enumerate(self._adj):
            for v in neighbors:
                if u < v:
                    yield (u, v)

    # ------------------------------------------------------------------
    # Labels
    # ------------------------------------------------------------------

    @property
    def is_labeled(self) -> bool:
        """Whether the graph carries vertex labels."""
        return self._labels is not None

    def label(self, v: int) -> Optional[int]:
        """Label of ``v``, or ``None`` on unlabeled graphs."""
        if self._labels is None:
            return None
        return self._labels[v]

    @property
    def labels(self) -> Optional[Tuple[int, ...]]:
        """The full label tuple, or ``None`` on unlabeled graphs."""
        return self._labels

    @property
    def num_labels(self) -> int:
        """Number of distinct labels (0 for unlabeled graphs)."""
        if self._labels is None:
            return 0
        return len(set(self._labels))

    def vertices_with_label(self, label: int) -> Tuple[int, ...]:
        """All vertices carrying ``label`` (version-shared inverted index)."""
        if self._labels is None:
            return ()
        index = self._label_index
        if index is None:
            index = self._derived(
                "_label_index", "label_index", self._build_label_index
            )
        return index.get(label, ())

    def _build_label_index(self) -> Dict[int, Tuple[int, ...]]:
        assert self._labels is not None
        raw: Dict[int, list] = {}
        for v, lab in enumerate(self._labels):
            raw.setdefault(lab, []).append(v)
        return {lab: tuple(vs) for lab, vs in raw.items()}

    def label_frequencies(self) -> Dict[int, int]:
        """Map label -> number of vertices carrying it.

        Used repeatedly by the density heuristics and keyword-search
        planning; derived once per version, then served from the cache
        (a copy, so callers may mutate their result freely).
        """
        if self._labels is None:
            return {}
        freq = self._label_freq
        if freq is None:
            freq = self._derived(
                "_label_freq", "label_freq", self._build_label_freq
            )
        return dict(freq)

    def _build_label_freq(self) -> Dict[int, int]:
        assert self._labels is not None
        freq: Dict[int, int] = {}
        for lab in self._labels:
            freq[lab] = freq.get(lab, 0) + 1
        return freq

    # ------------------------------------------------------------------
    # Derived structure
    # ------------------------------------------------------------------

    @property
    def max_degree(self) -> int:
        """Maximum vertex degree (0 on the empty graph)."""
        cached = self._max_degree
        if cached is None:
            cached = self._derived(
                "_max_degree",
                "max_degree",
                lambda: max(map(len, self._adj), default=0),
            )
        return cached

    @property
    def density(self) -> float:
        """Edge density ``2m / (n (n - 1))`` in ``[0, 1]``."""
        n = len(self._adj)
        if n < 2:
            return 0.0
        return 2.0 * self._num_edges / (n * (n - 1))

    def induced_subgraph(self, vertex_set: Iterable[int]) -> "Graph":
        """Induced subgraph on ``vertex_set``, with vertices renumbered.

        The new graph's vertex ``i`` corresponds to the ``i``-th smallest
        vertex of ``vertex_set``.  Labels are carried over when present.
        """
        ordered = sorted(set(vertex_set))
        position = {v: i for i, v in enumerate(ordered)}
        adjacency = [
            [position[w] for w in self._adj[v] if w in position]
            for v in ordered
        ]
        labels = None
        if self._labels is not None:
            labels = [self._labels[v] for v in ordered]
        return Graph(adjacency, labels=labels)

    def edges_within(self, vertex_set: Sequence[int]) -> int:
        """Number of edges between vertices of ``vertex_set``."""
        members = set(vertex_set)
        count = 0
        for v in members:
            for w in self._adj[v]:
                if w > v and w in members:
                    count += 1
        return count

    def degrees_within(self, vertex_set: Sequence[int]) -> dict:
        """Map vertex -> degree inside the induced subgraph on the set."""
        members = set(vertex_set)
        return {
            v: sum(1 for w in self._adj[v] if w in members) for v in members
        }

    def is_connected_subset(self, vertex_set: Sequence[int]) -> bool:
        """Whether ``vertex_set`` induces a connected subgraph."""
        members = set(vertex_set)
        if not members:
            return True
        start = next(iter(members))
        seen = {start}
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for w in self._adj[v]:
                if w in members and w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return len(seen) == len(members)

    # ------------------------------------------------------------------
    # Dunder conveniences
    # ------------------------------------------------------------------

    def __reduce__(self) -> Tuple[object, ...]:
        """Pickle the canonical data plus the (memoized) fingerprint.

        Derived artifacts are never shipped — but unlike a plain
        state round-trip, the revived graph re-attaches to its content
        version in the receiving process's :class:`DerivedCache`.  The
        process scheduler unpickles one graph copy per shard; every
        shard landing in the same worker resolves to the same version
        key and therefore shares one set of kernel indexes, frozenset
        adjacency, and stats instead of rebuilding them per shard.
        The fingerprint rides along so workers skip recomputing it.

        When this content is published to a shared-memory segment
        (:func:`repro.graph.shm.publish_graph`), the payload collapses
        to the O(1) ``(name, fingerprint, segment)`` reference instead
        of the adjacency — receiving processes attach to the segment,
        once per worker, and read the CSR arrays in place.
        """
        fingerprint = self.fingerprint
        from .shm import _restore_shared_graph, published_segment

        segment = published_segment(fingerprint)
        if segment is not None:
            return (
                _restore_shared_graph,
                (self._name, fingerprint, segment),
            )
        return (
            _restore_graph,
            (
                self._adj,
                self._labels,
                self._num_edges,
                self._name,
                fingerprint,
            ),
        )

    def __repr__(self) -> str:
        tag = f" {self._name!r}" if self._name else ""
        labeled = f", labels={self.num_labels}" if self.is_labeled else ""
        return (
            f"Graph({tag and tag + ': '}|V|={self.num_vertices}, "
            f"|E|={self.num_edges}{labeled})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj and self._labels == other._labels

    def __hash__(self) -> int:
        return hash((self._adj, self._labels))


def _restore_graph(
    adj: Tuple[Tuple[int, ...], ...],
    labels: Optional[Tuple[int, ...]],
    num_edges: int,
    name: str,
    fingerprint: str,
) -> Graph:
    """Unpickle entry point: rebuild a graph around validated data.

    Skips constructor validation (the data was validated when the
    source graph was built) and pre-seeds the fingerprint so the
    receiving process attaches to the same content version without
    re-hashing.
    """
    graph = Graph.__new__(Graph)
    graph._adj = adj
    graph._labels = labels
    graph._num_edges = num_edges
    graph._name = name
    graph._init_derived_handles()
    graph._fingerprint = fingerprint
    return graph
