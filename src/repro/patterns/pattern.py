"""Pattern representation.

A *pattern* is a small arbitrary graph (paper §2.1), optionally with
vertex labels and anti-vertices.  Pattern vertices are dense integers
``0..k-1``.  A label of ``None`` is a wildcard that matches any data
vertex label (the paper's unlabeled patterns are all-wildcard).

Anti-vertices (paper §2.2, [26]) mark vertices whose *presence* in the
data graph invalidates a match; :mod:`repro.apps.antivertex` lowers
them to containment constraints, so the core matcher never sees them.
"""

from __future__ import annotations

import itertools
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

Edge = Tuple[int, int]


def _normalize_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


class Pattern:
    """An immutable small graph used as a mining pattern.

    Parameters
    ----------
    num_vertices:
        Number of pattern vertices ``k``.
    edges:
        Iterable of vertex pairs; normalized and deduplicated.
    labels:
        Optional per-vertex labels; ``None`` entries are wildcards.
        Passing ``None`` for the whole argument means fully unlabeled.
    anti_vertices:
        Vertex ids that are anti-vertices (see module docstring).
    name:
        Optional human-readable name for reports.
    """

    __slots__ = (
        "_n",
        "_edges",
        "_anti_edges",
        "_adj",
        "_labels",
        "_anti",
        "_name",
        "_canonical_key",
    )

    def __init__(
        self,
        num_vertices: int,
        edges: Iterable[Edge],
        labels: Optional[Sequence[Optional[int]]] = None,
        anti_vertices: Iterable[int] = (),
        anti_edges: Iterable[Edge] = (),
        name: str = "",
    ) -> None:
        if num_vertices < 1:
            raise ValueError("pattern must have at least one vertex")
        normalized = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self loop on pattern vertex {u}")
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise ValueError(f"edge ({u}, {v}) out of range")
            normalized.add(_normalize_edge(u, v))
        anti_normalized = set()
        for u, v in anti_edges:
            if u == v:
                raise ValueError(f"anti-edge self loop on vertex {u}")
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise ValueError(f"anti-edge ({u}, {v}) out of range")
            pair = _normalize_edge(u, v)
            if pair in normalized:
                raise ValueError(
                    f"({u}, {v}) cannot be both an edge and an anti-edge"
                )
            anti_normalized.add(pair)
        self._n = num_vertices
        self._edges: FrozenSet[Edge] = frozenset(normalized)
        self._anti_edges: FrozenSet[Edge] = frozenset(anti_normalized)
        adj: List[set] = [set() for _ in range(num_vertices)]
        for u, v in self._edges:
            adj[u].add(v)
            adj[v].add(u)
        self._adj: Tuple[FrozenSet[int], ...] = tuple(
            frozenset(s) for s in adj
        )
        if labels is not None:
            if len(labels) != num_vertices:
                raise ValueError("labels length mismatch")
            self._labels: Optional[Tuple[Optional[int], ...]] = tuple(labels)
            if all(lab is None for lab in self._labels):
                self._labels = None
        else:
            self._labels = None
        self._anti: FrozenSet[int] = frozenset(anti_vertices)
        for a in self._anti:
            if not 0 <= a < num_vertices:
                raise ValueError(f"anti-vertex {a} out of range")
        self._name = name
        self._canonical_key: Optional[tuple] = None

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def name(self) -> str:
        return self._name

    @property
    def num_vertices(self) -> int:
        return self._n

    def __len__(self) -> int:
        return self._n

    @property
    def edges(self) -> FrozenSet[Edge]:
        return self._edges

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def vertices(self) -> range:
        return range(self._n)

    def neighbors(self, v: int) -> FrozenSet[int]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return _normalize_edge(u, v) in self._edges if u != v else False

    @property
    def is_labeled(self) -> bool:
        return self._labels is not None

    def label(self, v: int) -> Optional[int]:
        if self._labels is None:
            return None
        return self._labels[v]

    @property
    def labels(self) -> Tuple[Optional[int], ...]:
        if self._labels is None:
            return tuple([None] * self._n)
        return self._labels

    @property
    def anti_vertices(self) -> FrozenSet[int]:
        return self._anti

    @property
    def has_anti_vertices(self) -> bool:
        return bool(self._anti)

    @property
    def anti_edges(self) -> FrozenSet[Edge]:
        """Vertex pairs that must NOT be adjacent in the data graph.

        Anti-edges give per-pair induced semantics on edge-induced
        plans (Peregrine's partial-match constraints); under fully
        induced matching every non-edge is already enforced, so
        anti-edges add nothing there.
        """
        return self._anti_edges

    @property
    def has_anti_edges(self) -> bool:
        return bool(self._anti_edges)

    def has_anti_edge(self, u: int, v: int) -> bool:
        return u != v and _normalize_edge(u, v) in self._anti_edges

    @property
    def density(self) -> float:
        """Edge density in [0, 1]; the RL-Path heuristics key off this."""
        if self._n < 2:
            return 0.0
        return 2.0 * len(self._edges) / (self._n * (self._n - 1))

    def min_degree(self) -> int:
        return min(len(s) for s in self._adj)

    def is_connected(self) -> bool:
        seen = {0}
        frontier = [0]
        while frontier:
            v = frontier.pop()
            for w in self._adj[v]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return len(seen) == self._n

    def is_clique(self) -> bool:
        return len(self._edges) == self._n * (self._n - 1) // 2

    # ------------------------------------------------------------------
    # Derived patterns
    # ------------------------------------------------------------------

    def relabel(self, mapping: Dict[int, int]) -> "Pattern":
        """Apply a vertex permutation ``old -> new`` and return the result."""
        every = list(range(self._n))
        if sorted(mapping) != every or sorted(mapping.values()) != every:
            raise ValueError("mapping must be a permutation of pattern vertices")
        edges = [(mapping[u], mapping[v]) for u, v in self._edges]
        anti_edges = [(mapping[u], mapping[v]) for u, v in self._anti_edges]
        labels: Optional[List[Optional[int]]] = None
        if self._labels is not None:
            labels = [None] * self._n
            for old, new in mapping.items():
                labels[new] = self._labels[old]
        anti = [mapping[a] for a in self._anti]
        return Pattern(
            self._n, edges, labels=labels, anti_vertices=anti,
            anti_edges=anti_edges, name=self._name,
        )

    def subpattern(self, vertex_set: Sequence[int]) -> "Pattern":
        """Induced subpattern on ``vertex_set`` (renumbered by position).

        Vertex ``i`` of the result corresponds to ``vertex_set[i]``; the
        caller's ordering is preserved, which the alignment machinery
        relies on.
        """
        ordered = list(vertex_set)
        if len(set(ordered)) != len(ordered):
            raise ValueError("vertex_set contains duplicates")
        position = {v: i for i, v in enumerate(ordered)}

        def kept(pairs: FrozenSet[Edge]) -> List[Edge]:
            return [(position[u], position[v]) for u, v in pairs
                    if u in position and v in position]

        labels = None
        if self._labels is not None:
            labels = [self._labels[v] for v in ordered]
        anti = [position[a] for a in self._anti if a in position]
        return Pattern(
            len(ordered), kept(self._edges), labels=labels,
            anti_vertices=anti, anti_edges=kept(self._anti_edges),
        )

    def with_labels(self, labels: Sequence[Optional[int]]) -> "Pattern":
        """Same structure, new labels."""
        return Pattern(
            self._n, self._edges, labels=labels, anti_vertices=self._anti,
            anti_edges=self._anti_edges, name=self._name,
        )

    def with_anti_edges(self, anti_edges: Iterable[Edge]) -> "Pattern":
        """Same structure and labels, new anti-edge set."""
        return Pattern(
            self._n, self._edges, labels=self._labels,
            anti_vertices=self._anti, anti_edges=anti_edges, name=self._name,
        )

    def unlabeled(self) -> "Pattern":
        """Same plain structure: labels, anti-vertices, anti-edges dropped."""
        if self._labels is None and not self._anti and not self._anti_edges:
            return self
        return Pattern(self._n, self._edges, name=self._name)

    def add_vertex(
        self, connect_to: Iterable[int], label: Optional[int] = None
    ) -> "Pattern":
        """Extend with one new vertex adjacent to ``connect_to``."""
        new = self._n
        edges = list(self._edges) + [(v, new) for v in connect_to]
        labels = None
        if self._labels is not None or label is not None:
            labels = list(self.labels) + [label]
        return Pattern(
            self._n + 1, edges, labels=labels, anti_vertices=self._anti,
            anti_edges=self._anti_edges,
        )

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------

    def structure_key(self) -> tuple:
        """Hashable key ignoring names/anti-vertices (exact, not canonical)."""
        return (self._n, self._edges, self._labels, self._anti_edges)

    def canonical_key(self) -> tuple:
        """Isomorphism-invariant key (lazy, cached after first call).

        The smallest ``(n, edges, labels, anti_edges)`` over the vertex
        orders, pairs as sorted tuples, a wildcard ranked -1 and a
        negative label one below itself: equal iff isomorphic, labels
        and anti-edges kept.  Edges compare first, and the smallest
        starts ``(0, 1) ... (0, Δ)`` for the maximum degree Δ, so only
        orders with a degree-Δ vertex then its neighbours are tried.
        """
        if self._canonical_key is None:
            n = self._n
            ranks = [-1 if x is None else x - (x < 0) for x in self.labels]
            # Pair (a, b), a < b, as a * n + b, which orders the same.
            code = [[min(a, b) * n + max(a, b) for b in range(n)]
                    for a in range(n)]
            delta = max(map(len, self._adj))
            tops = [v for v in range(n) if len(self._adj[v]) == delta]
            slot = [0] * n

            def moved(pairs: FrozenSet[Edge]) -> List[int]:
                return sorted([code[slot[u]][slot[v]] for u, v in pairs])

            best: Optional[tuple] = None
            for first in tops:
                near = self._adj[first]
                far = [v for v in range(n) if v != first and v not in near]
                for head, tail in itertools.product(
                    itertools.permutations(near), itertools.permutations(far)
                ):
                    order = (first, *head, *tail)
                    for position, v in enumerate(order):
                        slot[v] = position
                    key = (moved(self._edges), [ranks[v] for v in order],
                           moved(self._anti_edges))
                    if best is None or key < best:
                        best = key
            assert best is not None
            edges, labels, anti_edges = best
            self._canonical_key = (
                n, tuple(divmod(c, n) for c in edges), tuple(labels),
                tuple(divmod(c, n) for c in anti_edges),
            )
        return self._canonical_key

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Pattern):
            return NotImplemented
        return (
            self._n == other._n
            and self._edges == other._edges
            and self._labels == other._labels
            and self._anti == other._anti
            and self._anti_edges == other._anti_edges
        )

    def __hash__(self) -> int:
        return hash(
            (self._n, self._edges, self._labels, self._anti,
             self._anti_edges)
        )

    def __repr__(self) -> str:
        tag = f"{self._name!r}: " if self._name else ""
        lab = ", labeled" if self.is_labeled else ""
        anti = f", anti={sorted(self._anti)}" if self._anti else ""
        anti_e = (
            f", anti_edges={sorted(self._anti_edges)}"
            if self._anti_edges
            else ""
        )
        return (
            f"Pattern({tag}k={self._n}, edges={sorted(self._edges)}"
            f"{lab}{anti}{anti_e})"
        )
