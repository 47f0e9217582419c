"""Auxiliary graphs: per-pattern pruned adjacency (tier-2 kernels).

GraphMini-style plan-time pruning: before exploring a pattern, drop
every data vertex that *no* embedding of the pattern can use, and hand
the exploration kernels the adjacency restricted to the survivors.
Two sound filters compose:

* **Label feasibility** — a data vertex labeled ``l`` can only be the
  image of a pattern vertex whose label is ``l`` or a wildcard; if the
  pattern has no such vertex, the data vertex is out.
* **Iterated degree core** — the image of pattern vertex ``u`` needs
  ``deg_P(u)`` neighbors *inside the embedding*, and every embedding
  vertex is itself feasible; so vertices are peeled until each
  survivor has at least ``bound(label)`` surviving neighbors, where
  ``bound(l)`` is the smallest pattern-vertex degree compatible with
  ``l``.  Both arguments are inductive over the embedding, which makes
  the fixpoint safe for induced and non-induced semantics alike.

The pruned adjacency keeps the original vertex ids (pruned vertices
get empty rows), so matches found over it are *identical* to matches
over the full graph — pruning only removes dead exploration work
(regression-tested in ``tests/test_kernel_equivalence.py``).

Cache scoping (important): artifacts are keyed under the **graph's
content version** plus the pattern's requirement signature — they are
graph-derived, so they must invalidate with the graph, unlike the
graph-independent alignment tables, which are ``lru_cache`` memos in
:mod:`repro.core.vtask` (the derived cache is graph-scoped).  Patterns
with identical label / degree requirements (e.g. same-size
quasi-cliques) share one artifact.

Fusion safety: kernel indexes over the pruned graph carry a distinct
:attr:`~repro.graph.index.GraphIndex.cache_key`, so their pools can
never be read back by a containment VTask resolving the same anchor
set over the *full* graph through the shared
:class:`~repro.mining.cache.SetOperationCache` (validation must see
vertices the mined pattern pruned).  For the same reason the engine
only applies pool-level pruning when a kernel index is active; the
legacy ``sets`` path (whose cache keys carry no index identity) gets
root filtering only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from .graph import Graph
from .index import GraphIndex
from .store import derived_cache

if TYPE_CHECKING:  # pragma: no cover - import-time only
    from ..obs.metrics import MetricsRegistry
    from ..patterns.pattern import Pattern

__all__ = [
    "AuxSummary",
    "AuxiliaryGraph",
    "aux_counters",
    "auxiliary_graph",
    "publish_aux_graph_metrics",
    "requirement_signature",
]

#: Requirement signature: ``(wildcard_min_degree, ((label, min_degree),
#: ...))`` — ``None`` wildcard component when the pattern has no
#: unlabeled vertex.  Fully determines the pruning function, so it is
#: the artifact cache key component.
Signature = Tuple[Optional[int], Tuple[Tuple[int, int], ...]]


def requirement_signature(pattern: "Pattern") -> Signature:
    """The pattern's label/degree requirements, as a hashable key.

    ``bound(l)`` for a data vertex labeled ``l`` is the minimum of the
    wildcard component and the per-label component; a vertex with
    neither is label-infeasible.
    """
    wildcard: Optional[int] = None
    per_label: Dict[int, int] = {}
    for u in pattern.vertices():
        deg = pattern.degree(u)
        label = pattern.label(u)
        if label is None:
            wildcard = deg if wildcard is None else min(wildcard, deg)
        else:
            best = per_label.get(label)
            per_label[label] = deg if best is None else min(best, deg)
    return wildcard, tuple(sorted(per_label.items()))


def _degree_bound(signature: Signature, label: Optional[int]) -> Optional[int]:
    """Min pattern degree a vertex with ``label`` must support (None = prune)."""
    wildcard, per_label = signature
    bound = wildcard
    if label is not None:
        for pattern_label, deg in per_label:
            if pattern_label == label:
                bound = deg if bound is None else min(bound, deg)
                break
    return bound


@dataclass(frozen=True)
class AuxSummary:
    """Pruning outcome: vertex and edge counts before and after."""

    vertices_before: int
    vertices_after: int
    edges_before: int
    edges_after: int

    @property
    def prune_ratio(self) -> float:
        """Fraction of vertices removed (0.0 when nothing was pruned)."""
        if self.vertices_before == 0:
            return 0.0
        return 1.0 - self.vertices_after / self.vertices_before

    def as_dict(self) -> Dict[str, float]:
        return {
            "vertices_before": self.vertices_before,
            "vertices_after": self.vertices_after,
            "edges_before": self.edges_before,
            "edges_after": self.edges_after,
            "prune_ratio": self.prune_ratio,
        }


class AuxiliaryGraph:
    """One pruned-adjacency artifact: survivors, masks, kernel index.

    Built once per ``(graph version, requirement signature)`` through
    the process-global derived cache; engines sharing a workload share
    the artifact and its lazily-built kernel index.
    """

    __slots__ = ("graph", "allowed", "allowed_bits", "summary", "_tag", "_index")

    def __init__(
        self,
        graph: Graph,
        allowed: Tuple[int, ...],
        summary: AuxSummary,
        signature: Signature,
    ) -> None:
        self.graph = graph
        self.allowed = allowed
        bits = 0
        for v in allowed:
            bits |= 1 << v
        self.allowed_bits = bits
        self.summary = summary
        self._tag = f"aux{signature!r}"
        self._index: Optional[GraphIndex] = None

    def filter_roots(self, roots: List[int]) -> List[int]:
        """The subset of ``roots`` that survived pruning."""
        bits = self.allowed_bits
        return [v for v in roots if bits >> v & 1]

    def index(self) -> GraphIndex:
        """The kernel index over the pruned adjacency.

        Carries a signature-specific cache tag so pruned pools and
        full-graph pools never collide in shared set-operation caches
        (see the module docstring on fusion safety).
        """
        index = self._index
        if index is None:
            index = GraphIndex(self.graph, cache_tag=self._tag)
            self._index = index
        return index


#: Per-process aggregate pruning counters (mirrored into metrics).
_AUX_COUNTERS: Dict[str, int] = {
    "builds": 0,
    "vertices_before": 0,
    "vertices_after": 0,
}


def aux_counters() -> Dict[str, int]:
    """Cumulative per-process auxiliary-graph build counters."""
    return dict(_AUX_COUNTERS)


def _compute_allowed(graph: Graph, signature: Signature) -> List[int]:
    """Label-feasible vertices surviving the iterated degree core."""
    bounds: Dict[int, Optional[int]] = {}
    alive = set()
    for v in graph.vertices():
        bound = _degree_bound(signature, graph.label(v))
        if bound is not None and graph.degree(v) >= bound:
            bounds[v] = bound
            alive.add(v)
    changed = True
    while changed:
        changed = False
        for v in list(alive):
            deg = sum(1 for u in graph.neighbors(v) if u in alive)
            if deg < bounds[v]:
                alive.discard(v)
                changed = True
    return sorted(alive)


def auxiliary_graph(graph: Graph, pattern: "Pattern") -> AuxiliaryGraph:
    """The pruned-adjacency artifact for ``pattern`` over ``graph``.

    Cached under the graph's content version keyed by the pattern's
    requirement signature — same-requirement patterns share one
    artifact, and graph mutation (a new registered version) invalidates
    it with every other graph-scoped artifact.
    """
    signature = requirement_signature(pattern)

    def build() -> AuxiliaryGraph:
        allowed = _compute_allowed(graph, signature)
        allowed_set = set(allowed)
        adjacency: List[Tuple[int, ...]] = [
            tuple(u for u in graph.neighbors(v) if u in allowed_set)
            if v in allowed_set
            else ()
            for v in graph.vertices()
        ]
        labels = (
            [graph.label(v) for v in graph.vertices()]
            if graph.is_labeled
            else None
        )
        pruned = Graph(adjacency, labels=labels, name=f"{graph.name}#aux")
        summary = AuxSummary(
            vertices_before=graph.num_vertices,
            vertices_after=len(allowed),
            edges_before=graph.num_edges,
            edges_after=pruned.num_edges,
        )
        _AUX_COUNTERS["builds"] += 1
        _AUX_COUNTERS["vertices_before"] += summary.vertices_before
        _AUX_COUNTERS["vertices_after"] += summary.vertices_after
        return AuxiliaryGraph(pruned, tuple(allowed), summary, signature)

    artifact: AuxiliaryGraph = derived_cache().get_or_build(
        graph.version_key, ("aux_graph", signature), build
    )
    return artifact


def publish_aux_graph_metrics(registry: "MetricsRegistry") -> None:
    """Mirror pruning aggregates into ``repro_aux_graph_*``.

    ``repro_aux_graph_prune_ratio`` is the vertex fraction pruned
    across every auxiliary graph built in this process (0.0 until the
    first build); ``repro_aux_graph_build_total`` counts builds, with
    the same monotone-delta contract as the other cache publishers.
    """
    before = _AUX_COUNTERS["vertices_before"]
    ratio = (
        1.0 - _AUX_COUNTERS["vertices_after"] / before if before else 0.0
    )
    registry.gauge(
        "repro_aux_graph_prune_ratio",
        help_text="Vertex fraction pruned across auxiliary graphs",
    ).set(ratio)
    series = registry.counter(
        "repro_aux_graph_build_total",
        help_text="Auxiliary pruned graphs built in this process",
    )
    delta = float(_AUX_COUNTERS["builds"]) - series.value
    if delta > 0:
        series.inc(delta)
