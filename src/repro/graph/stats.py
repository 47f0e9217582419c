"""Per-graph statistical summaries for static cost estimation.

:class:`GraphStats` is the read-only bundle of statistics the static
cost model (:mod:`repro.analysis.costmodel`) plans against: vertex and
edge counts, degree moments and a log-scale degree histogram, label
frequencies, edge density, and a clustering-coefficient estimate.  It
is a pure function of the graph — everything is derived in one pass
plus a bounded wedge scan — and is served by
:meth:`Graph.stats_summary` from the process-global
:class:`~repro.graph.store.DerivedCache`, keyed by the graph's content
version (graphs are immutable and versions are content hashes, so a
summary can never go stale: a mutated graph is a new version).

All derivations are deterministic: the clustering estimate samples
wedges with a fixed stride instead of a RNG, so the same graph always
yields the same summary (analysis-gate diffs stay stable).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Tuple

if TYPE_CHECKING:  # pragma: no cover - import-time only
    from .graph import Graph

__all__ = ["GraphStats"]

#: Exact wedge-closure counting is allowed up to this many wedges;
#: larger graphs fall back to deterministic stride sampling.
_EXACT_WEDGE_LIMIT = 250_000

#: Sampled mode probes at most this many wedges.
_SAMPLE_WEDGE_TARGET = 4_096


def _degree_histogram(degrees: Tuple[int, ...]) -> Tuple[Tuple[int, int], ...]:
    """Log2-bucketed degree histogram as ``(upper_bound, count)`` pairs.

    Bucket ``0`` counts isolated vertices; bucket ``2**k`` counts
    vertices with degree in ``(2**(k-1), 2**k]``.  Only non-empty
    buckets appear, in ascending bound order.
    """
    buckets: Dict[int, int] = {}
    for d in degrees:
        bound = 0
        if d > 0:
            bound = 1
            while bound < d:
                bound *= 2
        buckets[bound] = buckets.get(bound, 0) + 1
    return tuple(sorted(buckets.items()))


def _clustering_coefficient(graph: "Graph") -> float:
    """Global clustering coefficient ``closed wedges / wedges``.

    Exact when the wedge count is small; otherwise probes a
    deterministic stride sample of wedges (no RNG — the estimate is a
    pure function of the graph).
    """
    degrees = [graph.degree(v) for v in graph.vertices()]
    wedges = sum(d * (d - 1) // 2 for d in degrees)
    if wedges == 0:
        return 0.0
    if wedges <= _EXACT_WEDGE_LIMIT:
        closed = 0
        for v in graph.vertices():
            neighbors = graph.neighbors(v)
            for i in range(len(neighbors)):
                for j in range(i + 1, len(neighbors)):
                    if graph.has_edge(neighbors[i], neighbors[j]):
                        closed += 1
        return closed / wedges
    # Stride sampling: walk vertices at a fixed stride and probe a
    # bounded, position-patterned set of neighbor pairs per vertex.
    n = graph.num_vertices
    stride = max(1, n // 512)
    probed = 0
    closed = 0
    for v in range(0, n, stride):
        neighbors = graph.neighbors(v)
        d = len(neighbors)
        if d < 2:
            continue
        for k in range(min(8, d - 1)):
            i = (k * 7) % (d - 1)
            j = i + 1 + (k % (d - 1 - i)) if d - 1 - i > 0 else i + 1
            if j >= d:
                j = d - 1
            if i == j:
                continue
            probed += 1
            if graph.has_edge(neighbors[i], neighbors[j]):
                closed += 1
            if probed >= _SAMPLE_WEDGE_TARGET:
                break
        if probed >= _SAMPLE_WEDGE_TARGET:
            break
    if probed == 0:
        return 0.0
    return closed / probed


@dataclass(frozen=True)
class GraphStats:
    """Statistical summary of one data graph (see module docstring)."""

    name: str
    num_vertices: int
    num_edges: int
    num_labels: int
    max_degree: int
    avg_degree: float
    mean_square_degree: float
    density: float
    clustering: float
    label_frequencies: Tuple[Tuple[int, int], ...]
    degree_histogram: Tuple[Tuple[int, int], ...]
    #: Content hash of the source graph (``Graph.fingerprint``).  Empty
    #: only for summaries built by hand without a graph; such summaries
    #: fall back to the count-based signature as their version.
    fingerprint: str = ""

    @classmethod
    def from_graph(cls, graph: "Graph") -> "GraphStats":
        degrees = tuple(graph.degree(v) for v in graph.vertices())
        n = graph.num_vertices
        avg = (sum(degrees) / n) if n else 0.0
        msq = (sum(d * d for d in degrees) / n) if n else 0.0
        return cls(
            name=graph.name,
            num_vertices=n,
            num_edges=graph.num_edges,
            num_labels=graph.num_labels,
            max_degree=graph.max_degree,
            avg_degree=avg,
            mean_square_degree=msq,
            density=graph.density,
            clustering=_clustering_coefficient(graph),
            label_frequencies=tuple(
                sorted(graph.label_frequencies().items())
            ),
            degree_histogram=_degree_histogram(degrees),
            fingerprint=graph.fingerprint,
        )

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------

    @property
    def size_biased_degree(self) -> float:
        """Expected degree of an edge endpoint, ``E[d^2] / E[d]``.

        The degree of a vertex reached by following an edge — the
        right moment for neighbor-expansion estimates on skewed
        degree distributions.
        """
        if self.avg_degree <= 0:
            return 0.0
        return self.mean_square_degree / self.avg_degree

    @property
    def degree_skew(self) -> float:
        """``max_degree / avg_degree`` — seed-partition imbalance proxy."""
        if self.avg_degree <= 0:
            return 0.0
        return self.max_degree / self.avg_degree

    def label_fraction(self, label: int) -> float:
        """Fraction of vertices carrying ``label`` (0.0 when absent)."""
        if self.num_vertices == 0:
            return 0.0
        for lab, count in self.label_frequencies:
            if lab == label:
                return count / self.num_vertices
        return 0.0

    @property
    def version(self) -> str:
        """Content-addressed graph version for cache keys and run records.

        ``name@<fp12>`` over the sorted edge/label arrays (matching
        ``Graph.version_key``), so two different graphs can never share
        a version — the old count-based string collided whenever sizes
        matched and survives only as :attr:`size_signature`.  Hand-built
        summaries without a fingerprint keep the legacy form.
        """
        if self.fingerprint:
            return f"{self.name or 'graph'}@{self.fingerprint[:12]}"
        return self.size_signature

    @property
    def size_signature(self) -> str:
        """Human-readable count signature (the pre-fingerprint alias)."""
        return (
            f"{self.name or 'graph'}:{self.num_vertices}v:"
            f"{self.num_edges}e:{self.num_labels}l"
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "version": self.version,
            "fingerprint": self.fingerprint,
            "num_vertices": self.num_vertices,
            "num_edges": self.num_edges,
            "num_labels": self.num_labels,
            "max_degree": self.max_degree,
            "avg_degree": round(self.avg_degree, 4),
            "size_biased_degree": round(self.size_biased_degree, 4),
            "density": round(self.density, 6),
            "clustering": round(self.clustering, 4),
            "degree_histogram": [list(b) for b in self.degree_histogram],
        }
