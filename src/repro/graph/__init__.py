"""Data-graph substrate: immutable graphs, builders, generators, I/O."""

from .algorithms import k_core, triangle_count
from .builder import GraphBuilder, graph_from_edges
from .generators import (
    attach_labels,
    community_graph,
    erdos_renyi,
    powerlaw_graph,
)
from .graph import Graph
from .index import (
    ADJACENCY_MODES,
    GraphIndex,
    auto_selects_kernels,
    bits_to_sorted,
    resolve_index,
)
from .io import read_edge_list, write_edge_list, write_labels
from .stats import GraphStats
from .store import (
    DerivedCache,
    GraphStore,
    GraphVersion,
    MutationBatch,
    apply_mutation,
    derived_cache,
    graph_fingerprint,
    graph_store,
    publish_derived_cache_metrics,
)

__all__ = [
    "Graph",
    "GraphStats",
    "GraphStore",
    "GraphVersion",
    "DerivedCache",
    "MutationBatch",
    "apply_mutation",
    "derived_cache",
    "graph_fingerprint",
    "graph_store",
    "publish_derived_cache_metrics",
    "GraphIndex",
    "ADJACENCY_MODES",
    "auto_selects_kernels",
    "bits_to_sorted",
    "resolve_index",
    "GraphBuilder",
    "graph_from_edges",
    "erdos_renyi",
    "powerlaw_graph",
    "community_graph",
    "attach_labels",
    "read_edge_list",
    "write_edge_list",
    "write_labels",
    "k_core",
    "triangle_count",
]
