"""Data-graph substrate: immutable graphs, builders, generators, I/O."""

from .algorithms import (
    bfs_distances,
    clustering_profile,
    connected_components,
    degeneracy_order,
    is_clique,
    k_core,
    triangle_count,
)
from .builder import GraphBuilder, graph_from_edges
from .generators import (
    attach_labels,
    community_graph,
    disjoint_union,
    erdos_renyi,
    powerlaw_graph,
)
from .graph import Graph
from .index import (
    ADJACENCY_MODES,
    GraphIndex,
    auto_selects_kernels,
    bits_from_sorted,
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
    "bits_from_sorted",
    "bits_to_sorted",
    "resolve_index",
    "GraphBuilder",
    "graph_from_edges",
    "erdos_renyi",
    "powerlaw_graph",
    "community_graph",
    "attach_labels",
    "disjoint_union",
    "read_edge_list",
    "write_edge_list",
    "write_labels",
    "connected_components",
    "degeneracy_order",
    "k_core",
    "triangle_count",
    "clustering_profile",
    "bfs_distances",
    "is_clique",
]
