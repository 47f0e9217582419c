"""Candidate pools (``computeCandidates`` in Algorithms 1–2).

Given a partial match, the candidates for the next matching-order step
are the common neighbors of the already-bound data vertices that the
new pattern vertex must attach to.  This module computes those pools;
the filters that depend on the task's own state (symmetry bounds,
injectivity, induced non-neighbours) are unrolled into the generated
step programs that consume them (:mod:`repro.patterns.codegen`), for
ETasks and VTasks alike.  Those programs probe the cache inline and
call the miss halves here (:func:`intersect_and_store`,
:func:`pool_and_store`), so an intersection's anchor order and its
counters are the same whoever computes it.  Two paths compute a pool:

* the ``sets`` path (:func:`raw_intersection`) — per-vertex
  ``frozenset`` intersection, the seed implementation and the oracle
  the kernels are checked against;
* the kernel path (:func:`kernel_pool`; ``auto`` on a dense graph) —
  pools from :class:`~repro.graph.index.GraphIndex`: a big-int bitmask,
  or, for pools seeded at a low-degree anchor, an already-sorted tuple,
  label-restricted inside the kernel either way.

Both paths reuse results through one tier, the
:class:`~repro.mining.cache.SetOperationCache` (semantic keys): an
ETask deeper in its tree, a same-size pattern's ETask at the same root,
a fused VTask and a promoted ETask that need the same intersection hit
the same entry (paper §5.2–5.3).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..graph.graph import Graph
from ..graph.index import GraphIndex, Pool
from ..patterns.plan import ExplorationPlan
from .cache import CacheKey, SetOperationCache
from .stats import MiningStats


def raw_intersection(
    graph: Graph,
    anchor_vertices: Sequence[int],
    cache: SetOperationCache,
    stats: MiningStats,
) -> frozenset:
    """Common neighbors of ``anchor_vertices``, cached (legacy path).

    ``anchor_vertices`` must be non-empty; the caller handles the
    root-step case (no anchors) by iterating all data vertices.
    """
    key = frozenset(anchor_vertices)
    cached = cache.lookup(key)
    if cached is not None:
        return cached
    return intersect_and_store(graph, anchor_vertices, key, cache, stats)


def intersect_and_store(
    graph: Graph,
    anchor_vertices: Sequence[int],
    key: CacheKey,
    cache: SetOperationCache,
    stats: MiningStats,
) -> frozenset:
    """The miss half of :func:`raw_intersection`, which generated step
    programs call too: intersect smallest degree first (ties in anchor
    order), stopping at the first empty result, and store the pool
    under ``key``."""
    ordered = sorted(anchor_vertices, key=graph.degree)
    result = graph.neighbor_set(ordered[0])
    for v in ordered[1:]:
        result = result & graph.neighbor_set(v)
        stats.set_intersections += 1
        if not result:
            break
    cache.store(key, result)
    return result


def kernel_pool(
    index: GraphIndex,
    anchors: Sequence[int],
    label: Optional[int],
    cache: SetOperationCache,
    stats: MiningStats,
) -> Pool:
    """Label-restricted common-neighbor pool of ``anchors``, cached.

    The shared-cache key carries the label and the index's cache key
    (mode, plus a tag for auxiliary pruned indexes) alongside the
    anchor identity, so fused tasks (VTasks sharing the parent ETask's
    cache) hit the same entries the ETask populated — but never a
    pruned pool computed over different adjacency.
    """
    key = (frozenset(anchors), label, index.cache_key)
    cached = cache.lookup(key)
    if cached is not None:
        return cached
    return pool_and_store(index, anchors, label, key, cache, stats)


def pool_and_store(
    index: GraphIndex,
    anchors: Sequence[int],
    label: Optional[int],
    key: CacheKey,
    cache: SetOperationCache,
    stats: MiningStats,
) -> Pool:
    """The miss half of :func:`kernel_pool`, which generated step
    programs call too."""
    pool = index.pool(anchors, label, stats)
    cache.store(key, pool)
    return pool


def root_candidates(
    graph: Graph,
    plan: ExplorationPlan,
) -> List[int]:
    """Candidates for matching-order position 0 (task roots)."""
    label = plan.labels_at[0]
    if label is None:
        return list(graph.vertices())
    return list(graph.vertices_with_label(label))
