"""Candidate-set computation (``computeCandidates`` in Algorithms 1–2).

Given a partial match, the candidates for the next matching-order step
are the common neighbors of the already-bound data vertices that the
new pattern vertex must attach to.  Two execution paths compute them:

* the legacy ``sets`` path — per-vertex ``frozenset`` intersection with
  a per-candidate Python filter loop (the seed implementation, kept
  verbatim for comparability and as the property-test oracle);
* the kernel path (``auto`` on a dense graph) — pools from
  :class:`~repro.graph.index.GraphIndex`: big-int AND intersections
  with label, symmetry-bound, injectivity, and non-neighbor filters
  all applied as bitmask operations before a single decode, or, for
  pools seeded at a low-degree anchor, an already-sorted tuple whose
  symmetry bounds are a binary-searched slice.

Both paths reuse results through one tier, the shared
:class:`~repro.mining.cache.SetOperationCache` (semantic keys): an
ETask deeper in its tree, a fused VTask and a promoted ETask that need
the same intersection hit the same entry (paper §5.2–5.3).

Label constraints are applied inside the kernels; symmetry-breaking
bounds, injectivity and induced-semantics filters remain per call
since they depend on task-local state.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import List, Optional, Sequence

from ..graph.graph import Graph
from ..graph.index import GraphIndex, Pool, bits_to_sorted
from ..patterns.plan import ExplorationPlan
from .cache import SetOperationCache
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
    pool = index.pool(anchors, label, stats)
    cache.store(key, pool)
    return pool


def compute_candidates(
    graph: Graph,
    plan: ExplorationPlan,
    step: int,
    bound: Sequence[int],
    cache: SetOperationCache,
    stats: MiningStats,
    index: Optional[GraphIndex] = None,
) -> List[int]:
    """Sorted data-vertex candidates for matching-order position ``step``.

    ``bound[i]`` is the data vertex at position ``i`` for ``i < step``.
    ``index=None`` selects the legacy frozenset path; otherwise the
    index's kernels run (:func:`kernel_pool`).
    """
    stats.candidate_computations += 1
    anchors = [bound[j] for j in plan.backward_neighbors[step]]
    if not anchors:
        raise ValueError("compute_candidates requires step >= 1 (connected order)")

    lo = -1
    hi = graph.num_vertices
    for earlier, must_be_greater in plan.conditions_at.get(step, ()):  # type: ignore[call-overload]
        anchor = bound[earlier]
        if must_be_greater:
            if anchor > lo:
                lo = anchor
        else:
            if anchor < hi:
                hi = anchor

    if index is None:
        return _filter_sets(graph, plan, step, bound, anchors, cache, stats, lo, hi)

    pool = kernel_pool(index, anchors, plan.labels_at[step], cache, stats)
    if isinstance(pool, int):
        return _filter_bits(index, plan, step, bound, pool, lo, hi)
    return _filter_sorted(index, plan, step, bound, pool, lo, hi)


def _filter_sets(
    graph: Graph,
    plan: ExplorationPlan,
    step: int,
    bound: Sequence[int],
    anchors: Sequence[int],
    cache: SetOperationCache,
    stats: MiningStats,
    lo: int,
    hi: int,
) -> List[int]:
    """The seed frozenset path: intersect, then post-filter per vertex."""
    candidates = raw_intersection(graph, anchors, cache, stats)
    label = plan.labels_at[step]
    forbidden = plan.backward_nonneighbors[step]
    used = set(bound[:step])

    selected: List[int] = []
    for v in candidates:
        if not lo < v < hi:
            continue
        if v in used:
            continue
        if label is not None and graph.label(v) != label:
            continue
        if forbidden:
            adjacent = False
            for j in forbidden:
                if graph.has_edge(v, bound[j]):
                    adjacent = True
                    break
            if adjacent:
                continue
        selected.append(v)
    selected.sort()
    return selected


def _filter_bits(
    index: GraphIndex,
    plan: ExplorationPlan,
    step: int,
    bound: Sequence[int],
    pool: int,
    lo: int,
    hi: int,
) -> List[int]:
    """Bitset filtering: bounds, injectivity and non-neighbors as masks."""
    if not pool:
        return []
    if lo >= 0:
        pool &= -1 << (lo + 1)
    if hi < index.graph.num_vertices:
        pool &= (1 << hi) - 1
    for v in bound[:step]:
        if pool >> v & 1:
            pool -= 1 << v
    for j in plan.backward_nonneighbors[step]:
        if not pool:
            break
        pool &= ~index.neighbor_bits(bound[j])
    return bits_to_sorted(pool)


def _filter_sorted(
    index: GraphIndex,
    plan: ExplorationPlan,
    step: int,
    bound: Sequence[int],
    pool: Sequence[int],
    lo: int,
    hi: int,
) -> List[int]:
    """Filtering over an already-sorted, label-filtered tuple pool.

    Symmetry bounds become a binary-searched slice; no final sort.
    """
    start = 0
    end = len(pool)
    if lo >= 0:
        start = bisect_right(pool, lo)
    if hi < index.graph.num_vertices:
        end = bisect_left(pool, hi, start)
    forbidden = plan.backward_nonneighbors[step]
    used = set(bound[:step])

    selected: List[int] = []
    for i in range(start, end):
        v = pool[i]
        if v in used:
            continue
        if forbidden:
            adjacent = False
            for j in forbidden:
                if index.has_edge(v, bound[j]):
                    adjacent = True
                    break
            if adjacent:
                continue
        selected.append(v)
    return selected


def root_candidates(
    graph: Graph,
    plan: ExplorationPlan,
) -> List[int]:
    """Candidates for matching-order position 0 (task roots)."""
    label = plan.labels_at[0]
    if label is None:
        return list(graph.vertices())
    return list(graph.vertices_with_label(label))
