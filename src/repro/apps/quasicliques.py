"""Unconstrained gamma-quasi-clique mining (paper Fig 2 and Fig 19).

Two execution modes:

* :func:`mine_quasi_cliques` — the Peregrine+ way: independent ETasks
  per quasi-clique pattern, each explored from scratch.
* :func:`mine_quasi_cliques_fused` — task fusion and promotion between
  ETasks (paper §5.4): each pattern with a smaller workload pattern
  inside it is mined by *extending* that base pattern's matches
  (promotion), sharing subgraphs and caches instead of re-exploring;
  patterns without a contained base still run from scratch.

Both return identical results; Fig 19 measures the work difference.
"""

from __future__ import annotations

import functools
import time
from typing import Dict, FrozenSet, List, Set

from ..graph.graph import Graph
from ..mining.engine import MiningEngine
from ..mining.stats import ConstraintStats
from ..mining.subsets import explore_connected_sets
from ..patterns.pattern import Pattern
from ..patterns.quasicliques import (
    quasi_clique_min_degree,
    quasi_clique_patterns_up_to,
)


class QuasiCliqueResult:
    """Quasi-clique vertex sets per size, plus work counters."""

    def __init__(self) -> None:
        self.by_size: Dict[int, Set[FrozenSet[int]]] = {}
        self.stats = ConstraintStats()
        self.elapsed = 0.0

    def add(self, vertex_set: FrozenSet[int]) -> None:
        self.by_size.setdefault(len(vertex_set), set()).add(vertex_set)

    @property
    def count(self) -> int:
        return sum(len(group) for group in self.by_size.values())

    def all_sets(self) -> Set[FrozenSet[int]]:
        return {s for group in self.by_size.values() for s in group}


def mine_quasi_cliques(
    graph: Graph,
    gamma: float,
    max_size: int,
    min_size: int = 3,
    adjacency: str = "auto",
) -> QuasiCliqueResult:
    """Baseline mode: every pattern explored by its own ETasks."""
    start = time.monotonic()
    result = QuasiCliqueResult()
    engine = MiningEngine(graph, induced=True, adjacency=adjacency)
    patterns_by_size = quasi_clique_patterns_up_to(
        max_size, gamma, min_size=min_size
    )
    for size in sorted(patterns_by_size):
        for pattern in patterns_by_size[size]:
            for match in engine.stream(pattern):
                result.add(match.vertex_set)
    result.stats.merge(engine.stats)
    result.elapsed = time.monotonic() - start
    return result


def quasi_clique_feasible(
    degrees: List[int],
    outside: List[int],
    size: int,
    max_size: int,
    gamma: float,
) -> bool:
    """Can a set with these induced degrees still grow into a QC?

    In a final quasi-clique of size ``k'`` every member has induced
    degree >= ceil(gamma (k' - 1)); a member can gain at most
    ``min(k' - size, outside[i])`` further neighbors, where
    ``outside[i]`` counts its graph neighbors still eligible for the
    growth (outside the set, above the enumeration root).  A branch
    stays alive iff some target size admits every current vertex.  The
    bound is safe: no extendable set is ever pruned (tests check this
    against the oracle).
    """
    for target in range(size + 1, max_size + 1):
        need = quasi_clique_min_degree(target, gamma)
        room = target - size
        if all(
            d + min(room, extra) >= need
            for d, extra in zip(degrees, outside)
        ):
            return True
    return False


def _pairwise_feasible(
    graph: Graph,
    current,
    members,
    size: int,
    max_size: int,
    gamma: float,
) -> bool:
    """Pairwise common-neighbor bound (the Quick-style pruning rule).

    In a ``k'``-vertex quasi-clique with minimum degree ``d``, two
    members share at least ``2d - k'`` common neighbors inside it when
    adjacent and ``2d - k' + 2`` when not (counting both neighborhoods
    into the other ``k' - 2`` vertices).  A pair whose current common
    members plus reachable common outside neighbors cannot meet the
    bound for *any* target size kills the branch.  This is what stops
    hub-star explosions on power-law graphs, where every single vertex
    looks individually repairable.
    """
    if size < 2:
        return True
    root = current[0]
    for i in range(size):
        u = current[i]
        u_neighbors = graph.neighbor_set(u)
        for j in range(i + 1, size):
            v = current[j]
            common = u_neighbors & graph.neighbor_set(v)
            common_inside = sum(1 for w in common if w in members)
            common_reachable = sum(
                1 for w in common if w not in members and w > root
            )
            adjacent = graph.has_edge(u, v)
            satisfiable = False
            for target in range(size + 1, max_size + 1):
                need = 2 * quasi_clique_min_degree(target, gamma) - target
                if adjacent is False:
                    need += 2
                room = target - size
                if common_inside + min(room, common_reachable) >= need:
                    satisfiable = True
                    break
            if not satisfiable:
                return False
    return True


@functools.lru_cache(maxsize=None)
def _viable_classes(
    gamma: float, max_size: int, min_size: int
) -> Dict[int, frozenset]:
    """Per-size canonical classes that occur inside workload patterns.

    A tree node whose induced subgraph is not (isomorphic to) a
    connected induced subgraph of *some* workload pattern can never
    complete a match — its fused ETasks are all canceled.  This is the
    pattern-aware half of the §5.4 skip rule; it is computed once per
    workload (pattern-level, the §8.1 precomputation) and memoized.
    """
    from ..patterns.isomorphism import connected_subpatterns

    viable: Dict[int, set] = {k: set() for k in range(1, max_size + 1)}
    for size, patterns in quasi_clique_patterns_up_to(
        max_size, gamma, min_size=min_size
    ).items():
        for pattern in patterns:
            for subset in connected_subpatterns(pattern):
                sub = pattern.subpattern(subset)
                viable[len(subset)].add(sub.canonical_key())
    return {k: frozenset(v) for k, v in viable.items()}


class _ShapeViability:
    """Memoized 'is this exact induced shape viable?' oracle.

    Keyed by the exact sorted-position edge tuple, so a shape's
    canonical key is computed once per distinct shape, not per tree
    node.
    """

    def __init__(self, viable_by_size: Dict[int, frozenset]) -> None:
        self._viable = viable_by_size
        self._memo: Dict[tuple, bool] = {}

    def check(self, size: int, edge_key: tuple) -> bool:
        memo_key = (size, edge_key)
        cached = self._memo.get(memo_key)
        if cached is None:
            cached = (
                Pattern(size, edge_key).canonical_key()
                in self._viable.get(size, frozenset())
            )
            self._memo[memo_key] = cached
        return cached


def mine_quasi_cliques_fused(
    graph: Graph,
    gamma: float,
    max_size: int,
    min_size: int = 3,
) -> QuasiCliqueResult:
    """Fusion + promotion mode (§5.4).

    All quasi-clique patterns share a single exploration tree: a tree
    node is the fused state of every ETask whose pattern its subgraph
    could still grow into.  A node whose subgraph matches a workload
    pattern is an RL-Path match promoted straight into the next level
    (never re-explored from scratch), and a node that can no longer
    reach *any* workload pattern cancels every fused ETask at once —
    "if an RL-Path in B does not match P', A can be skipped".  Three
    cancellation rules combine: per-vertex degree feasibility,
    pairwise common-neighbor bounds, and pattern-aware viability of
    the induced shape.
    """
    start = time.monotonic()
    result = QuasiCliqueResult()
    stats = result.stats
    viability = _ShapeViability(_viable_classes(gamma, max_size, min_size))

    def visit(current) -> bool:
        size = len(current)
        root = current[0]
        members = set(current)
        position = {v: i for i, v in enumerate(sorted(current))}
        degrees = []
        outside = []
        edges = []
        for v in current:
            inside = 0
            reachable = 0
            for w in graph.neighbors(v):
                if w in members:
                    inside += 1
                    if w > v:
                        edges.append((position[v], position[w]))
                elif w > root:
                    # ESU only ever grows with vertices above the root,
                    # so only those can repair a degree deficit.
                    reachable += 1
            degrees.append(inside)
            outside.append(reachable)
        stats.candidate_computations += 1
        if size >= min_size and min(degrees) >= quasi_clique_min_degree(
            size, gamma
        ):
            result.add(frozenset(current))
            if size > min_size:
                stats.promotions += 1
        grow = (
            size < max_size
            and quasi_clique_feasible(degrees, outside, size, max_size, gamma)
            and viability.check(size, tuple(sorted(edges)))
            and _pairwise_feasible(graph, current, members, size, max_size, gamma)
        )
        if not grow:
            stats.etasks_canceled += 1
        return grow

    explore_connected_sets(graph, max_size, visit, stats=stats)
    result.elapsed = time.monotonic() - start
    return result
