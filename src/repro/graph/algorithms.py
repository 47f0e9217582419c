"""Graph algorithms outside the mining engine.

:func:`k_core` is the TThinker-style baseline's peel of sparse regions
(as the Quick algorithm does); :func:`triangle_count` is an independent
count the engine's triangle matches are checked against.
"""

from __future__ import annotations

from collections import deque
from typing import Set

from .graph import Graph


def k_core(graph: Graph, k: int) -> Set[int]:
    """Vertices of the maximal subgraph with minimum degree >= k."""
    degree = {v: graph.degree(v) for v in graph.vertices()}
    queue = deque(v for v, d in degree.items() if d < k)
    removed: Set[int] = set()
    while queue:
        v = queue.popleft()
        if v in removed:
            continue
        removed.add(v)
        for w in graph.neighbors(v):
            if w not in removed:
                degree[w] -= 1
                if degree[w] < k:
                    queue.append(w)
    return {v for v in graph.vertices() if v not in removed}


def triangle_count(graph: Graph) -> int:
    """Total number of triangles (ordered intersection counting)."""
    count = 0
    for u in graph.vertices():
        higher = [w for w in graph.neighbors(u) if w > u]
        higher_set = set(higher)
        for v in higher:
            for w in graph.neighbors(v):
                if w > v and w in higher_set:
                    count += 1
    return count
