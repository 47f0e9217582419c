"""Quasi-clique pattern enumeration (paper §2.2, MQC workload).

A ``gamma``-quasi-clique of size ``k`` is a subgraph in which every
vertex has induced degree at least ``ceil(gamma * (k - 1))``.  MQC
mining enumerates, for each size, the canonical patterns with that
minimum-degree property and finds their *induced* matches: each data
vertex set then matches exactly one pattern (its induced isomorphism
class), so sets are never double counted.

For ``gamma >= 0.5`` the degree bound forces connectivity; smaller
gammas are safe too, because the classes are connected by construction.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, Sequence, Tuple

from .pattern import Pattern
from .structures import _named

if TYPE_CHECKING:  # pragma: no cover - import-time only
    from ..graph.graph import Graph


def quasi_clique_min_degree(size: int, gamma: float) -> int:
    """Per-vertex induced-degree requirement ``ceil(gamma * (size - 1))``."""
    if size < 1:
        raise ValueError("size must be >= 1")
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must be in (0, 1]")
    return math.ceil(gamma * (size - 1) - 1e-9)


def is_quasi_clique(
    graph: Graph, vertex_set: Sequence[int], gamma: float
) -> bool:
    """Whether ``vertex_set`` induces a gamma-quasi-clique in ``graph``."""
    members = list(dict.fromkeys(vertex_set))
    threshold = quasi_clique_min_degree(len(members), gamma)
    degrees = graph.degrees_within(members)
    if any(d < threshold for d in degrees.values()):
        return False
    return graph.is_connected_subset(members)


def quasi_clique_patterns(size: int, gamma: float) -> Tuple[Pattern, ...]:
    """All canonical quasi-clique patterns of exactly ``size`` vertices.

    Patterns are returned sorted by descending edge count (densest —
    the clique — first).  Results are memoized on ``(size, min_degree)``.
    """
    min_degree = quasi_clique_min_degree(size, gamma)
    return _named(f"qc-{size}", size, min_degree, densest_first=True)


def quasi_clique_patterns_up_to(
    max_size: int, gamma: float, min_size: int = 3
) -> Dict[int, Tuple[Pattern, ...]]:
    """Patterns for every size in ``[min_size, max_size]``, keyed by size.

    The paper's MQC workload uses ``min_size=3`` (a single vertex or an
    edge is never an interesting quasi-clique) and ``max_size=6``,
    yielding the 7–26 patterns quoted in §8.2.
    """
    if min_size > max_size:
        raise ValueError("min_size must be <= max_size")
    return {
        size: quasi_clique_patterns(size, gamma)
        for size in range(min_size, max_size + 1)
    }
