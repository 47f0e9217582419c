"""Enumeration of connected pattern classes of a given size.

Keyword search mines every connected pattern up to a size bound (the
paper's "up to 287 different patterns") and MQC mines the
quasi-clique classes (§2.2); both are the connected graphs on ``size``
vertices whose minimum degree reaches a bound, one representative per
isomorphism class.  Sizes stay tiny (<= 6), so mask enumeration with
isomorphism dedup is fine and is memoized per pattern set.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Dict, List, Tuple

from .isomorphism import are_isomorphic
from .pattern import Pattern


@functools.lru_cache(maxsize=None)
def _classes(
    prefix: str, size: int, min_degree: int, densest_first: bool
) -> Tuple[Pattern, ...]:
    """One graph per connected class on ``size`` vertices, degrees >= bound.

    Each isomorphism class whose minimum degree is at least
    ``min_degree`` is represented by its first edge mask in ascending
    order.  The result is sorted by ``(num_edges, canonical_key)``, or
    by descending ``num_edges`` first with ``densest_first``, and named
    ``{prefix}.0``, ``{prefix}.1``, ...  The memo keeps each set's
    patterns the same objects from call to call, so what they cache
    (their canonical key) is computed once per process.
    """
    pairs = list(itertools.combinations(range(size), 2))
    # Connectivity needs size - 1 edges, the degree bound half its sum.
    min_edges = max(size - 1, math.ceil(size * min_degree / 2))
    # Bucket candidates by degree sequence before pairwise isomorphism
    # checks; keeps the dedup near-linear in practice.
    buckets: Dict[tuple, List[Pattern]] = {}
    for mask in range(1 << len(pairs)):
        if bin(mask).count("1") < min_edges:
            continue
        edges = [pair for bit, pair in enumerate(pairs) if mask >> bit & 1]
        degrees = [0] * size
        for u, v in edges:
            degrees[u] += 1
            degrees[v] += 1
        if min(degrees) < min_degree:
            continue
        candidate = Pattern(size, edges)
        if not candidate.is_connected():
            continue
        group = buckets.setdefault(tuple(sorted(degrees)), [])
        if not any(are_isomorphic(candidate, seen) for seen in group):
            group.append(candidate)
    sign = -1 if densest_first else 1
    classes = sorted(
        (p for group in buckets.values() for p in group),
        key=lambda p: (sign * p.num_edges, p.canonical_key()),
    )
    return tuple(
        Pattern(size, p.edges, name=f"{prefix}.{index}")
        for index, p in enumerate(classes)
    )


def connected_structures(size: int) -> Tuple[Pattern, ...]:
    """All canonical connected unlabeled graphs on ``size`` vertices.

    Returned sorted sparsest first (edge count ascending).  Counts per
    size: 1, 1, 2, 6, 21, 112 — matching the known sequence (OEIS
    A001349), which the tests assert.
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    return _classes(f"s{size}", size, 0, densest_first=False)
