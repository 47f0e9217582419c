"""Enumeration of all connected pattern structures of a given size.

Keyword search mines every connected pattern up to a size bound (the
paper's "up to 287 different patterns"); this module enumerates the
unlabeled structures those patterns are built from.  Sizes stay tiny
(<= 6), so mask enumeration with isomorphism dedup is fine and is
memoized per size.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Tuple

from .isomorphism import are_isomorphic
from .pattern import Pattern

_STRUCTURE_CACHE: Dict[int, Tuple[Pattern, ...]] = {}


def connected_structures(size: int) -> Tuple[Pattern, ...]:
    """All canonical connected unlabeled graphs on ``size`` vertices.

    Returned sorted sparsest first (edge count ascending).  Counts per
    size: 1, 1, 2, 6, 21, 112 — matching the known sequence (OEIS
    A001349), which the tests assert.
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    cached = _STRUCTURE_CACHE.get(size)
    if cached is not None:
        return cached
    if size == 1:
        result: Tuple[Pattern, ...] = (Pattern(1, [], name="s1.0"),)
        _STRUCTURE_CACHE[size] = result
        return result

    pairs = list(itertools.combinations(range(size), 2))
    # Bucket candidates by degree sequence before pairwise isomorphism
    # checks; keeps the dedup near-linear in practice.
    buckets: Dict[tuple, List[Pattern]] = {}
    for mask in range(1 << len(pairs)):
        if bin(mask).count("1") < size - 1:
            continue  # connectivity needs >= size - 1 edges
        edges = [pairs[bit] for bit in range(len(pairs)) if mask >> bit & 1]
        candidate = Pattern(size, edges)
        if not candidate.is_connected():
            continue
        signature = tuple(
            sorted(candidate.degree(v) for v in candidate.vertices())
        )
        group = buckets.setdefault(signature, [])
        if any(are_isomorphic(candidate, seen) for seen in group):
            continue
        group.append(candidate)
    flat = sorted(
        (p for group in buckets.values() for p in group),
        key=lambda p: (p.num_edges, p.canonical_key()),
    )
    named = tuple(
        Pattern(size, p.edges, name=f"s{size}.{index}")
        for index, p in enumerate(flat)
    )
    _STRUCTURE_CACHE[size] = named
    return named
