"""Enumeration of connected pattern classes of a given size.

Keyword search mines every connected pattern up to a size bound (the
paper's "up to 287 different patterns") and MQC mines the
quasi-clique classes (§2.2), one representative per isomorphism class.
Each size's classes are grown once per process from the size below:
every connected graph has a vertex whose removal leaves it connected,
so adding a vertex with every non-empty neighbour set to every class
one size smaller reaches every class.
"""

from __future__ import annotations

import functools
import itertools
from typing import Dict, Tuple

from .pattern import Pattern


def _smallest_mask(pattern: Pattern) -> int:
    """The smallest edge mask over the vertex orders of ``pattern``, bit
    ``i`` for the ``i``-th pair of ``combinations(range(n), 2)``.

    Slots fill from ``n - 1`` down, and filling slot ``s`` settles the
    bits from ``s (2n - s - 1) / 2`` up, its pairs ``(s, t > s)``.  So
    only a vertex whose bits against the slots above are smallest fills
    it, and one of each set of twins (swapping them changes no mask); a
    branch stops once its settled bits exceed the best."""
    n = pattern.num_vertices
    adjacency = [sum(1 << w for w in pattern.neighbors(v)) for v in range(n)]
    best = 1 << n * (n - 1) // 2

    def place(s: int, codes: Dict[int, int], mask: int, free: int) -> None:
        nonlocal best  # ``codes``: free vertex -> its bits, slots > s
        if s < 0:
            best = mask
            return
        low = min(codes.values())
        base = s * (2 * n - s - 1) // 2
        mask |= low << base
        if mask >> base > best >> base:
            return
        twins = set()  # a false twin shares ``near``, a true one ``near | v``
        for v, code in codes.items():
            near = adjacency[v] & free
            if code != low or not twins.isdisjoint((near, near | 1 << v)):
                continue
            twins.update((near, near | 1 << v))
            place(s - 1, {
                w: c << 1 | near >> w & 1 for w, c in codes.items() if w != v
            }, mask, free & ~(1 << v))

    place(n - 1, dict.fromkeys(range(n), 0), 0, (1 << n) - 1)
    return best


def _pattern(size: int, mask: int) -> Pattern:
    pairs = itertools.combinations(range(size), 2)
    return Pattern(size, [p for i, p in enumerate(pairs) if mask >> i & 1])


@functools.lru_cache(maxsize=None)
def _classes(size: int) -> Tuple[int, ...]:
    """Each connected class on ``size`` vertices, as its smallest mask."""
    if size == 1:
        return (0,)
    masks = set()
    for mask in _classes(size - 1):
        parent = _pattern(size - 1, mask)
        for count in range(1, size):
            for near in itertools.combinations(range(size - 1), count):
                masks.add(_smallest_mask(parent.add_vertex(near)))
    return tuple(masks)


@functools.lru_cache(maxsize=None)
def _named(
    prefix: str, size: int, min_degree: int, densest_first: bool
) -> Tuple[Pattern, ...]:
    """The classes of ``size`` with degrees >= ``min_degree``, sorted by
    ``(±num_edges, canonical_key)``, named ``{prefix}.{i}``; memoised, so
    each pattern computes its canonical key once per process."""
    sign = -1 if densest_first else 1
    kept = sorted(
        (p for p in (_pattern(size, m) for m in _classes(size))
         if p.min_degree() >= min_degree),
        key=lambda p: (sign * p.num_edges, p.canonical_key()),
    )
    return tuple(
        Pattern(size, p.edges, name=f"{prefix}.{index}")
        for index, p in enumerate(kept)
    )


def connected_structures(size: int) -> Tuple[Pattern, ...]:
    """All canonical connected unlabeled graphs on ``size`` vertices.

    Returned sorted sparsest first (edge count ascending).  Counts per
    size: 1, 1, 2, 6, 21, 112, 853 — the known sequence (OEIS A001349),
    which the tests assert to size 6 and CI at size 7.
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    return _named(f"s{size}", size, 0, densest_first=False)
