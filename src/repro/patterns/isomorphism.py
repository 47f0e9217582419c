"""Isomorphism utilities for small patterns.

Patterns in graph mining are tiny (<= 8 vertices in every workload the
paper runs), so straightforward backtracking is both simple and fast
enough.  All functions respect labels: a pattern vertex with label
``None`` is a wildcard, a concrete label must match exactly.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .pattern import Pattern


def isomorphisms(a: Pattern, b: Pattern) -> Iterator[Tuple[int, ...]]:
    """Every bijection ``a -> b`` that keeps labels, edges and anti-edges.

    Each result is a tuple ``sigma`` with ``sigma[v]`` the image of
    ``a``'s vertex ``v``, yielded in lexicographic order.  Labels must
    be equal on both sides (wildcard == wildcard), and edges, non-edges
    and anti-edges must all map onto their own kind, so ``a`` and ``b``
    have an isomorphism exactly when their canonical keys are equal.
    """
    n = a.num_vertices
    if n != b.num_vertices or len(a.anti_edges) != len(b.anti_edges):
        return
    # A vertex may only map onto one of the same degree and label.
    kinds = [(a.degree(v), a.label(v)) for v in range(n)]
    images_of: Dict[tuple, List[int]] = {}
    for w in range(n):
        images_of.setdefault((b.degree(w), b.label(w)), []).append(w)
    if Counter(kinds) != {kind: len(ws) for kind, ws in images_of.items()}:
        return
    anti = a.has_anti_edges
    image = [-1] * n
    used = [False] * n

    def extend(v: int) -> Iterator[Tuple[int, ...]]:
        if v == n:
            yield tuple(image)
            return
        near = a.neighbors(v)
        for w in images_of[kinds[v]]:
            if used[w]:
                continue
            images = b.neighbors(w)
            for prev in range(v):
                mapped = image[prev]
                if (prev in near) != (mapped in images) or (
                    anti
                    and a.has_anti_edge(v, prev) != b.has_anti_edge(w, mapped)
                ):
                    break
            else:
                image[v] = w
                used[w] = True
                yield from extend(v + 1)
                used[w] = False

    yield from extend(0)


def are_isomorphic(a: Pattern, b: Pattern) -> bool:
    """Whether two patterns are isomorphic, labels and anti-edges kept."""
    return next(isomorphisms(a, b), None) is not None


def subpattern_embeddings(
    small: Pattern,
    big: Pattern,
    induced: bool = False,
) -> Iterator[Dict[int, int]]:
    """All injective embeddings of ``small`` into ``big``.

    An embedding maps every edge of ``small`` onto an edge of ``big``;
    with ``induced=True`` non-edges must also map to non-edges.  Labels
    on ``small`` vertices must be compatible with the images
    (wildcards on ``small`` match anything).
    """
    if small.num_vertices > big.num_vertices:
        return
    mapping: Dict[int, int] = {}
    used = [False] * big.num_vertices

    def extend(v: int) -> Iterator[Dict[int, int]]:
        if v == small.num_vertices:
            yield dict(mapping)
            return
        wanted = small.label(v)  # a wildcard matches anything
        for w in big.vertices():
            if used[w] or wanted is not None and wanted != big.label(w):
                continue
            if not all(
                big.has_edge(w, image) if small.has_edge(v, prev)
                else not (induced and big.has_edge(w, image))
                for prev, image in mapping.items()
            ):
                continue
            mapping[v] = w
            used[w] = True
            yield from extend(v + 1)
            del mapping[v]
            used[w] = False

    yield from extend(0)


def contains_subpattern(
    small: Pattern, big: Pattern, induced: bool = False
) -> bool:
    """Whether ``big`` contains ``small`` as a (possibly induced) subgraph."""
    embeddings = subpattern_embeddings(small, big, induced=induced)
    return next(embeddings, None) is not None


def connected_subpatterns(
    pattern: Pattern, min_size: int = 1, max_size: Optional[int] = None
) -> List[List[int]]:
    """All connected vertex subsets of ``pattern`` within a size range.

    The virtual state-space analysis (paper §7) enumerates exactly
    these: every connected subgraph of a target pattern.  Returned as
    sorted vertex lists, deduplicated.
    """
    limit = pattern.num_vertices if max_size is None else max_size
    results: List[List[int]] = []
    seen: Set[frozenset] = set()

    # Standard connected-subgraph enumeration: grow from each root,
    # only allowing extensions by vertices greater than the root to
    # avoid duplicates, tracked with a seen-set for safety.
    def grow(current: frozenset, frontier: frozenset) -> None:
        if min_size <= len(current) <= limit and current not in seen:
            seen.add(current)
            results.append(sorted(current))
        if len(current) >= limit:
            return
        candidates = sorted(frontier)
        for i, v in enumerate(candidates):
            new_frontier = (
                frontier | pattern.neighbors(v)
            ) - current - {v} - set(candidates[: i + 1])
            grow(current | {v}, frozenset(new_frontier))

    for root in pattern.vertices():
        frontier = frozenset(
            w for w in pattern.neighbors(root) if w > root
        )
        grow(frozenset({root}), frontier)
    return results
