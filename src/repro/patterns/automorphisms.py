"""Automorphism groups of small patterns.

Symmetry-breaking (paper §2.3 "symmetry-breaking restrictions") is
derived from Aut(P); patterns are tiny so a backtracking enumeration
is sufficient.  Results are memoized per structure.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .pattern import Pattern

_AUT_CACHE: Dict[tuple, Tuple[Tuple[int, ...], ...]] = {}


def automorphisms(pattern: Pattern) -> Tuple[Tuple[int, ...], ...]:
    """All label-respecting automorphisms of ``pattern``.

    Each automorphism is a tuple ``sigma`` with ``sigma[v]`` the image
    of vertex ``v``.  The identity is always included.
    """
    key = pattern.structure_key()
    cached = _AUT_CACHE.get(key)
    if cached is not None:
        return cached

    n = pattern.num_vertices
    results: List[Tuple[int, ...]] = []
    image = [-1] * n
    used = [False] * n

    def extend(v: int) -> None:
        if v == n:
            results.append(tuple(image))
            return
        for w in range(n):
            if used[w]:
                continue
            if pattern.label(v) != pattern.label(w):
                continue
            if pattern.degree(v) != pattern.degree(w):
                continue
            ok = True
            for prev in range(v):
                if pattern.has_edge(v, prev) != pattern.has_edge(w, image[prev]):
                    ok = False
                    break
                # Anti-edges are structure too: an automorphism that
                # moved one onto a plain non-edge would let symmetry
                # breaking discard matches whose only valid
                # representative violates the moved constraint.
                if pattern.has_anti_edge(v, prev) != pattern.has_anti_edge(
                    w, image[prev]
                ):
                    ok = False
                    break
            if not ok:
                continue
            image[v] = w
            used[w] = True
            extend(v + 1)
            image[v] = -1
            used[w] = False

    extend(0)
    frozen = tuple(sorted(results))
    _AUT_CACHE[key] = frozen
    return frozen
