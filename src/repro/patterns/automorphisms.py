"""Automorphism groups of small patterns.

Symmetry-breaking (paper §2.3 "symmetry-breaking restrictions") is
derived from Aut(P), the isomorphisms of a pattern onto itself.
Anti-edges are structure too: an automorphism that moved one onto a
plain non-edge would let symmetry breaking discard matches whose only
valid representative violates the moved constraint.  Results are
memoized per structure.
"""

from __future__ import annotations

from typing import Dict, Tuple

from .isomorphism import isomorphisms
from .pattern import Pattern

_AUT_CACHE: Dict[tuple, Tuple[Tuple[int, ...], ...]] = {}


def automorphisms(pattern: Pattern) -> Tuple[Tuple[int, ...], ...]:
    """All label-respecting automorphisms of ``pattern``.

    Each automorphism is a tuple ``sigma`` with ``sigma[v]`` the image
    of vertex ``v``.  The identity is always included.
    """
    key = pattern.structure_key()
    group = _AUT_CACHE.get(key)
    if group is None:
        group = _AUT_CACHE[key] = tuple(isomorphisms(pattern, pattern))
    return group
