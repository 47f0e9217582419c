"""Symmetry-breaking restrictions.

Pattern-aware systems avoid emitting each subgraph once per
automorphism by imposing a partial order on the data-vertex ids bound
to symmetric pattern vertices (paper §2.3).  We use the GraphZero /
Peregrine construction: repeatedly stabilize the smallest moved vertex,
emitting one ``phi(v) < phi(u)`` condition per other member of its
orbit.  Exactly one permutation of every match satisfies all
conditions, and because the chain stabilizes vertices in id order that
permutation is the lexicographically-minimal automorphic image — the
form :func:`canonical_assignment` computes for assignments that did
not come out of a symmetry-broken plan.  Tests verify both against
the brute-force :func:`canonical_assignment_oracle`.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Sequence, Tuple, Union

from .automorphisms import automorphisms
from .pattern import Pattern

Condition = Tuple[int, int]  # (v, u) means phi(v) < phi(u)

# Prefix trie over Aut(P): a leaf is one automorphism, an internal node
# maps candidate images of one pattern vertex to sub-tries.
_TrieNode = Union[Tuple[int, ...], Dict[int, "_TrieNode"]]


def symmetry_conditions(pattern: Pattern) -> List[Condition]:
    """Partial-order conditions that break all automorphisms of ``pattern``.

    Returns pairs ``(v, u)`` of *pattern* vertex ids meaning the data
    vertex matched to ``v`` must have a smaller id than the one matched
    to ``u``.
    """
    group = list(automorphisms(pattern))
    conditions: List[Condition] = []
    while len(group) > 1:
        moved = [
            v
            for v in pattern.vertices()
            if any(sigma[v] != v for sigma in group)
        ]
        v = min(moved)
        orbit = {sigma[v] for sigma in group}
        for u in sorted(orbit):
            if u != v:
                conditions.append((v, u))
        group = [sigma for sigma in group if sigma[v] == v]
    return conditions


def satisfies_conditions(
    assignment: Sequence[int], conditions: Sequence[Condition]
) -> bool:
    """Check ``phi(v) < phi(u)`` for every condition.

    ``assignment[v]`` is the data vertex matched to pattern vertex ``v``.
    """
    return all(assignment[v] < assignment[u] for v, u in conditions)


def canonical_assignment(
    assignment: Sequence[int], pattern: Pattern
) -> Tuple[int, ...]:
    """Lexicographically-minimal automorphic image of a match.

    The orbit-invariant key the engine stores results and promotion
    records under.  Runs the pattern's compiled canonicaliser (see
    :func:`_compile_canonicaliser`): O(n) on asymmetric patterns and
    cliques, one ``min`` per stabiliser-chain level otherwise — never
    a loop over Aut(P).  An assignment that satisfies
    :func:`symmetry_conditions` is its own canonical form, so only
    matches that did not come out of a symmetry-broken plan (VTask
    completions) need this at all.  ``assignment`` must be injective.
    """
    key = pattern.structure_key()
    canonicalise = _CANONICALISERS.get(key)
    if canonicalise is None:
        canonicalise = _compile_canonicaliser(pattern)
        _CANONICALISERS[key] = canonicalise
    return canonicalise(assignment)


def canonical_assignment_oracle(
    assignment: Sequence[int], pattern: Pattern
) -> Tuple[int, ...]:
    """Oracle: :func:`canonical_assignment` by brute force over Aut(P).

    For tests and baselines only — it shares nothing with the compiled
    form it checks, and costs one candidate tuple per automorphism.
    """
    return min(
        tuple(assignment[sigma[v]] for v in pattern.vertices())
        for sigma in automorphisms(pattern)
    )


Canonicaliser = Callable[[Sequence[int]], Tuple[int, ...]]

# Per-structure memo, the canonicalising counterpart of
# ``automorphisms._AUT_CACHE``.
_CANONICALISERS: Dict[tuple, Canonicaliser] = {}


def _compile_canonicaliser(pattern: Pattern) -> Canonicaliser:
    """Build the function :func:`canonical_assignment` runs for ``pattern``.

    Trivial group: the assignment is already minimal.  Full symmetric
    group (cliques): the minimum is the sorted assignment.  Otherwise
    a prefix trie over Aut(P): each internal node maps the candidate
    images of the first vertex its automorphisms disagree on to the
    sub-trie that fixes that choice; each leaf is the one automorphism
    left.  Walking it greedily — take the image whose data vertex is
    smallest — yields the lexicographic minimum because assignments
    are injective, so the smallest value at a level is reached through
    exactly one branch.
    """
    group = automorphisms(pattern)
    n = pattern.num_vertices
    if len(group) == 1:
        return tuple
    if len(group) == math.factorial(n):
        return lambda assignment: tuple(sorted(assignment))

    def build(sigmas: Sequence[Tuple[int, ...]], level: int) -> _TrieNode:
        if len(sigmas) == 1:
            return sigmas[0]
        branches: Dict[int, List[Tuple[int, ...]]] = {}
        for sigma in sigmas:
            branches.setdefault(sigma[level], []).append(sigma)
        if len(branches) == 1:
            return build(sigmas, level + 1)
        return {w: build(rest, level + 1) for w, rest in branches.items()}

    root = build(group, 0)

    def canonicalise(assignment: Sequence[int]) -> Tuple[int, ...]:
        value_at = assignment.__getitem__
        node = root
        while isinstance(node, dict):
            node = node[min(node, key=value_at)]
        return tuple(map(value_at, node))

    return canonicalise


def conditions_by_position(
    conditions: Sequence[Condition], order: Sequence[int]
) -> Dict[int, List[Tuple[int, bool]]]:
    """Re-key conditions by matching-order position for in-loop checking.

    ``order[i]`` is the pattern vertex matched at step ``i``.  Returns a
    map ``position -> [(earlier_position, must_be_greater)]``: when the
    engine binds a data vertex at ``position``, each entry says the new
    vertex must compare against the vertex already bound at
    ``earlier_position`` (greater-than when the flag is True, else
    less-than).  Conditions between two not-yet-bound vertices are
    attached to the later position.
    """
    position_of = {v: i for i, v in enumerate(order)}
    keyed: Dict[int, List[Tuple[int, bool]]] = {}
    for v, u in conditions:
        pv, pu = position_of[v], position_of[u]
        if pv < pu:
            # v bound first; when u arrives it must be greater than v.
            keyed.setdefault(pu, []).append((pv, True))
        else:
            # u bound first; when v arrives it must be less than u.
            keyed.setdefault(pv, []).append((pu, False))
    return keyed
