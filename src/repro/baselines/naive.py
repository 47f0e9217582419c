"""Brute-force oracles.

These define ground truth for the three workloads on small graphs.
They share no code with the engines they validate (different
enumeration style, no caches, no plans), which is what makes the
integration tests meaningful.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Iterable, List, Sequence, Set

from ..graph.graph import Graph
from ..patterns.isomorphism import subpattern_embeddings
from ..patterns.pattern import Pattern
from ..patterns.quasicliques import is_quasi_clique


def connected_vertex_sets(
    graph: Graph, min_size: int, max_size: int
) -> List[FrozenSet[int]]:
    """All connected vertex sets with sizes in ``[min_size, max_size]``.

    Plain combination scan + connectivity filter: quadratic-ish and
    proud of it — oracles optimize for obviousness.
    """
    results: List[FrozenSet[int]] = []
    vertices = list(graph.vertices())
    for size in range(min_size, max_size + 1):
        for combo in itertools.combinations(vertices, size):
            if graph.is_connected_subset(combo):
                results.append(frozenset(combo))
    return results


def all_quasi_cliques(
    graph: Graph, gamma: float, min_size: int, max_size: int
) -> Set[FrozenSet[int]]:
    """Every gamma-quasi-clique vertex set with size in range."""
    return {
        vertex_set
        for vertex_set in connected_vertex_sets(graph, min_size, max_size)
        if is_quasi_clique(graph, sorted(vertex_set), gamma)
    }


def maximal_quasi_cliques(
    graph: Graph, gamma: float, min_size: int, max_size: int
) -> Set[FrozenSet[int]]:
    """Quasi-cliques not strictly contained in another quasi-clique of
    the mined size range (the paper's capped maximality, §8.2)."""
    universe = all_quasi_cliques(graph, gamma, min_size, max_size)
    return {
        candidate
        for candidate in universe
        if not any(
            candidate < other for other in universe if len(other) > len(candidate)
        )
    }


def minimal_keyword_covers(
    graph: Graph, keywords: Iterable[int], max_size: int
) -> Set[FrozenSet[int]]:
    """Minimal connected covers of the keyword set, sizes <= max_size."""
    keyword_set = frozenset(keywords)
    if not graph.is_labeled:
        raise ValueError("keyword search requires a labeled graph")
    covers_found = {
        vertex_set
        for vertex_set in connected_vertex_sets(
            graph, len(keyword_set), max_size
        )
        if _covers(graph, vertex_set, keyword_set)
    }
    return {
        candidate
        for candidate in covers_found
        if not any(
            other < candidate for other in covers_found
        )
    }


def _covers(
    graph: Graph, vertex_set: FrozenSet[int], keywords: FrozenSet[int]
) -> bool:
    labels = {graph.label(v) for v in vertex_set}
    return keywords <= labels


def pattern_matches(
    graph: Graph, pattern: Pattern, induced: bool = False
) -> List[Dict[int, int]]:
    """All injective matches of ``pattern`` in ``graph``, brute force.

    Returns raw assignments (one per automorphic image); callers that
    want subgraphs deduplicate by vertex set.
    """
    results: List[Dict[int, int]] = []
    assignment: Dict[int, int] = {}
    used: Set[int] = set()

    def extend(v: int) -> None:
        if v == pattern.num_vertices:
            results.append(dict(assignment))
            return
        want = pattern.label(v)
        for w in graph.vertices():
            if w in used:
                continue
            if want is not None and graph.label(w) != want:
                continue
            ok = True
            for prev, image in assignment.items():
                has = graph.has_edge(w, image)
                needs = pattern.has_edge(v, prev)
                if needs and not has:
                    ok = False
                    break
                if induced and not needs and has:
                    ok = False
                    break
                if has and pattern.has_anti_edge(v, prev):
                    ok = False
                    break
            if not ok:
                continue
            assignment[v] = w
            used.add(w)
            extend(v + 1)
            del assignment[v]
            used.discard(w)

    extend(0)
    return results


def match_contained_in(
    graph: Graph,
    match_assignment: Sequence[int],
    p_m: Pattern,
    p_plus: Pattern,
    induced: bool = False,
) -> bool:
    """Whether a ``p_m`` match is contained in some ``p_plus`` match.

    Containment follows the paper's subgraph relation: there must be a
    ``p_plus`` match ``phi`` and a pattern-level embedding ``e`` of
    ``p_m`` into ``p_plus`` with ``phi(e(v)) == match(v)`` for every
    ``p_m`` vertex — the same definition the runtime's VTasks use.
    """
    for embedding in subpattern_embeddings(p_m, p_plus, induced=induced):
        pinned = {embedding[v]: match_assignment[v] for v in p_m.vertices()}
        if _completable(graph, p_plus, pinned, induced):
            return True
    return False


def _completable(
    graph: Graph,
    p_plus: Pattern,
    pinned: Dict[int, int],
    induced: bool,
) -> bool:
    """Can ``pinned`` (p_plus vertex -> data vertex) extend to a match?"""
    free = [v for v in p_plus.vertices() if v not in pinned]
    used = set(pinned.values())
    # Verify the pinned part is itself consistent.
    pairs = list(pinned.items())
    for i, (v, w) in enumerate(pairs):
        for v2, w2 in pairs[i + 1 :]:
            needs = p_plus.has_edge(v, v2)
            has = graph.has_edge(w, w2)
            if needs and not has:
                return False
            if induced and not needs and has:
                return False

    def extend(index: int) -> bool:
        if index == len(free):
            return True
        v = free[index]
        want = p_plus.label(v)
        for w in graph.vertices():
            if w in used:
                continue
            if want is not None and graph.label(w) != want:
                continue
            ok = True
            for v2, w2 in pinned.items():
                needs = p_plus.has_edge(v, v2)
                has = graph.has_edge(w, w2)
                if needs and not has or induced and not needs and has:
                    ok = False
                    break
            if not ok:
                continue
            pinned[v] = w
            used.add(w)
            if extend(index + 1):
                del pinned[v]
                used.discard(w)
                return True
            del pinned[v]
            used.discard(w)
        return False

    return extend(0)


def nested_query_matches(
    graph: Graph,
    p_m: Pattern,
    p_plus_list: Sequence[Pattern],
    induced: bool = False,
) -> Set[tuple]:
    """NSQ ground truth: ``p_m`` matches contained in no ``p_plus`` match.

    Matches are identified by their canonical assignment (minimal
    automorphic image) — one entry per subgraph match, matching the
    engines' symmetry-broken output.  Containment is invariant across
    the automorphic images of a match (composing an embedding with an
    automorphism yields another embedding), so checking one
    representative per orbit is exact.
    """
    from ..patterns.symmetry import canonical_assignment_oracle

    valid: Set[tuple] = set()
    rejected: Set[tuple] = set()
    for assignment in pattern_matches(graph, p_m, induced=induced):
        ordered = [assignment[v] for v in p_m.vertices()]
        key = canonical_assignment_oracle(ordered, p_m)
        if key in valid or key in rejected:
            continue
        if any(
            match_contained_in(graph, ordered, p_m, p_plus, induced)
            for p_plus in p_plus_list
        ):
            rejected.add(key)
        else:
            valid.add(key)
    return valid
