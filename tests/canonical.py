"""The oracle key: ``Pattern.canonical_key`` by brute force.

``Pattern.canonical_key`` tries only the vertex orders that can win
(a maximum-degree vertex in slot 0, its neighbours next); this tries
all ``n!`` of them, as the key was once computed, and is kept beside
the tests that check the two agree (``tests/test_isomorphism.py``).
"""

import itertools


def label_rank(label):
    """A wildcard ranks -1, a negative label one below itself."""
    if label is None:
        return -1
    return label - 1 if label < 0 else label


def brute_force_key(pattern):
    """The smallest ``(n, edges, labels, anti_edges)`` over all orders."""
    n = pattern.num_vertices

    def moved(pairs, perm):
        return tuple(sorted(
            (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in pairs
        ))

    best = None
    for perm in itertools.permutations(range(n)):
        labels = [None] * n
        for old in range(n):
            labels[perm[old]] = label_rank(pattern.label(old))
        key = (
            n,
            moved(pattern.edges, perm),
            tuple(labels),
            moved(pattern.anti_edges, perm),
        )
        if best is None or key < best:
            best = key
    return best
