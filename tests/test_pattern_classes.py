"""Pinned pattern classes and automorphism groups.

``data/pattern_classes.json`` holds, as ``"<name> <edge> <edge> ..."``
strings (an edge ``01`` is the pair (0, 1)), every connected structure
of size 1..6 and every quasi-clique pattern set of size 1..6 on the
0.05 gamma grid, captured from the separate structure and quasi-clique
enumerators that ``structures._classes`` replaced.  The one name that
changed is the single-vertex quasi-clique's, ``qc-1`` before and
``qc-1.0`` now, numbered like every other size.
"""

import itertools
import json
import os

import pytest

from repro.patterns import (
    automorphisms,
    connected_structures,
    quasi_clique_patterns,
)

with open(
    os.path.join(os.path.dirname(__file__), "data", "pattern_classes.json")
) as _handle:
    PINS = json.load(_handle)

GAMMAS = [f"{step * 0.05:.2f}" for step in range(1, 21)]


def encode(patterns):
    return [
        " ".join([p.name] + [f"{u}{v}" for u, v in sorted(p.edges)])
        for p in patterns
    ]


@pytest.mark.parametrize("size", range(1, 7))
def test_connected_structures_are_pinned(size):
    assert encode(connected_structures(size)) == PINS["structures"][str(size)]


def test_quasi_clique_pins_cover_the_gamma_grid():
    covered = sorted(
        (group["size"], gamma)
        for group in PINS["quasi_cliques"]
        for gamma in group["gammas"]
    )
    assert covered == sorted(itertools.product(range(1, 7), GAMMAS))


@pytest.mark.parametrize(
    "group",
    PINS["quasi_cliques"],
    ids=lambda group: f"{group['size']}@{group['gammas'][0]}",
)
def test_quasi_clique_patterns_are_pinned(group):
    for gamma in group["gammas"]:
        got = encode(quasi_clique_patterns(group["size"], float(gamma)))
        assert got == group["patterns"], gamma


def brute_force_automorphisms(pattern):
    """Every vertex permutation that keeps labels, edges and anti-edges."""

    def moved(pairs, sigma):
        return {tuple(sorted((sigma[u], sigma[v]))) for u, v in pairs}

    n = pattern.num_vertices
    return [
        sigma
        for sigma in itertools.permutations(range(n))
        if all(pattern.label(sigma[v]) == pattern.label(v) for v in range(n))
        and moved(pattern.edges, sigma) == pattern.edges
        and moved(pattern.anti_edges, sigma) == pattern.anti_edges
    ]


def variants(pattern):
    """``pattern`` plus a labelled and an anti-edged copy of it."""
    n = pattern.num_vertices
    yield pattern
    yield pattern.with_labels([v % 2 for v in range(n)])
    missing = [
        pair
        for pair in itertools.combinations(range(n), 2)
        if pair not in pattern.edges
    ]
    if missing:
        yield pattern.with_anti_edges(missing[:1])
        yield pattern.with_anti_edges(missing[-2:]).with_labels(
            [0] * (n - 1) + [None]
        )


@pytest.mark.parametrize("size", range(1, 7))
def test_automorphisms_equal_the_permutation_oracle(size):
    for structure in connected_structures(size):
        for pattern in variants(structure):
            assert list(automorphisms(pattern)) == brute_force_automorphisms(
                pattern
            ), pattern



def test_pattern_sets_are_memoised_per_min_degree():
    # The same objects come back, so what a pattern caches (its
    # canonical key) is computed once per process, not once per run.
    assert connected_structures(5) is connected_structures(5)
    assert quasi_clique_patterns(6, 0.6) is quasi_clique_patterns(6, 0.55)
