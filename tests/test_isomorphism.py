"""Tests for isomorphism, embeddings, and connected subpatterns."""

from hypothesis import given, settings

from repro.patterns import (
    Pattern,
    are_isomorphic,
    clique,
    connected_subpatterns,
    contains_subpattern,
    cycle,
    diamond,
    house,
    path,
    subpattern_embeddings,
    triangle,
)

from repro.patterns.isomorphism import find_isomorphism

from conftest import connected_pattern_strategy


class TestIsomorphism:
    def test_identical(self):
        assert are_isomorphic(triangle(), triangle())

    def test_relabeled(self):
        a = Pattern(4, [(0, 1), (1, 2), (2, 3)])
        b = Pattern(4, [(3, 2), (2, 0), (0, 1)])
        assert are_isomorphic(a, b)

    def test_different_edge_counts(self):
        assert not are_isomorphic(triangle(), path(2))

    def test_same_degree_sequence_different_structure(self):
        # C6 vs two triangles' union is disconnected; use C6 vs prism-ish:
        c6 = cycle(6)
        two_triangles = Pattern(
            6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        )
        assert not are_isomorphic(c6, two_triangles)

    def test_labels_must_match(self):
        a = triangle().with_labels([1, 2, 3])
        b = triangle().with_labels([1, 2, 4])
        assert not are_isomorphic(a, b)

    def test_find_isomorphism_is_valid_mapping(self):
        a = diamond()
        b = a.relabel({0: 3, 1: 2, 2: 1, 3: 0})
        mapping = find_isomorphism(a, b)
        assert mapping is not None
        for u, v in a.edges:
            assert b.has_edge(mapping[u], mapping[v])

    @given(connected_pattern_strategy(max_vertices=5))
    @settings(max_examples=40, deadline=None)
    def test_isomorphic_to_random_relabeling(self, p):
        import random

        perm = list(range(p.num_vertices))
        random.Random(1).shuffle(perm)
        q = p.relabel(dict(enumerate(perm)))
        assert are_isomorphic(p, q)


class TestEmbeddings:
    def test_triangle_in_house(self):
        assert contains_subpattern(triangle(), house())

    def test_square_not_in_triangle(self):
        assert not contains_subpattern(cycle(4), triangle())

    def test_embedding_count_triangle_in_k4(self):
        embeddings = list(subpattern_embeddings(triangle(), clique(4)))
        # 4 vertex subsets x 3! automorphic placements
        assert len(embeddings) == 24

    def test_induced_vs_non_induced(self):
        # path-2 embeds in a triangle non-induced, never induced.
        assert contains_subpattern(path(2), triangle(), induced=False)
        assert not contains_subpattern(path(2), triangle(), induced=True)

    def test_embeddings_are_injective_homomorphisms(self):
        for emb in subpattern_embeddings(path(2), house()):
            assert len(set(emb.values())) == 3
            for u, v in path(2).edges:
                assert house().has_edge(emb[u], emb[v])

    def test_labels_respected(self):
        small = Pattern(2, [(0, 1)], labels=[1, None])
        big = Pattern(3, [(0, 1), (1, 2)], labels=[1, 2, 1])
        embeddings = list(subpattern_embeddings(small, big))
        assert all(big.label(emb[0]) == 1 for emb in embeddings)

    def test_too_large_small_pattern(self):
        assert list(subpattern_embeddings(clique(4), triangle())) == []


class TestConnectedSubpatterns:
    def test_triangle(self):
        subsets = connected_subpatterns(triangle())
        # 3 singletons + 3 edges + 1 whole
        assert len(subsets) == 7

    def test_path(self):
        subsets = connected_subpatterns(path(2))
        # {0},{1},{2},{0,1},{1,2},{0,1,2} — {0,2} is disconnected
        assert len(subsets) == 6
        assert [0, 2] not in subsets

    def test_size_bounds(self):
        subsets = connected_subpatterns(house(), min_size=2, max_size=3)
        assert all(2 <= len(s) <= 3 for s in subsets)

    def test_no_duplicates(self):
        subsets = connected_subpatterns(house())
        assert len(subsets) == len({tuple(s) for s in subsets})

    @given(connected_pattern_strategy(max_vertices=5))
    @settings(max_examples=30, deadline=None)
    def test_matches_brute_force(self, p):
        import itertools

        expected = set()
        for size in range(1, p.num_vertices + 1):
            for combo in itertools.combinations(range(p.num_vertices), size):
                sub = p.subpattern(list(combo))
                if sub.is_connected():
                    expected.add(combo)
        got = {tuple(s) for s in connected_subpatterns(p)}
        assert got == expected
