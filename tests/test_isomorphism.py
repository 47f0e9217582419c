"""Tests for isomorphism, embeddings, and connected subpatterns."""

import itertools

from hypothesis import given, settings, strategies as st

from repro.patterns import (
    Pattern,
    are_isomorphic,
    clique,
    connected_subpatterns,
    contains_subpattern,
    cycle,
    house,
    path,
    subpattern_embeddings,
    triangle,
)

from repro.patterns.isomorphism import isomorphisms

from conftest import connected_pattern_strategy


@st.composite
def decorated_pattern_strategy(draw, max_vertices=4):
    """A small pattern, not always connected, with anti-edges and labels."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    pairs = list(itertools.combinations(range(n), 2))
    kinds = draw(
        st.lists(
            st.sampled_from(["edge", "anti", "none"]),
            min_size=len(pairs),
            max_size=len(pairs),
        )
    )
    labels = draw(
        st.lists(st.sampled_from([None, 0, 1]), min_size=n, max_size=n)
    )

    def having(wanted):
        return [pair for pair, kind in zip(pairs, kinds) if kind == wanted]

    return Pattern(
        n, having("edge"), labels=labels, anti_edges=having("anti")
    )


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

    def test_every_isomorphism_is_a_valid_mapping(self):
        a = Pattern(
            5,
            [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)],
            labels=[None, 1, 1, 1, None],
            anti_edges=[(1, 3), (2, 4)],
        )
        b = a.relabel({0: 3, 1: 0, 2: 4, 3: 1, 4: 2})
        mappings = list(isomorphisms(a, b))
        # ``a`` has two automorphisms, the identity and the swap of 1
        # and 3, so there are two isomorphisms onto any relabelling.
        assert len(mappings) == 2
        for sigma in mappings:
            assert sorted(sigma) == list(a.vertices())
            for u, v in itertools.combinations(a.vertices(), 2):
                assert a.has_edge(u, v) == b.has_edge(sigma[u], sigma[v])
                assert a.has_anti_edge(u, v) == b.has_anti_edge(
                    sigma[u], sigma[v]
                )
            for v in a.vertices():
                assert a.label(v) == b.label(sigma[v])

    def test_anti_edges_count(self):
        p3 = path(2)
        assert not are_isomorphic(p3, p3.with_anti_edges([(0, 2)]))
        assert list(isomorphisms(p3, p3.with_anti_edges([(0, 2)]))) == []

    @given(connected_pattern_strategy(max_vertices=5))
    @settings(max_examples=40, deadline=None)
    def test_isomorphic_to_random_relabeling(self, p):
        import random

        perm = list(range(p.num_vertices))
        random.Random(1).shuffle(perm)
        q = p.relabel(dict(enumerate(perm)))
        assert are_isomorphic(p, q)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_canonical_key(self, data):
        a = data.draw(decorated_pattern_strategy())
        if data.draw(st.booleans()):
            # A permuted copy of ``a`` in which two vertex pairs may
            # swap kinds (edge / anti-edge / neither): every count
            # stays, so only the search itself can tell them apart.
            perm = data.draw(st.permutations(list(a.vertices())))
            b = a.relabel(dict(enumerate(perm)))
            pairs = list(itertools.combinations(b.vertices(), 2))
            if len(pairs) > 1 and data.draw(st.booleans()):
                x, y = data.draw(
                    st.lists(
                        st.sampled_from(pairs),
                        min_size=2, max_size=2, unique=True,
                    )
                )
                swap = {x: y, y: x}
                b = Pattern(
                    b.num_vertices,
                    [swap.get(pair, pair) for pair in b.edges],
                    labels=b.labels,
                    anti_edges=[swap.get(pair, pair) for pair in b.anti_edges],
                )
        else:
            b = data.draw(decorated_pattern_strategy())
        assert are_isomorphic(a, b) == (a.canonical_key() == b.canonical_key())


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
