"""Tests for the pattern library, quasi-clique patterns, and structures."""

import pytest

from repro.graph import graph_from_edges
from repro.patterns import (
    clique,
    cycle,
    diamond,
    diamond_house,
    edge,
    house,
    is_quasi_clique,
    path,
    quasi_clique_min_degree,
    quasi_clique_patterns,
    quasi_clique_patterns_up_to,
    star,
    tailed_triangle,
    triangle,
    wheel,
)
from repro.patterns.structures import connected_structures


class TestLibrary:
    def test_edge(self):
        assert edge().num_edges == 1

    def test_path_sizes(self):
        assert path(3).num_vertices == 4
        assert path(3).num_edges == 3

    def test_cycle(self):
        c = cycle(5)
        assert c.num_edges == 5
        assert all(c.degree(v) == 2 for v in c.vertices())

    def test_clique(self):
        assert clique(5).num_edges == 10

    def test_star(self):
        s = star(4)
        assert s.degree(0) == 4
        assert all(s.degree(v) == 1 for v in range(1, 5))

    def test_house_is_triangle_plus_square(self):
        h = house()
        assert h.num_vertices == 5
        assert h.num_edges == 6

    def test_diamond_house_contains_diamond(self):
        from repro.patterns import contains

        assert contains(diamond(), diamond_house())

    def test_tailed_triangle_contains_triangle(self):
        from repro.patterns import contains

        assert contains(triangle(), tailed_triangle())

    def test_wheel(self):
        w = wheel(4)
        assert w.degree(0) == 4
        assert w.num_edges == 8

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            path(0)
        with pytest.raises(ValueError):
            cycle(2)
        with pytest.raises(ValueError):
            wheel(2)
        with pytest.raises(ValueError):
            star(0)


class TestQuasiCliqueDegree:
    def test_threshold_values(self):
        assert quasi_clique_min_degree(4, 0.8) == 3
        assert quasi_clique_min_degree(5, 0.8) == 4
        assert quasi_clique_min_degree(6, 0.8) == 4
        assert quasi_clique_min_degree(6, 0.6) == 3

    def test_gamma_one_is_clique(self):
        assert quasi_clique_min_degree(5, 1.0) == 4

    def test_invalid_gamma(self):
        with pytest.raises(ValueError):
            quasi_clique_min_degree(4, 0.0)
        with pytest.raises(ValueError):
            quasi_clique_min_degree(4, 1.5)

    def test_is_quasi_clique_on_data(self):
        g = graph_from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
        assert is_quasi_clique(g, [0, 1, 2], 0.8)
        assert not is_quasi_clique(g, [0, 1, 2, 3], 0.8)

    def test_is_quasi_clique_requires_connectivity(self):
        g = graph_from_edges(
            [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        )
        # two disjoint triangles: min degree 2 but disconnected
        assert not is_quasi_clique(g, [0, 1, 2, 3, 4, 5], 0.4)


class TestQuasiCliquePatterns:
    def test_paper_pattern_counts(self):
        """The paper's §8.2: 7-26 patterns for gamma in [0.6, 0.8]."""
        for gamma, total in ((0.8, 7), (0.7, 9), (0.6, 26)):
            by_size = quasi_clique_patterns_up_to(6, gamma)
            assert sum(map(len, by_size.values())) == total

    def test_gamma08_small_sizes_are_cliques(self):
        assert quasi_clique_patterns(4, 0.8) == (
            quasi_clique_patterns(4, 1.0)
        )
        (only,) = quasi_clique_patterns(5, 0.8)
        assert only.is_clique()

    def test_size6_gamma08(self):
        patterns = quasi_clique_patterns(6, 0.8)
        # K6 minus matchings of size 0..3 -> 4 patterns? K6 itself plus
        # complements of 1, 2, 3 disjoint edges.
        assert len(patterns) == 4
        assert patterns[0].is_clique()

    def test_all_meet_min_degree(self):
        for gamma in (0.6, 0.7, 0.8):
            for size, patterns in quasi_clique_patterns_up_to(
                6, gamma
            ).items():
                threshold = quasi_clique_min_degree(size, gamma)
                for p in patterns:
                    assert p.min_degree() >= threshold
                    assert p.is_connected()

    def test_no_isomorphic_duplicates(self):
        patterns = quasi_clique_patterns(6, 0.6)
        keys = {p.canonical_key() for p in patterns}
        assert len(keys) == len(patterns)

    def test_sorted_densest_first(self):
        patterns = quasi_clique_patterns(6, 0.6)
        counts = [p.num_edges for p in patterns]
        assert counts == sorted(counts, reverse=True)

    def test_min_size_bound(self):
        with pytest.raises(ValueError):
            quasi_clique_patterns_up_to(3, 0.8, min_size=4)


class TestConnectedStructures:
    def test_known_counts(self):
        # OEIS A001349: connected graphs on n nodes.
        assert len(connected_structures(1)) == 1
        assert len(connected_structures(2)) == 1
        assert len(connected_structures(3)) == 2
        assert len(connected_structures(4)) == 6
        assert len(connected_structures(5)) == 21

    def test_all_connected_and_distinct(self):
        structures = connected_structures(5)
        assert all(p.is_connected() for p in structures)
        keys = {p.canonical_key() for p in structures}
        assert len(keys) == len(structures)

    def test_sparsest_first(self):
        structures = connected_structures(4)
        assert structures[0].num_edges == 3  # trees first
        assert structures[-1].is_clique()

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            connected_structures(0)
