"""Tests for graph generators, k-cores and the triangle count."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    attach_labels,
    community_graph,
    erdos_renyi,
    graph_from_edges,
    k_core,
    powerlaw_graph,
    triangle_count,
)

from conftest import graph_strategy


class TestGenerators:
    def test_erdos_renyi_deterministic(self):
        a = erdos_renyi(30, 0.3, seed=5)
        b = erdos_renyi(30, 0.3, seed=5)
        assert a == b
        assert a != erdos_renyi(30, 0.3, seed=6)

    def test_erdos_renyi_extremes(self):
        empty = erdos_renyi(10, 0.0, seed=0)
        full = erdos_renyi(10, 1.0, seed=0)
        assert empty.num_edges == 0
        assert full.num_edges == 45

    def test_powerlaw_heavy_tail(self):
        g = powerlaw_graph(300, edges_per_vertex=3, seed=1)
        assert g.num_vertices == 300
        # preferential attachment: max degree far above average
        avg = 2 * g.num_edges / g.num_vertices
        assert g.max_degree > 3 * avg

    def test_powerlaw_invalid(self):
        with pytest.raises(ValueError):
            powerlaw_graph(10, edges_per_vertex=0)

    def test_community_structure(self):
        g = community_graph(5, 10, intra_probability=0.8, inter_edges=1,
                            seed=2)
        assert g.num_vertices == 50
        # intra-community density dwarfs overall density
        first = list(range(10))
        intra = g.edges_within(first)
        assert intra > 0.5 * (10 * 9 / 2) * 0.5

    def test_attach_labels_zipf_skew(self):
        g = attach_labels(erdos_renyi(500, 0.01, seed=3), num_labels=10,
                          seed=3)
        freq = g.label_frequencies()
        assert freq[0] > freq.get(9, 0)
        assert g.num_labels <= 10

    def test_attach_labels_invalid(self):
        with pytest.raises(ValueError):
            attach_labels(erdos_renyi(5, 0.5, seed=0), num_labels=0)


class TestAlgorithms:
    def test_k_core(self):
        # triangle with pendant: 2-core is the triangle
        g = graph_from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
        assert k_core(g, 2) == {0, 1, 2}
        assert k_core(g, 3) == set()
        assert k_core(g, 0) == {0, 1, 2, 3}

    def test_triangle_count(self):
        g = graph_from_edges([(0, 1), (1, 2), (0, 2), (2, 3), (1, 3)])
        assert triangle_count(g) == 2

    @given(graph_strategy(max_vertices=12))
    @settings(max_examples=40, deadline=None)
    def test_kcore_property(self, g):
        """Every vertex of the k-core has >= k neighbors in the core."""
        for k in (1, 2, 3):
            core = k_core(g, k)
            for v in core:
                assert sum(1 for w in g.neighbors(v) if w in core) >= k
