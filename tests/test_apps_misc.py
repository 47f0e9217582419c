"""Tests for maximal cliques (MQC at gamma = 1) and anti-vertex queries."""

import pytest

from repro.apps import (
    anti_vertex_query,
    lower_anti_vertices,
    maximal_quasi_cliques,
)
from repro.baselines.naive import maximal_quasi_cliques as oracle_mqc
from repro.graph import erdos_renyi, graph_from_edges
from repro.patterns import Pattern, triangle


class TestMaximalCliques:
    @pytest.mark.parametrize("seed", range(4))
    def test_contigra_matches_reference(self, seed):
        g = erdos_renyi(15, 0.45, seed=seed)
        got = maximal_quasi_cliques(g, 1.0, 5).all_sets()
        assert got == oracle_mqc(g, 1.0, 3, 5)

    def test_cap_semantics(self):
        # K6: mined with cap 4, every 4-subset is capped-maximal.
        g = graph_from_edges(
            [(u, v) for u in range(6) for v in range(u + 1, 6)]
        )
        got = maximal_quasi_cliques(g, 1.0, 4).all_sets()
        assert len(got) == 15  # C(6,4)
        assert got == oracle_mqc(g, 1.0, 3, 4)


class TestAntiVertex:
    def test_lowering_shapes(self):
        pattern = Pattern(
            4,
            [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3)],
            anti_vertices=[3],
        )
        p_m, p_plus_list = lower_anti_vertices(pattern)
        assert p_m.num_vertices == 3
        assert len(p_plus_list) == 1
        assert p_plus_list[0].num_vertices == 4
        assert not p_plus_list[0].has_anti_vertices

    def test_no_anti_vertices_rejected(self):
        with pytest.raises(ValueError):
            lower_anti_vertices(triangle())

    def test_disconnected_regular_part_rejected(self):
        pattern = Pattern(
            3, [(0, 2), (1, 2)], anti_vertices=[2]
        )
        with pytest.raises(ValueError):
            lower_anti_vertices(pattern)

    def test_query_semantics(self):
        # Path 0-1 with anti-vertex 2 adjacent to both: edges that close
        # no triangle.
        pattern = Pattern(
            3, [(0, 1), (0, 2), (1, 2)], anti_vertices=[2]
        )
        g = graph_from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
        result = anti_vertex_query(g, pattern)
        got = {frozenset(a) for a in result.assignments()}
        # edge 2-3 closes no triangle; every triangle edge does.
        assert got == {frozenset({2, 3})}
