"""Tests for VTasks: alignment, gap bridging, fusion, enumeration."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.naive import match_contained_in, pattern_matches
from repro.core import ValidationTarget
from repro.graph import erdos_renyi
from repro.mining import ConstraintStats, SetOperationCache
from repro.patterns import (
    clique,
    diamond,
    diamond_house,
    house,
    quasi_clique_patterns,
    tailed_triangle,
    triangle,
)

from conftest import graph_strategy


def make(p_m, p_plus, graph, induced=False, **kw):
    return ValidationTarget(p_m, p_plus, graph, induced=induced, **kw)


class TestConstruction:
    def test_recipes_exist(self):
        g = erdos_renyi(10, 0.4, seed=0)
        target = make(triangle(), house(), g)
        assert target.recipes
        assert target.gap == 2

    def test_orbit_dedup_reduces_recipes(self):
        g = erdos_renyi(10, 0.4, seed=0)
        deduped = make(clique(4), clique(6), g, induced=True)
        full = make(
            clique(4), clique(6), g, induced=True, dedup_embeddings=False
        )
        assert len(deduped.recipes) < len(full.recipes)
        # K4 in K6 is a single orbit under Aut(K6).
        assert len(deduped.recipes) == 1

    def test_same_size_rejected(self):
        g = erdos_renyi(5, 0.5, seed=0)
        with pytest.raises(ValueError):
            make(triangle(), triangle(), g)

    def test_recipe_anchors_nonempty(self):
        g = erdos_renyi(10, 0.4, seed=0)
        target = make(triangle(), diamond_house(), g)
        for recipe in target.recipes:
            assert all(recipe.anchors)

    def test_unknown_strategy_rejected(self):
        g = erdos_renyi(5, 0.5, seed=0)
        with pytest.raises(ValueError):
            make(triangle(), house(), g, strategy="bogus")


class TestRunCorrectness:
    """VTask existence result must agree with the brute-force oracle."""

    def _check_agreement(self, graph, p_m, p_plus, induced):
        stats = ConstraintStats()
        cache = SetOperationCache(stats=stats)
        target = make(p_m, p_plus, graph, induced=induced)
        for assignment in pattern_matches(graph, p_m, induced=induced):
            ordered = [assignment[v] for v in p_m.vertices()]
            got = target.run(ordered, graph, cache, stats)
            want = match_contained_in(graph, ordered, p_m, p_plus, induced)
            assert (got is not None) == want
            if got is not None:
                # the completion must itself be a valid p_plus match
                # containing the p_m match's vertices
                assert set(ordered) <= set(got)
                for u, v in p_plus.edges:
                    assert graph.has_edge(got[u], got[v])

    @pytest.mark.parametrize("seed", range(4))
    def test_triangle_house_edge_induced(self, seed):
        g = erdos_renyi(12, 0.3, seed=seed)
        self._check_agreement(g, triangle(), house(), induced=False)

    @pytest.mark.parametrize("seed", range(4))
    def test_gap_two_bridging(self, seed):
        g = erdos_renyi(12, 0.3, seed=seed)
        self._check_agreement(g, triangle(), diamond_house(), induced=False)

    @pytest.mark.parametrize("seed", range(3))
    def test_induced_quasi_cliques(self, seed):
        g = erdos_renyi(12, 0.45, seed=seed)
        (k4,) = quasi_clique_patterns(4, 0.8)
        for k6 in quasi_clique_patterns(6, 0.8):
            self._check_agreement(g, k4, k6, induced=True)

    @pytest.mark.parametrize("mode", ["naive", "heuristic"])
    def test_udf_modes_agree(self, mode):
        g = erdos_renyi(12, 0.35, seed=7)
        stats = ConstraintStats()
        cache = SetOperationCache(stats=stats)
        fancy = make(triangle(), house(), g)
        plain = make(
            triangle(), house(), g,
            strategy=mode, dedup_embeddings=False, use_intersections=False,
        )
        for assignment in pattern_matches(g, triangle()):
            ordered = [assignment[v] for v in triangle().vertices()]
            a = fancy.run(ordered, g, cache, stats) is not None
            b = plain.run(ordered, g, cache, stats) is not None
            assert a == b

    @given(graph_strategy(max_vertices=9), st.integers(0, 3))
    @settings(max_examples=20, deadline=None)
    def test_property_containment_agreement(self, g, pick):
        patterns = [
            (triangle(), tailed_triangle()),
            (triangle(), house()),
            (diamond(), diamond_house()),
            (triangle(), clique(5)),
        ]
        p_m, p_plus = patterns[pick]
        self._check_agreement(g, p_m, p_plus, induced=False)


class TestEnumeration:
    def test_enumerate_completions_finds_all(self):
        g = erdos_renyi(11, 0.5, seed=3)
        stats = ConstraintStats()
        cache = SetOperationCache(stats=stats)
        target = make(triangle(), clique(4), g, induced=True)
        from repro.patterns import canonical_assignment_oracle
        from repro.mining import MiningEngine

        expected = {
            canonical_assignment_oracle(m.assignment, clique(4))
            for m in MiningEngine(g, induced=True).find_all(clique(4))
        }
        found = set()
        for assignment in pattern_matches(g, triangle(), induced=True):
            ordered = [assignment[v] for v in triangle().vertices()]
            target.enumerate_completions(
                ordered, g, cache, stats,
                lambda comp: found.add(
                    canonical_assignment_oracle(comp, clique(4))
                ),
            )
        assert found == expected

    def test_fusion_shares_cache(self):
        g = erdos_renyi(14, 0.5, seed=4)
        stats = ConstraintStats()
        shared = SetOperationCache(stats=stats)
        target = make(triangle(), clique(4), g, induced=True)
        matches = pattern_matches(g, triangle(), induced=True)[:20]
        for assignment in matches:
            ordered = [assignment[v] for v in triangle().vertices()]
            target.run(ordered, g, shared, stats)
        assert stats.cache_hits > 0
