"""Tests for the ETask mining engine against brute-force counting."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import erdos_renyi, triangle_count
from repro.mining import MiningEngine
from repro.patterns import (
    Pattern,
    automorphisms,
    clique,
    cycle,
    diamond,
    path,
    star,
    subpattern_embeddings,
    tailed_triangle,
    triangle,
)

from conftest import graph_strategy, labeled_random_graph


def brute_count(graph, pattern, induced):
    """Subgraph-match count via per-vertex-set embedding counting."""
    n_aut = len(automorphisms(pattern))
    k = pattern.num_vertices
    total = 0
    for combo in itertools.combinations(range(graph.num_vertices), k):
        position = {v: i for i, v in enumerate(combo)}
        edges = [
            (position[u], position[w])
            for u in combo
            for w in graph.neighbors(u)
            if w in position and u < w
        ]
        labels = None
        if graph.is_labeled:
            labels = [graph.label(v) for v in combo]
        mini = Pattern(k, edges, labels=labels)
        embeddings = [
            e
            for e in subpattern_embeddings(pattern, mini, induced=induced)
        ]
        total += len(embeddings) // n_aut
    return total


class TestCounts:
    def test_triangles_match_oracle(self):
        g = erdos_renyi(35, 0.25, seed=3)
        assert MiningEngine(g).count(triangle()) == triangle_count(g)

    @pytest.mark.parametrize("induced", [False, True])
    @pytest.mark.parametrize(
        "pattern",
        [triangle(), clique(4), path(2), tailed_triangle(), diamond(),
         cycle(4), star(3)],
        ids=lambda p: p.name,
    )
    def test_library_patterns_vs_brute_force(self, pattern, induced):
        g = erdos_renyi(18, 0.35, seed=9)
        engine = MiningEngine(g, induced=induced)
        assert engine.count(pattern) == brute_count(g, pattern, induced)

    def test_labeled_pattern(self):
        g = labeled_random_graph(20, 0.3, num_labels=3, seed=5)
        pattern = triangle().with_labels([0, 1, None])
        engine = MiningEngine(g)
        assert engine.count(pattern) == brute_count(g, pattern, False)

    @given(graph_strategy(max_vertices=10), st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_triangle_count_property(self, g, induced):
        engine = MiningEngine(g, induced=induced)
        assert engine.count(triangle()) == brute_count(g, triangle(), induced)


class TestMatchesAndProcessors:
    def test_matches_are_valid_and_unique(self):
        g = erdos_renyi(16, 0.4, seed=2)
        engine = MiningEngine(g)
        matches = engine.find_all(clique(3))
        seen = set()
        for match in matches:
            assert match.assignment not in seen
            seen.add(match.assignment)
            for u, v in triangle().edges:
                assert g.has_edge(match.vertex_for(u), match.vertex_for(v))
        # one match per vertex set for cliques
        assert len({m.vertex_set for m in matches}) == len(matches)

    def test_collect_limit_stops_early(self):
        g = erdos_renyi(20, 0.5, seed=1)
        engine = MiningEngine(g)
        matches = engine.find_all(triangle(), limit=5)
        assert len(matches) == 5
        # The stream was closed mid-task: the open ETask never completes.
        assert engine.stats.matches_found == 5
        assert engine.stats.etasks_completed < engine.stats.etasks_started

    def test_find_all_limit_zero_and_negative(self):
        g = erdos_renyi(30, 0.3, seed=1)
        engine = MiningEngine(g)
        assert engine.find_all(triangle(), limit=0) == []
        assert engine.stats.etasks_started == 0
        with pytest.raises(ValueError):
            engine.find_all(triangle(), limit=-1)
        assert len(engine.find_all(triangle())) == 140

    def test_first_match(self):
        g = erdos_renyi(20, 0.5, seed=1)
        assert MiningEngine(g).exists(triangle())
        # K7 is absent from this graph and has only 5040 automorphisms
        # to enumerate (K10 is absent too, at 3.6 M and 66 s).
        assert MiningEngine(g).find_all(clique(7), limit=1) == []
        assert not MiningEngine(g).exists(clique(7))


class TestEngineInternals:
    def test_stats_populated(self):
        g = erdos_renyi(15, 0.4, seed=6)
        engine = MiningEngine(g)
        engine.count(tailed_triangle())
        assert engine.stats.etasks_started == 15
        assert engine.stats.rl_paths > 0
        assert engine.stats.matches_found > 0

    def test_per_task_caches_isolate_roots(self):
        # Plain single-pattern exploration never revisits a semantic
        # key within one rooted task, so per-task caches see no hits —
        # reuse comes from fusion/promotion (the Contigra layer).
        g = erdos_renyi(15, 0.6, seed=6)
        engine = MiningEngine(g, induced=True)
        engine.count(clique(4))
        assert engine.stats.cache_hits == 0

    def test_cache_disabled(self):
        g = erdos_renyi(15, 0.5, seed=6)
        engine = MiningEngine(g, cache_enabled=False)
        engine.count(clique(3))
        engine.count(clique(4))
        assert engine.stats.cache_hits == 0

    def test_roots_restriction(self):
        g = erdos_renyi(15, 0.5, seed=6)
        engine = MiningEngine(g)
        rooted = sum(1 for _ in engine.stream(triangle(), roots=[0, 1]))
        full = MiningEngine(g).count(triangle())
        assert 0 < rooted <= full
