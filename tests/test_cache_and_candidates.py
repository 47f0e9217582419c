"""Tests for the set-operation cache and candidate computation."""

import pytest

import repro.mining.cache as cache_module
from repro.graph import erdos_renyi, graph_from_edges
from repro.mining import (
    MiningStats,
    SetOperationCache,
    compute_candidates,
    raw_intersection,
    root_candidates,
)
from repro.patterns import clique, path, plan_for, triangle

from conftest import labeled_random_graph


class TestSetOperationCache:
    def test_miss_then_hit(self):
        stats = MiningStats()
        cache = SetOperationCache(stats=stats)
        key = frozenset({1, 2})
        assert cache.lookup(key) is None
        cache.store(key, frozenset({3}))
        assert cache.lookup(key) == frozenset({3})
        assert stats.cache_misses == 1
        assert stats.cache_hits == 1

    def test_disabled_cache_never_hits(self):
        stats = MiningStats()
        cache = SetOperationCache(stats=stats, enabled=False)
        key = frozenset({1})
        cache.store(key, frozenset({2}))
        assert cache.lookup(key) is None
        assert stats.cache_misses == 1

    def test_fifo_eviction(self, monkeypatch):
        monkeypatch.setattr(cache_module, "MAX_ENTRIES", 2)
        cache = SetOperationCache()
        cache.store(frozenset({1}), frozenset())
        cache.store(frozenset({2}), frozenset())
        # A hit does not refresh {1}: insertion order decides.
        assert cache.lookup(frozenset({1})) is not None
        cache.store(frozenset({3}), frozenset())
        assert len(cache) == 2
        assert cache.lookup(frozenset({1})) is None
        assert cache.lookup(frozenset({3})) is not None

    def test_clear(self):
        cache = SetOperationCache()
        cache.store(frozenset({1}), frozenset())
        cache.clear()
        assert len(cache) == 0


class TestRawIntersection:
    def test_common_neighbors(self):
        from repro.graph import GraphBuilder

        builder = GraphBuilder()
        for v in range(5):
            builder.add_vertex(v)
        builder.add_edges([(0, 2), (1, 2), (0, 3), (1, 3), (0, 4)])
        g = builder.build()
        stats = MiningStats()
        cache = SetOperationCache(stats=stats)
        assert raw_intersection(g, [0, 1], cache, stats) == {2, 3}

    def test_cached_second_time(self):
        g = erdos_renyi(15, 0.4, seed=0)
        stats = MiningStats()
        cache = SetOperationCache(stats=stats)
        first = raw_intersection(g, [0, 1], cache, stats)
        intersections_after_first = stats.set_intersections
        second = raw_intersection(g, [1, 0], cache, stats)  # same key
        assert first == second
        assert stats.set_intersections == intersections_after_first
        assert stats.cache_hits == 1

    def test_empty_intersection_short_circuits(self):
        g = graph_from_edges([(0, 1), (2, 3)])
        stats = MiningStats()
        cache = SetOperationCache(stats=stats)
        assert raw_intersection(g, [0, 2], cache, stats) == frozenset()


class TestComputeCandidates:
    def test_respects_adjacency(self):
        g = graph_from_edges([(0, 1), (0, 2), (1, 2), (2, 3)])
        plan = plan_for(triangle())
        stats = MiningStats()
        cache = SetOperationCache(stats=stats)
        # bind position 0 to vertex 0; candidates for position 1 are
        # neighbors of 0 subject to symmetry bounds.
        candidates = compute_candidates(g, plan, 1, [0], cache, stats)
        assert set(candidates) <= set(g.neighbors(0))

    def test_symmetry_bounds_prune(self):
        g = graph_from_edges([(0, 1), (0, 2), (1, 2)])
        plan = plan_for(triangle())
        stats = MiningStats()
        cache = SetOperationCache(stats=stats)
        ((earlier, must_be_greater),) = plan.conditions_at[1]
        assert earlier == 0
        # Root 1 has a neighbor on each side; the bound keeps one side.
        candidates = compute_candidates(g, plan, 1, [1], cache, stats)
        assert candidates == ([2] if must_be_greater else [0])

    def test_injectivity(self):
        g = graph_from_edges([(0, 1), (1, 2), (2, 3)])
        plan = plan_for(path(3))
        stats = MiningStats()
        cache = SetOperationCache(stats=stats)
        # The last step anchors on data vertex 2, whose neighbors are 1
        # and 3; both pass the symmetry bound (> 0), 1 is already bound.
        assert plan.backward_neighbors[3] == (1,)
        candidates = compute_candidates(g, plan, 3, [1, 2, 0], cache, stats)
        assert candidates == [3]

    def test_label_filter(self):
        g = labeled_random_graph(12, 0.6, num_labels=2, seed=3)
        pattern = path(1).with_labels([None, 1])
        plan = plan_for(pattern)
        stats = MiningStats()
        cache = SetOperationCache(stats=stats)
        # order may start at either endpoint; find the wildcard root.
        root = 0
        candidates = compute_candidates(g, plan, 1, [root], cache, stats)
        want_label = plan.labels_at[1]
        if want_label is not None:
            assert all(g.label(v) == want_label for v in candidates)

    def test_step_zero_rejected(self):
        g = graph_from_edges([(0, 1)])
        plan = plan_for(path(1))
        with pytest.raises(ValueError):
            compute_candidates(
                g, plan, 0, [], SetOperationCache(), MiningStats()
            )

    def test_root_candidates_unlabeled(self):
        g = erdos_renyi(10, 0.5, seed=1)
        plan = plan_for(triangle())
        assert root_candidates(g, plan) == list(range(10))

    def test_root_candidates_labeled(self):
        g = labeled_random_graph(12, 0.5, num_labels=3, seed=2)
        pattern = triangle().with_labels([1, None, None])
        plan = plan_for(pattern)
        roots = root_candidates(g, plan)
        root_label = plan.labels_at[0]
        if root_label is not None:
            assert all(g.label(v) == root_label for v in roots)
