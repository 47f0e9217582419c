"""Tests for the set-operation cache and candidate computation."""

import pytest

import repro.mining.cache as cache_module
from repro.graph import erdos_renyi, graph_from_edges
from repro.mining import (
    ETask,
    MiningStats,
    SetOperationCache,
    raw_intersection,
    root_candidates,
)
from repro.patterns import path, plan_for, triangle
from repro.patterns.plan import ExplorationPlan

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


def rooted_matches(graph, pattern, root, induced=False):
    """Assignments of one ETask's walk from ``root`` (sets path)."""
    stats = MiningStats()
    task = ETask(
        graph, plan_for(pattern, induced=induced), root,
        SetOperationCache(stats=stats), stats,
    )
    return list(task.matches())


class TestComputeCandidates:
    """``computeCandidates`` (Algorithms 1–2) as the ETask walker does it
    at every step of its plan's compiled step program."""

    def test_respects_adjacency(self):
        g = graph_from_edges([(0, 1), (0, 2), (1, 2), (2, 3)])
        # Rooted at 0, every later vertex is a neighbor of an earlier one.
        for assignment in rooted_matches(g, triangle(), 0):
            assert set(assignment) - {0} <= set(g.neighbors(0))

    def test_symmetry_bounds_prune(self):
        g = graph_from_edges([(0, 1), (0, 2), (1, 2)])
        plan = plan_for(triangle())
        _, anchors, _, _, lower, upper = plan.steps[1]
        assert anchors == (0,) and len(lower + upper) == 1
        # Each root has a neighbor on each side; the bound keeps one
        # side, so the triangle is found once, not once per automorphism.
        found = [rooted_matches(g, triangle(), root) for root in range(3)]
        assert sum(map(len, found)) == 1

    def test_injectivity(self):
        g = graph_from_edges([(0, 1), (1, 2), (2, 3)])
        plan = plan_for(path(3))
        # The last step anchors on one vertex only, whose bound
        # neighbor must not be re-bound (a Match would reject it).
        assert plan.steps[3][1] == (1,)
        assert rooted_matches(g, path(3), 1) == [(0, 1, 2, 3)]

    def test_label_filter(self):
        g = labeled_random_graph(12, 0.6, num_labels=2, seed=3)
        pattern = path(1).with_labels([None, 1])
        found = [
            assignment
            for root in root_candidates(g, plan_for(pattern))
            for assignment in rooted_matches(g, pattern, root)
        ]
        assert found
        assert all(g.label(a[1]) == 1 for a in found)

    def test_step_zero_rejected(self):
        # Step 0 binds the root and is the one step without anchors; an
        # order that leaves a later step without one is rejected.
        plan = plan_for(path(2))
        assert plan.steps[0][1] == () and all(s[1] for s in plan.steps[1:])
        with pytest.raises(ValueError):
            ExplorationPlan(path(2), (0, 2, 1), induced=False)

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
