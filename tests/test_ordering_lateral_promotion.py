"""Tests for RL-Path ordering heuristics, lateral scheduling, promotion."""

import pytest

from repro.core import (
    LateralScheduler,
    PromotionRegistry,
    ValidationTarget,
    order_validation_targets,
    prefer_sparse_first,
    resolve_strategy,
)
from repro.core.ordering import (
    graph_is_dense,
    order_by_density,
    order_exploration_paths,
    pattern_is_dense,
)
from repro.graph import erdos_renyi
from repro.mining import ConstraintStats, SetOperationCache
from repro.patterns import (
    clique,
    cycle,
    house,
    path,
    quasi_clique_patterns,
    star,
    triangle,
)


class TestDecisionTree:
    def test_pattern_density_predicate(self):
        assert pattern_is_dense(clique(5))
        assert not pattern_is_dense(path(4))

    def test_dense_targets_prefer_sparse_first(self):
        g = erdos_renyi(20, 0.05, seed=0)
        assert prefer_sparse_first([clique(4), clique(5)], g)

    def test_sparse_targets_prefer_dense_first(self):
        g = erdos_renyi(20, 0.05, seed=0)
        assert not prefer_sparse_first([path(3), star(3)], g)

    def test_mixed_targets_follow_graph_density(self):
        dense_graph = erdos_renyi(20, 0.5, seed=0)
        sparse_graph = erdos_renyi(60, 0.005, seed=0)
        targets = [clique(4), path(3)]
        assert graph_is_dense(dense_graph)
        assert not graph_is_dense(sparse_graph)
        assert prefer_sparse_first(targets, dense_graph)
        assert not prefer_sparse_first(targets, sparse_graph)

    def test_resolve_strategy(self):
        g = erdos_renyi(10, 0.5, seed=0)
        targets = [clique(4)]
        assert resolve_strategy("sparse-first", targets, g)
        assert not resolve_strategy("dense-first", targets, g)
        assert resolve_strategy("heuristic", targets, g) == (
            not resolve_strategy("anti-heuristic", targets, g)
        )
        with pytest.raises(ValueError):
            resolve_strategy("nope", targets, g)

    def test_order_by_density(self):
        items = [clique(4), path(3), cycle(4)]
        ordered = order_by_density(items, lambda p: p.density, True)
        densities = [p.density for p in ordered]
        assert densities == sorted(densities)

    def test_lateral_order_inverts(self):
        g = erdos_renyi(20, 0.05, seed=0)
        targets = [clique(4), cycle(4)]
        exploration = order_exploration_paths(
            targets, lambda p: p.density, "heuristic", [clique(5)], g
        )
        lateral = order_validation_targets(
            targets, lambda p: p.density, "heuristic", [clique(5)], g
        )
        assert exploration == list(reversed(lateral))


class TestLateralScheduler:
    def _scheduler(self, graph, cancellation=True):
        targets = [
            ValidationTarget(triangle(), bigger, graph, induced=True)
            for bigger in (
                quasi_clique_patterns(4, 0.8) + quasi_clique_patterns(5, 0.8)
            )
        ]
        return LateralScheduler(
            targets, graph, enable_cancellation=cancellation
        )

    def test_match_cancels_remaining(self):
        g = erdos_renyi(10, 0.9, seed=1)  # nearly complete: contained
        scheduler = self._scheduler(g)
        stats = ConstraintStats()
        cache = SetOperationCache(stats=stats)
        hit = scheduler.validate([0, 1, 2], g, cache, stats)
        assert hit is not None
        assert stats.vtasks_started < len(scheduler)
        assert (
            stats.vtasks_started + stats.vtasks_canceled_lateral
            == len(scheduler)
        )

    def test_no_cancellation_runs_everything(self):
        g = erdos_renyi(10, 0.9, seed=1)
        scheduler = self._scheduler(g, cancellation=False)
        stats = ConstraintStats()
        cache = SetOperationCache(stats=stats)
        hit = scheduler.validate([0, 1, 2], g, cache, stats)
        assert hit is not None
        assert stats.vtasks_started == len(scheduler)
        assert stats.vtasks_canceled_lateral == 0

    def test_valid_subgraph_runs_all_vtasks(self):
        # a lone triangle: nothing contains it
        from repro.graph import graph_from_edges

        g = graph_from_edges([(0, 1), (1, 2), (0, 2)])
        scheduler = self._scheduler(g)
        stats = ConstraintStats()
        cache = SetOperationCache(stats=stats)
        assert scheduler.validate([0, 1, 2], g, cache, stats) is None
        assert stats.vtasks_started == len(scheduler)


class TestPromotionRegistry:
    def test_mark_and_seen(self):
        registry = PromotionRegistry()
        key = (1, 2, 3)
        assert registry.mark(triangle(), key)  # newly recorded
        assert not registry.mark(triangle(), key)  # already seen
        assert registry.count() == 1

    def test_patterns_are_separate_namespaces(self):
        registry = PromotionRegistry()
        registry.mark(triangle(), (1, 2, 3))
        assert registry.mark(house(), (1, 2, 3))

    def test_count_and_clear(self):
        registry = PromotionRegistry()
        registry.mark(triangle(), (1, 2, 3))
        registry.mark(triangle(), (4, 5, 6))
        registry.mark(house(), (1, 2, 3, 4, 5))
        assert registry.count() == 3
        registry.clear()
        assert registry.count() == 0
