"""Tests for RL-Path ordering heuristics and lateral scheduling.

Promotion is checked against the naive oracle by the maximality rows
of ``tests/test_small_scope.py``.
"""

import pytest

from repro.core import (
    ContigraEngine,
    nested_query_constraints,
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
from repro.graph import erdos_renyi, graph_from_edges
from repro.patterns import (
    clique,
    cycle,
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
    """Each checked triangle runs one chain of 4- and 5-vertex VTasks."""

    def _run(self, graph, lateral=True):
        bigger = quasi_clique_patterns(4, 0.8) + quasi_clique_patterns(5, 0.8)
        engine = ContigraEngine(
            graph,
            nested_query_constraints(triangle(), bigger, induced=True),
            enable_lateral=lateral,
        )
        (chain,) = engine.chains
        assert len(chain.targets) == len(bigger)
        result = engine.run()
        return result, result.stats.matches_checked * len(chain.targets)

    def test_match_cancels_remaining(self):
        g = erdos_renyi(10, 0.9, seed=1)  # nearly complete: contained
        result, vtasks = self._run(g)
        assert result.count == 0
        assert result.stats.vtasks_started < vtasks
        assert (
            result.stats.vtasks_started + result.stats.vtasks_canceled_lateral
            == vtasks
        )

    def test_no_cancellation_runs_everything(self):
        g = erdos_renyi(10, 0.9, seed=1)
        result, vtasks = self._run(g, lateral=False)
        assert result.count == 0
        assert result.stats.vtasks_started == vtasks
        assert result.stats.vtasks_canceled_lateral == 0

    def test_valid_subgraph_runs_all_vtasks(self):
        # a lone triangle: nothing contains it
        g = graph_from_edges([(0, 1), (1, 2), (0, 2)])
        result, vtasks = self._run(g)
        assert result.assignments() == [(0, 1, 2)]
        assert result.stats.matches_checked == 1
        assert result.stats.vtasks_started == vtasks
