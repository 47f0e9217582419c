"""Tests for exploration plans and matching orders."""

import pytest
from hypothesis import given, settings

from repro.patterns import (
    ExplorationPlan,
    Pattern,
    clique,
    house,
    path,
    plan_for,
    tailed_triangle,
    triangle,
)

from repro.patterns.plan import choose_matching_order

from conftest import connected_pattern_strategy


class TestMatchingOrder:
    def test_order_is_permutation(self):
        order = choose_matching_order(house())
        assert sorted(order) == list(range(5))

    def test_order_is_connected(self):
        p = path(4)
        order = choose_matching_order(p)
        for i in range(1, len(order)):
            assert any(p.has_edge(order[i], order[j]) for j in range(i))

    def test_starts_at_max_degree(self):
        p = tailed_triangle()  # vertex 2 has degree 3
        assert choose_matching_order(p)[0] == 2

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            choose_matching_order(Pattern(3, [(0, 1)]))

    @given(connected_pattern_strategy(max_vertices=6))
    @settings(max_examples=50, deadline=None)
    def test_connected_order_property(self, p):
        order = choose_matching_order(p)
        assert sorted(order) == list(range(p.num_vertices))
        for i in range(1, len(order)):
            assert any(p.has_edge(order[i], order[j]) for j in range(i))


class TestPlan:
    def test_backward_neighbors(self):
        plan = ExplorationPlan(triangle(), (0, 1, 2), induced=False)
        assert plan.backward_neighbors == ((), (0,), (0, 1))

    def test_backward_nonneighbors_only_when_induced(self):
        p = path(2)
        not_induced = ExplorationPlan(p, (1, 0, 2), induced=False)
        induced = ExplorationPlan(p, (1, 0, 2), induced=True)
        assert all(not nn for nn in not_induced.backward_nonneighbors)
        assert induced.backward_nonneighbors[2] == (1,)

    def test_rejects_disconnected_order(self):
        with pytest.raises(ValueError):
            ExplorationPlan(path(2), (0, 2, 1), induced=False)

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            ExplorationPlan(triangle(), (0, 1, 1), induced=False)

    def test_labels_follow_order(self):
        p = path(2).with_labels([7, 8, 9])
        plan = ExplorationPlan(p, (1, 0, 2), induced=False)
        assert plan.labels_at == (8, 7, 9)

    def test_plan_for_memoized(self):
        assert plan_for(triangle()) is plan_for(triangle())
        assert plan_for(triangle()) is not plan_for(triangle(), induced=True)

    def test_conditions_keyed_within_order(self):
        plan = plan_for(clique(3))
        # every step's condition references an earlier position
        for position, entries in plan.conditions_at.items():
            for earlier, _greater in entries:
                assert earlier < position
