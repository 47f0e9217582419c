"""Focused tests for the ETask recursion and helpers."""

from repro.graph import erdos_renyi, graph_from_edges
from repro.mining import (
    ETask,
    MiningStats,
    SetOperationCache,
    run_single_pattern,
)
from repro.patterns import clique, path, plan_for, triangle


def make_task(graph, pattern, root, induced=False):
    stats = MiningStats()
    cache = SetOperationCache(stats=stats)
    plan = plan_for(pattern, induced=induced)
    return ETask(graph, plan, root, cache, stats), stats


class TestETask:
    def test_root_with_wrong_label_skips(self):
        from repro.graph import Graph

        g = Graph([(1,), (0,)], labels=[3, 4])
        pattern = path(1).with_labels([5, None])
        task, stats = make_task(g, pattern, 0)
        assert list(task.matches()) == []
        assert stats.matches_found == 0
        assert stats.etasks_completed == 1

    def test_early_stop_propagates(self):
        g = erdos_renyi(12, 0.6, seed=0)
        task, stats = make_task(g, triangle(), 0)
        found = task.matches()
        assert next(found, None) is not None
        found.close()
        assert stats.matches_found == 1
        # a stopped task never counts as completed
        assert stats.etasks_completed == 0

    def test_rl_paths_counted_for_dead_ends(self):
        # star center has no triangles: every descent dead-ends
        g = graph_from_edges([(0, 1), (0, 2), (0, 3)])
        task, stats = make_task(g, triangle(), 0)
        assert list(task.matches()) == []
        assert stats.matches_found == 0
        assert stats.rl_paths > 0

    def test_matches_rooted_at_first_order_position(self):
        g = erdos_renyi(12, 0.5, seed=1)
        pattern = triangle()
        plan = plan_for(pattern)
        task, _ = make_task(g, pattern, 5)
        roots = {assignment[plan.order[0]] for assignment in task.matches()}
        assert roots <= {5}


class TestRunSinglePattern:
    def test_counts_all_roots(self):
        g = erdos_renyi(14, 0.5, seed=2)
        found = []
        stats = run_single_pattern(
            g, plan_for(triangle()), lambda m: found.append(m) or False
        )
        from repro.mining import MiningEngine

        assert len(found) == MiningEngine(g).count(triangle())
        assert stats.etasks_started == 14

    def test_restricted_roots(self):
        g = erdos_renyi(14, 0.5, seed=2)
        found = []
        run_single_pattern(
            g,
            plan_for(triangle()),
            lambda m: found.append(m) or False,
            roots=[0],
        )
        plan = plan_for(triangle())
        assert all(m.assignment[plan.order[0]] == 0 for m in found)

    def test_early_stop(self):
        g = erdos_renyi(14, 0.6, seed=3)
        found = []
        run_single_pattern(
            g, plan_for(clique(3)), lambda m: found.append(m) or True
        )
        assert len(found) == 1
