"""Extended engine tests: plan reuse, determinism, stats accounting."""

import pytest

from repro.graph import erdos_renyi
from repro.mining import MiningEngine
from repro.patterns import clique, path, plan_for, triangle


class TestDeterminism:
    def test_same_engine_same_results(self):
        g = erdos_renyi(16, 0.4, seed=3)
        a = [m.assignment for m in MiningEngine(g).find_all(triangle())]
        b = [m.assignment for m in MiningEngine(g).find_all(triangle())]
        assert a == b

    def test_plan_object_shared(self):
        g = erdos_renyi(8, 0.5, seed=4)
        engine = MiningEngine(g)
        assert engine.plan(triangle()) is plan_for(triangle())

    def test_induced_engines_use_induced_plans(self):
        g = erdos_renyi(8, 0.5, seed=4)
        engine = MiningEngine(g, induced=True)
        assert engine.plan(path(2)).induced

    def test_matches_ordered_by_root(self):
        g = erdos_renyi(14, 0.5, seed=5)
        engine = MiningEngine(g)
        plan = engine.plan(triangle())
        roots = [
            m.assignment[plan.order[0]]
            for m in engine.find_all(triangle())
        ]
        assert roots == sorted(roots)


class TestStatsAccounting:
    def test_rl_paths_at_least_matches(self):
        g = erdos_renyi(14, 0.4, seed=6)
        engine = MiningEngine(g)
        count = engine.count(clique(3))
        assert engine.stats.rl_paths >= count
        assert engine.stats.matches_found == count

    def test_etasks_completed_equals_started_without_stop(self):
        g = erdos_renyi(14, 0.4, seed=7)
        engine = MiningEngine(g)
        engine.count(triangle())
        assert engine.stats.etasks_started == engine.stats.etasks_completed

    def test_candidate_computations_positive(self):
        g = erdos_renyi(14, 0.4, seed=8)
        engine = MiningEngine(g)
        engine.count(triangle())
        assert engine.stats.candidate_computations > 0
