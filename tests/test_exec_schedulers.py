"""Scheduler equivalence and cross-process failure-type fidelity.

The acceptance property of the execution-core refactor: for any
seeded workload, ``SerialScheduler``, ``ProcessShardScheduler``, and
``WorkQueueScheduler`` produce identical match multisets, and — with
promotion disabled, so every root's work is independent of discovery
order — identical summed counters.  With promotion enabled the match
sets still agree exactly (results are canonical and deduplicated at
merge); only the promotion/cancellation counters may differ, because
sharded registries are worker-local by design (see
``docs/execution.md``).
"""

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.baselines import TThinkerConfig, tthinker_mqc
from repro.baselines.naive import (
    maximal_quasi_cliques as oracle_mqc,
    nested_query_matches,
)
from repro.core import maximality_constraints, nested_query_constraints
from repro.core.runtime import ContigraEngine
from repro.errors import MemoryBudgetExceeded, TimeLimitExceeded
from repro.exec import (
    ProcessShardScheduler,
    SerialScheduler,
    TaskContext,
    WorkQueueScheduler,
    make_scheduler,
)
from repro.graph import erdos_renyi
from repro.patterns import quasi_clique_patterns_up_to

N_WORKLOADS = 50

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


def mqc_constraints(gamma=0.7, max_size=4):
    return maximality_constraints(
        quasi_clique_patterns_up_to(max_size, gamma), induced=True
    )


def seeded_workloads():
    """Fifty small seeded graphs spanning sizes and densities."""
    for seed in range(N_WORKLOADS):
        n = 8 + (seed % 4)
        p = 0.35 + 0.05 * (seed % 5)
        yield seed, erdos_renyi(n, p, seed=seed)


def match_multiset(result):
    return sorted(
        (pattern.structure_key(), tuple(assignment))
        for pattern, assignment in result.valid
    )


def run_with(
    graph, constraint_set, scheduler, time_limit=None, **engine_options
):
    # A fresh engine per run: serial runs write into engine.stats, so
    # reusing one engine would accumulate counters across schedulers.
    engine = ContigraEngine(graph, constraint_set, **engine_options)
    return engine.run_with(
        scheduler, ctx=TaskContext.create(time_limit=time_limit)
    )


class TestThreeSchedulerEquivalence:
    def test_equivalence_on_50_seeded_workloads(self):
        """Identical matches AND identical summed counters, promotion off."""
        constraint_set = mqc_constraints()
        for seed, graph in seeded_workloads():
            serial = run_with(
                graph, constraint_set, SerialScheduler(),
                enable_promotion=False,
            )
            process = run_with(
                graph, constraint_set,
                ProcessShardScheduler(n_workers=2),
                enable_promotion=False,
            )
            workqueue = run_with(
                graph, constraint_set,
                WorkQueueScheduler(n_workers=3),
                enable_promotion=False,
            )
            reference = match_multiset(serial)
            assert match_multiset(process) == reference, f"seed {seed}"
            assert match_multiset(workqueue) == reference, f"seed {seed}"
            counters = serial.stats.as_dict()
            assert process.stats.as_dict() == counters, f"seed {seed}"
            assert workqueue.stats.as_dict() == counters, f"seed {seed}"

    def test_match_sets_agree_with_promotion_enabled(self):
        """Promotion on: worker-local registries, same final matches."""
        constraint_set = mqc_constraints()
        for seed, graph in list(seeded_workloads())[:10]:
            serial = run_with(graph, constraint_set, SerialScheduler())
            process = run_with(
                graph, constraint_set, ProcessShardScheduler(n_workers=2)
            )
            workqueue = run_with(
                graph, constraint_set, WorkQueueScheduler(n_workers=3)
            )
            reference = match_multiset(serial)
            assert match_multiset(process) == reference, f"seed {seed}"
            assert match_multiset(workqueue) == reference, f"seed {seed}"

    def test_process_counters_and_workqueue_matches_repeat(self):
        """Promotion on, two runs each: fixed round-robin shards give
        identical counters; work stealing only promises the matches."""
        graph = erdos_renyi(16, 0.45, seed=5)
        constraint_set = mqc_constraints(max_size=5)
        first, second = (
            run_with(graph, constraint_set, ProcessShardScheduler(2))
            for _ in range(2)
        )
        assert first.stats.promotions > 0
        assert first.stats.as_dict() == second.stats.as_dict()
        first, second = (
            run_with(graph, constraint_set, WorkQueueScheduler(3))
            for _ in range(2)
        )
        assert match_multiset(first) == match_multiset(second)

    def test_make_scheduler_round_trip(self):
        assert isinstance(make_scheduler("serial"), SerialScheduler)
        assert isinstance(make_scheduler("process"), ProcessShardScheduler)
        assert isinstance(
            make_scheduler("workqueue"), WorkQueueScheduler
        )
        with pytest.raises(ValueError):
            make_scheduler("bogus")
        with pytest.raises(ValueError):
            make_scheduler("process", n_workers=0)
        with pytest.raises(ValueError):
            ProcessShardScheduler(n_workers=0)


class TestProcessSharding:
    """Root shards against the naive oracle (not just against serial)."""

    @pytest.mark.parametrize("workers", [2, 4])
    def test_mqc_matches_oracle_without_duplicates(self, workers):
        g = erdos_renyi(18, 0.4, seed=1)
        result = run_with(
            g, mqc_constraints(max_size=5),
            ProcessShardScheduler(n_workers=workers),
        )
        assert set(result.vertex_sets()) == oracle_mqc(g, 0.7, 3, 5)
        assert len(result.valid) == len(set(result.valid))

    def test_nsq_matches_oracle(self):
        from repro.apps.nsq import paper_query_triangles

        g = erdos_renyi(15, 0.2, seed=3)
        p_m, p_plus = paper_query_triangles()
        result = run_with(
            g, nested_query_constraints(p_m, p_plus),
            ProcessShardScheduler(n_workers=3),
        )
        assert set(result.assignments()) == nested_query_matches(
            g, p_m, p_plus
        )

    def test_every_match_explored_once_across_shards(self):
        g = erdos_renyi(16, 0.45, seed=5)
        constraint_set = mqc_constraints(max_size=5)
        serial = run_with(g, constraint_set, SerialScheduler())
        sharded = run_with(
            g, constraint_set, ProcessShardScheduler(n_workers=3)
        )
        assert sharded.stats.matches_found == serial.stats.matches_found
        assert sharded.stats.vtasks_started > 0

    def test_engine_options_reach_the_shards(self):
        g = erdos_renyi(14, 0.45, seed=6)
        result = run_with(
            g, mqc_constraints(max_size=5),
            ProcessShardScheduler(n_workers=2), enable_promotion=False,
        )
        assert result.stats.promotions == 0
        assert set(result.vertex_sets()) == oracle_mqc(g, 0.7, 3, 5)


class TestCrossProcessFailureTypes:
    """Worker budget failures must surface as their original classes."""

    def test_sharded_run_tle_preserves_type(self):
        g = erdos_renyi(60, 0.4, seed=3)
        with pytest.raises(TimeLimitExceeded) as info:
            run_with(
                g,
                mqc_constraints(gamma=0.6, max_size=6),
                ProcessShardScheduler(n_workers=2),
                time_limit=0.02,
            )
        # Shards run under what is left of the deadline at dispatch
        # time — never more than the configured limit (and never a
        # fresh copy of it; see repro.exec.scheduler.run_shard_payload).
        assert 0 < info.value.limit_seconds <= 0.02
        assert info.value.elapsed > 0

    @pytest.mark.skipif(
        not HAS_FORK, reason="fork start method required"
    )
    def test_sharded_tthinker_oom_surfaces_as_oom(self):
        """The regression the exception ``__reduce__`` fix is for:
        an OOM raised inside a worker process crosses the pool
        boundary as ``MemoryBudgetExceeded``, not a pickling error or
        a generic failure."""
        with ProcessPoolExecutor(
            max_workers=2,
            mp_context=multiprocessing.get_context("fork"),
        ) as pool:
            with pytest.raises(MemoryBudgetExceeded) as info:
                list(pool.map(_tthinker_oom_shard, [0, 1]))
        assert info.value.budget_bytes == 64
        assert info.value.used_bytes > 64


def _tthinker_oom_shard(_shard_index):
    graph = erdos_renyi(80, 0.35, seed=42)
    return tthinker_mqc(
        graph, 0.7, 5, config=TThinkerConfig(memory_budget_bytes=64)
    )


class TestWorkQueueCancellation:
    def test_deadline_in_one_worker_stops_the_run(self):
        g = erdos_renyi(60, 0.4, seed=3)
        engine = ContigraEngine(g, mqc_constraints(gamma=0.6, max_size=6))
        with pytest.raises(TimeLimitExceeded):
            engine.run_with(
                WorkQueueScheduler(n_workers=3),
                ctx=TaskContext.create(time_limit=0.02),
            )

    def test_precancelled_context_runs_nothing(self):
        g = erdos_renyi(14, 0.5, seed=4)
        engine = ContigraEngine(g, mqc_constraints())
        ctx = TaskContext.create()
        ctx.cancel("aborted before start")
        result = engine.run_with(WorkQueueScheduler(n_workers=2), ctx=ctx)
        assert result.valid == []
        assert result.stats.etasks_started == 0

    def test_precancelled_degrade_run_lists_every_root(self):
        g = erdos_renyi(14, 0.5, seed=4)
        engine = ContigraEngine(g, mqc_constraints())
        ctx = TaskContext.create()
        ctx.cancel("aborted before start")
        result = engine.run_with(
            WorkQueueScheduler(n_workers=2, on_failure="degrade"), ctx=ctx
        )
        assert result.incomplete
        assert result.unprocessed_roots == sorted(g.vertices())
