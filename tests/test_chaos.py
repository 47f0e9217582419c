"""Chaos suite: schedulers under deterministic fault injection.

The acceptance properties of the fault-tolerance layer:

* **Determinism under retry** — a run with injected worker crashes
  (including real killed worker processes) plus retries produces the
  exact match multiset of a clean serial run, on every scheduler.
* **Degradation contract** — ``on_failure="degrade"`` never raises on
  exhausted retries; it returns a merged result with ``incomplete``
  set and the unprocessed roots listed.
* **Raise-mode fidelity** — terminal failures surface with their
  original exception class, including across the process boundary.
* **Budget propagation** — shards are dispatched with the residual
  run budget, so a run with ``time_limit=T`` cannot burn a fresh
  ``T`` per dispatch round.
"""

import multiprocessing
import time

import pytest

from repro.core import maximality_constraints
from repro.core.runtime import ContigraEngine, ContigraJob
from repro.errors import TimeLimitExceeded
from repro.exec import (
    SHARD_FAILED,
    FaultPlan,
    InjectedFault,
    ProcessShardScheduler,
    SerialScheduler,
    TaskContext,
    WorkQueueScheduler,
    make_scheduler,
)
from repro.graph import erdos_renyi
from repro.patterns import quasi_clique_patterns_up_to

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

SCHEDULERS = ("serial", "process", "workqueue")


def mqc_constraints(gamma=0.7, max_size=4):
    return maximality_constraints(
        quasi_clique_patterns_up_to(max_size, gamma), induced=True
    )


def match_multiset(result):
    return sorted(
        (pattern.structure_key(), tuple(assignment))
        for pattern, assignment in result.valid
    )


def engine_for(graph, **options):
    return ContigraEngine(graph, mqc_constraints(), **options)


def build_scheduler(name, **kwargs):
    if name == "serial":
        return SerialScheduler(**kwargs)
    if name == "process":
        return ProcessShardScheduler(n_workers=2, **kwargs)
    return WorkQueueScheduler(n_workers=3, **kwargs)


class TestDeterminismUnderCrashRetry:
    """Injected crashes + retries == clean serial run, every scheduler."""

    @pytest.mark.parametrize("name", SCHEDULERS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_crash_then_retry_matches_clean_run(self, name, seed):
        graph = erdos_renyi(10 + seed, 0.45, seed=seed)
        reference = match_multiset(
            engine_for(graph).run_with(SerialScheduler())
        )
        # Crash the shard(s) owning three different roots on their
        # first dispatch; retries must recover every one of them.
        plan = FaultPlan()
        for root in (0, 3, 7):
            plan.crash(root, times=1)
        chaotic = engine_for(graph).run_with(
            build_scheduler(name, retries=2, fault_plan=plan)
        )
        assert match_multiset(chaotic) == reference
        assert not getattr(chaotic, "incomplete", False)

    @pytest.mark.skipif(not HAS_FORK, reason="fork start method required")
    def test_killed_worker_process_recovers(self):
        """A real worker-process death (BrokenProcessPool), not a
        simulated raise: the shard is re-dispatched on a fresh pool and
        the final result is serial-identical."""
        graph = erdos_renyi(12, 0.45, seed=5)
        reference = match_multiset(
            engine_for(graph).run_with(SerialScheduler())
        )
        plan = FaultPlan().kill(0, times=1)
        result = engine_for(graph).run_with(
            ProcessShardScheduler(n_workers=2, retries=2, fault_plan=plan)
        )
        assert match_multiset(result) == reference
        assert not getattr(result, "incomplete", False)

    @pytest.mark.parametrize("name", SCHEDULERS)
    def test_retry_split_still_exact(self, name):
        """Two consecutive crashes force a shard split (second attempt
        runs half-shards); the merged result must still be exact."""
        graph = erdos_renyi(12, 0.45, seed=9)
        reference = match_multiset(
            engine_for(graph).run_with(SerialScheduler())
        )
        plan = FaultPlan().crash(2, times=2)
        result = engine_for(graph).run_with(
            build_scheduler(name, retries=2, fault_plan=plan)
        )
        assert match_multiset(result) == reference


class TestDegradedMode:
    @pytest.mark.parametrize("name", SCHEDULERS)
    def test_exhausted_retries_degrade_with_roots_listed(self, name):
        """A permanently-failing root degrades the run instead of
        aborting it: the result is flagged incomplete and lists what
        was never mined."""
        graph = erdos_renyi(12, 0.45, seed=3)
        plan = FaultPlan().crash(4, times=50)  # outlives any retry
        result = engine_for(graph).run_with(
            build_scheduler(
                name, retries=2, on_failure="degrade", fault_plan=plan
            )
        )
        assert result.incomplete
        assert 4 in result.unprocessed_roots
        assert any(
            "InjectedFault" in reason for reason in result.failure_reasons
        )

    def test_workqueue_degrade_keeps_healthy_roots(self):
        """Per-root recovery: only the poisoned root is lost; every
        match not involving it survives in the partial result."""
        graph = erdos_renyi(12, 0.45, seed=3)
        reference = engine_for(graph).run_with(SerialScheduler())
        plan = FaultPlan().crash(4, times=50)
        result = engine_for(graph).run_with(
            WorkQueueScheduler(
                n_workers=3,
                retries=2,
                on_failure="degrade",
                fault_plan=plan,
            )
        )
        assert result.incomplete
        got = set(match_multiset(result))
        want = set(match_multiset(reference))
        assert got <= want
        unharmed = {
            m for m in want
            if not any(
                root in m[1] for root in result.unprocessed_roots
            )
        }
        assert unharmed <= got

    @pytest.mark.parametrize("name", SCHEDULERS)
    def test_degrade_without_faults_is_complete(self, name):
        """The degrade knob alone must not change a healthy run."""
        graph = erdos_renyi(10, 0.45, seed=6)
        reference = match_multiset(
            engine_for(graph).run_with(SerialScheduler())
        )
        result = engine_for(graph).run_with(
            build_scheduler(name, retries=2, on_failure="degrade")
        )
        assert match_multiset(result) == reference
        assert not result.incomplete
        assert result.unprocessed_roots == []


@pytest.mark.parametrize("name", SCHEDULERS)
def test_deadline_mid_run_degrades_without_retries(name):
    """Degrade mode never depends on retries: a deadline landing
    mid-run returns a partial result on every scheduler (serial used
    to raise unless a retry policy or fault plan was also set)."""
    graph = erdos_renyi(60, 0.4, seed=3)
    result = engine_for(graph).run_with(
        make_scheduler(name, on_failure="degrade"),
        ctx=TaskContext.create(time_limit=0.02),
    )
    assert result.incomplete
    assert result.unprocessed_roots
    assert any(
        "TimeLimitExceeded" in reason for reason in result.failure_reasons
    )


class TestWorkQueueRound:
    def test_dead_transient_root_cancels_raise_mode_round(self):
        """Out of retries is dead: under ``raise`` the round stops
        instead of mining every other root before raising."""
        graph = erdos_renyi(30, 0.3, seed=11)
        engine = engine_for(graph)
        runs = []

        class CountingSession:
            def __init__(self, inner):
                self._inner = inner

            def run_roots(self, roots):
                runs.append(roots)
                return self._inner.run_roots(roots)

            def finish(self):
                return self._inner.finish()

        class CountingJob(ContigraJob):
            def worker_session(self, ctx):
                return CountingSession(super().worker_session(ctx))

        roots = list(graph.vertices())
        plan = FaultPlan().crash(roots[0], times=50)
        with pytest.raises(InjectedFault):
            WorkQueueScheduler(n_workers=3, fault_plan=plan).run(
                CountingJob(engine)
            )
        assert len(runs) < len(roots) - 1

    def test_deadline_fails_only_roots_that_ran(self):
        """Roots a deadline-cancelled round never reached are listed
        unprocessed without a ``shard_failed`` each.

        Each worker's first root sleeps the whole limit before it
        mines, so the deadline passes inside a unit, never before the
        round dispatches; the walk's first clock read after it (every
        256 ticks, a count, not a time) fails the unit that ran."""
        graph = erdos_renyi(60, 0.4, seed=3)
        engine = engine_for(graph)
        limit = 0.3
        plan = FaultPlan()
        for root in range(3):
            plan.delay(root, seconds=limit)
        ctx = TaskContext.create(time_limit=limit)
        failed = []
        ctx.bus.subscribe(
            lambda event, ts, payload, track: event == SHARD_FAILED
            and failed.append(payload)
        )
        result = engine.run_with(
            WorkQueueScheduler(
                n_workers=3, on_failure="degrade", fault_plan=plan
            ),
            ctx=ctx,
        )
        assert result.incomplete
        assert 1 <= len(failed) <= 3 < len(result.unprocessed_roots)


class TestRaiseModeFidelity:
    @pytest.mark.skipif(not HAS_FORK, reason="fork start method required")
    def test_worker_tle_class_survives_process_boundary(self):
        """An exhaust fault raises TimeLimitExceeded *inside the worker
        process*; raise mode must surface that exact class (terminal —
        never retried), not a pickling shim or a generic failure."""
        graph = erdos_renyi(12, 0.45, seed=2)
        plan = FaultPlan().exhaust(1)
        with pytest.raises(TimeLimitExceeded):
            engine_for(graph).run_with(
                ProcessShardScheduler(
                    n_workers=2, retries=2, fault_plan=plan
                )
            )

    @pytest.mark.parametrize("name", SCHEDULERS)
    def test_exhausted_retries_raise_transient_type(self, name):
        graph = erdos_renyi(10, 0.45, seed=1)
        plan = FaultPlan().crash(0, times=50)
        with pytest.raises(InjectedFault):
            engine_for(graph).run_with(
                build_scheduler(name, retries=2, fault_plan=plan)
            )

    def test_budget_failure_preferred_over_secondary_errors(self):
        """Satellite fix: the work-queue run raises the budget
        violation, not whichever cancellation-induced failure happened
        to land first; the rest stay attached."""
        graph = erdos_renyi(60, 0.4, seed=3)
        with pytest.raises(TimeLimitExceeded) as info:
            engine_for(graph).run_with(
                WorkQueueScheduler(n_workers=3),
                ctx=TaskContext.create(time_limit=0.02),
            )
        assert hasattr(info.value, "suppressed_failures")


class TestPoisonedFinish:
    def test_tle_survives_poisoned_session_finish(self):
        """Satellite fix: ``session.finish()`` raising in the worker's
        cleanup path must not mask the original budget error."""
        graph = erdos_renyi(60, 0.4, seed=3)
        engine = engine_for(graph)

        class PoisonedSession:
            def __init__(self, inner):
                self._inner = inner

            def run_roots(self, roots):
                return self._inner.run_roots(roots)

            def finish(self):
                raise RuntimeError("poisoned finish")

        class PoisonedJob(ContigraJob):
            def worker_session(self, ctx):
                return PoisonedSession(super().worker_session(ctx))

        scheduler = WorkQueueScheduler(n_workers=3)
        with pytest.raises(TimeLimitExceeded) as info:
            scheduler.run(
                PoisonedJob(engine),
                ctx=TaskContext.create(time_limit=0.02),
            )
        # The masked finish() errors are preserved as secondaries.
        suppressed = getattr(info.value, "suppressed_failures", ())
        assert any(
            isinstance(exc, RuntimeError) for exc in suppressed
        )


class TestBudgetPropagation:
    @pytest.mark.skipif(not HAS_FORK, reason="fork start method required")
    def test_sharded_run_cannot_burn_double_budget(self):
        """Regression for the ~2T blowup: a sharded run with
        ``time_limit=T`` must not grant each shard a fresh ``T`` on
        top of parent-side setup.  Slow dispatch (injected delay) eats
        into the shard deadline instead of extending the run.

        Each shard sleeps the whole limit before it mines, so its
        residual deadline has passed at the first clock read of its
        walk, however fast the machine mines (the walk reads the clock
        every 256 ticks, a count, not a time)."""
        graph = erdos_renyi(60, 0.4, seed=3)
        limit = 0.15
        engine = engine_for(graph)
        plan = FaultPlan().delay(0, seconds=limit).delay(1, seconds=limit)
        start = time.monotonic()
        with pytest.raises(TimeLimitExceeded) as info:
            engine.run_with(
                ProcessShardScheduler(n_workers=2, fault_plan=plan),
                ctx=TaskContext.create(time_limit=limit),
            )
        wall = time.monotonic() - start
        # The worker's own deadline is the *residual*: capped by the
        # configured limit, and strictly under it — a worker granted a
        # fresh copy of the limit would report the limit itself.
        assert info.value.limit_seconds <= limit
        assert info.value.limit_seconds < limit
        # Generous pool-spawn allowance, but nowhere near 2T + spawn:
        # the injected delay already spends T, and nothing may be
        # granted on top of it.
        assert wall < 2 * limit + 1.0

    def test_exhausted_parent_budget_skips_dispatch(self):
        """Retry rounds check the residual before dispatching: once
        the parent budget is spent, pending shards fail with TLE
        instead of launching doomed workers."""
        graph = erdos_renyi(12, 0.45, seed=4)
        engine = engine_for(graph)
        ctx = TaskContext.create(time_limit=0.0001)
        time.sleep(0.01)  # burn the whole budget before dispatch
        with pytest.raises(TimeLimitExceeded):
            ProcessShardScheduler(n_workers=2).run(
                ContigraJob(engine), ctx=ctx
            )

    def test_degraded_run_reports_budget_reason(self):
        graph = erdos_renyi(12, 0.45, seed=4)
        engine = engine_for(graph)
        ctx = TaskContext.create(time_limit=0.0001)
        time.sleep(0.01)
        result = ProcessShardScheduler(
            n_workers=2, on_failure="degrade"
        ).run(ContigraJob(engine), ctx=ctx)
        assert result.incomplete
        assert result.unprocessed_roots == sorted(graph.vertices())
        assert any(
            "TimeLimitExceeded" in reason
            for reason in result.failure_reasons
        )


class TestMakeSchedulerKnobs:
    def test_retries_builds_default_policy(self):
        for name in SCHEDULERS:
            assert make_scheduler(name, retries=3).retries == 3

    def test_zero_retries_means_no_policy(self):
        assert make_scheduler("process").retries == 0
        with pytest.raises(ValueError):
            make_scheduler("process", retries=-1)

    def test_on_failure_validated(self):
        for name in ("serial", "process", "workqueue"):
            with pytest.raises(ValueError):
                make_scheduler(name, on_failure="explode")


class TestSharedSegmentReclamation:
    """Shared-memory graph segments survive worker deaths and are
    reclaimed by the owning process, never leaked (tentpole lifecycle
    contract of ``repro.graph.shm``)."""

    @pytest.mark.skipif(not HAS_FORK, reason="fork start method required")
    def test_killed_worker_leaves_segment_reclaimable(self):
        from multiprocessing import shared_memory

        from repro.graph.shm import (
            published_segment,
            shared_graphs,
            shm_counters,
            unpublish_all,
        )
        from repro.graph.store import graph_store, reset_default_store

        graph = erdos_renyi(12, 0.45, seed=5, name="chaos-shared")
        reference = match_multiset(
            engine_for(graph).run_with(SerialScheduler())
        )
        graph_store().register(graph)
        try:
            before = shm_counters()
            plan = FaultPlan().kill(0, times=1)
            result = engine_for(graph).run_with(
                ProcessShardScheduler(
                    n_workers=2, retries=2, fault_plan=plan
                )
            )
            # The run published the registered graph and survived the
            # worker death with the exact serial result.
            assert match_multiset(result) == reference
            after = shm_counters()
            assert after["publishes"] == before["publishes"] + 1
            # Run-scoped leasing: the scheduler released its lease at
            # merge time and the last release unlinked the segment —
            # a dead worker's attachment cannot pin it, and there is
            # nothing left for the exit hooks to reclaim.
            shared_graphs().release_attachments()
            assert published_segment(graph.fingerprint) is None
            assert after["unlinks"] == before["unlinks"] + 1
            assert unpublish_all() == 0
        finally:
            unpublish_all()
            reset_default_store()

    @pytest.mark.parametrize("name", ("serial", "workqueue"))
    def test_in_process_dead_unit_spares_leased_segment(self, name):
        """Only dead worker *processes* fire the crash cleanups: a dead
        serial or work-queue unit leaves the segment a concurrent
        process-scheduler run still leases published."""
        from repro.graph.shm import (
            acquire_graph,
            published_segment,
            release_graph,
            unpublish_all,
        )

        graph = erdos_renyi(12, 0.45, seed=8, name="chaos-leased")
        fingerprint = acquire_graph(graph)  # the concurrent run's lease
        try:
            plan = FaultPlan().crash(0, times=50)
            result = engine_for(graph).run_with(
                build_scheduler(name, on_failure="degrade", fault_plan=plan)
            )
            assert result.incomplete
            assert published_segment(fingerprint) is not None
        finally:
            release_graph(fingerprint)
            unpublish_all()

    @pytest.mark.skipif(not HAS_FORK, reason="fork start method required")
    def test_process_dead_unit_spares_leased_segment(self):
        """A process run with a dead unit fires the crash cleanups, which
        reclaim only segments no live run leases: the segment a
        concurrent run still leases stays published, and the dead run's
        own lease release leaves it to that run."""
        from repro.graph.shm import (
            acquire_graph,
            published_segment,
            release_graph,
            shared_graphs,
            unpublish_all,
        )
        from repro.graph.store import graph_store, reset_default_store

        graph = erdos_renyi(12, 0.45, seed=9, name="chaos-leased-process")
        graph_store().register(graph)
        fingerprint = acquire_graph(graph)  # the concurrent run's lease
        try:
            plan = FaultPlan().crash(0, times=50)
            result = engine_for(graph).run_with(
                ProcessShardScheduler(
                    n_workers=2, on_failure="degrade", fault_plan=plan
                )
            )
            assert result.incomplete and 0 in result.unprocessed_roots
            assert published_segment(fingerprint) is not None
            assert shared_graphs().lease_count(fingerprint) == 1
            # The last lease going reclaims the segment as usual.
            assert release_graph(fingerprint)
            assert published_segment(fingerprint) is None
        finally:
            release_graph(fingerprint)
            unpublish_all()
            reset_default_store()

    @pytest.mark.skipif(not HAS_FORK, reason="fork start method required")
    def test_no_segment_leak_across_sequential_runs(self):
        """N sequential in-process runs leave zero published segments
        behind — the daemon-lifetime contract: each run's lease release
        reclaims its segment instead of waiting for atexit."""
        from repro.graph.shm import (
            published_segment,
            shm_counters,
            unpublish_all,
        )
        from repro.graph.store import graph_store, reset_default_store

        graph = erdos_renyi(12, 0.45, seed=7, name="chaos-sequential")
        graph_store().register(graph)
        try:
            before = shm_counters()
            for _ in range(3):
                engine_for(graph).run_with(
                    ProcessShardScheduler(n_workers=2, retries=2)
                )
                assert published_segment(graph.fingerprint) is None
            after = shm_counters()
            assert after["publishes"] == before["publishes"] + 3
            assert after["unlinks"] == before["unlinks"] + 3
            assert after["releases"] == before["releases"] + 3
            assert unpublish_all() == 0
        finally:
            unpublish_all()
            reset_default_store()
