"""Tests for the execution core: tokens, budgets, bus, task contexts.

Covers the ``repro.exec`` primitives directly plus the two lifecycle
guarantees the refactor was for: budget exceptions survive pickling
with their original types (the process-scheduler contract), and a
parent token cancellation stops pending child VTasks.
"""

import pickle

import pytest

from repro.core import LateralScheduler, ValidationTarget
from repro.errors import (
    MemoryBudgetExceeded,
    StorageBudgetExceeded,
    TimeLimitExceeded,
)
from repro.exec import (
    CANCEL,
    MATCH_CHECKED,
    PROMOTE,
    Budget,
    CancellationToken,
    EventBus,
    EventLog,
    TaskContext,
)
from repro.graph import erdos_renyi, graph_from_edges
from repro.mining import ConstraintStats, SetOperationCache
from repro.patterns import clique, quasi_clique_patterns, triangle


class TestCancellationToken:
    def test_parent_cancel_propagates_to_descendants(self):
        parent = CancellationToken()
        child = parent.child()
        grandchild = child.child()
        parent.cancel("deadline")
        assert child.cancelled
        assert grandchild.cancelled
        assert parent.reason == "deadline"

    def test_child_cancel_does_not_touch_parent_or_siblings(self):
        parent = CancellationToken()
        left = parent.child()
        right = parent.child()
        left.cancel()
        assert left.cancelled
        assert not parent.cancelled
        assert not right.cancelled

    def test_cancel_is_idempotent_and_keeps_first_reason(self):
        token = CancellationToken()
        token.cancel("first")
        token.cancel("second")
        assert token.reason == "first"


class TestBudget:
    def test_no_limit_never_raises(self):
        budget = Budget(check_interval=1)
        for _ in range(1000):
            budget.check_deadline()

    def test_expired_deadline_raises_tle(self):
        budget = Budget(time_limit=1e-9, check_interval=1)
        with pytest.raises(TimeLimitExceeded) as info:
            budget.check_deadline()
        assert info.value.limit_seconds == 1e-9
        assert info.value.elapsed > 0

    def test_tick_gating_skips_intermediate_checks(self):
        budget = Budget(time_limit=1e-9, check_interval=4)
        for _ in range(3):
            budget.check_deadline()  # ticks 1-3: no clock read
        with pytest.raises(TimeLimitExceeded):
            budget.check_deadline()  # tick 4 reads the clock

    def test_remaining_time_counts_down_to_zero(self):
        assert Budget().remaining_time() is None
        budget = Budget(time_limit=10.0)
        budget.start -= 4.0  # pretend four seconds passed
        assert budget.remaining_time() == pytest.approx(6.0, abs=0.1)
        budget.start -= 60.0
        assert budget.remaining_time() == 0.0  # never negative

    def test_invalid_check_interval(self):
        with pytest.raises(ValueError):
            Budget(check_interval=0)


class TestBudgetExceptionPickling:
    """Budget exceptions must cross process boundaries intact.

    Default unpickling replays ``Exception.__init__`` with the
    formatted message, which breaks multi-argument constructors; the
    ``__reduce__`` implementations preserve the real constructor args
    so ``ProcessShardScheduler`` re-raises original types with their
    structured fields (the satellite bugfix for ``run_sharded``).
    """

    @pytest.mark.parametrize(
        "exc",
        [
            TimeLimitExceeded(2.0, 3.5),
            MemoryBudgetExceeded(64, 128),
            StorageBudgetExceeded(1024, 4096),
        ],
    )
    def test_round_trip_preserves_type_and_fields(self, exc):
        clone = pickle.loads(pickle.dumps(exc))
        assert type(clone) is type(exc)
        assert str(clone) == str(exc)
        for attr in ("limit_seconds", "elapsed", "budget_bytes", "used_bytes"):
            if hasattr(exc, attr):
                assert getattr(clone, attr) == getattr(exc, attr)

    def test_round_trip_maps_to_paper_cells(self):
        from repro.bench.harness import failure_status

        clone = pickle.loads(pickle.dumps(MemoryBudgetExceeded(64, 128)))
        assert failure_status(clone) == "OOM"


class TestEventBus:
    def test_emit_without_subscribers_is_a_noop(self):
        EventBus().emit(CANCEL, kind="lateral", count=1)

    def test_observed_follows_subscription(self):
        """The one emit gate: any subscriber at all hears every event."""
        bus = EventBus()
        assert not bus.observed
        seen = []
        bus.subscribe(lambda event, ts, payload, track: seen.append(event))
        assert bus.observed
        bus.emit(CANCEL, kind="lateral", count=1)
        bus.emit(PROMOTE, count=1)
        assert seen == [CANCEL, PROMOTE]

    def test_event_log_records_everything(self):
        bus = EventBus()
        log = EventLog(bus)
        bus.emit(PROMOTE, count=1)
        bus.emit(CANCEL, kind="lateral", count=2)
        assert log.count(PROMOTE) == 1
        assert log.count(CANCEL) == 1
        assert log.records[1] == (CANCEL, {"kind": "lateral", "count": 2})
        bus.emit(MATCH_CHECKED, count=3)
        assert log.count(MATCH_CHECKED) == 1


class TestTaskContext:
    def test_child_shares_budget_bus_with_subordinate_token(self):
        ctx = TaskContext.create(time_limit=10.0)
        child = ctx.child()
        assert child.budget is ctx.budget
        assert child.bus is ctx.bus
        ctx.cancel("parent gone")
        assert child.cancelled
        grandchild = child.child()
        assert grandchild.cancelled

    def test_deadline_flows_through_the_context(self):
        ctx = TaskContext.create(time_limit=1e-9, check_interval=1)
        with pytest.raises(TimeLimitExceeded):
            ctx.check_deadline()


def lateral_scheduler(graph, cancellation=True):
    targets = [
        ValidationTarget(triangle(), bigger, graph, induced=True)
        for bigger in (
            quasi_clique_patterns(4, 0.8) + quasi_clique_patterns(5, 0.8)
        )
    ]
    return LateralScheduler(
        targets, graph, enable_cancellation=cancellation
    )


class TestParentCancellation:
    def test_cancelled_parent_cancels_all_pending_child_vtasks(self):
        g = erdos_renyi(10, 0.9, seed=1)
        scheduler = lateral_scheduler(g)
        stats = ConstraintStats()
        ctx = TaskContext.create()
        ctx.cancel("parent aborted")
        cache = SetOperationCache(stats=stats)
        result = scheduler.validate([0, 1, 2], g, cache, stats, ctx=ctx)
        assert result is None
        assert stats.vtasks_started == 0
        assert stats.vtasks_canceled_lateral == len(scheduler)

    def test_live_parent_runs_the_chain_normally(self):
        g = graph_from_edges([(0, 1), (1, 2), (0, 2)])  # lone triangle
        scheduler = lateral_scheduler(g)
        stats = ConstraintStats()
        ctx = TaskContext.create()
        cache = SetOperationCache(stats=stats)
        assert (
            scheduler.validate([0, 1, 2], g, cache, stats, ctx=ctx)
            is None
        )
        assert stats.vtasks_started == len(scheduler)
        assert stats.vtasks_canceled_lateral == 0

    def test_lateral_match_cancels_chain_via_the_bus(self):
        g = erdos_renyi(10, 0.9, seed=1)  # nearly complete: contained
        scheduler = lateral_scheduler(g)
        stats = ConstraintStats()
        ctx = TaskContext.create()
        cache = SetOperationCache(stats=stats)
        log = EventLog(ctx.bus)
        hit = scheduler.validate([0, 1, 2], g, cache, stats, ctx=ctx)
        assert hit is not None
        assert (
            stats.vtasks_started + stats.vtasks_canceled_lateral
            == len(scheduler)
        )
        # Counted in place; the bus tells observers the same number.
        assert [p for name, p in log.records if name == CANCEL] == [
            {"kind": "lateral", "count": stats.vtasks_canceled_lateral}
        ]


class TestBridgeDeadline:
    """The shared deadline must fire *inside* VTask bridging recursion.

    A triangle → 5-clique validation bridges a two-level gap; with an
    expired budget the TLE must surface from within the bridge walk,
    not wait for the next subgraph boundary (the historic bug).
    """

    def _target(self, graph):
        return ValidationTarget(
            triangle(), clique(5), graph, induced=False
        )

    def test_expired_deadline_fires_inside_bridging(self):
        g = erdos_renyi(12, 0.95, seed=3)  # dense: deep bridge walks
        target = self._target(g)
        stats = ConstraintStats()
        ctx = TaskContext.create(time_limit=1e-9, check_interval=1)
        cache = SetOperationCache(stats=stats)
        with pytest.raises(TimeLimitExceeded):
            target.run([0, 1, 2], g, cache, stats, ctx=ctx)

    def test_expired_deadline_fires_inside_enumerate_mode(self):
        # Same walker, other mode: promotion's emit-all walk is the
        # longer one and must be just as interruptible.
        g = erdos_renyi(12, 0.95, seed=3)
        target = self._target(g)
        stats = ConstraintStats()
        ctx = TaskContext.create(time_limit=1e-9, check_interval=1)
        cache = SetOperationCache(stats=stats)
        emitted = []
        with pytest.raises(TimeLimitExceeded):
            target.enumerate_completions(
                [0, 1, 2], g, cache, stats, emitted.append, ctx=ctx
            )
        assert not emitted

    def test_without_context_the_bridge_completes(self):
        g = erdos_renyi(12, 0.95, seed=3)
        target = self._target(g)
        stats = ConstraintStats()
        cache = SetOperationCache(stats=stats)
        target.run([0, 1, 2], g, cache, stats)


class TestEventBusConcurrency:
    """The copy-on-write subscription contract.

    The historic failure mode: ``emit`` iterated the live handler list
    while another thread (or the handler itself) mutated it —
    ``RuntimeError: list changed size during iteration`` or silently
    skipped subscribers.  The handler tuple is now replaced under a
    lock, so an in-flight emit always completes over its snapshot.
    """

    def test_subscribed_during_emit_hears_the_next(self):
        bus = EventBus(strict=True)
        late = []

        def second(event, ts, payload, track):
            late.append(payload)

        def first(event, ts, payload, track):
            if payload["count"] == 1:
                bus.subscribe(second)

        bus.subscribe(first)
        bus.emit(CANCEL, kind="lateral", count=1)
        # Subscribed mid-emit: that emit's snapshot did not include it.
        assert late == []
        bus.emit(CANCEL, kind="lateral", count=2)
        assert late == [{"kind": "lateral", "count": 2}]

    def test_concurrent_emit_and_churn_never_corrupts_delivery(self):
        """Threads subscribing while others emit.

        Under the old in-place list mutation this raised (iteration
        over a mutating list) or dropped handlers; with copy-on-write
        tuples every emit must complete and a subscriber attached
        before the threads start must see every single emit.
        """
        import threading

        bus = EventBus(strict=True)
        seen = []
        bus.subscribe(lambda event, ts, payload, track: seen.append(1))
        errors = []

        def churn():
            try:
                for _ in range(200):
                    bus.subscribe(lambda event, ts, payload, track: None)
            except Exception as exc:  # pragma: no cover - the bug
                errors.append(exc)

        emits_per_thread = 300

        def emitter():
            try:
                for _ in range(emits_per_thread):
                    bus.emit(CANCEL, kind="lateral", count=1)
            except Exception as exc:  # pragma: no cover - the bug
                errors.append(exc)

        threads = [threading.Thread(target=churn) for _ in range(2)] + [
            threading.Thread(target=emitter) for _ in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
        assert errors == []
        # Nothing was lost or double-counted.
        assert len(seen) == 3 * emits_per_thread
