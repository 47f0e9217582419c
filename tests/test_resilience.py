"""Unit tests for the resilience layer (repro.exec.resilience).

Covers the retry policy (the fixed capped backoff, the split
schedule), the transient/terminal failure classification,
multi-failure triage, degraded-result marking, and the
fault-injection plan primitives the chaos suite is built on.
"""

import pickle
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.core import maximality_constraints
from repro.core.runtime import ContigraEngine
from repro.errors import (
    MemoryBudgetExceeded,
    StorageBudgetExceeded,
    TimeLimitExceeded,
)
from repro.exec import (
    SHARD_RETRY,
    EventLog,
    ProcessShardScheduler,
    SerialScheduler,
    TaskContext,
    make_scheduler,
)
from repro.exec.resilience import (
    BACKOFF_BASE,
    BACKOFF_MAX,
    BUDGET_ERRORS,
    FAULT_KINDS,
    ON_FAILURE_MODES,
    Fault,
    FaultPlan,
    InjectedFault,
    TransientWorkerError,
    backoff_delay,
    is_transient,
    mark_degraded,
    select_primary_failure,
)
from repro.graph import erdos_renyi
from repro.patterns import quasi_clique_patterns_up_to


class TestRetryPolicy:
    """The retry count plus the fixed backoff and split schedule."""

    def test_backoff_grows_exponentially_and_caps(self):
        assert BACKOFF_BASE == 0.05 and BACKOFF_MAX == 2.0
        assert backoff_delay(1) == pytest.approx(0.05)
        assert backoff_delay(2) == pytest.approx(0.1)
        assert backoff_delay(3) == pytest.approx(0.2)
        assert backoff_delay(6) == pytest.approx(1.6)
        assert backoff_delay(7) == pytest.approx(2.0)  # capped
        assert backoff_delay(50) == pytest.approx(2.0)

    def test_split_schedule(self):
        """A retried shard is split in half on every retry: the first
        retry re-dispatches 6 roots as 3 + 3, the second 3 as 1 + 2."""
        graph = erdos_renyi(12, 0.45, seed=9)
        engine = ContigraEngine(
            graph,
            maximality_constraints(
                quasi_clique_patterns_up_to(4, 0.7), induced=True
            ),
        )
        ctx = TaskContext.create()
        log = EventLog(ctx.bus)
        plan = FaultPlan().crash(2, times=2)
        engine.run_with(
            ProcessShardScheduler(n_workers=2, retries=2, fault_plan=plan),
            ctx=ctx,
        )
        retried = [
            (payload["attempt"], payload["roots"])
            for name, payload in log.records
            if name == SHARD_RETRY
        ]
        assert retried == [(1, 6), (2, 3)]
        # The serial unit is the whole run: retried, never split.
        ctx = TaskContext.create()
        log = EventLog(ctx.bus)
        engine.run_with(
            SerialScheduler(retries=2, fault_plan=plan), ctx=ctx
        )
        assert [
            (payload["attempt"], payload["roots"])
            for name, payload in log.records
            if name == SHARD_RETRY
        ] == [(1, 12), (2, 12)]

    def test_validation(self):
        with pytest.raises(ValueError):
            SerialScheduler(retries=-1)
        with pytest.raises(ValueError):
            make_scheduler("workqueue", retries=-1)


class TestTransientClassification:
    def test_budget_errors_are_terminal(self):
        for exc in (
            TimeLimitExceeded(1.0, 2.0),
            MemoryBudgetExceeded(10, 20),
            StorageBudgetExceeded(10, 20),
        ):
            assert isinstance(exc, BUDGET_ERRORS)
            assert not is_transient(exc)

    def test_worker_crashes_are_transient(self):
        assert is_transient(TransientWorkerError("lost sandbox"))
        assert is_transient(InjectedFault(3, 0))
        assert is_transient(BrokenProcessPool("worker died"))

    def test_ordinary_errors_are_terminal(self):
        assert not is_transient(ValueError("bad input"))
        assert not is_transient(KeyboardInterrupt())

    def test_injected_fault_survives_pickling(self):
        fault = InjectedFault(5, 2)
        clone = pickle.loads(pickle.dumps(fault))
        assert isinstance(clone, InjectedFault)
        assert clone.root == 5 and clone.attempt == 2


class TestFailureTriage:
    def test_budget_error_beats_secondary_noise(self):
        tle = TimeLimitExceeded(1.0, 2.0)
        noise = TransientWorkerError("cancelled mid-flight")
        other = RuntimeError("finish raised")
        selected = select_primary_failure([noise, other, tle])
        assert selected is tle
        assert selected.__cause__ is noise
        assert set(selected.suppressed_failures) == {noise, other}

    def test_ties_go_to_arrival_order(self):
        first = ValueError("a")
        second = ValueError("b")
        assert select_primary_failure([first, second]) is first

    def test_single_failure_passthrough(self):
        exc = RuntimeError("only one")
        selected = select_primary_failure([exc])
        assert selected is exc
        assert selected.suppressed_failures == ()

    def test_existing_cause_is_preserved(self):
        tle = TimeLimitExceeded(1.0, 2.0)
        original = KeyError("root cause")
        tle.__cause__ = original
        select_primary_failure([tle, ValueError("x")])
        assert tle.__cause__ is original

    def test_empty_failures_rejected(self):
        with pytest.raises(ValueError):
            select_primary_failure([])


class TestMarkDegraded:
    def test_marks_sorted_deduped_roots_and_reasons(self):
        class Result:
            pass

        result = Result()
        out = mark_degraded(
            result, [5, 2, 5, 9], [TimeLimitExceeded(1.0, 2.0)]
        )
        assert out is result
        assert result.incomplete is True
        assert result.unprocessed_roots == [2, 5, 9]
        assert len(result.failure_reasons) == 1
        assert result.failure_reasons[0].startswith("TimeLimitExceeded")


class TestFaultPlan:
    def test_vocabulary(self):
        assert set(FAULT_KINDS) == {"kill", "crash", "delay", "exhaust"}
        assert ON_FAILURE_MODES == ("raise", "degrade")

    def test_fault_validation(self):
        with pytest.raises(ValueError):
            Fault("explode", 0)
        with pytest.raises(ValueError):
            Fault("crash", 0, times=0)

    def test_matching_is_root_and_attempt_scoped(self):
        fault = Fault("crash", 3, times=2)
        assert fault.matches([1, 2, 3], 0)
        assert fault.matches([3], 1)
        assert not fault.matches([3], 2)   # injection budget spent
        assert not fault.matches([1, 2], 0)  # root not in shard

    def test_crash_raises_injected_fault(self):
        plan = FaultPlan().crash(4)
        with pytest.raises(InjectedFault) as info:
            plan.fire([4, 5], 0)
        assert info.value.root == 4
        plan.fire([4, 5], 1)  # attempt past `times`: quiet
        plan.fire([5], 0)     # root not dispatched: quiet

    def test_exhaust_raises_terminal_tle(self):
        plan = FaultPlan().exhaust(1)
        with pytest.raises(TimeLimitExceeded) as info:
            plan.fire([1], 0)
        assert not is_transient(info.value)

    def test_delay_sleeps(self):
        plan = FaultPlan().delay(2, seconds=0.02)
        start = time.monotonic()
        plan.fire([2], 0)
        assert time.monotonic() - start >= 0.02

    def test_kill_demoted_in_process(self):
        # allow_kill=False (thread/serial workers) must never _exit the
        # interpreter; the fault demotes to a transient crash.
        plan = FaultPlan().kill(7)
        with pytest.raises(InjectedFault):
            plan.fire([7], 0, allow_kill=False)

    def test_plan_is_picklable(self):
        plan = FaultPlan().kill(1).crash(2, times=2).delay(3, 0.1)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.faults == plan.faults
