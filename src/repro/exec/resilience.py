"""Fault-tolerant scheduling: retries, fault injection, degradation.

Long containment runs (MQC/NSQ on mid-size graphs run for minutes,
§8) must not vaporize every healthy shard's work because one worker
process died or the deadline landed mid-run.  This module is the
resilience vocabulary the schedulers in
:mod:`repro.exec.scheduler` share:

* :func:`is_transient` — the transient/terminal classification: a
  crashed worker process (``BrokenProcessPool``) or a
  :class:`TransientWorkerError` is retryable; budget violations
  (TLE/OOM/OOS) and everything else are terminal.  Retries wait
  :func:`backoff_delay` — a fixed capped exponential schedule.
* :class:`FaultPlan` — a deterministic fault-injection harness for
  the chaos test suite: plans kill worker processes, raise
  transient crashes, delay shards, or exhaust budgets at chosen
  roots/attempts.  Plans are picklable and travel inside shard
  payloads, so faults fire inside real worker processes.
* :func:`select_primary_failure` — multi-failure triage: budget
  exceptions win over secondary cancellation-induced errors, the
  losers stay reachable via ``__cause__`` and
  ``suppressed_failures``.
* :func:`mark_degraded` — the ``on_failure="degrade"`` result
  contract: a merged result explicitly flagged ``incomplete`` with
  the unprocessed roots listed, instead of an exception.

See ``docs/execution.md`` ("Failure semantics") for the
terminal-vs-transient table and retry walkthrough.
"""

from __future__ import annotations

import os
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from ..errors import (
    MemoryBudgetExceeded,
    ReproError,
    StorageBudgetExceeded,
    TimeLimitExceeded,
)
from .context import Budget

__all__ = [
    "BACKOFF_BASE",
    "BACKOFF_MAX",
    "BUDGET_ERRORS",
    "Fault",
    "FAULT_KINDS",
    "FaultPlan",
    "InjectedFault",
    "ON_FAILURE_MODES",
    "TransientWorkerError",
    "backoff_delay",
    "is_transient",
    "mark_degraded",
    "select_primary_failure",
]

#: ``on_failure`` vocabulary: raise the terminal error (default) or
#: degrade to a merged partial result marked ``incomplete``.
ON_FAILURE_RAISE = "raise"
ON_FAILURE_DEGRADE = "degrade"
ON_FAILURE_MODES = (ON_FAILURE_RAISE, ON_FAILURE_DEGRADE)

#: Budget violations are *terminal*: retrying a shard that ran out of
#: time/memory/storage burns the remaining budget for nothing.
BUDGET_ERRORS = (
    TimeLimitExceeded,
    MemoryBudgetExceeded,
    StorageBudgetExceeded,
)


class TransientWorkerError(ReproError):
    """A worker failure that is safe to retry (crash-equivalent).

    Schedulers treat this class — and a broken process pool — as
    *transient*: the failed unit's roots are re-dispatched while the
    run's ``retries`` last instead of aborting the run.  Raise (or
    subclass) it for infrastructure-shaped failures: a flaky remote
    fetch, a worker that lost its sandbox, an injected chaos fault.
    """


class InjectedFault(TransientWorkerError):
    """Deterministic transient failure raised by a :class:`FaultPlan`."""

    def __init__(self, root: int, attempt: int) -> None:
        super().__init__(
            f"injected fault at root {root} (attempt {attempt})"
        )
        self.root = root
        self.attempt = attempt

    def __reduce__(self) -> Tuple[Any, Tuple[int, int]]:
        # Keep the two-argument constructor working across process
        # boundaries (see repro.errors.TimeLimitExceeded.__reduce__).
        return (type(self), (self.root, self.attempt))


def is_transient(exc: BaseException) -> bool:
    """Whether ``exc`` is a retryable worker failure.

    Budget violations are always terminal — rerunning an out-of-budget
    shard cannot succeed.
    """
    if isinstance(exc, BUDGET_ERRORS):
        return False
    return isinstance(exc, (TransientWorkerError, BrokenProcessPool))


#: The retry backoff schedule: ``BACKOFF_BASE * 2**(n-1)`` seconds
#: before retry ``n``, capped at ``BACKOFF_MAX`` (and, by the
#: schedulers, at the run's remaining time).
BACKOFF_BASE = 0.05
BACKOFF_MAX = 2.0


def backoff_delay(attempt: int) -> float:
    """Seconds to wait before retry ``attempt`` (1-based)."""
    return min(BACKOFF_MAX, BACKOFF_BASE * 2.0 ** max(0, attempt - 1))


# ----------------------------------------------------------------------
# Fault injection
# ----------------------------------------------------------------------

#: Fault kinds: ``kill`` hard-exits the worker process (a real
#: ``BrokenProcessPool`` for the parent; demoted to ``crash`` inside
#: thread/serial workers), ``crash`` raises :class:`InjectedFault`,
#: ``delay`` sleeps, ``exhaust`` raises an immediate
#: :class:`~repro.errors.TimeLimitExceeded` (terminal).
FAULT_KILL = "kill"
FAULT_CRASH = "crash"
FAULT_DELAY = "delay"
FAULT_EXHAUST = "exhaust"
FAULT_KINDS = (FAULT_KILL, FAULT_CRASH, FAULT_DELAY, FAULT_EXHAUST)


@dataclass(frozen=True)
class Fault:
    """One injection point: fire ``kind`` when dispatching ``root``.

    The fault fires on the first ``times`` dispatch attempts (0-based
    attempts ``0 … times-1``) of any shard containing ``root``, then
    goes quiet — so a retried (or split) shard succeeds once the
    budget of injected failures is spent.  Matching on a root rather
    than a shard index keeps plans stable under retry splitting.
    """

    kind: str
    root: int
    times: int = 1
    seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"fault kind must be one of {FAULT_KINDS}, "
                f"got {self.kind!r}"
            )
        if self.times < 1:
            raise ValueError("times must be >= 1")

    def matches(self, roots: Sequence[int], attempt: int) -> bool:
        return attempt < self.times and self.root in roots


class FaultPlan:
    """Deterministic fault-injection harness for chaos tests.

    A plan is an ordered list of :class:`Fault` entries.
    Schedulers carry the plan to every dispatch point — shard payloads
    pickle it into worker processes; thread/serial workers call it in
    process — and invoke :meth:`fire` with the dispatched roots and
    the attempt number.  Everything is derived from the plan's
    contents and the attempt counter, so a given (plan, workload,
    scheduler) triple always fails in exactly the same places.
    """

    def __init__(self, faults: Sequence[Fault] = ()) -> None:
        self.faults: List[Fault] = list(faults)

    # -- builders -------------------------------------------------------

    def kill(self, root: int, times: int = 1) -> "FaultPlan":
        """Hard-exit the worker process owning ``root`` (first ``times``
        attempts)."""
        self.faults.append(Fault(FAULT_KILL, root, times))
        return self

    def crash(self, root: int, times: int = 1) -> "FaultPlan":
        """Raise a transient :class:`InjectedFault` at ``root``."""
        self.faults.append(Fault(FAULT_CRASH, root, times))
        return self

    def delay(
        self, root: int, seconds: float, times: int = 1
    ) -> "FaultPlan":
        """Sleep ``seconds`` before running a shard containing ``root``."""
        self.faults.append(Fault(FAULT_DELAY, root, times, seconds))
        return self

    def exhaust(self, root: int, times: int = 1) -> "FaultPlan":
        """Burn the shard's budget: an immediate, terminal TLE."""
        self.faults.append(Fault(FAULT_EXHAUST, root, times))
        return self

    # -- execution ------------------------------------------------------

    def fire(
        self,
        roots: Sequence[int],
        attempt: int,
        budget: Optional[Budget] = None,
        allow_kill: bool = True,
    ) -> None:
        """Apply every matching fault for this dispatch.

        ``allow_kill`` is True only inside real worker processes;
        thread and serial workers demote ``kill`` to ``crash`` so a
        chaos plan never takes the parent interpreter down.
        """
        for fault in self.faults:
            if not fault.matches(roots, attempt):
                continue
            if fault.kind == FAULT_DELAY:
                time.sleep(fault.seconds)
            elif fault.kind == FAULT_EXHAUST:
                elapsed = budget.elapsed() if budget is not None else 0.0
                raise TimeLimitExceeded(0.0, elapsed)
            elif fault.kind == FAULT_KILL and allow_kill:
                os._exit(17)
            else:  # crash, or kill demoted in-process
                raise InjectedFault(fault.root, attempt)

    def __repr__(self) -> str:
        return f"FaultPlan(faults={self.faults!r})"


# ----------------------------------------------------------------------
# Failure triage and degraded results
# ----------------------------------------------------------------------


def _failure_rank(exc: BaseException) -> int:
    if isinstance(exc, BUDGET_ERRORS):
        return 0
    if isinstance(exc, (TransientWorkerError, BrokenProcessPool)):
        # Crash noise — including cancellation-induced secondary
        # failures — loses to anything that explains *why* the run
        # died.
        return 2
    return 1


def select_primary_failure(
    failures: Sequence[BaseException],
) -> BaseException:
    """The failure worth raising when several workers died at once.

    One worker hitting the deadline cancels the rest cooperatively;
    the losers often die with secondary, cancellation-induced errors.
    Budget violations (TLE/OOM/OOS) outrank everything else, ties go
    to arrival order.  The non-selected failures stay reachable:
    the first one becomes ``__cause__`` (unless the primary already
    chains one) and all of them land on ``suppressed_failures``.
    """
    if not failures:
        raise ValueError("select_primary_failure needs at least one failure")
    primary = min(
        range(len(failures)), key=lambda i: (_failure_rank(failures[i]), i)
    )
    selected = failures[primary]
    others = tuple(
        exc for i, exc in enumerate(failures) if i != primary
    )
    if others and selected.__cause__ is None:
        selected.__cause__ = others[0]
    setattr(selected, "suppressed_failures", others)
    return selected


def mark_degraded(
    result: Any,
    unprocessed_roots: Sequence[int],
    failures: Sequence[BaseException] = (),
) -> Any:
    """Flag a merged result as an explicit partial (degraded) result.

    Sets ``incomplete=True``, the sorted deduplicated
    ``unprocessed_roots``, and human-readable ``failure_reasons``.
    :class:`~repro.core.runtime.ContigraResult` declares these fields;
    any other result object grows them as plain attributes.
    """
    setattr(result, "incomplete", True)
    setattr(
        result, "unprocessed_roots", sorted(set(int(r) for r in unprocessed_roots))
    )
    setattr(
        result,
        "failure_reasons",
        [f"{type(exc).__name__}: {exc}" for exc in failures],
    )
    return result
