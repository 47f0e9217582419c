"""Task context: cancellation tokens and unified run budgets.

This module is the single home of the lifecycle plumbing every engine
and baseline shares (the Contigra runtime, the Peregrine+ baselines,
keyword search, TThinker's byte accounting):

* :class:`CancellationToken` — hierarchical cooperative cancellation.
  Cancelling a parent cancels every descendant, which is how one
  matching VTask cancels its lateral siblings (§6) and how an aborted
  ETask takes its pending child VTasks down with it.
* :class:`Budget` — wall-clock deadline plus simulated memory/storage
  byte budgets, raising the :mod:`repro.errors` vocabulary (TLE / OOM
  / OOS).  The deadline check is tick-gated so hot loops pay one
  integer op per call, one clock read per ``check_interval`` calls.
* :class:`TaskContext` — the bundle engines carry: token + budget +
  event bus.  ``child()`` derives a context whose token is subordinate
  but whose budget and bus are shared — the task hierarchy of the
  paper's ETask → VTask spawning.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Optional

from ..errors import (
    MemoryBudgetExceeded,
    StorageBudgetExceeded,
    TimeLimitExceeded,
)
from .events import PHASE_END, PHASE_START, EventBus


class CancellationToken:
    """Cooperative cancellation flag with parent propagation.

    A token is cancelled when :meth:`cancel` was called on it **or on
    any ancestor** — checking walks the (short) parent chain, so parent
    cancellation is visible to children without any fan-out
    bookkeeping.  Cancellation is one-way and idempotent.
    """

    __slots__ = ("_cancelled", "_parent", "reason")

    def __init__(self, parent: Optional["CancellationToken"] = None) -> None:
        self._cancelled = False
        self._parent = parent
        self.reason: Optional[str] = None

    def cancel(self, reason: Optional[str] = None) -> None:
        """Cancel this token (and, transitively, all its descendants)."""
        if not self._cancelled:
            self._cancelled = True
            self.reason = reason

    @property
    def cancelled(self) -> bool:
        token: Optional[CancellationToken] = self
        while token is not None:
            if token._cancelled:
                return True
            token = token._parent
        return False

    def child(self) -> "CancellationToken":
        """A subordinate token: cancelled with the parent, cancellable
        alone."""
        return CancellationToken(parent=self)

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "live"
        return f"CancellationToken({state})"


class Budget:
    """Unified wall-clock / memory / storage budget for one run.

    This is the *only* deadline implementation in the codebase; every
    engine and baseline checks time through it.  Memory is modeled as
    resident bytes (charge/release pairs around live state, one-way
    charges for buffered results); storage is cumulative spill.  All
    three violations raise the shared :mod:`repro.errors` types the
    benchmark harness maps to the paper's TLE / OOM / OOS cells.
    """

    __slots__ = (
        "time_limit",
        "memory_budget_bytes",
        "storage_budget_bytes",
        "check_interval",
        "start",
        "memory_used_bytes",
        "peak_memory_bytes",
        "storage_used_bytes",
        "_tick",
    )

    def __init__(
        self,
        time_limit: Optional[float] = None,
        memory_budget_bytes: Optional[int] = None,
        storage_budget_bytes: Optional[int] = None,
        check_interval: int = 256,
    ) -> None:
        if check_interval < 1:
            raise ValueError("check_interval must be >= 1")
        self.time_limit = time_limit
        self.memory_budget_bytes = memory_budget_bytes
        self.storage_budget_bytes = storage_budget_bytes
        self.check_interval = check_interval
        self.start = time.monotonic()
        self.memory_used_bytes = 0
        self.peak_memory_bytes = 0
        self.storage_used_bytes = 0
        self._tick = 0

    # ------------------------------------------------------------------
    # Wall clock
    # ------------------------------------------------------------------

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def remaining_time(self) -> Optional[float]:
        """Wall clock left before the deadline (None when unlimited).

        Schedulers use this to size retry backoff sleeps and to compute
        the residual budget shards are dispatched with — never negative.
        """
        if self.time_limit is None:
            return None
        return max(0.0, self.time_limit - self.elapsed())

    def restart(self) -> None:
        """Re-anchor the clock (a fresh run reusing the same budget)."""
        self.start = time.monotonic()
        self._tick = 0

    def check_deadline(self) -> None:
        """The one shared deadline check (tick-gated; raises TLE)."""
        if self.time_limit is None:
            return
        self._tick += 1
        if self._tick % self.check_interval:
            return
        elapsed = time.monotonic() - self.start
        if elapsed > self.time_limit:
            raise TimeLimitExceeded(self.time_limit, elapsed)

    # ------------------------------------------------------------------
    # Bytes
    # ------------------------------------------------------------------

    def charge_memory(self, n_bytes: int) -> int:
        """Charge resident bytes; raises OOM past the budget.

        Returns ``n_bytes`` so callers can pair the charge with a later
        :meth:`release_memory`.
        """
        self.memory_used_bytes += n_bytes
        if self.memory_used_bytes > self.peak_memory_bytes:
            self.peak_memory_bytes = self.memory_used_bytes
        if (
            self.memory_budget_bytes is not None
            and self.memory_used_bytes > self.memory_budget_bytes
        ):
            raise MemoryBudgetExceeded(
                self.memory_budget_bytes, self.memory_used_bytes
            )
        return n_bytes

    def release_memory(self, n_bytes: int) -> None:
        self.memory_used_bytes -= n_bytes

    def charge_storage(self, n_bytes: int) -> int:
        """Charge cumulative spill bytes; raises OOS past the budget."""
        self.storage_used_bytes += n_bytes
        if (
            self.storage_budget_bytes is not None
            and self.storage_used_bytes > self.storage_budget_bytes
        ):
            raise StorageBudgetExceeded(
                self.storage_budget_bytes, self.storage_used_bytes
            )
        return n_bytes

    def __repr__(self) -> str:
        return (
            f"Budget(time_limit={self.time_limit}, "
            f"mem={self.memory_used_bytes}/{self.memory_budget_bytes}, "
            f"disk={self.storage_used_bytes}/{self.storage_budget_bytes})"
        )


class TaskContext:
    """Everything a task needs from its runtime, in one handle.

    ``token`` gates cooperative cancellation, ``budget`` owns the
    deadline and byte accounting, and ``bus`` carries instrumentation
    events to whoever observes the run.  Counters are not the
    context's business: each session owns its stats and counts in
    place.
    Contexts are cheap; derive per-scope children with :meth:`child`.
    """

    __slots__ = ("token", "budget", "bus")

    def __init__(
        self,
        token: Optional[CancellationToken] = None,
        budget: Optional[Budget] = None,
        bus: Optional[EventBus] = None,
    ) -> None:
        self.token = token if token is not None else CancellationToken()
        self.budget = budget if budget is not None else Budget()
        self.bus = bus if bus is not None else EventBus()

    @classmethod
    def create(
        cls,
        time_limit: Optional[float] = None,
        check_interval: int = 256,
        memory_budget_bytes: Optional[int] = None,
        storage_budget_bytes: Optional[int] = None,
        bus: Optional[EventBus] = None,
    ) -> "TaskContext":
        """Standard context: fresh token, fresh budget."""
        return cls(
            token=CancellationToken(),
            budget=Budget(
                time_limit=time_limit,
                memory_budget_bytes=memory_budget_bytes,
                storage_budget_bytes=storage_budget_bytes,
                check_interval=check_interval,
            ),
            bus=bus,
        )

    def child(self) -> "TaskContext":
        """Derived context: subordinate token, shared budget and bus."""
        ctx = TaskContext.__new__(TaskContext)
        ctx.token = self.token.child()
        ctx.budget = self.budget
        ctx.bus = self.bus
        return ctx

    @property
    def cancelled(self) -> bool:
        return self.token.cancelled

    def cancel(self, reason: Optional[str] = None) -> None:
        self.token.cancel(reason)

    def check_deadline(self) -> None:
        self.budget.check_deadline()

    def deadline_tick(self) -> Optional[Callable[[], None]]:
        """The deadline check a task calls at every node, or ``None``
        when the budget has no time limit (the check is a no-op then,
        and a task skips the call)."""
        budget = self.budget
        return None if budget.time_limit is None else budget.check_deadline

    def emit(self, event: str, **payload: Any) -> None:
        self.bus.emit(event, **payload)

    @property
    def observed(self) -> bool:
        """Whether anyone subscribed to the bus — the gate every
        emitter tests before publishing (see :class:`EventBus`)."""
        return self.bus.observed

    def phase_start(self, phase: str, **payload: Any) -> None:
        """Open a named runtime phase (span) on the bus."""
        self.bus.emit(PHASE_START, phase=phase, **payload)

    def phase_end(self, phase: str) -> None:
        """Close the innermost open phase named ``phase``."""
        self.bus.emit(PHASE_END, phase=phase)

    def __repr__(self) -> str:
        return f"TaskContext({self.token!r}, {self.budget!r})"
