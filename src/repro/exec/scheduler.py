"""Pluggable schedulers for constraint-aware mining runs.

A :class:`Scheduler` decides *where and in what order* the independent
root-level ETask groups of a run execute; the execution semantics
(match sets, TLE/OOM/OOS vocabulary) are identical across schedulers:

``SerialScheduler``
    One engine, one promotion registry, roots in order — the paper's
    single-worker execution and the reference for equivalence tests.

``ProcessShardScheduler``
    Roots partitioned round-robin across worker *processes* (CPython's
    GIL makes threads useless for this workload).  Each shard keeps a
    local promotion registry, exactly like distributed Contigra
    workers without a shared registry; results are canonically
    deduplicated and counters summed at merge.  Worker budget failures
    (TLE/OOM/OOS) cross the process boundary as their original
    exception types.

``WorkQueueScheduler``
    Per-root work stealing: every worker owns a deque of root tasks
    and steals from the busiest victim when idle.  Workers share one
    engine's pattern-level precomputation and one cancellation
    token/deadline, so a budget failure in any worker cancels the
    rest cooperatively.

All three consume an :class:`ExecutionJob` — the bridge the Contigra
runtime implements (:class:`repro.core.runtime.ContigraJob` is built
by :func:`contigra_job`).

Resilience (see :mod:`repro.exec.resilience` and ``docs/execution.md``
"Failure semantics"): every scheduler accepts a
:class:`~repro.exec.resilience.RetryPolicy` (transient worker
failures are re-dispatched with capped exponential backoff, shards
optionally split in half from the second attempt on), an
``on_failure`` mode (``"raise"`` surfaces the primary failure with
its original type; ``"degrade"`` merges the healthy partials into a
result marked ``incomplete`` listing the unprocessed roots), and an
optional :class:`~repro.exec.resilience.FaultPlan` for deterministic
chaos testing.  Shards are always dispatched with the *residual*
run budget (:class:`~repro.exec.resilience.BudgetSpec`), never a
fresh copy of the configured limits.
"""

from __future__ import annotations

import dataclasses
import time
from concurrent.futures import ProcessPoolExecutor
from typing import (
    Any,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

from ..errors import TimeLimitExceeded
from .context import TaskContext
from .events import (
    PHASE_RETRY,
    PHASE_RUN,
    PHASE_SHARD,
    RUN_DEGRADED,
    SHARD_FAILED,
    SHARD_RETRY,
    EventRecorder,
    RecordedEvent,
    replay_events,
)
from .resilience import (
    ON_FAILURE_DEGRADE,
    ON_FAILURE_MODES,
    ON_FAILURE_RAISE,
    BudgetSpec,
    FaultPlan,
    RetryPolicy,
    is_transient,
    mark_degraded,
    run_crash_cleanups,
    select_primary_failure,
)

SCHEDULER_NAMES = ("serial", "process", "workqueue")


class ExecutionJob(Protocol):
    """What a scheduler needs from a runnable workload."""

    def all_roots(self) -> List[int]:
        """Every root vertex the run may explore."""
        ...

    def run_serial(self, ctx: Optional[TaskContext] = None) -> Any:
        """Run the whole job in-process with one registry."""
        ...

    def run_shard(
        self, roots: Sequence[int], ctx: Optional[TaskContext] = None
    ) -> Any:
        """Run one root shard in-process (local registry)."""
        ...

    def shard_payload(self, roots: Sequence[int]) -> Any:
        """A picklable payload for :func:`run_shard_payload`."""
        ...

    def worker_session(self, ctx: TaskContext) -> Any:
        """An incremental session for work-stealing workers."""
        ...

    def merge(self, partials: Sequence[Any], elapsed: float) -> Any:
        """Combine per-shard results (dedup + counter sums)."""
        ...

    def shard_context(self) -> TaskContext:
        """A context configured for one shard worker (deadline etc.)."""
        ...


def merge_counter_dict(stats: Any, shard_dict: Dict[str, float]) -> None:
    """Sum a shard's integer counters into ``stats`` (rates recompute).

    Works for any stats dataclass whose fields are integer counters —
    the single merge implementation behind every sharded path.
    """
    for field in dataclasses.fields(stats):
        value = shard_dict.get(field.name)
        if value is None:
            continue
        setattr(
            stats, field.name, getattr(stats, field.name) + int(value)
        )


def run_shard_payload(
    payload: Tuple[
        Any, Sequence[int], bool, BudgetSpec, Optional[FaultPlan], int
    ],
) -> Tuple[Any, Dict[str, float], float, Optional[List[RecordedEvent]]]:
    """Process-pool entry point: run one shard end to end.

    Module-level so it pickles; budget exceptions propagate with their
    original types (see ``repro.errors`` ``__reduce__``).

    The payload is the six-tuple ``(job, roots, observe, budget_spec,
    fault_plan, attempt)`` :meth:`ProcessShardScheduler._payload`
    builds:

    * ``observe`` truthy makes the shard record every event it emits
      (with worker-side timestamps) and return the serialized summary
      as the fourth element, which the parent replays into its bus at
      merge — the cross-process half of trace/metric completeness.
      Unobserved shards skip recording entirely, so runs without
      observability subscribers pay nothing.
    * ``budget_spec`` is the parent's *residual*
      :class:`~repro.exec.resilience.BudgetSpec` at dispatch time; it
      caps the shard context's budget so a run with ``time_limit=T``
      cannot burn parent setup time plus a fresh ``T`` per shard.
    * ``fault_plan`` / ``attempt`` drive deterministic chaos
      injection before the shard runs (``attempt`` is the 0-based
      dispatch count for this shard's roots).
    """
    job, roots, observe, spec, fault_plan, attempt = payload
    ctx = job.shard_context()
    spec.apply(ctx.budget)
    if fault_plan is not None:
        fault_plan.fire(
            roots, attempt, budget=ctx.budget, allow_kill=True
        )
    if not observe:
        result = job.run_shard(roots, ctx=ctx)
        return result.valid, result.stats.as_dict(), result.elapsed, None
    recorder = EventRecorder(ctx.bus)
    ctx.phase_start(PHASE_SHARD, roots=len(roots))
    try:
        result = job.run_shard(roots, ctx=ctx)
    finally:
        ctx.phase_end(PHASE_SHARD)
    return (
        result.valid,
        result.stats.as_dict(),
        result.elapsed,
        recorder.serialize(),
    )


def _share_job_graph(job: Any) -> Optional[str]:
    """Lease the job's data graph into shared memory when eligible.

    Eligible means the job exposes ``data_graph()`` and that graph's
    content is registered in the process-global
    :class:`~repro.graph.store.GraphStore` — registration is the
    opt-in that says the graph has serving lifetime.  While published,
    every shard payload pickles the graph as an O(1) segment
    reference instead of the full adjacency (see
    :mod:`repro.graph.shm`).  The segment is acquired as a run-scoped
    lease — the caller must pass the returned fingerprint to
    :func:`_release_job_graph` when the run finishes, so that in a
    long-lived process the segment is unlinked as soon as the last run
    referencing that content completes (concurrent runs over the same
    content share one segment via the lease count).
    """
    getter = getattr(job, "data_graph", None)
    if getter is None:
        return None
    graph = getter()
    if graph is None:
        return None
    from ..graph.shm import acquire_graph
    from ..graph.store import graph_store

    fingerprint = graph.fingerprint
    for entry in graph_store().entries():
        if entry.fingerprint == fingerprint:
            return acquire_graph(graph)
    return None


def _release_job_graph(fingerprint: Optional[str]) -> None:
    """Drop the run's shared-graph lease (no-op for ``None``)."""
    if fingerprint is None:
        return
    from ..graph.shm import release_graph

    release_graph(fingerprint)


def _classify_transient(
    policy: Optional[RetryPolicy], exc: BaseException
) -> bool:
    if policy is not None:
        return policy.is_transient(exc)
    return is_transient(exc)


class _ShardState:
    """One shard's dispatch bookkeeping across retry rounds."""

    __slots__ = ("index", "roots", "attempt", "errors")

    def __init__(
        self,
        index: int,
        roots: List[int],
        attempt: int = 0,
        errors: Optional[List[BaseException]] = None,
    ) -> None:
        self.index = index
        self.roots = roots
        self.attempt = attempt
        self.errors: List[BaseException] = (
            errors if errors is not None else []
        )

    @property
    def last_error(self) -> BaseException:
        return self.errors[-1]


class _FailureOptions:
    """What every scheduler is told about failures, validated once."""

    def __init__(
        self,
        retry: Optional[RetryPolicy] = None,
        on_failure: str = ON_FAILURE_RAISE,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        if on_failure not in ON_FAILURE_MODES:
            raise ValueError(
                f"on_failure must be one of {ON_FAILURE_MODES}, "
                f"got {on_failure!r}"
            )
        self.retry = retry
        self.on_failure = on_failure
        self.fault_plan = fault_plan


class _ParallelOptions(_FailureOptions):
    """The same, plus the worker count the two sharding schedulers take."""

    def __init__(
        self,
        n_workers: int = 2,
        retry: Optional[RetryPolicy] = None,
        on_failure: str = ON_FAILURE_RAISE,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        super().__init__(retry, on_failure, fault_plan)
        self.n_workers = n_workers


class SerialScheduler(_FailureOptions):
    """Run the whole job in-process, roots in order.

    With a :class:`RetryPolicy` the whole run is the retry unit — a
    transient failure reruns the job from scratch on a fresh session
    (serial runs have no partial shards to salvage individually).
    """

    name = "serial"

    def run(self, job: ExecutionJob, ctx: Optional[TaskContext] = None) -> Any:
        if self.retry is None and self.fault_plan is None:
            return self._run_once(job, ctx)
        return self._run_resilient(job, ctx)

    def _run_once(
        self, job: ExecutionJob, ctx: Optional[TaskContext]
    ) -> Any:
        if ctx is None or not ctx.observed:
            return job.run_serial(ctx=ctx)
        ctx.phase_start(PHASE_RUN, scheduler=self.name)
        try:
            return job.run_serial(ctx=ctx)
        finally:
            ctx.phase_end(PHASE_RUN)

    def _run_resilient(
        self, job: ExecutionJob, ctx: Optional[TaskContext]
    ) -> Any:
        run_ctx = ctx if ctx is not None else TaskContext()
        policy = self.retry
        max_retries = policy.max_retries if policy is not None else 0
        attempt = 0
        failures: List[BaseException] = []
        while True:
            try:
                if self.fault_plan is not None:
                    self.fault_plan.fire(
                        job.all_roots(),
                        attempt,
                        budget=run_ctx.budget,
                        allow_kill=False,
                    )
                return self._run_once(job, ctx)
            except BaseException as exc:  # noqa: BLE001 - triaged below
                failures.append(exc)
                if (
                    _classify_transient(policy, exc)
                    and attempt < max_retries
                ):
                    attempt += 1
                    delay = (
                        policy.delay(attempt) if policy is not None else 0.0
                    )
                    remaining = run_ctx.budget.remaining_time()
                    if remaining is not None:
                        delay = min(delay, remaining)
                    run_ctx.emit(
                        SHARD_RETRY,
                        shard=0,
                        attempt=attempt,
                        delay=delay,
                        error=type(exc).__name__,
                        roots=len(job.all_roots()),
                    )
                    if delay > 0:
                        time.sleep(delay)
                    continue
                run_ctx.emit(
                    SHARD_FAILED,
                    shard=0,
                    attempt=attempt,
                    error=type(exc).__name__,
                    roots=len(job.all_roots()),
                )
                if self.on_failure == ON_FAILURE_RAISE:
                    raise select_primary_failure(failures) from None
                merged = job.merge([], run_ctx.budget.elapsed())
                mark_degraded(merged, job.all_roots(), failures)
                run_ctx.emit(
                    RUN_DEGRADED,
                    unprocessed=len(job.all_roots()),
                    failures=[type(f).__name__ for f in failures],
                )
                return merged

    def __repr__(self) -> str:
        return "SerialScheduler()"


class ProcessShardScheduler(_ParallelOptions):
    """Round-robin root shards across worker processes.

    Failed shards are the unit of recovery: a worker process crash
    (``BrokenProcessPool``) or transient error re-dispatches *only
    the failed shard's roots* on a fresh pool after a backoff,
    optionally split in half from the second attempt on; healthy
    shards keep their results.  Every dispatch carries the residual
    run budget, and exhausted retries either raise the primary
    failure (``on_failure="raise"``) or merge the healthy partials
    into a result marked ``incomplete`` (``"degrade"``).
    """

    name = "process"

    def run(self, job: ExecutionJob, ctx: Optional[TaskContext] = None) -> Any:
        run_ctx = ctx if ctx is not None else TaskContext()
        observed = run_ctx.observed
        resilient = (
            self.retry is not None
            or self.fault_plan is not None
            or self.on_failure == ON_FAILURE_DEGRADE
        )
        if self.n_workers == 1 and not resilient:
            return SerialScheduler().run(job, ctx=ctx)
        if observed:
            run_ctx.phase_start(
                PHASE_RUN, scheduler=self.name, workers=self.n_workers
            )
        lease: Optional[str] = None
        try:
            lease = _share_job_graph(job)
            shards: List[List[int]] = [[] for _ in range(self.n_workers)]
            for index, vertex in enumerate(job.all_roots()):
                shards[index % self.n_workers].append(vertex)
            pending = [
                _ShardState(index, shard)
                for index, shard in enumerate(shards)
                if shard
            ]
            if not pending:
                return job.merge([], run_ctx.budget.elapsed())
            return self._run_rounds(job, run_ctx, observed, pending)
        finally:
            _release_job_graph(lease)
            if observed:
                run_ctx.phase_end(PHASE_RUN)

    def _payload(
        self,
        job: ExecutionJob,
        shard: _ShardState,
        observed: bool,
        spec: BudgetSpec,
    ) -> Tuple[Any, ...]:
        return tuple(job.shard_payload(shard.roots)) + (
            observed,
            spec,
            self.fault_plan,
            shard.attempt,
        )

    def _run_rounds(
        self,
        job: ExecutionJob,
        run_ctx: TaskContext,
        observed: bool,
        pending: List[_ShardState],
    ) -> Any:
        policy = self.retry
        max_retries = policy.max_retries if policy is not None else 0
        partials: List[Any] = []
        summaries: List[Tuple[int, List[RecordedEvent]]] = []
        dead: List[_ShardState] = []
        dispatch_ts = time.monotonic()
        next_index = max(shard.index for shard in pending) + 1
        retry_round = 0
        while pending:
            # Dispatch with what is *left* of the run budget, so shard
            # deadlines include parent-side setup and earlier rounds.
            spec = BudgetSpec.residual(run_ctx.budget)
            if spec.exhausted:
                limit = run_ctx.budget.time_limit
                exc: BaseException = TimeLimitExceeded(
                    limit if limit is not None else 0.0,
                    run_ctx.budget.elapsed(),
                )
                for shard in pending:
                    shard.errors.append(exc)
                dead.extend(pending)
                pending = []
                break
            round_shards = pending
            pending = []
            retry_now: List[_ShardState] = []
            workers = min(self.n_workers, len(round_shards))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                # submit() (not map()) so each shard's outcome is
                # separable: one dead worker breaks the pool for every
                # in-flight future, but completed shards keep their
                # results and only the failed dispatches are retried.
                submitted = [
                    (
                        shard,
                        pool.submit(
                            run_shard_payload,
                            self._payload(job, shard, observed, spec),
                        ),
                    )
                    for shard in round_shards
                ]
                for shard, future in submitted:
                    try:
                        partial = future.result()
                    except BaseException as exc:  # noqa: BLE001 - triaged
                        shard.errors.append(exc)
                        if (
                            _classify_transient(policy, exc)
                            and shard.attempt < max_retries
                        ):
                            retry_now.append(shard)
                        else:
                            dead.append(shard)
                        continue
                    partials.append(partial[:3])
                    if partial[3]:
                        summaries.append((shard.index, partial[3]))
            if dead and self.on_failure == ON_FAILURE_RAISE:
                # The run is going to raise; retrying survivors would
                # only burn budget.
                break
            if retry_now:
                assert policy is not None
                retry_round += 1
                pending = self._schedule_retries(
                    run_ctx,
                    observed,
                    policy,
                    retry_now,
                    retry_round,
                    next_index,
                )
                next_index += len(pending)
        for shard in dead:
            run_ctx.emit(
                SHARD_FAILED,
                shard=shard.index,
                attempt=shard.attempt,
                error=type(shard.last_error).__name__,
                roots=len(shard.roots),
            )
        if dead and self.on_failure == ON_FAILURE_RAISE:
            # Reclaim crash-scoped resources (shared-memory graph
            # segments) now: a chaos-killed worker skipped all of its
            # own cleanup, and the raise below may be the run's last
            # act in this process for a long time.
            run_crash_cleanups()
            raise select_primary_failure(
                [shard.last_error for shard in dead]
            )
        merged = job.merge(partials, run_ctx.budget.elapsed())
        # Replay worker-side events into the parent bus after the
        # merge shaped the result: traces and metrics collected at the
        # top see exactly what each successful shard emitted, rebased
        # onto the dispatch instant of the first pool (zero events
        # lost).
        for index, summary in summaries:
            replay_events(
                run_ctx.bus,
                summary,
                base=dispatch_ts,
                track=f"shard-{index}",
            )
        if dead:
            unprocessed = [
                root for shard in dead for root in shard.roots
            ]
            mark_degraded(
                merged,
                unprocessed,
                [shard.last_error for shard in dead],
            )
            run_ctx.emit(
                RUN_DEGRADED,
                unprocessed=len(unprocessed),
                failures=[
                    type(shard.last_error).__name__ for shard in dead
                ],
            )
            run_crash_cleanups()
        return merged

    def _schedule_retries(
        self,
        run_ctx: TaskContext,
        observed: bool,
        policy: RetryPolicy,
        retry_now: List[_ShardState],
        retry_round: int,
        next_index: int,
    ) -> List[_ShardState]:
        """Backoff once for the round, then split/requeue the shards."""
        delay = max(
            policy.delay(shard.attempt + 1, key=shard.index)
            for shard in retry_now
        )
        remaining = run_ctx.budget.remaining_time()
        if remaining is not None:
            delay = min(delay, remaining)
        for shard in retry_now:
            run_ctx.emit(
                SHARD_RETRY,
                shard=shard.index,
                attempt=shard.attempt + 1,
                delay=delay,
                error=type(shard.last_error).__name__,
                roots=len(shard.roots),
            )
        if observed:
            run_ctx.phase_start(
                PHASE_RETRY, round=retry_round, shards=len(retry_now)
            )
        try:
            if delay > 0:
                time.sleep(delay)
        finally:
            if observed:
                run_ctx.phase_end(PHASE_RETRY)
        pending: List[_ShardState] = []
        for shard in retry_now:
            shard.attempt += 1
            if policy.should_split(shard.attempt, len(shard.roots)):
                # Halve the blast radius: a poison root only takes half
                # the shard down with it on the next attempt.
                mid = len(shard.roots) // 2
                pending.append(
                    _ShardState(
                        shard.index,
                        shard.roots[:mid],
                        shard.attempt,
                        shard.errors,
                    )
                )
                pending.append(
                    _ShardState(
                        next_index,
                        shard.roots[mid:],
                        shard.attempt,
                        list(shard.errors),
                    )
                )
                next_index += 1
            else:
                pending.append(shard)
        return pending

    def __repr__(self) -> str:
        return f"ProcessShardScheduler(n_workers={self.n_workers})"


class WorkQueueScheduler(_ParallelOptions):
    """Per-root work queues with stealing, over shared precomputation.

    Workers are threads: the GIL serializes the Python bytecode, so
    this scheduler is about *load-balanced task order* and structural
    fidelity (the paper's 80-thread work stealing), not wall-clock
    parallelism — see DESIGN.md's substitutions table.  Each worker
    keeps private stats and a private promotion registry (shard
    semantics); one shared budget and cancellation token span all
    workers, so a deadline hit anywhere cancels everyone.

    The retry unit here is one *root*: a transient failure abandons
    the worker's session (sealing the healthy roots it already
    processed — the merge deduplicates), reruns the root on a fresh
    session after a backoff, and only gives up after
    ``retry.max_retries`` attempts.  Budget failures stay terminal
    and cancel the run; ``on_failure="degrade"`` turns both cases
    into an ``incomplete`` merged result listing unprocessed roots.
    """

    name = "workqueue"

    def run(self, job: ExecutionJob, ctx: Optional[TaskContext] = None) -> Any:
        import threading
        from collections import deque

        run_ctx = ctx if ctx is not None else TaskContext()
        observed = run_ctx.observed
        roots = job.all_roots()
        if self.n_workers == 1 or len(roots) <= 1:
            return SerialScheduler(
                retry=self.retry,
                on_failure=self.on_failure,
                fault_plan=self.fault_plan,
            ).run(job, ctx=ctx)

        policy = self.retry
        max_retries = policy.max_retries if policy is not None else 0
        queues: List[Any] = [deque() for _ in range(self.n_workers)]
        for index, root in enumerate(roots):
            queues[index % self.n_workers].append(root)
        lock = threading.Lock()
        results: List[Any] = []
        failures: List[BaseException] = []
        unprocessed: List[int] = []
        degrade = self.on_failure == ON_FAILURE_DEGRADE

        def next_root(me: int) -> Optional[int]:
            with lock:
                if queues[me]:
                    return int(queues[me].popleft())
                victim = max(
                    (q for q in queues if q), key=len, default=None
                )
                if victim is None:
                    return None
                # Steal from the back: the victim keeps its cache-warm
                # front-of-queue roots.
                return int(victim.pop())

        def seal(session: Any) -> None:
            """Seal a session, guarding against a poisoned ``finish()``.

            ``finish()`` used to run bare in the worker's ``finally``
            block, where its own exception could mask the original
            budget error (and silently drop the worker's results).
            Now a raising ``finish()`` is recorded as a failure in its
            own right and never shadows what the worker body raised.
            """
            try:
                sealed = session.finish()
            except BaseException as exc:  # noqa: BLE001 - recorded
                with lock:
                    failures.append(exc)
                run_ctx.token.cancel("session finish failed")
                return
            with lock:
                results.append(sealed)

        def run_root(session: Any, root: int) -> Tuple[Any, bool]:
            """One root with per-root retries; returns (session, ok)."""
            attempt = 0
            while True:
                try:
                    if self.fault_plan is not None:
                        self.fault_plan.fire(
                            [root],
                            attempt,
                            budget=run_ctx.budget,
                            allow_kill=False,
                        )
                    session.run_roots([root])
                except BaseException as exc:  # noqa: BLE001 - triaged
                    # The session may hold a poisoned registry for this
                    # root (marked but unprocessed subgraphs): seal the
                    # healthy roots it finished and retry on a fresh
                    # session — the merge deduplicates any overlap.
                    seal(session)
                    session = job.worker_session(run_ctx.child())
                    transient = _classify_transient(policy, exc)
                    if (
                        transient
                        and attempt < max_retries
                        and not run_ctx.token.cancelled
                    ):
                        attempt += 1
                        delay = (
                            policy.delay(attempt, key=root)
                            if policy is not None
                            else 0.0
                        )
                        remaining = run_ctx.budget.remaining_time()
                        if remaining is not None:
                            delay = min(delay, remaining)
                        run_ctx.emit(
                            SHARD_RETRY,
                            shard=root,
                            attempt=attempt,
                            delay=delay,
                            error=type(exc).__name__,
                            roots=1,
                        )
                        if delay > 0:
                            time.sleep(delay)
                        continue
                    run_ctx.emit(
                        SHARD_FAILED,
                        shard=root,
                        attempt=attempt,
                        error=type(exc).__name__,
                        roots=1,
                    )
                    if degrade and transient:
                        # This root is lost, the run is not: record it
                        # and keep mining the rest.
                        with lock:
                            unprocessed.append(root)
                            failures.append(exc)
                        return session, True
                    with lock:
                        failures.append(exc)
                    # Lateral cancellation across workers: a terminal
                    # failure anywhere stops the whole run
                    # cooperatively.
                    run_ctx.token.cancel("worker failure")
                    return session, False
                if degrade and run_ctx.token.cancelled:
                    # Cancellation may have cut this root's exploration
                    # short — conservatively list it as unprocessed.
                    with lock:
                        unprocessed.append(root)
                return session, True

        def worker(me: int) -> None:
            # Shard phase events go straight to the run bus from this
            # worker thread: the tracer separates worker timelines by
            # thread, and the session emits on the same bus, so
            # in-thread ordering is preserved (no replay needed — the
            # threads already share the parent's address space).
            if observed:
                run_ctx.phase_start(PHASE_SHARD, worker=me)
            session = job.worker_session(run_ctx.child())
            try:
                while True:
                    if run_ctx.token.cancelled:
                        break
                    root = next_root(me)
                    if root is None:
                        break
                    session, ok = run_root(session, root)
                    if not ok:
                        break
            finally:
                seal(session)
                if observed:
                    run_ctx.phase_end(PHASE_SHARD)

        if observed:
            run_ctx.phase_start(
                PHASE_RUN, scheduler=self.name, workers=self.n_workers
            )
        try:
            threads = [
                threading.Thread(target=worker, args=(i,), daemon=True)
                for i in range(self.n_workers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            degraded = degrade and (bool(failures) or bool(unprocessed))
            if failures and not degraded:
                # Budget violations outrank the secondary,
                # cancellation-induced errors of the other workers;
                # the non-selected failures stay reachable via
                # __cause__ / suppressed_failures.
                raise select_primary_failure(failures)
            with lock:
                # Roots still queued when the run was cancelled were
                # never dispatched.
                for queue in queues:
                    unprocessed.extend(int(r) for r in queue)
                    queue.clear()
            partials = [
                (r.valid, r.stats.as_dict(), r.elapsed)
                for r in results
                if r is not None
            ]
            merged = job.merge(partials, run_ctx.budget.elapsed())
            if degraded:
                mark_degraded(merged, unprocessed, failures)
                run_ctx.emit(
                    RUN_DEGRADED,
                    unprocessed=len(set(unprocessed)),
                    failures=[type(f).__name__ for f in failures],
                )
            return merged
        finally:
            if observed:
                run_ctx.phase_end(PHASE_RUN)

    def __repr__(self) -> str:
        return f"WorkQueueScheduler(n_workers={self.n_workers})"


def make_scheduler(
    name: str,
    n_workers: int = 2,
    retry: Optional[RetryPolicy] = None,
    retries: Optional[int] = None,
    on_failure: str = ON_FAILURE_RAISE,
    fault_plan: Optional[FaultPlan] = None,
) -> Any:
    """Scheduler factory for the CLI/apps ``--scheduler`` knob.

    ``retry`` passes a full :class:`RetryPolicy`; the simpler
    ``retries=N`` (the CLI's ``--retries``) builds a default policy
    with ``max_retries=N`` (``0`` disables retrying).  ``on_failure``
    is ``"raise"`` (default) or ``"degrade"``; ``fault_plan`` injects
    deterministic chaos (tests only).
    """
    if retry is None and retries is not None and retries > 0:
        retry = RetryPolicy(max_retries=retries)
    if name == "serial":
        return SerialScheduler(
            retry=retry, on_failure=on_failure, fault_plan=fault_plan
        )
    sharding = {
        "process": ProcessShardScheduler,
        "workqueue": WorkQueueScheduler,
    }
    if name in sharding:
        return sharding[name](
            n_workers=n_workers,
            retry=retry,
            on_failure=on_failure,
            fault_plan=fault_plan,
        )
    raise ValueError(
        f"unknown scheduler {name!r} (choose from {SCHEDULER_NAMES})"
    )
