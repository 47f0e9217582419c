"""Pluggable schedulers for constraint-aware mining runs.

A scheduler decides *where and in what order* the independent
root-level ETask groups of a run execute; the execution semantics
(match sets, TLE/OOM/OOS vocabulary) are identical across schedulers.
A run is a list of *root units*, and the three schedulers differ only
in how they cut the roots into units and how one round of units runs:

``SerialScheduler``
    One unit of all roots, run in-process with one engine and one
    promotion registry — the paper's single-worker execution and the
    reference for equivalence tests.

``ProcessShardScheduler``
    ``n_workers`` round-robin shards, one worker *process* each
    (CPython's GIL makes threads useless for this workload).  Each
    shard keeps a local promotion registry, exactly like distributed
    Contigra workers without a shared registry; results are
    canonically deduplicated and counters summed at merge.  Worker
    budget failures (TLE/OOM/OOS) cross the process boundary as their
    original exception types.

``WorkQueueScheduler``
    One unit per root, fed to worker threads that each own a deque and
    steal from the busiest victim when idle.  Workers share one
    engine's pattern-level precomputation and one budget; a failure
    that ends the run cancels the rest of the round cooperatively.

All three consume an :class:`ExecutionJob` — the bridge the Contigra
runtime implements (:class:`repro.core.runtime.ContigraJob`).

Failures are decided once, by the driver all three share (see
``docs/execution.md``, "Failure semantics"): a round's transient
failures are re-queued for the next round after one capped backoff
while ``retries`` lasts (a multi-root shard split in half), the rest
are dead, and dead units end the run in one tail — raise the primary
failure (``on_failure="raise"``) or merge the healthy partials into a
result marked ``incomplete`` (``"degrade"``).  Units a cancelled round
or a spent budget set aside unrun are dead too: listed as unprocessed,
never re-run, with no ``shard_failed`` of their own.  Every round
runs under what is left of the run's deadline, and a round that would
start with none left shelves its units instead; an optional
:class:`~repro.exec.resilience.FaultPlan` injects deterministic chaos.
"""

from __future__ import annotations

import threading
import time
from collections import deque
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
    ON_FAILURE_MODES,
    ON_FAILURE_RAISE,
    FaultPlan,
    backoff_delay,
    is_transient,
    mark_degraded,
    select_primary_failure,
)

SCHEDULER_NAMES = ("serial", "process", "workqueue")


class ExecutionJob(Protocol):
    """What the schedulers call on a runnable workload."""

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


def run_shard_payload(
    payload: Tuple[
        Any, Sequence[int], bool, Optional[float], Optional[FaultPlan], int
    ],
) -> Tuple[Any, Any, float, Optional[List[RecordedEvent]]]:
    """Process-pool entry point: run one shard end to end.

    Module-level so it pickles; budget exceptions propagate with their
    original types (see ``repro.errors`` ``__reduce__``).

    The payload is the six-tuple ``(job, roots, observe, remaining,
    fault_plan, attempt)`` :meth:`ProcessShardScheduler._run_round`
    builds:

    * ``observe`` truthy makes the shard record every event it emits
      (with worker-side timestamps) and return the serialized summary
      as the fourth element, which the parent replays into its bus —
      the cross-process half of trace/metric completeness.
      Unobserved shards skip recording entirely, so runs without
      observability subscribers pay nothing.
    * ``remaining`` is the parent's remaining wall clock at dispatch
      (``None`` when unlimited); it is the shard context's whole
      deadline, anchored when the shard starts, so a run with
      ``time_limit=T`` cannot burn parent setup time plus a fresh ``T``
      per shard.
    * ``fault_plan`` / ``attempt`` drive deterministic chaos
      injection before the shard runs (``attempt`` is the 0-based
      dispatch count for this shard's roots).
    """
    job, roots, observe, remaining, fault_plan, attempt = payload
    ctx = TaskContext.create(time_limit=remaining)
    if fault_plan is not None:
        fault_plan.fire(
            roots, attempt, budget=ctx.budget, allow_kill=True
        )
    if not observe:
        result = job.run_shard(roots, ctx=ctx)
        return result.valid, result.stats, result.elapsed, None
    recorder = EventRecorder(ctx.bus)
    ctx.phase_start(PHASE_SHARD, roots=len(roots))
    try:
        result = job.run_shard(roots, ctx=ctx)
    finally:
        ctx.phase_end(PHASE_SHARD)
    return (
        result.valid,
        result.stats,
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


class _Unit:
    """One root unit's dispatch bookkeeping across rounds.

    ``shelved`` marks a unit set aside without failing itself — still
    queued or cut short when its round was cancelled, or left over when
    the budget ran out — which is dead but gets no ``shard_failed``.
    """

    __slots__ = ("index", "roots", "attempt", "errors", "shelved")

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
        self.shelved = False

    @property
    def last_error(self) -> BaseException:
        return self.errors[-1]


#: What one round hands back to the driver: the partial results of the
#: units that finished, and the units that did not (each failed one
#: with its new error appended, each shelved one flagged).
_Round = Tuple[List[Any], List[_Unit]]


class _Scheduler:
    """The one driver: rounds of root units, one failure policy."""

    name = ""
    n_workers = 1
    #: Whether a retried multi-root unit may be split in half.
    splits_units = True

    def __init__(
        self,
        retries: int = 0,
        on_failure: str = ON_FAILURE_RAISE,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if on_failure not in ON_FAILURE_MODES:
            raise ValueError(
                f"on_failure must be one of {ON_FAILURE_MODES}, "
                f"got {on_failure!r}"
            )
        self.retries = retries
        self.on_failure = on_failure
        self.fault_plan = fault_plan

    def run(self, job: ExecutionJob, ctx: Optional[TaskContext] = None) -> Any:
        run_ctx = ctx if ctx is not None else TaskContext()
        observed = run_ctx.observed
        if observed:
            run_ctx.phase_start(
                PHASE_RUN, scheduler=self.name, workers=self.n_workers
            )
        try:
            return self._drive(job, run_ctx)
        finally:
            if observed:
                run_ctx.phase_end(PHASE_RUN)

    # -- what differs between schedulers ------------------------------

    def _units(self, roots: List[int]) -> List[List[int]]:
        """Cut the run's roots into units (round-robin shards)."""
        shards = [roots[i::self.n_workers] for i in range(self.n_workers)]
        return [shard for shard in shards if shard]

    def _run_round(
        self,
        job: ExecutionJob,
        run_ctx: TaskContext,
        units: List[_Unit],
        remaining: Optional[float],
    ) -> _Round:
        raise NotImplementedError

    def _merge(
        self, job: ExecutionJob, run_ctx: TaskContext, partials: List[Any]
    ) -> Any:
        return job.merge(partials, run_ctx.budget.elapsed())

    # -- the driver ---------------------------------------------------

    def _retryable(self, unit: _Unit) -> bool:
        """Whether a unit that did not finish goes round again; every
        other such unit is dead."""
        return (
            not unit.shelved
            and is_transient(unit.last_error)
            and unit.attempt < self.retries
        )

    def _drive(self, job: ExecutionJob, run_ctx: TaskContext) -> Any:
        pending = [
            _Unit(index, roots)
            for index, roots in enumerate(self._units(job.all_roots()))
        ]
        next_index = len(pending)
        partials: List[Any] = []
        dead: List[_Unit] = []
        retry_round = 0
        while pending:
            # Dispatch with what is *left* of the run's deadline, so
            # unit deadlines include parent-side setup and earlier
            # rounds.
            remaining = run_ctx.budget.remaining_time()
            if remaining == 0.0:
                # What is left never runs: shelved, with the budget
                # verdict as the reason.
                limit = run_ctx.budget.time_limit
                exc = TimeLimitExceeded(
                    limit if limit is not None else 0.0,
                    run_ctx.budget.elapsed(),
                )
                for unit in pending:
                    unit.errors.append(exc)
                    unit.shelved = True
                dead.extend(pending)
                break
            done, failed = self._run_round(job, run_ctx, pending, remaining)
            partials.extend(done)
            retry = [unit for unit in failed if self._retryable(unit)]
            dead.extend(unit for unit in failed if unit not in retry)
            if not retry or (dead and self.on_failure == ON_FAILURE_RAISE):
                # Nothing to retry, or the run is going to raise and
                # retrying survivors would only burn budget.
                break
            retry_round += 1
            delay = backoff_delay(max(unit.attempt for unit in retry) + 1)
            remaining = run_ctx.budget.remaining_time()
            if remaining is not None:
                delay = min(delay, remaining)
            for unit in retry:
                unit.attempt += 1
                run_ctx.emit(
                    SHARD_RETRY,
                    shard=unit.index,
                    attempt=unit.attempt,
                    delay=delay,
                    error=type(unit.last_error).__name__,
                    roots=len(unit.roots),
                )
            if run_ctx.observed:
                run_ctx.phase_start(
                    PHASE_RETRY, round=retry_round, shards=len(retry)
                )
            try:
                if delay > 0:
                    time.sleep(delay)
            finally:
                if run_ctx.observed:
                    run_ctx.phase_end(PHASE_RETRY)
            pending = []
            for unit in retry:
                pending.append(unit)
                if self.splits_units and len(unit.roots) > 1:
                    # Halve the blast radius: a poison root only takes
                    # half the unit down with it on the next attempt.
                    mid = len(unit.roots) // 2
                    pending.append(
                        _Unit(
                            next_index,
                            unit.roots[mid:],
                            unit.attempt,
                            list(unit.errors),
                        )
                    )
                    unit.roots = unit.roots[:mid]
                    next_index += 1
        return self._finish(job, run_ctx, partials, dead)

    def _finish(
        self,
        job: ExecutionJob,
        run_ctx: TaskContext,
        partials: List[Any],
        dead: List[_Unit],
    ) -> Any:
        """The one tail: raise the primary failure or degrade."""
        for unit in dead:
            if not unit.shelved:
                run_ctx.emit(
                    SHARD_FAILED,
                    shard=unit.index,
                    attempt=unit.attempt,
                    error=type(unit.last_error).__name__,
                    roots=len(unit.roots),
                )
        # Every error a dead unit saw, once each (split halves and a
        # budget verdict share exception objects).
        failures = list(
            {id(exc): exc for unit in dead for exc in unit.errors}.values()
        )
        if failures and self.on_failure == ON_FAILURE_RAISE:
            # Budget violations outrank the secondary,
            # cancellation-induced errors of the other units; the rest
            # stay reachable via __cause__ / suppressed_failures.  (Only
            # the caller's own cancellation shelves units with no error.)
            raise select_primary_failure(failures)
        merged = self._merge(job, run_ctx, partials)
        if dead:
            unprocessed = [root for unit in dead for root in unit.roots]
            mark_degraded(merged, unprocessed, failures)
            run_ctx.emit(
                RUN_DEGRADED,
                unprocessed=len(unprocessed),
                failures=[type(exc).__name__ for exc in failures],
            )
        return merged


class SerialScheduler(_Scheduler):
    """Run the whole job in-process, roots in order.

    The whole run is the one unit: a transient failure reruns the job
    from scratch on a fresh session (serial runs have no partial shards
    to salvage individually).  With no retries, no fault plan and
    ``on_failure="raise"`` a run is exactly one ``job.run_serial`` call.
    """

    name = "serial"
    # ``run_serial`` takes no roots: the one unit is never split.
    splits_units = False

    def _units(self, roots: List[int]) -> List[List[int]]:
        return [roots]

    def _drive(self, job: ExecutionJob, run_ctx: TaskContext) -> Any:
        if (
            self.retries == 0
            and self.on_failure == ON_FAILURE_RAISE
            and self.fault_plan is None
        ):
            return job.run_serial(ctx=run_ctx)
        return super()._drive(job, run_ctx)

    def _run_round(
        self,
        job: ExecutionJob,
        run_ctx: TaskContext,
        units: List[_Unit],
        remaining: Optional[float],
    ) -> _Round:
        (unit,) = units
        try:
            if self.fault_plan is not None:
                self.fault_plan.fire(
                    unit.roots,
                    unit.attempt,
                    budget=run_ctx.budget,
                    allow_kill=False,
                )
            return [job.run_serial(ctx=run_ctx)], []
        except Exception as exc:  # noqa: BLE001 - the driver triages
            unit.errors.append(exc)
            return [], [unit]

    def _merge(
        self, job: ExecutionJob, run_ctx: TaskContext, partials: List[Any]
    ) -> Any:
        # A finished serial run is its own result.
        return partials[0] if partials else super()._merge(
            job, run_ctx, partials
        )

    def __repr__(self) -> str:
        return "SerialScheduler()"


class _ParallelScheduler(_Scheduler):
    """The same, plus the worker count the two sharding schedulers take."""

    def __init__(
        self,
        n_workers: int = 2,
        retries: int = 0,
        on_failure: str = ON_FAILURE_RAISE,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        super().__init__(retries, on_failure, fault_plan)
        self.n_workers = n_workers

    def run(self, job: ExecutionJob, ctx: Optional[TaskContext] = None) -> Any:
        if self.n_workers == 1:
            return SerialScheduler(
                self.retries, self.on_failure, self.fault_plan
            ).run(job, ctx=ctx)
        return super().run(job, ctx=ctx)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n_workers={self.n_workers})"


class ProcessShardScheduler(_ParallelScheduler):
    """Round-robin root shards across worker processes.

    Each round runs on a fresh process pool, so a worker crash
    (``BrokenProcessPool``) costs only the shards of that round that
    had not returned; healthy shards keep their results.  The run
    holds a shared-memory lease on a registered data graph, and
    observed shards' events are replayed into the run bus.
    """

    name = "process"

    def _drive(self, job: ExecutionJob, run_ctx: TaskContext) -> Any:
        lease = _share_job_graph(job)
        try:
            return super()._drive(job, run_ctx)
        finally:
            _release_job_graph(lease)

    def _finish(
        self,
        job: ExecutionJob,
        run_ctx: TaskContext,
        partials: List[Any],
        dead: List[_Unit],
    ) -> Any:
        try:
            return super()._finish(job, run_ctx, partials, dead)
        finally:
            if dead:
                # Reclaim unleased shared-memory graph segments now: a
                # chaos-killed worker skipped all of its own cleanup,
                # and a raise may be the run's last act in this process
                # for a long time.  Only worker processes die that way,
                # so only this scheduler reclaims.
                from ..graph.shm import shared_graphs

                try:
                    shared_graphs().reclaim_unleased()
                except Exception:  # noqa: BLE001 - never mask the failure
                    pass

    def _run_round(
        self,
        job: ExecutionJob,
        run_ctx: TaskContext,
        units: List[_Unit],
        remaining: Optional[float],
    ) -> _Round:
        observed = run_ctx.observed
        partials: List[Any] = []
        failed: List[_Unit] = []
        dispatched = time.monotonic()
        workers = min(self.n_workers, len(units))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            # submit() (not map()) so each shard's outcome is
            # separable: one dead worker breaks the pool for every
            # in-flight future, but completed shards keep their
            # results and only the failed dispatches are retried.
            submitted = [
                (
                    unit,
                    pool.submit(
                        run_shard_payload,
                        tuple(job.shard_payload(unit.roots))
                        + (observed, remaining, self.fault_plan, unit.attempt),
                    ),
                )
                for unit in units
            ]
            for unit, future in submitted:
                try:
                    valid, stats, elapsed, summary = future.result()
                except Exception as exc:  # noqa: BLE001 - triaged
                    unit.errors.append(exc)
                    failed.append(unit)
                    continue
                partials.append((valid, stats, elapsed))
                if summary:
                    # Worker-side events, rebased onto this round's
                    # dispatch instant: traces and metrics collected
                    # at the top see what each shard emitted.
                    replay_events(
                        run_ctx.bus,
                        summary,
                        base=dispatched,
                        track=f"shard-{unit.index}",
                    )
        return partials, failed


class WorkQueueScheduler(_ParallelScheduler):
    """Per-root work queues with stealing, over shared precomputation.

    Workers are threads: the GIL serializes the Python bytecode, so
    this scheduler is about *load-balanced task order* and structural
    fidelity (the paper's 80-thread work stealing), not wall-clock
    parallelism — see DESIGN.md's substitutions table.  Each worker
    keeps one session (private stats, private promotion registry —
    shard semantics); one budget spans all workers.

    A failed root abandons its worker's session — sealing the healthy
    roots it already processed (the merge deduplicates) — and the
    worker goes on with a fresh session; the driver retries the root in
    the next round.  A dead root that ends the run — any, under
    ``on_failure="raise"``; a terminal one under ``"degrade"`` —
    cancels the round for every worker, and the roots it cut short or
    left queued are shelved.
    """

    name = "workqueue"

    def _units(self, roots: List[int]) -> List[List[int]]:
        return [[root] for root in roots]

    def _run_round(
        self,
        job: ExecutionJob,
        run_ctx: TaskContext,
        units: List[_Unit],
        remaining: Optional[float],
    ) -> _Round:
        observed = run_ctx.observed
        # The round's own token: cancelling it stops this round's
        # workers, not the caller's context or the next round.
        round_ctx = run_ctx.child()
        queues: List[Any] = [deque() for _ in range(self.n_workers)]
        for index, unit in enumerate(units):
            queues[index % self.n_workers].append(unit)
        lock = threading.Lock()
        partials: List[Any] = []
        failed: Dict[int, _Unit] = {}
        unfinished: List[_Unit] = []

        def next_unit(me: int) -> Optional[_Unit]:
            with lock:
                if queues[me]:
                    return queues[me].popleft()
                victim = max(
                    (q for q in queues if q), key=len, default=None
                )
                # Steal from the back: the victim keeps its cache-warm
                # front-of-queue roots.
                return victim.pop() if victim is not None else None

        def fail(lost: List[_Unit], exc: BaseException) -> None:
            with lock:
                for unit in lost:
                    unit.errors.append(exc)
                    failed[id(unit)] = unit
            # A transient root out of retries is lost alone in degrade
            # mode; any other dead root ends the run, so stop mining.
            if any(not self._retryable(unit) for unit in lost) and (
                self.on_failure == ON_FAILURE_RAISE or not is_transient(exc)
            ):
                round_ctx.cancel("worker failure")

        def seal(session: Any, held: List[_Unit]) -> None:
            """Seal a session; a raising ``finish()`` fails what it held
            instead of masking the error the worker body raised."""
            try:
                result = session.finish()
            except Exception as exc:  # noqa: BLE001 - recorded
                fail(held, exc)
                return
            with lock:
                partials.append((result.valid, result.stats, result.elapsed))

        def worker(me: int) -> None:
            # Shard phase events go straight to the run bus from this
            # worker thread: the tracer separates worker timelines by
            # thread, and the session emits on the same bus, so
            # in-thread ordering is preserved.
            if observed:
                run_ctx.phase_start(PHASE_SHARD, worker=me)
            session = job.worker_session(round_ctx)
            held: List[_Unit] = []
            try:
                while not round_ctx.cancelled:
                    unit = next_unit(me)
                    if unit is None:
                        break
                    try:
                        if self.fault_plan is not None:
                            self.fault_plan.fire(
                                unit.roots,
                                unit.attempt,
                                budget=run_ctx.budget,
                                allow_kill=False,
                            )
                        session.run_roots(unit.roots)
                    except Exception as exc:  # noqa: BLE001 - triaged
                        # The session may hold registry marks for
                        # subgraphs this root never processed: seal what
                        # it finished and go on with a fresh one.
                        seal(session, held + [unit])
                        session, held = job.worker_session(round_ctx), []
                        fail([unit], exc)
                    else:
                        if round_ctx.cancelled:
                            # Cancellation may have cut this root short.
                            with lock:
                                unfinished.append(unit)
                        else:
                            held.append(unit)
            finally:
                seal(session, held)
                if observed:
                    run_ctx.phase_end(PHASE_SHARD)

        threads = [
            threading.Thread(target=worker, args=(i,), daemon=True)
            for i in range(self.n_workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for queue in queues:
            unfinished.extend(queue)
        for unit in unfinished:
            unit.shelved = True
        return partials, list(failed.values()) + unfinished


def make_scheduler(
    name: str,
    n_workers: int = 2,
    retries: int = 0,
    on_failure: str = ON_FAILURE_RAISE,
    fault_plan: Optional[FaultPlan] = None,
) -> Any:
    """Scheduler factory for the CLI/apps ``--scheduler`` knob.

    ``retries`` is the CLI's ``--retries`` (``0`` disables retrying);
    ``on_failure`` is ``"raise"`` (default) or ``"degrade"``;
    ``fault_plan`` injects deterministic chaos (tests only).
    """
    if name == "serial":
        return SerialScheduler(retries, on_failure, fault_plan)
    sharding = {
        "process": ProcessShardScheduler,
        "workqueue": WorkQueueScheduler,
    }
    if name in sharding:
        return sharding[name](n_workers, retries, on_failure, fault_plan)
    raise ValueError(
        f"unknown scheduler {name!r} (choose from {SCHEDULER_NAMES})"
    )
