"""Exploration tasks (paper §2.3 and Algorithm 1 lines 20–25).

An ETask ⟨P, S, C⟩ is rooted at one data vertex and explores, depth
first along the pattern's matching order, every subgraph matching P
whose first-bound vertex is that root.  The bound data vertices by slot
are the task's current subgraph S; the
:class:`~repro.mining.cache.SetOperationCache` it is handed is C.  A
constraint-aware run hands every same-size pattern's ETask at one root
the same cache, and the VTasks fused with those tasks read and extend
it (:mod:`repro.core.runtime`).

:meth:`ETask.matches` runs the plan's generated step program
(:meth:`~repro.patterns.plan.ExplorationPlan.program`, one nested loop
per matching-order step) from ``root`` and yields matches as they are
found; closing it (``exists``, a bounded ``find_all``) stops the
descent where it stands, and :meth:`ETask.run` is the callback
protocol over the same generator.  The ETask knows nothing about
containment constraints, but it honours a
:class:`~repro.exec.context.TaskContext`'s deadline and cancellation
token at every node.

One pattern's ETasks are built root by root in one place,
:meth:`~repro.mining.engine.MiningEngine.stream`;
:func:`run_single_pattern` is its callback-protocol adapter for callers
that hold a plan.
"""

from __future__ import annotations

from contextlib import closing
from functools import partial
from typing import Callable, Iterator, List, Optional

from ..exec.context import CancellationToken, TaskContext
from ..exec.events import KERNEL_INTERSECT, TASK_COMPLETE, TASK_START
from ..graph.graph import Graph
from ..graph.index import GraphIndex
from ..patterns.codegen import KERNEL, SETS
from ..patterns.plan import ExplorationPlan
from .cache import SetOperationCache
from .match import Match
from .stats import MiningStats

OnMatch = Callable[[Match], bool]


class ETask:
    """One rooted exploration task.

    Parameters
    ----------
    graph, plan: data graph and precomputed exploration plan.
    root: data vertex bound at matching-order position 0.
    cache: set-operation cache (the C of the task state).
    stats: counter sink.
    ctx: optional execution context, whose deadline and cancellation
        token the task checks at every node.
    index: optional :class:`~repro.graph.index.GraphIndex` whose
        kernels give the candidate pools; ``None`` keeps the seed
        frozenset path.
    """

    __slots__ = (
        "graph", "plan", "root", "cache", "stats", "pattern", "ctx",
        "index", "_trace",
    )

    def __init__(
        self,
        graph: Graph,
        plan: ExplorationPlan,
        root: int,
        cache: SetOperationCache,
        stats: MiningStats,
        pattern=None,
        ctx: Optional[TaskContext] = None,
        index: Optional[GraphIndex] = None,
    ) -> None:
        """``pattern`` overrides the pattern reported on matches: plans
        are memoized per *structure*, so the cached plan may carry a
        same-structure pattern with a different name/identity than the
        one the caller asked to mine."""
        self.graph = graph
        self.plan = plan
        self.root = root
        self.cache = cache
        self.stats = stats
        self.pattern = pattern if pattern is not None else plan.pattern
        self.ctx = ctx
        self.index = index
        # Instrumentation gate, resolved once per task: the subscriber
        # set cannot change mid-descent, so the walk pays a bool test
        # instead of a bus lookup per candidate computation.
        self._trace = ctx is not None and ctx.observed

    def matches(self) -> Iterator[Match]:
        """Stream all matches rooted here, depth first.

        Counters follow the callback protocol exactly: a task counts
        as completed only when the generator runs to exhaustion — a
        consumer that stops early (closes the generator) leaves the
        task uncompleted, like a canceled task.
        """
        self.stats.etasks_started += 1
        if self._trace:
            self.ctx.emit(TASK_START, kind="etask", root=self.root)
        plan, ctx, pattern = self.plan, self.ctx, self.pattern
        root_label = plan.labels_at[0]
        if root_label is None or self.graph.label(self.root) == root_label:
            program = plan.program(SETS if self.index is None else KERNEL)
            tick: Optional[Callable[[], None]] = None
            token: Optional[CancellationToken] = None
            if ctx is not None:
                tick, token = ctx.deadline_tick(), ctx.token
            ki = (
                partial(ctx.emit, KERNEL_INTERSECT, count=1)
                if self._trace else None
            )
            for assignment in program(
                self.root, self.graph, self.index, self.cache, self.stats,
                tick, token, ki,
            ):
                yield Match(pattern, assignment)
        self.stats.etasks_completed += 1
        if self._trace:
            self.ctx.emit(TASK_COMPLETE, kind="etask", root=self.root)

    def run(self, on_match: OnMatch) -> bool:
        """Explore all matches rooted here; returns True if stopped early."""
        for match in self.matches():
            if on_match(match):
                return True
        return False


def run_single_pattern(
    graph: Graph,
    plan: ExplorationPlan,
    on_match: OnMatch,
    stats: Optional[MiningStats] = None,
    roots: Optional[List[int]] = None,
    ctx: Optional[TaskContext] = None,
    adjacency: str = "auto",
) -> MiningStats:
    """Run ``plan``'s pattern over all (or the given) roots, serially,
    until ``on_match`` returns True: the callback protocol over
    :meth:`~repro.mining.engine.MiningEngine.stream`, which mines the
    memoized ``plan_for(plan.pattern, plan.induced)``."""
    from .engine import MiningEngine  # engine builds on this module

    engine = MiningEngine(graph, induced=plan.induced, adjacency=adjacency)
    if stats is not None:
        engine.stats = stats
    with closing(engine.stream(plan.pattern, roots=roots, ctx=ctx)) as found:
        for match in found:
            if on_match(match):
                break
    return engine.stats
