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
per matching-order step) from ``root`` and yields each match as the
tuple the program builds, indexed by pattern vertex; closing it
(``exists``, a bounded ``find_all``) stops the descent where it
stands.  The ETask knows nothing about containment constraints, but it
honours a :class:`~repro.exec.context.TaskContext`'s deadline and
cancellation token at every node, and an observed context gets the
program's set-operation counts once, when the program ends.

One pattern's ETasks are built root by root in one place,
:meth:`~repro.mining.engine.MiningEngine.stream`;
:func:`run_single_pattern` is its callback-protocol adapter for callers
that hold a plan.
"""

from __future__ import annotations

from contextlib import closing
from typing import Callable, Generator, List, Optional, Tuple

from ..exec.context import CancellationToken, TaskContext
from ..exec.events import TASK_COMPLETE, TASK_START
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
        "graph", "plan", "root", "cache", "stats", "ctx", "index", "_trace",
    )

    def __init__(
        self,
        graph: Graph,
        plan: ExplorationPlan,
        root: int,
        cache: SetOperationCache,
        stats: MiningStats,
        ctx: Optional[TaskContext] = None,
        index: Optional[GraphIndex] = None,
    ) -> None:
        self.graph = graph
        self.plan = plan
        self.root = root
        self.cache = cache
        self.stats = stats
        self.ctx = ctx
        self.index = index
        # Instrumentation gate, resolved once per task: the subscriber
        # set cannot change mid-descent.
        self._trace = ctx is not None and ctx.observed

    def matches(self) -> Generator[Tuple[int, ...], None, None]:
        """Stream all matches rooted here, depth first, each the data
        vertex per pattern vertex of :attr:`plan`'s pattern (plans are
        memoized per structure: the caller names the pattern).

        A task counts as completed only when the generator runs to
        exhaustion — a consumer that stops early (closes the generator)
        leaves the task uncompleted, like a canceled task.
        """
        self.stats.etasks_started += 1
        if self._trace:
            self.ctx.emit(TASK_START, kind="etask", root=self.root)
        plan, ctx = self.plan, self.ctx
        root_label = plan.labels_at[0]
        if root_label is None or self.graph.label(self.root) == root_label:
            program = plan.program(SETS if self.index is None else KERNEL)
            tick: Optional[Callable[[], None]] = None
            token: Optional[CancellationToken] = None
            report: Optional[Callable[[int, int], None]] = None
            if ctx is not None:
                tick, token = ctx.deadline_tick(), ctx.token
                if self._trace:
                    report = ctx.report_steps
            yield from program(
                self.root, self.graph, self.index, self.cache, self.stats,
                tick, token, report,
            )
        self.stats.etasks_completed += 1
        if self._trace:
            self.ctx.emit(TASK_COMPLETE, kind="etask", root=self.root)


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
