"""Exploration tasks (paper §2.3 and Algorithm 1 lines 20–25).

An ETask ⟨P, S, C⟩ is rooted at one data vertex and explores, depth
first along the pattern's matching order, every subgraph matching P
whose first-bound vertex is that root.  The tuple of bound data
vertices by order position is the task's current subgraph S; the
shared :class:`~repro.mining.cache.SetOperationCache` plays the role
of C (entries survive across steps and across fused/promoted tasks).

The DFS is a **generator**: :meth:`ETask.matches` yields matches as
they are discovered, so consumers pull incrementally instead of
materializing result lists — closing the generator (an early-exit
``first``/bounded ``collect``, a cancellation) genuinely stops the
exploration mid-descent.  The callback protocol (:meth:`ETask.run`)
is a thin wrapper over the same generator.

The plain ETask knows nothing about containment constraints — that is
Contigra's job (:mod:`repro.core.runtime`), which drives the same
recursion with validation hooks.  It *does* understand the execution
core: give it a :class:`~repro.exec.context.TaskContext` and it
honors the shared deadline and cooperative cancellation token.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional

from ..exec.context import TaskContext
from ..exec.events import KERNEL_INTERSECT, TASK_COMPLETE, TASK_START
from ..graph.graph import Graph
from ..graph.index import GraphIndex, resolve_index
from ..patterns.plan import ExplorationPlan
from .cache import SetOperationCache
from .candidates import compute_candidates
from .match import Match
from .stats import MiningStats

OnMatch = Callable[[Match], bool]


class ETask:
    """One rooted exploration task.

    Parameters
    ----------
    graph, plan:
        Data graph and precomputed exploration plan.
    root:
        Data vertex bound at matching-order position 0.
    cache:
        Shared set-operation cache (the C of the task state).
    stats:
        Counter sink.
    ctx:
        Optional execution context: the task checks its deadline and
        cancellation token cooperatively while descending.
    index:
        Optional :class:`~repro.graph.index.GraphIndex`: candidate
        computation runs on its kernels.  ``None`` keeps the seed
        frozenset path.
    """

    __slots__ = (
        "graph", "plan", "root", "cache", "stats", "_stopped", "pattern",
        "ctx", "index", "_trace",
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
        self._stopped = False
        # Instrumentation gate, resolved once per task: the subscriber
        # set cannot change mid-descent, so the hot recursion pays a
        # bool test instead of a bus lookup per candidate computation.
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
        plan = self.plan
        if plan.labels_at[0] is not None and (
            self.graph.label(self.root) != plan.labels_at[0]
        ):
            self.stats.etasks_completed += 1
            if self._trace:
                self.ctx.emit(TASK_COMPLETE, kind="etask", root=self.root)
            return
        bound: List[int] = [self.root]
        for match in self._descend(bound):
            yield match
        self.stats.etasks_completed += 1
        if self._trace:
            self.ctx.emit(TASK_COMPLETE, kind="etask", root=self.root)

    def run(self, on_match: OnMatch) -> bool:
        """Explore all matches rooted here; returns True if stopped early."""
        for match in self.matches():
            if on_match(match):
                self._stopped = True
                break
        return self._stopped

    def _descend(self, bound: List[int]) -> Iterator[Match]:
        ctx = self.ctx
        if ctx is not None:
            ctx.check_deadline()
            if ctx.token.cancelled:
                return
        plan = self.plan
        step = len(bound)
        if step == plan.num_steps:
            self.stats.rl_paths += 1
            self.stats.matches_found += 1
            yield self._to_match(bound)
            return
        if self._trace:
            self.ctx.emit(KERNEL_INTERSECT, count=1)
        candidates = compute_candidates(
            self.graph, plan, step, bound, self.cache, self.stats,
            index=self.index,
        )
        if not candidates:
            # Dead end: this root-to-leaf path terminates below a match.
            self.stats.rl_paths += 1
            return
        for v in candidates:
            self.stats.extensions_attempted += 1
            bound.append(v)
            yield from self._descend(bound)
            bound.pop()

    def _to_match(self, bound: List[int]) -> Match:
        """Convert order-position bindings to a pattern-vertex assignment."""
        plan = self.plan
        assignment = [0] * plan.num_steps
        for position, vertex in enumerate(bound):
            assignment[plan.order[position]] = vertex
        return Match(self.pattern, assignment)


def stream_single_pattern(
    graph: Graph,
    plan: ExplorationPlan,
    cache: Optional[SetOperationCache] = None,
    stats: Optional[MiningStats] = None,
    roots: Optional[List[int]] = None,
    ctx: Optional[TaskContext] = None,
    adjacency: str = "auto",
) -> Iterator[Match]:
    """Stream matches of one pattern over all (or the given) roots."""
    stats = stats if stats is not None else MiningStats()
    cache = cache if cache is not None else SetOperationCache(stats=stats)
    index = resolve_index(graph, adjacency)
    if roots is None:
        from .candidates import root_candidates

        roots = root_candidates(graph, plan)
    for root in roots:
        task = ETask(graph, plan, root, cache, stats, ctx=ctx, index=index)
        yield from task.matches()


def run_single_pattern(
    graph: Graph,
    plan: ExplorationPlan,
    on_match: OnMatch,
    cache: Optional[SetOperationCache] = None,
    stats: Optional[MiningStats] = None,
    roots: Optional[List[int]] = None,
    ctx: Optional[TaskContext] = None,
    adjacency: str = "auto",
) -> MiningStats:
    """Run ETasks for one pattern over all (or the given) roots, serially."""
    stats = stats if stats is not None else MiningStats()
    for match in stream_single_pattern(
        graph, plan, cache=cache, stats=stats, roots=roots, ctx=ctx,
        adjacency=adjacency,
    ):
        if on_match(match):
            break
    return stats
