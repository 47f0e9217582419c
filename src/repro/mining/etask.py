"""Exploration tasks (paper §2.3 and Algorithm 1 lines 20–25).

An ETask ⟨P, S, C⟩ is rooted at one data vertex and explores, depth
first along the pattern's matching order, every subgraph matching P
whose first-bound vertex is that root.  The list of bound data vertices
by order position is the task's current subgraph S; the
:class:`~repro.mining.cache.SetOperationCache` it is handed plays the
role of C.  A constraint-aware run hands every same-size pattern's
ETask at one root the same cache, and the VTasks fused with those
tasks read and extend it (:mod:`repro.core.runtime`).

The walk is one explicit-stack **generator** over the plan's compiled
step program (:attr:`~repro.patterns.plan.ExplorationPlan.steps`):
:meth:`ETask.matches` yields matches as they are discovered, so
consumers pull incrementally instead of materializing result lists —
closing the generator (an early-exit ``first``/bounded ``collect``, a
cancellation) genuinely stops the exploration mid-descent.  The
callback protocol (:meth:`ETask.run`) is a thin wrapper over the same
generator.

The plain ETask knows nothing about containment constraints — that is
Contigra's job (:mod:`repro.core.runtime`), which consumes the same
walk with validation hooks.  It *does* understand the execution core:
give it a :class:`~repro.exec.context.TaskContext` and it honors the
shared deadline and cooperative cancellation token at every node.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional

from ..exec.context import CancellationToken, TaskContext
from ..exec.events import KERNEL_INTERSECT, TASK_COMPLETE, TASK_START
from ..graph.graph import Graph
from ..graph.index import GraphIndex, bits_to_sorted, resolve_index
from ..patterns.plan import ExplorationPlan
from .cache import SetOperationCache
from .candidates import kernel_pool, raw_intersection, root_candidates
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
        Set-operation cache (the C of the task state).
    stats:
        Counter sink.
    ctx:
        Optional execution context: the task checks its deadline and
        cancellation token cooperatively while descending.
    index:
        Optional :class:`~repro.graph.index.GraphIndex`: candidate
        pools come from its kernels.  ``None`` keeps the seed
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
        plan = self.plan
        if plan.labels_at[0] is not None and (
            self.graph.label(self.root) != plan.labels_at[0]
        ):
            self.stats.etasks_completed += 1
            if self._trace:
                self.ctx.emit(TASK_COMPLETE, kind="etask", root=self.root)
            return
        yield from self._walk()
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

    def _walk(self) -> Iterator[Match]:
        """Depth-first walk of ``plan.steps`` on an explicit stack.

        ``bound`` holds the data vertices of the current node by order
        position and ``frames`` one candidate iterator per open step,
        so ``len(frames) == len(bound)`` between nodes.  Every node
        ticks the deadline and checks the token; a node at full depth
        is a match, any other node computes its step's candidates in
        ascending order, and a node with none ends a root-to-leaf path.
        A cancelled token stops the whole walk.
        """
        plan = self.plan
        steps = plan.steps
        full = plan.num_steps
        graph = self.graph
        stats = self.stats
        cache = self.cache
        index = self.index
        ctx = self.ctx
        tick = ctx.budget.check_deadline if ctx is not None else None
        # Without a context nothing can cancel the walk; a fresh token
        # stands in so the loop tests one token either way.
        token = ctx.token if ctx is not None else CancellationToken()
        obs = ctx if self._trace else None
        n = graph.num_vertices
        labels = graph.labels
        adjacency = (graph if index is None else index.graph).neighbor_set
        bound: List[int] = [self.root]
        frames: List[Iterator[int]] = []
        while True:
            if tick is not None:
                tick()
            if token.cancelled:
                return
            step = len(bound)
            if step == full:
                stats.rl_paths += 1
                stats.matches_found += 1
                yield self._to_match(bound)
                bound.pop()
            else:
                if obs is not None:
                    obs.emit(KERNEL_INTERSECT, count=1)
                stats.candidate_computations += 1
                anchors, nonneighbors, label, lower, upper = steps[step]
                lo = -1
                for j in lower:
                    if bound[j] > lo:
                        lo = bound[j]
                hi = n
                for j in upper:
                    if bound[j] < hi:
                        hi = bound[j]
                anchor_data = [bound[j] for j in anchors]
                candidates: List[int]
                if index is None:
                    # Sets path: the non-neighbours' adjacency goes at C
                    # speed, bounds and injectivity in one pass, then one
                    # sort.
                    members = raw_intersection(
                        graph, anchor_data, cache, stats
                    )
                    for j in nonneighbors:
                        members = members - adjacency(bound[j])
                    candidates = sorted(
                        [v for v in members if lo < v < hi and v not in bound]
                    )
                    if label is not None:
                        candidates = [
                            v for v in candidates if labels[v] == label
                        ] if labels is not None else []
                else:
                    pool = kernel_pool(index, anchor_data, label, cache, stats)
                    if isinstance(pool, int):
                        # Bounds, injectivity and non-neighbours as masks
                        # before the one decode.
                        if pool:
                            if lo >= 0:
                                pool &= -1 << (lo + 1)
                            if hi < n:
                                pool &= (1 << hi) - 1
                            for v in bound:
                                if pool >> v & 1:
                                    pool -= 1 << v
                            for j in nonneighbors:
                                if not pool:
                                    break
                                pool &= ~index.neighbor_bits(bound[j])
                        candidates = bits_to_sorted(pool)
                    else:
                        # An ascending, label-filtered tuple: the same
                        # pass keeps it ascending, no sort.
                        candidates = [
                            v for v in pool if lo < v < hi and v not in bound
                        ]
                        for j in nonneighbors:
                            barred = adjacency(bound[j])
                            candidates = [
                                v for v in candidates if v not in barred
                            ]
                if candidates:
                    frames.append(iter(candidates))
                else:
                    # Dead end: this root-to-leaf path ends below a match.
                    stats.rl_paths += 1
                    bound.pop()
            while frames:
                v = next(frames[-1], -1)
                if v >= 0:
                    stats.extensions_attempted += 1
                    bound.append(v)
                    break
                frames.pop()
                bound.pop()
            else:
                return

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
