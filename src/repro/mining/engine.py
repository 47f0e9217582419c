"""Mining engine: rooted ETasks per pattern, one pattern at a time.

This is the substrate the paper calls **Peregrine+** (§8.1): Peregrine
extended with per-task caches.  The paper's Peregrine+ also explores
several patterns simultaneously; this engine does not — each pattern
gets its own descent over its roots: each rooted ETask runs its plan's
step program compiled to nested loops
(:meth:`~repro.patterns.plan.ExplorationPlan.program`), the same
emitter a VTask's recipes come from.  The constraint-aware engine
shares one cache across a root's same-size patterns; emitting the
shared prefixes of same-size plans as shared outer loops is open work
(ROADMAP item 2).
Constraint-aware execution lives in
:class:`repro.core.runtime.ContigraEngine`, which builds on the same
pieces.

:meth:`MiningEngine.stream` is the one loop that mines one pattern: a
generator over the pattern's rooted ETasks, each with a fresh cache.
Every consumer — the user callback of the Peregrine+ baselines, the
``count`` / ``find_all`` / ``exists`` conveniences,
:func:`repro.mining.etask.run_single_pattern` — iterates it.  An early
exit closes the generator, which unwinds the DFS: the exploration
stops, it is not just ignored.  Deadlines and cancellation arrive
through an optional :class:`~repro.exec.context.TaskContext` shared
with the execution core.

Parallelism note: the paper's implementation uses 80 hardware threads;
pure Python cannot profit from fine-grained thread parallelism (GIL),
so this engine is serial and benchmarks compare *work counters* and
single-thread wall-clock, which preserves every relative result (see
DESIGN.md, substitutions).  Root-sharded execution is the schedulers'
job (:mod:`repro.exec.scheduler`).
"""

from __future__ import annotations

from contextlib import closing
from itertools import islice
from typing import Iterator, List, Optional, Sequence

from ..exec.context import TaskContext
from ..graph.graph import Graph
from ..graph.index import resolve_index
from ..patterns.pattern import Pattern
from ..patterns.plan import ExplorationPlan, plan_for
from .cache import SetOperationCache
from .candidates import root_candidates
from .etask import ETask
from .match import Match
from .stats import MiningStats


class MiningEngine:
    """Pattern-matching engine over one data graph.

    Parameters
    ----------
    graph:
        The data graph.
    induced:
        Matching semantics: ``True`` for vertex-induced matches (used
        by quasi-cliques and keyword search), ``False`` for
        edge-induced (nested subgraph queries).
    cache_enabled:
        ``False`` turns every task cache into a pass-through (each
        lookup a miss) — the GraphPi-style no-cache baseline.
    adjacency:
        Candidate-kernel mode: ``auto`` (default; kernels where the
        graph's degree warrants them) or ``sets`` (the seed frozenset
        path).  See :mod:`repro.graph.index`.
    """

    def __init__(
        self,
        graph: Graph,
        induced: bool = False,
        cache_enabled: bool = True,
        adjacency: str = "auto",
    ) -> None:
        self.graph = graph
        self.induced = induced
        self.adjacency = adjacency
        self.index = resolve_index(graph, adjacency)
        self._cache_enabled = cache_enabled
        self.stats = MiningStats()

    # ------------------------------------------------------------------
    # Core exploration
    # ------------------------------------------------------------------

    def plan(self, pattern: Pattern) -> ExplorationPlan:
        """The (memoized) exploration plan for ``pattern``."""
        return plan_for(pattern, induced=self.induced)

    def stream(
        self,
        pattern: Pattern,
        roots: Optional[Sequence[int]] = None,
        ctx: Optional[TaskContext] = None,
    ) -> Iterator[Match]:
        """Stream every match of ``pattern``, root task by root task.

        Each rooted ETask gets a fresh cache — the paper's task model
        (§2.3): the cache C is task-local.  ``ctx``'s deadline and
        cancellation token are honoured at every node.  Closing the
        generator stops the underlying DFS.
        """
        plan = self.plan(pattern)
        task_roots = list(roots) if roots is not None else root_candidates(
            self.graph, plan
        )
        for root in task_roots:
            cache = SetOperationCache(
                stats=self.stats, enabled=self._cache_enabled
            )
            task = ETask(
                self.graph, plan, root, cache, self.stats,
                pattern=pattern, ctx=ctx, index=self.index,
            )
            yield from task.matches()

    # ------------------------------------------------------------------
    # Conveniences
    # ------------------------------------------------------------------

    def count(self, pattern: Pattern) -> int:
        """Number of matches for ``pattern``."""
        return sum(1 for _ in self.stream(pattern))

    def find_all(
        self, pattern: Pattern, limit: Optional[int] = None
    ) -> List[Match]:
        """All matches, or the first ``limit`` (the walk stops there)."""
        if limit is not None and limit < 0:
            raise ValueError(f"limit must be >= 0, got {limit}")
        with closing(self.stream(pattern)) as matches:
            return list(islice(matches, limit))

    def exists(self, pattern: Pattern) -> bool:
        """Whether at least one match exists (the walk stops at it)."""
        with closing(self.stream(pattern)) as matches:
            return next(matches, None) is not None
