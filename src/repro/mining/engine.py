"""Mining engine: rooted ETasks per pattern, one pattern at a time.

This is the substrate the paper calls **Peregrine+** (§8.1): Peregrine
extended with per-task caches.  The paper's Peregrine+ also explores
several patterns simultaneously; this engine does not — each pattern
gets its own walk over its roots — each rooted ETask runs the one
walker (:mod:`repro.mining.walk`) over its plan's step program, the
same walker a VTask resumes.  The constraint-aware engine shares one
cache across a root's same-size patterns; a prefix trie of step
records that walks them together is open work (ROADMAP item 2).
Constraint-aware execution lives in
:class:`repro.core.runtime.ContigraEngine`, which builds on the same
pieces.

Matches move through a **streaming pipeline**: :meth:`MiningEngine.stream`
is a generator over all ETasks of a pattern, and processors consume it
incrementally (:meth:`~repro.mining.processors.Processor.consume`).
Early-exit consumers (``exists``, bounded ``find_all``) close the
generator, which unwinds the DFS — the exploration stops, it is not
just ignored.  Deadlines and cancellation arrive through an optional
:class:`~repro.exec.context.TaskContext` shared with the execution
core.

Parallelism note: the paper's implementation uses 80 hardware threads;
pure Python cannot profit from fine-grained thread parallelism (GIL),
so this engine is serial and benchmarks compare *work counters* and
single-thread wall-clock, which preserves every relative result (see
DESIGN.md, substitutions).  Root-sharded execution is the schedulers'
job (:mod:`repro.exec.scheduler`).
"""

from __future__ import annotations

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
from .processors import (
    CollectProcessor,
    CountProcessor,
    FirstMatchProcessor,
    Processor,
)
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
    ctx:
        Optional execution context (deadline + cancellation token)
        honored by every ETask this engine runs.
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
        ctx: Optional[TaskContext] = None,
        adjacency: str = "auto",
    ) -> None:
        self.graph = graph
        self.induced = induced
        self.ctx = ctx
        self.adjacency = adjacency
        self.index = resolve_index(graph, adjacency)
        self._cache_enabled = cache_enabled
        self.stats = MiningStats()

    def _task_cache(self) -> SetOperationCache:
        """A fresh cache for one rooted task — the paper's task model
        (§2.3): the cache C is task-local."""
        return SetOperationCache(
            stats=self.stats,
            enabled=self._cache_enabled,
            bus=self.ctx.bus if self.ctx is not None else None,
        )

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

        The generator is the engine's primitive: processors,
        ``find_all``/``exists`` conveniences, and app pipelines all
        pull from it.  Closing it stops the underlying DFS.
        """
        run_ctx = ctx if ctx is not None else self.ctx
        plan = self.plan(pattern)
        task_roots = list(roots) if roots is not None else root_candidates(
            self.graph, plan
        )
        for root in task_roots:
            task = ETask(
                self.graph, plan, root, self._task_cache(), self.stats,
                pattern=pattern, ctx=run_ctx, index=self.index,
            )
            yield from task.matches()

    def explore(
        self,
        pattern: Pattern,
        processor: Processor,
        roots: Optional[Sequence[int]] = None,
        ctx: Optional[TaskContext] = None,
    ) -> Processor:
        """Run all ETasks for ``pattern``, feeding matches to ``processor``."""
        processor.consume(self.stream(pattern, roots=roots, ctx=ctx))
        return processor

    # ------------------------------------------------------------------
    # Conveniences
    # ------------------------------------------------------------------

    def count(self, pattern: Pattern) -> int:
        """Number of matches for ``pattern``."""
        return self.explore(pattern, CountProcessor()).result()

    def find_all(
        self, pattern: Pattern, limit: Optional[int] = None
    ) -> List[Match]:
        """All matches (optionally capped at ``limit``)."""
        return self.explore(pattern, CollectProcessor(limit=limit)).result()

    def exists(self, pattern: Pattern) -> bool:
        """Whether at least one match exists."""
        return self.explore(pattern, FirstMatchProcessor()).result() is not None
