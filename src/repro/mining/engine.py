"""Mining engine: root partitioning, multi-pattern scheduling, workers.

This is the substrate the paper calls **Peregrine+** (§8.1): Peregrine
extended with per-task caches and simultaneous multi-pattern
exploration.  Constraint-aware execution lives in
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
so ``n_workers`` exists for structural fidelity — tasks are genuinely
partitioned and run on a thread pool — but benchmarks default to one
worker and compare *work counters* and single-thread wall-clock, which
preserves every relative result (see DESIGN.md, substitutions).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Iterator, List, Optional, Sequence

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
    cache_enabled / cache_entries:
        Control the shared set-operation cache.
    n_workers:
        Thread-pool width for root partitioning (see module docstring).
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
        cache_entries: int = 200_000,
        n_workers: int = 1,
        per_task_caches: bool = True,
        ctx: Optional[TaskContext] = None,
        adjacency: str = "auto",
    ) -> None:
        """``per_task_caches`` follows the paper's task model (§2.3): the
        cache C is task-local, created fresh per rooted ETask.  Setting
        it False shares one engine-wide cache across all tasks — more
        reuse than any system in the paper has, useful only for
        experimentation."""
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.graph = graph
        self.induced = induced
        self.n_workers = n_workers
        self.per_task_caches = per_task_caches
        self.ctx = ctx
        self.adjacency = adjacency
        self.index = resolve_index(graph, adjacency)
        self._cache_entries = cache_entries
        self._cache_enabled = cache_enabled
        self.stats = MiningStats()
        self.cache = SetOperationCache(
            max_entries=cache_entries,
            stats=self.stats,
            enabled=cache_enabled,
            bus=ctx.bus if ctx is not None else None,
            graph_version=graph.version_key,
        )

    def _task_cache(self) -> SetOperationCache:
        """Cache for one rooted task (fresh or the shared one)."""
        if not self.per_task_caches:
            return self.cache
        return SetOperationCache(
            max_entries=self._cache_entries,
            stats=self.stats,
            enabled=self._cache_enabled,
            bus=self.ctx.bus if self.ctx is not None else None,
            graph_version=self.graph.version_key,
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
        if self.n_workers == 1:
            processor.consume(self.stream(pattern, roots=roots, ctx=ctx))
            return processor

        # Thread-pool path: partition roots; each worker keeps private
        # counters that are merged afterwards.  The processor is shared
        # and must tolerate interleaved calls (built-ins do: their
        # mutations are single bytecode ops under the GIL).
        run_ctx = ctx if ctx is not None else self.ctx
        plan = self.plan(pattern)
        task_roots = list(roots) if roots is not None else root_candidates(
            self.graph, plan
        )
        chunks = _partition(task_roots, self.n_workers)

        def run_chunk(chunk: List[int]) -> MiningStats:
            local = MiningStats()
            for root in chunk:
                task = ETask(
                    self.graph, plan, root, self._task_cache(), local,
                    pattern=pattern, ctx=run_ctx, index=self.index,
                )
                if task.run(processor.process):
                    break
            return local

        with ThreadPoolExecutor(max_workers=self.n_workers) as pool:
            for local in pool.map(run_chunk, chunks):
                self.stats.merge(local)
        return processor

    def explore_many(
        self,
        patterns: Iterable[Pattern],
        processor_factory: Callable[[], Processor] = CountProcessor,
    ) -> List[Processor]:
        """Explore several patterns (one processor each), sharing the cache."""
        return [
            self.explore(pattern, processor_factory())
            for pattern in patterns
        ]

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

    def exists_containing(
        self,
        pattern: Pattern,
        required_vertices: frozenset,
    ) -> bool:
        """Whether a match for ``pattern`` contains all ``required_vertices``.

        This is the *post-hoc* containment probe the Peregrine+ baseline
        uses in its user-defined function — exhaustive relative to
        Contigra's fused VTasks, which is exactly the gap the paper
        measures.
        """
        # Only roots that can reach the required vertices are relevant,
        # but the baseline faithfully scans all roots (it has no way to
        # know better without Contigra's dependency machinery).
        for match in self.stream(pattern):
            if required_vertices <= match.vertex_set:
                return True
        return False


def _partition(items: List[int], parts: int) -> List[List[int]]:
    """Round-robin partition (balances heavy low-id roots across workers)."""
    buckets: List[List[int]] = [[] for _ in range(parts)]
    for index, item in enumerate(items):
        buckets[index % parts].append(item)
    return [b for b in buckets if b]
