"""The Contigra execution model (paper §3 and Algorithm 1 in full).

:class:`ContigraEngine` runs successor-constrained workloads (MQC and
NSQ): ETasks explore the workload patterns smallest first, and every
matching RL-Path runs its pattern's fused, laterally scheduled VTask
chain.  VTask matches invalidate the subgraph and — when the
containing pattern is itself in the workload — promote into immediate
processing of the containing subgraph, canceling the ETask work that
would rediscover it.

The engine is split along the execution core's task model:

* **ContigraEngine** holds the pattern-level precomputation (§8.1):
  one :class:`ValidationChain` per mined pattern — its VTasks in
  lateral order, the chain each one promotes into, whether anything
  promotes into it — built once, shared by every run and every
  scheduler worker.
* **EngineSession** holds the per-run state (one processed set per
  chain, the result, the live per-(size, root) cache, stats,
  :class:`~repro.exec.TaskContext`) and runs the chains.
  Serial runs use one session; process shards and work-stealing
  workers each get their own, over the same engine.
* **ContigraJob** adapts an engine, a root region and a match sink to
  the :class:`~repro.exec.scheduler.ExecutionJob` protocol so any
  scheduler (``serial`` / ``process`` / ``workqueue``) can run it.

The deadline and cancellation both flow through the session's
TaskContext (a run is bounded by wall clock only; byte budgets belong
to the simulated TThinker baseline) — the engine holds no time limit
and has no deadline code of its own
(:meth:`repro.exec.context.Budget.check_deadline` is the single
implementation).  Every counter, lifecycle ones included
(cancellations, promotions, checked matches), is an integer add on the
session's own stats at the place it happens; the context's event bus
carries the same moments to observers, and only when there are any
(:attr:`~repro.exec.context.TaskContext.observed`, read once per
session).

Predecessor-constrained workloads (keyword search) run on the
dedicated explorer in :mod:`repro.apps.kws`, which is built on the
virtual state-space analysis (§7); the two pipelines match the
paper's own split (§5/§6 vs §7).

Every toggle the paper ablates is a constructor flag:

========================  ===========================================
``enable_fusion``         share the set-operation cache with VTasks
``enable_promotion``      process VTask matches immediately (§5.3)
``enable_lateral``        first VTask match cancels the rest (§6)
``rl_strategy``           RL-Path ordering (Figs 9, 16, 18)
========================  ===========================================
"""

from __future__ import annotations

import time
from contextlib import closing
from itertools import groupby
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..exec.context import TaskContext
from ..exec.events import (
    CANCEL,
    MATCH,
    MATCH_CHECKED,
    PHASE_PATTERN,
    PROMOTE,
)
from ..graph.aux import auxiliary_graph
from ..graph.graph import Graph
from ..graph.index import GraphIndex, resolve_index
from ..mining.cache import SetOperationCache
from ..mining.candidates import root_candidates
from ..mining.etask import ETask
from ..mining.stats import ConstraintStats
from ..patterns.codegen import KERNEL, SETS
from ..patterns.pattern import Pattern
from ..patterns.plan import ExplorationPlan, plan_for
from ..patterns.symmetry import canonical_assignment
from .constraints import ConstraintSet
from .ordering import order_validation_targets
from .vtask import ValidationTarget

#: Incremental match consumer: ``(pattern, canonical_assignment)``,
#: called synchronously on the mining thread as matches validate.
MatchSink = Callable[[Pattern, Tuple[int, ...]], None]


class ValidationChain:
    """One mined pattern's whole check, fixed before exploration.

    ``targets`` are the pattern's VTasks in lateral order, most likely
    to match first (§6).  ``promote_into[i]`` is the chain of the mined
    pattern with the structure of ``targets[i]``'s P⁺, or None when
    that P⁺ is not mined or promotion is off (§5.3).  ``promotable``
    says whether any VTask promotes into this pattern: only then can
    one of its matches be handled before its ETask reaches it, so only
    then does an ETask match probe the session's processed set at
    ``slot``.  Patterns with one structure share a slot.  Holds no
    plan or compiled function: engines pickle with their chains.
    """

    __slots__ = ("pattern", "targets", "promote_into", "promotable", "slot")

    def __init__(
        self, pattern: Pattern, targets: List[ValidationTarget], slot: int
    ) -> None:
        self.pattern = pattern
        self.targets = targets
        self.slot = slot
        self.promote_into: List[Optional[ValidationChain]] = (
            [None] * len(targets)
        )
        self.promotable = False


#: One pattern's ETask at a root: its chain, its plan, and the kernel
#: index its exploration runs on (None: the sets path).
_RootTask = Tuple[ValidationChain, ExplorationPlan, Optional[GraphIndex]]

#: A session's ETask table row: one chain's task and the roots it runs
#: from.
_ETaskEntry = Tuple[_RootTask, FrozenSet[int]]


class ContigraResult:
    """Valid (constraint-satisfying) matches plus run statistics.

    Matches are stored as ``(pattern, canonical_assignment)`` pairs —
    canonical meaning the lexicographically-minimal automorphic image,
    so each subgraph match (orbit) appears exactly once even under
    edge-induced semantics where one vertex set can host several
    distinct matches.
    """

    def __init__(self) -> None:
        self.valid: List[Tuple[Pattern, Tuple[int, ...]]] = []
        self.stats = ConstraintStats()
        self.elapsed: float = 0.0
        # Degraded-mode contract (``on_failure="degrade"``, see
        # repro.exec.resilience.mark_degraded): ``incomplete`` results
        # carry the roots that were never mined plus why they failed.
        self.incomplete: bool = False
        self.unprocessed_roots: List[int] = []
        self.failure_reasons: List[str] = []

    @property
    def count(self) -> int:
        return len(self.valid)

    def vertex_sets(self) -> List[FrozenSet[int]]:
        return [frozenset(assignment) for _, assignment in self.valid]

    def assignments(self) -> List[Tuple[int, ...]]:
        return [assignment for _, assignment in self.valid]

    def by_pattern(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for pattern, _ in self.valid:
            name = pattern.name or f"P{pattern.num_vertices}"
            counts[name] = counts.get(name, 0) + 1
        return counts

    def __repr__(self) -> str:
        suffix = ", incomplete" if self.incomplete else ""
        return f"ContigraResult({self.count} valid matches{suffix})"


class ContigraEngine:
    """Constraint-aware mining engine for successor dependencies.

    The engine itself is immutable after construction (pattern-level
    tables only); all mutable run state lives in
    :class:`EngineSession`, so one engine can back many concurrent
    sessions (the work-queue scheduler relies on this).
    """

    def __init__(
        self,
        graph: Graph,
        constraint_set: ConstraintSet,
        enable_fusion: bool = True,
        enable_promotion: bool = True,
        enable_lateral: bool = True,
        rl_strategy: str = "heuristic",
        adjacency: str = "auto",
        enable_aux: bool = False,
    ) -> None:
        """``adjacency`` selects the candidate kernels for every ETask
        and VTask this engine runs (see :mod:`repro.graph.index`);
        only the mode string is stored, so pickled engines ship no
        index data — process-scheduler workers rebuild lazily.

        ``enable_aux`` turns on per-pattern auxiliary pruned graphs
        (:mod:`repro.graph.aux`): each pattern's ETasks run over
        adjacency restricted to vertices that can actually appear in
        one of its matches.  Exploration-only — containment VTasks
        always validate against the full graph, and with the ``sets``
        path (no kernel index) only root filtering applies."""
        # Rejects an unknown mode; which pool source the runs take.
        index = resolve_index(graph, adjacency)
        source = SETS if index is None else KERNEL
        self.graph = graph
        self.constraints = constraint_set
        self.induced = constraint_set.induced
        self.enable_fusion = enable_fusion
        self.enable_promotion = enable_promotion
        self.enable_lateral = enable_lateral
        self.rl_strategy = rl_strategy
        self.adjacency = adjacency
        self.enable_aux = enable_aux
        self.stats = ConstraintStats()

        unsupported = [
            c for c in constraint_set.all_constraints if c.is_predecessor
        ]
        if unsupported:
            raise ValueError(
                "ContigraEngine handles successor constraints; run "
                "predecessor (minimality) workloads on repro.apps.kws, "
                f"got {unsupported[0]!r}"
            )

        # Pattern-level precomputation (paper §8.1: 0.1s–2s, amortized),
        # smallest patterns first: their VTask promotions fill the
        # processed sets before larger patterns' ETasks run, which is
        # where promotion pays off (§5.3).
        self.chains: List[ValidationChain] = []
        chain_for: Dict[tuple, ValidationChain] = {}
        for pattern in sorted(
            constraint_set.patterns,
            key=lambda p: (p.num_vertices, -p.num_edges),
        ):
            targets = [
                ValidationTarget(
                    c.p_m,
                    c.p_plus,
                    graph,
                    induced=self.induced,
                    strategy=rl_strategy,
                    adjacency=adjacency,
                )
                for c in constraint_set.successor_constraints_for(pattern)
            ]
            key = pattern.structure_key()
            shared = chain_for.get(key)
            chain = ValidationChain(
                pattern,
                order_validation_targets(
                    targets,
                    density_of=lambda t: t.p_plus.density,
                    strategy=rl_strategy,
                    target_patterns=[t.p_plus for t in targets],
                    graph=graph,
                ),
                len(chain_for) if shared is None else shared.slot,
            )
            self.chains.append(chain)
            chain_for[key] = chain
            # Every step program a run executes is compiled here, once
            # (repro.patterns.codegen): the functions are memoised
            # process-wide, so later engines over the same patterns and
            # forked process workers find them built.
            plan_for(pattern, induced=self.induced).program(source)
            for target in targets:
                target.programs()
        if enable_promotion:
            promoted_into: Set[int] = set()
            for chain in self.chains:
                chain.promote_into = [
                    chain_for.get(t.p_plus.structure_key())
                    for t in chain.targets
                ]
                promoted_into.update(
                    into.slot
                    for into in chain.promote_into
                    if into is not None
                )
            for chain in self.chains:
                chain.promotable = chain.slot in promoted_into
        # Same-size patterns form one group, run root-major
        # (EngineSession.run_roots).
        self._chains_by_size: List[Tuple[int, List[ValidationChain]]] = [
            (size, list(group))
            for size, group in groupby(
                self.chains, key=lambda c: c.pattern.num_vertices
            )
        ]

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(
        self,
        roots: Optional[Sequence[int]] = None,
        ctx: Optional[TaskContext] = None,
        match_sink: Optional[MatchSink] = None,
    ) -> ContigraResult:
        """Mine all workload patterns under their containment constraints.

        ``roots`` restricts ETasks to the given root vertices — the
        sharding hook the process scheduler uses.  Validation (VTasks)
        is never restricted: a shard's matches are checked against the
        whole graph, so per-shard results are exact for the subgraphs
        their roots own.  ``ctx`` carries the run's deadline, token and
        bus; without one the run is unlimited.  ``match_sink`` is called
        with ``(pattern, canonical_assignment)`` the moment a match
        passes validation.

        Each run gets **fresh** stats: ``self.stats`` is rebound to the
        new run's counters so ``engine.stats`` always describes the
        *last* run, and a long-lived daemon attributes work per query.
        """
        self.stats = ConstraintStats()
        session = EngineSession(
            self, stats=self.stats, ctx=ctx, match_sink=match_sink
        )
        session.run_roots(roots)
        return session.finish()

    def run_with(
        self,
        scheduler: Any,
        ctx: Optional[TaskContext] = None,
    ) -> ContigraResult:
        """Run under a pluggable scheduler from :mod:`repro.exec`."""
        return scheduler.run(ContigraJob(self), ctx=ctx)


class EngineSession:
    """Mutable state of one constraint-aware run over one engine.

    Owns the processed sets, the in-progress result, the live
    per-(size, root) cache, the stats sink, and the
    :class:`TaskContext` whose budget and cancellation token govern the
    run.  Scheduler workers create one session each and feed it roots
    incrementally via :meth:`run_roots`; :meth:`finish` seals and
    returns the result.
    """

    def __init__(
        self,
        engine: ContigraEngine,
        stats: Optional[ConstraintStats] = None,
        ctx: Optional[TaskContext] = None,
        match_sink: Optional[MatchSink] = None,
    ) -> None:
        self.engine = engine
        self.match_sink = match_sink
        self.stats = stats if stats is not None else ConstraintStats()
        # The caller's context as is (shared deadline, cooperative
        # cancellation, one bus for the whole run): worker sessions
        # stay out of each other's counters because each counts on
        # its own ``stats``, not because each has its own bus.
        self.ctx = ctx if ctx is not None else TaskContext.create()
        self._observed = self.ctx.observed
        self.result = ContigraResult()
        self.result.stats = self.stats
        # Per chain slot: the canonical matches already processed, by
        # an ETask or by promotion (§5.3).
        self._processed: List[Set[Tuple[int, ...]]] = [
            set() for _ in engine.chains
        ]
        # Resolved per session (not stored on the engine): the graph
        # caches its index, so sessions share kernels while pickled
        # engines stay lean.
        self._index = resolve_index(engine.graph, engine.adjacency)
        # Every chain's ETask and roots, per size group, resolved once.
        # Equal root sets (every unlabelled pattern, without aux
        # pruning) are held once: a set costs several times a list.
        root_sets: Dict[FrozenSet[int], FrozenSet[int]] = {}
        self._tasks: List[Tuple[int, List[_ETaskEntry]]] = [
            (size, [self._etask_entry(c, root_sets) for c in chains])
            for size, chains in engine._chains_by_size
        ]
        # Caches are scoped per (pattern size, root): the C of the task
        # state ⟨P, S, C⟩, shared by the root's same-size ETasks.
        # Fusion lets VTasks read/extend the live cache, promotion
        # carries it into the containing subgraph's processing.  There
        # is no cross-root cache — that is exactly what promotion is
        # for (Fig 10 / Fig 13).
        self._task_cache: Optional[SetOperationCache] = None
        self._start = time.monotonic()
        self._finished = False

    # ------------------------------------------------------------------
    # Root execution
    # ------------------------------------------------------------------

    def _etask_entry(
        self,
        chain: ValidationChain,
        root_sets: Dict[FrozenSet[int], FrozenSet[int]],
    ) -> _ETaskEntry:
        """One chain's ETask and its roots, the same set object for
        equal roots (``root_sets``).

        With auxiliary graphs enabled, the pattern's ETasks run on its
        pruned-adjacency index (distinct cache key — see
        :mod:`repro.graph.aux` on fusion safety; VTasks keep validating
        over the full graph), and roots the pruning proved unusable are
        dropped up front — sound because no match can bind them at
        matching-order position 0."""
        engine = self.engine
        plan = plan_for(chain.pattern, induced=engine.induced)
        roots = root_candidates(engine.graph, plan)
        index = self._index
        if engine.enable_aux:
            aux = auxiliary_graph(engine.graph, chain.pattern)
            roots = aux.filter_roots(roots)
            if index is not None:
                index = aux.index()
        root_set = frozenset(roots)
        return (chain, plan, index), root_sets.setdefault(root_set, root_set)

    def run_roots(self, roots: Optional[Sequence[int]] = None) -> None:
        """Run every workload pattern over ``roots`` (None = all roots).

        Sizes run smallest first within the given root set, so the
        processed sets fill in the same order as a full serial
        run restricted to those roots: a promotion always lands in a
        strictly larger pattern, so no size waits on its own matches.
        Within one size the run is root-major: each root's ETasks, one
        per same-size pattern rooted there, share one cache, so a
        neighbourhood intersected for one pattern is a hit for the next
        (the multi-pattern reuse of Peregrine+, PAPER.md §8.1).  May be
        called repeatedly (the work-stealing scheduler feeds one root
        at a time): only the given roots are walked, not every
        pattern's root list.
        """
        engine = self.engine
        shard = set(roots) if roots is not None else None
        for size, entries in self._tasks:
            at_root: Dict[int, List[_RootTask]] = {}
            for task, chain_roots in entries:
                for root in (
                    chain_roots if shard is None else chain_roots & shard
                ):
                    at_root.setdefault(root, []).append(task)
            if not at_root:
                continue
            if self._observed:
                self.ctx.phase_start(
                    PHASE_PATTERN, size=size,
                    patterns=len(entries), roots=len(at_root),
                )
            try:
                for root in sorted(at_root):
                    self._task_cache = SetOperationCache(stats=self.stats)
                    for chain, plan, pattern_index in at_root[root]:
                        if self.ctx.cancelled:
                            return
                        task = ETask(
                            engine.graph, plan, root, self._task_cache,
                            self.stats, ctx=self.ctx, index=pattern_index,
                        )
                        # Closed here, inside the phase, however the
                        # loop ends: the program's counts land in it.
                        with closing(task.matches()) as found:
                            for assignment in found:
                                self._on_etask_match(chain, assignment)
            finally:
                if self._observed:
                    self.ctx.phase_end(PHASE_PATTERN)
        self._task_cache = None

    def finish(self) -> ContigraResult:
        """Seal the session and return its result (idempotent)."""
        self._task_cache = None
        if not self._finished:
            self.result.elapsed = time.monotonic() - self._start
            self._finished = True
        return self.result

    # ------------------------------------------------------------------
    # Match handling (Algorithm 1 lines 2–19)
    # ------------------------------------------------------------------

    def _on_etask_match(
        self, chain: ValidationChain, assignment: Tuple[int, ...]
    ) -> None:
        self.ctx.check_deadline()
        if chain.promotable:
            # An ETask match satisfies its plan's symmetry conditions,
            # so it is already the lex-min image promotion records.
            processed = self._processed[chain.slot]
            if assignment in processed:
                # Already handled through promotion: the from-scratch
                # ETask work for this subgraph is canceled (§5.3).
                self.stats.etasks_canceled += 1
                if self._observed:
                    self.ctx.emit(CANCEL, kind="etask", count=1)
                return
            processed.add(assignment)
        # Otherwise nothing can handle this match first, and symmetry
        # breaking already emits each match once: no probe.
        self._process_subgraph(chain, assignment)

    def _process_subgraph(
        self, chain: ValidationChain, assignment: Tuple[int, ...]
    ) -> None:
        """Run one subgraph match's chain, then store or promote.

        ``assignment`` must be canonical (the lex-min automorphic
        image), and is on both arrival paths: promoted completions are
        canonicalised by the caller, and an ETask match satisfies the
        symmetry conditions every :func:`plan_for` plan carries, which
        makes it its own lex-min image — so valid matches are stored
        as they arrive, with no second canonicalisation here.

        The chain runs its VTasks serially (§6).  Before each one the
        token is checked, so a cancelled parent (deadline, aborted run)
        stops the pending VTasks and leaves no verdict.  A VTask match
        makes the subgraph invalid; with lateral cancellation on it
        ends the chain, with it off every VTask runs and the last match
        is the one promoted — the result is identical, only the work
        differs, which is the ablation Fig 14 plots.  Either way the
        skipped VTasks count as lateral cancellations.
        """
        engine = self.engine
        stats = self.stats
        ctx = self.ctx
        stats.matches_checked += 1
        if self._observed:
            ctx.emit(MATCH_CHECKED, count=1)
        cache = (
            self._task_cache
            if engine.enable_fusion and self._task_cache is not None
            else SetOperationCache(stats=stats)
        )
        targets = chain.targets
        hit: Optional[int] = None
        skipped = 0
        for index, target in enumerate(targets):
            if ctx.cancelled:
                skipped = len(targets) - index
                break
            # Looked up on the target at each call, so boundary
            # instrumentation patched onto ValidationTarget sees it.
            if target.run(
                assignment, engine.graph, cache, stats, ctx=ctx
            ) is not None:
                hit = index
                if engine.enable_lateral:
                    skipped = len(targets) - index - 1
                    break
        if skipped:
            stats.vtasks_canceled_lateral += skipped
            if self._observed:
                ctx.emit(CANCEL, kind="lateral", count=skipped)
        if hit is None:
            if ctx.cancelled:
                return
            self.result.valid.append((chain.pattern, assignment))
            if self.match_sink is not None:
                self.match_sink(chain.pattern, assignment)
            if self._observed:
                pattern = chain.pattern
                ctx.emit(
                    MATCH,
                    pattern=pattern.name or f"P{pattern.num_vertices}",
                )
            return
        into = chain.promote_into[hit]
        if into is None:
            # Promotion is off, or the containing pattern is not mined
            # itself (NSQ-style constraints): nothing to promote into.
            return
        # Promote the VTask to an ETask (§5.3): beyond the matching
        # RL-Path, "the remaining RL-Paths in the search tree also get
        # explored" — every containing match reachable from this state
        # is processed now, reusing the candidates the VTask cached
        # (the Fig 10 "immediately finds another match without
        # additional computation" effect), and recorded so the
        # from-scratch ETasks skip them later.
        completions: List[Tuple[int, ...]] = []
        targets[hit].enumerate_completions(
            assignment, engine.graph, cache, stats,
            completions.append, ctx=ctx,
        )
        processed = self._processed[into.slot]
        for found in completions:
            # The one site that canonicalises: completions follow the
            # VTask's bridge order, not P⁺'s symmetry conditions.  Looked
            # up through the module global so boundary instrumentation
            # patched onto this module sees every call.
            canonical = canonical_assignment(found, into.pattern)
            if canonical in processed:
                continue
            processed.add(canonical)
            stats.promotions += 1
            if self._observed:
                ctx.emit(PROMOTE, count=1)
            self._process_subgraph(into, canonical)


class ContigraJob:
    """Adapter: a ContigraEngine as a scheduler-runnable ExecutionJob.

    Implements the :class:`repro.exec.scheduler.ExecutionJob` protocol.
    ``roots`` is the exploration universe (``None`` = every vertex):
    the serial run mines it directly, and the sharding schedulers cut
    their shards from it.  ``match_sink`` is handed to the serial run,
    which calls it as each match validates.  The job pickles with its
    engine, so process workers reuse the already-built pattern-level
    tables instead of rebuilding them, as long as it carries no sink.
    """

    def __init__(
        self,
        engine: ContigraEngine,
        roots: Optional[Sequence[int]] = None,
        match_sink: Optional[MatchSink] = None,
    ) -> None:
        self.engine = engine
        self._roots = None if roots is None else sorted(roots)
        self._match_sink = match_sink

    def all_roots(self) -> List[int]:
        if self._roots is None:
            return list(self.engine.graph.vertices())
        return list(self._roots)

    def run_serial(self, ctx: Optional[TaskContext] = None) -> ContigraResult:
        return self.engine.run(
            roots=self._roots, ctx=ctx, match_sink=self._match_sink
        )

    def run_shard(
        self,
        roots: Sequence[int],
        ctx: Optional[TaskContext] = None,
    ) -> ContigraResult:
        """One root shard with its own processed sets and fresh counters."""
        session = self.worker_session(ctx)
        session.run_roots(list(roots))
        return session.finish()

    def shard_payload(self, roots: Sequence[int]) -> Tuple[Any, List[int]]:
        return (self, list(roots))

    def data_graph(self) -> Graph:
        """The data graph shards mine — schedulers use this to decide
        whether to publish it to shared memory before dispatch."""
        return self.engine.graph

    def worker_session(
        self, ctx: Optional[TaskContext] = None
    ) -> EngineSession:
        return EngineSession(self.engine, ctx=ctx)

    def merge(
        self, partials: Sequence[Any], elapsed: float
    ) -> ContigraResult:
        """Combine shard results: canonical dedup + summed counters."""
        merged = ContigraResult()
        seen: set = set()
        for valid, stats, _elapsed, *_ in partials:
            for pattern, assignment in valid:
                key = (pattern.structure_key(), assignment)
                if key in seen:
                    continue
                seen.add(key)
                merged.valid.append((pattern, assignment))
            merged.stats.merge(stats)
        merged.elapsed = elapsed
        return merged
