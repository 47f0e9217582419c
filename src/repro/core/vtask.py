"""Validation tasks (paper §5, Algorithm 2).

A VTask ⟨P⁺, S^M, S, C⟩ searches for *one* match of a larger pattern
``P⁺`` that contains the subgraph ``S^M`` an ETask just matched.  Three
paper techniques are realized here:

**Alignment (§5.2.1).**  Enumerating Algorithm 2's *(permutation of
S)* × *(plan prefix placement)* is enumerating the embeddings of
``P^M`` into ``P⁺``, precomputed once per pattern pair, one per
Aut(P⁺)-orbit (embeddings an automorphism apart search the same
completions) — §8.1's "lookup table indexed by pattern combinations".
Symmetry-breaking restrictions are *not* applied during validation:
the parent ETask consumed them, and they would prune containing
matches (the Fig 7 discussion).

**Gap bridging (§5.2.2).**  When ``P⁺`` is more than one level deeper
than ``P^M``, the added vertices are bound one at a time; the induced
subpattern after each step is the *intermediate pattern* of that
RL-Path.  All connected extension orders are enumerated and ranked by
the density heuristics of Fig 9 (``repro.core.ordering``).  The chosen
order compiles to the step record an ETask's plan emits, and that
program to one generated function (:mod:`repro.patterns.codegen`),
nested loops from ``S`` with the first-match test and promotion's
enumeration in one body: a VTask is an ETask resumed from the match it
validates.  The functions are compiled when the engine is built
(§8.1's pattern-level precomputation) and shared by every recipe of
the same shape; :meth:`ValidationTarget.programs` runs them in
heuristic order, each call inside its own ``bridge`` phase.  An
observed call reports its pools, hits and misses once, as it ends,
inside that phase (``kernel_intersect``, ``cache_hit``,
``cache_miss``, exact counts).

**Task fusion (§5.2).**  Candidates are computed through the shared
:class:`~repro.mining.cache.SetOperationCache` of the parent engine,
keyed by the semantic identity of each intersection — so a VTask
re-deriving a set the ETask (or a sibling VTask) already computed hits
the cache instead of recomputing, which is the measurable effect of
fusing the tasks.  Disabling fusion hands each VTask a throwaway cache.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import itemgetter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..exec.context import TaskContext
from ..exec.events import (
    PHASE_ALIGN,
    PHASE_BRIDGE,
    VTASK_MATCH,
    VTASK_SPAWN,
)
from ..graph.graph import Graph
from ..graph.index import resolve_index
from ..mining.cache import SetOperationCache
from ..mining.stats import ConstraintStats
from ..patterns.automorphisms import automorphisms
from ..patterns.codegen import KERNEL, SETS, VTASK, step_program
from ..patterns.isomorphism import subpattern_embeddings
from ..patterns.pattern import Pattern
from ..patterns.plan import PlanStep, step_links
from .ordering import order_exploration_paths


#: A recipe's generated function and the ``pick`` that puts the
#: completions it finds in P⁺ order.
_Program = Tuple[
    Callable[..., Any], Callable[[Sequence[int]], Tuple[int, ...]]
]


class BridgeRecipe:
    """One aligned RL-Path option: an embedding plus an extension order,
    compiled to the step program a VTask walks.

    Attributes
    ----------
    embedding: tuple, ``embedding[v]`` = P⁺ vertex for P^M vertex ``v``.
    steps: one :data:`~repro.patterns.plan.PlanStep` per P⁺ vertex.
        Slots ``0..k−1`` hold the aligned P^M match (slot ``v`` binds
        ``embedding[v]``); each later step binds one added vertex, with
        the plan's non-neighbour rule and no symmetry bounds.
    pick: maps a completed slot list to the P⁺-indexed assignment.
    intermediate_density: mean density of the intermediate patterns
        along this RL-Path, the sort key for Fig 9 ordering.
    """

    __slots__ = ("embedding", "steps", "pick", "intermediate_density")

    def __init__(
        self,
        p_plus: Pattern,
        embedding: Tuple[int, ...],
        order: Tuple[int, ...],
        induced: bool,
    ) -> None:
        self.embedding = embedding
        bound: List[int] = list(embedding)
        steps: List[PlanStep] = [
            (u, (), (), p_plus.label(u), (), ()) for u in embedding
        ]
        densities: List[float] = []
        for v in order:
            anchors, nonneighbors = step_links(p_plus, bound, v, induced)
            if not anchors:
                raise ValueError("extension order leaves a vertex unanchored")
            steps.append((v, anchors, nonneighbors, p_plus.label(v), (), ()))
            bound.append(v)
            densities.append(p_plus.subpattern(bound).density)
        self.steps = tuple(steps)
        self.pick = itemgetter(
            *sorted(range(len(bound)), key=bound.__getitem__)
        )
        self.intermediate_density = (
            sum(densities) / len(densities) if densities else 0.0
        )


# Query-compile-time memoization (§8.1's "lookup table indexed by
# pattern combinations"): alignments and recipes are deterministic
# functions of the pattern pair, so every ValidationTarget over one
# ⟨P^M, P⁺⟩ shares one derivation, held in an ``lru_cache`` for the
# life of the process.


@lru_cache(maxsize=None)
def alignment_embeddings(
    p_m: Pattern, p_plus: Pattern, induced: bool
) -> Tuple[Tuple[int, ...], ...]:
    """Embeddings of P^M into P⁺, deduplicated modulo Aut(P⁺).

    These are the §5.2.1 alignment options: each embedding is one way
    a VTask can reuse an ETask's partial match.  Exposed for the
    static analyzer, which verifies alignment feasibility without
    constructing a full :class:`ValidationTarget`.  Memoized per
    pattern pair (the analyzer and every engine share one table).
    """
    p_plus_auts = automorphisms(p_plus)
    seen: set = set()
    representatives: List[Tuple[int, ...]] = []
    for emb in subpattern_embeddings(p_m, p_plus, induced=induced):
        image = tuple(emb[v] for v in p_m.vertices())
        orbit_key = min(
            tuple(sigma[x] for x in image) for sigma in p_plus_auts
        )
        if orbit_key in seen:
            continue
        seen.add(orbit_key)
        representatives.append(image)
    return tuple(representatives)


def connected_extension_orders(
    p_plus: Pattern, covered: Sequence[int], added: Sequence[int]
) -> List[Tuple[int, ...]]:
    """All orders of ``added`` where each vertex attaches to bound ones.

    An empty result means the gap cannot be bridged from this
    embedding (e.g. ``p_plus`` is disconnected).
    """
    orders: List[Tuple[int, ...]] = []
    for perm in itertools.permutations(added):
        bound = set(covered)
        for v in perm:
            if not any(p_plus.has_edge(v, u) for u in bound):
                break
            bound.add(v)
        else:
            orders.append(perm)
    return orders


@lru_cache(maxsize=None)
def bridge_recipes_for(
    p_plus: Pattern, embedding: Tuple[int, ...], induced: bool
) -> Tuple["BridgeRecipe", ...]:
    """One :class:`BridgeRecipe` per connected extension order from one
    alignment embedding; empty only when P⁺ is disconnected (the
    analyzer's CG001 on P⁺).

    Memoized per ``(P⁺, embedding, induced)``: enumerating orders is
    factorial in the gap, and recipe construction computes
    intermediate-pattern densities — the dominant cost of
    ValidationTarget construction.  Recipes are immutable and shared.
    """
    added = [v for v in p_plus.vertices() if v not in embedding]
    return tuple(
        BridgeRecipe(p_plus, embedding, order, induced)
        for order in connected_extension_orders(p_plus, embedding, added)
    )


class ValidationTarget:
    """Precomputed validation recipe for one ⟨P^M, P⁺⟩ constraint.

    Construction is pattern-level only (cheap, done before exploration
    begins); :meth:`run` is the per-match hot path.
    """

    def __init__(
        self,
        p_m: Pattern,
        p_plus: Pattern,
        graph: Graph,
        induced: bool,
        strategy: str = "heuristic",
        adjacency: str = "auto",
    ) -> None:
        """``strategy="naive"`` keeps enumeration order instead of
        ranking recipes by Fig 9's heuristics.  ``adjacency`` selects
        the candidate kernel (see :mod:`repro.graph.index`); ``"sets"``
        keeps the seed frozenset path."""
        self.p_m = p_m
        self.p_plus = p_plus
        # A bool, not the index: targets are pickled with their engine.
        self._use_kernels = resolve_index(graph, adjacency) is not None
        self.gap = p_plus.num_vertices - p_m.num_vertices
        if self.gap < 1:
            raise ValueError("validation target must be strictly larger")
        embeddings = alignment_embeddings(p_m, p_plus, induced)

        def ranked(options: List[BridgeRecipe]) -> List[BridgeRecipe]:
            if strategy == "naive":
                return options
            return order_exploration_paths(
                options,
                density_of=lambda r: r.intermediate_density,
                strategy=strategy,
                targets=[p_plus],
                graph=graph,
            )

        # For a fixed embedding, DFS over any one connected order
        # enumerates every completion, so only the heuristic's top pick
        # is kept — the strategy decides *which* RL-Path runs, never how
        # many (that is the entire effect Fig 16 sweeps).  An embedding
        # with no connected order (disconnected P⁺) is skipped; the
        # analyzer reports that P⁺ statically as CG001.
        recipes = [
            ranked(list(options))[0]
            for options in (
                bridge_recipes_for(p_plus, embedding, induced)
                for embedding in embeddings
            )
            if options
        ]
        if embeddings and not recipes:
            # With *zero* embeddings the empty recipe list is legitimate:
            # P⁺ never contains P^M and the VTask never matches.
            raise ValueError(
                f"no aligned RL-Path recipe bridges "
                f"{p_m.name or p_m.num_vertices} to "
                f"{p_plus.name or p_plus.num_vertices} "
                "(is the containing pattern connected?)"
            )
        # Keep the globally heuristic-preferred recipes first.
        self.recipes = ranked(recipes)
        self._programs: Optional[Tuple[_Program, ...]] = None

    # ------------------------------------------------------------------
    # Hot path
    # ------------------------------------------------------------------

    def programs(self) -> Tuple[_Program, ...]:
        """``(function, pick)`` per recipe, in the order they run: the
        generated function of the recipe's step program (see
        :func:`repro.patterns.codegen.step_program`), fetched once per
        instance from the process-wide memo."""
        programs = self._programs
        if programs is None:
            source = KERNEL if self._use_kernels else SETS
            k = self.p_m.num_vertices
            programs = self._programs = tuple(
                (step_program(recipe.steps, k, VTASK, source), recipe.pick)
                for recipe in self.recipes
            )
        return programs

    def __getstate__(self) -> Dict[str, Any]:
        # A generated function does not pickle; an unpickled target
        # finds it again in the memo (inherited by forked workers).
        return dict(self.__dict__, _programs=None)

    def run(
        self,
        assignment: Sequence[int],
        graph: Graph,
        cache: SetOperationCache,
        stats: ConstraintStats,
        ctx: Optional[TaskContext] = None,
    ) -> Optional[Tuple[int, ...]]:
        """Search for one P⁺ match containing the P^M match ``assignment``.

        ``assignment[v]`` is the data vertex bound to P^M vertex ``v``.
        Returns the full P⁺ assignment (indexed by P⁺ vertex) of the
        first containing match found, or None — VTASK-MATCHED vs
        NO-VTASK-MATCH in Algorithm 2.  With a ``ctx``, the run-wide
        deadline is checked at every node.
        """
        stats.constraint_checks += 1
        return self._validate(assignment, graph, cache, stats, ctx, None)

    def enumerate_completions(
        self,
        assignment: Sequence[int],
        graph: Graph,
        cache: SetOperationCache,
        stats: ConstraintStats,
        emit: Callable[[Tuple[int, ...]], None],
        ctx: Optional[TaskContext] = None,
    ) -> None:
        """Emit *every* P⁺ match containing the P^M match (no early exit).

        Promotion's mode (§5.3): each completion, a full P⁺ assignment
        tuple, is one promoted match of the larger pattern; duplicates
        across embeddings are the caller's to fold.
        """
        self._validate(assignment, graph, cache, stats, ctx, emit)

    def _validate(
        self,
        assignment: Sequence[int],
        graph: Graph,
        cache: SetOperationCache,
        stats: ConstraintStats,
        ctx: Optional[TaskContext],
        emit: Optional[Callable[[Tuple[int, ...]], None]],
    ) -> Optional[Tuple[int, ...]]:
        """Run every recipe's step program from the P^M match: in
        first-match mode when ``emit`` is None (return the first
        completion), else in enumerate mode.  A VTask never polls the
        cancellation token: a walk cut short would read as "no
        containing match", and the caller would pass a contained match
        as valid."""
        stats.vtasks_started += 1
        index = graph.kernel_index() if self._use_kernels else None
        nbr = (graph if index is None else index.graph).neighbor_set
        tick: Optional[Callable[[], None]] = None
        obs: Optional[TaskContext] = None
        report: Optional[Callable[[int, int], None]] = None
        if ctx is not None:
            tick = ctx.deadline_tick()
            if ctx.observed:
                obs = ctx
                report = ctx.report_steps
        if obs is not None:
            mode = {} if emit is None else {"mode": "enumerate"}
            obs.emit(VTASK_SPAWN, gap=self.gap, **mode)
            obs.phase_start(PHASE_ALIGN, gap=self.gap, **mode)
        computed = stats.candidate_computations
        walks = 0
        try:
            completion = None
            for program, pick in self.programs():
                walks += 1
                if obs is not None:
                    obs.phase_start(PHASE_BRIDGE, gap=self.gap)
                try:
                    completion = program(
                        assignment, pick, nbr, graph, index, cache, stats,
                        tick, report, emit,
                    )
                finally:
                    if obs is not None:
                        obs.phase_end(PHASE_BRIDGE)
                if completion is not None:
                    break
            if completion is not None:
                stats.vtasks_matched += 1
                if obs is not None:
                    obs.emit(VTASK_MATCH, gap=self.gap)
            return completion
        finally:
            # A recipe computes its first step once; every later
            # computation is a bridge step.
            stats.bridge_steps += (
                stats.candidate_computations - computed - walks
            )
            if obs is not None:
                obs.phase_end(PHASE_ALIGN)

    def __repr__(self) -> str:
        return (
            f"ValidationTarget({self.p_m.name or self.p_m.num_vertices} -> "
            f"{self.p_plus.name or self.p_plus.num_vertices}, "
            f"gap={self.gap}, recipes={len(self.recipes)})"
        )
