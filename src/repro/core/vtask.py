"""Validation tasks (paper §5, Algorithm 2).

A VTask ⟨P⁺, S^M, S, C⟩ searches for *one* match of a larger pattern
``P⁺`` that contains the subgraph ``S^M`` an ETask just matched.  Three
paper techniques are realized here:

**Alignment (§5.2.1).**  Algorithm 2 permutes ``S`` through every
``validPermutations(pattern(S))`` and then follows ``P⁺``'s exploration
plan.  Enumerating *(permutation of S)* × *(plan prefix placement)* is
exactly enumerating the embeddings of ``P^M`` into ``P⁺``, so we
precompute those embeddings once per pattern pair.  Embeddings that
differ by an automorphism of ``P⁺`` search identical data-completion
spaces, so only one representative per Aut(P⁺)-orbit is kept — this is
the precomputed "lookup table indexed by pattern combinations" of §8.1.
Symmetry-breaking restrictions are *not* applied during validation
(they were already consumed by the parent ETask and would wrongly
prune containing matches — the Fig 7 discussion).

**Gap bridging (§5.2.2).**  When ``P⁺`` is more than one level deeper
than ``P^M``, the added vertices are bound one at a time; the induced
subpattern after each step is the *intermediate pattern* of that
RL-Path.  All connected extension orders are enumerated and ranked by
the density heuristics of Fig 9 (``repro.core.ordering``).

**Task fusion (§5.2).**  Candidates are computed through the shared
:class:`~repro.mining.cache.SetOperationCache` of the parent engine,
keyed by the semantic identity of each intersection — so a VTask
re-deriving a set the ETask (or a sibling VTask) already computed hits
the cache instead of recomputing, which is the measurable effect of
fusing the tasks.  Disabling fusion hands each VTask a throwaway cache.
"""

from __future__ import annotations

import itertools
from typing import Callable, FrozenSet, List, Optional, Sequence, Tuple

from ..exec.context import TaskContext
from ..exec.events import (
    KERNEL_INTERSECT,
    PHASE_ALIGN,
    PHASE_BRIDGE,
    VTASK_MATCH,
    VTASK_SPAWN,
)
from ..graph.graph import Graph
from ..graph.index import GraphIndex, bits_to_sorted, resolve_index
from ..graph.store import PATTERN_SCOPE, derived_cache
from ..mining.cache import SetOperationCache
from ..mining.candidates import kernel_pool, raw_intersection
from ..mining.stats import ConstraintStats
from ..patterns.automorphisms import automorphisms
from ..patterns.isomorphism import subpattern_embeddings
from ..patterns.pattern import Pattern
from .ordering import order_exploration_paths

#: One compiled bridge step ``(new P⁺ vertex, anchor slots, non-neighbour
#: slots, label)``; slots index the walker's P⁺-indexed ``bound`` list.
BridgeStep = Tuple[int, Tuple[int, ...], Tuple[int, ...], Optional[int]]


class BridgeRecipe:
    """One aligned RL-Path option: an embedding plus an extension order.

    Attributes
    ----------
    embedding: tuple, ``embedding[v]`` = P⁺ vertex for P^M vertex ``v``.
    steps: the compiled step program a VTask walks, one
        :data:`BridgeStep` per added vertex; ``order``, ``anchors`` and
        ``nonneighbors`` are its columns.
    order: P⁺ vertices to bind, in binding order.
    anchors: per step, the P⁺ vertices (already bound before the step)
        adjacent to the new vertex — their data images get intersected.
    nonneighbors: per step, bound P⁺ vertices NOT adjacent to the new
        vertex (enforced only under induced semantics).
    intermediate_density: mean density of the intermediate patterns
        along this RL-Path, the sort key for Fig 9 ordering.
    """

    __slots__ = ("embedding", "steps", "intermediate_density")

    def __init__(
        self,
        p_plus: Pattern,
        embedding: Tuple[int, ...],
        order: Tuple[int, ...],
    ) -> None:
        self.embedding = embedding
        bound: List[int] = list(embedding)
        steps: List[BridgeStep] = []
        densities: List[float] = []
        for v in order:
            anchors = tuple(u for u in bound if p_plus.has_edge(u, v))
            if not anchors:
                raise ValueError("extension order leaves a vertex unanchored")
            nonneighbors = tuple(u for u in bound if u not in anchors)
            steps.append((v, anchors, nonneighbors, p_plus.label(v)))
            bound.append(v)
            densities.append(p_plus.subpattern(bound).density)
        self.steps = tuple(steps)
        self.intermediate_density = (
            sum(densities) / len(densities) if densities else 0.0
        )

    @property
    def order(self) -> Tuple[int, ...]:
        return tuple(step[0] for step in self.steps)

    @property
    def anchors(self) -> Tuple[Tuple[int, ...], ...]:
        return tuple(step[1] for step in self.steps)

    @property
    def nonneighbors(self) -> Tuple[Tuple[int, ...], ...]:
        return tuple(step[2] for step in self.steps)


# Query-compile-time memoization (§8.1's "lookup table indexed by
# pattern combinations"): alignment permutations, bridge routes, and
# fully-built recipe lists are deterministic functions of the pattern
# pair, so every ValidationTarget over the same ⟨P^M, P⁺⟩ — across
# engines, sessions, and benchmark repetitions — shares one derivation
# instead of re-deriving per construction (and, transitively, per
# matched RL-Path when targets are built inside a run).  Patterns are
# small immutable values and graph-independent, so the memos live in
# the process-global derived cache under the pinned
# :data:`~repro.graph.store.PATTERN_SCOPE` pseudo-version — one
# invalidation protocol covers them together with every graph-scoped
# artifact, and the hit/miss counters make their reuse observable.


def alignment_embeddings(
    p_m: Pattern, p_plus: Pattern, induced: bool
) -> List[Tuple[int, ...]]:
    """Embeddings of P^M into P⁺, deduplicated modulo Aut(P⁺).

    These are the §5.2.1 alignment options: each embedding is one way
    a VTask can reuse an ETask's partial match.  Exposed for the
    static analyzer, which verifies alignment feasibility without
    constructing a full :class:`ValidationTarget`.  Memoized per
    pattern pair (the analyzer and every engine share one table).
    """

    def build() -> Tuple[Tuple[int, ...], ...]:
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

    cached = derived_cache().get_or_build(
        PATTERN_SCOPE, ("alignment", p_m, p_plus, induced), build
    )
    return list(cached)


def connected_extension_orders(
    p_plus: Pattern, covered: Sequence[int], added: Sequence[int]
) -> List[Tuple[int, ...]]:
    """All orders of ``added`` where each vertex attaches to bound ones.

    An empty result means the gap cannot be bridged from this
    embedding (e.g. ``p_plus`` is disconnected) — the analyzer turns
    that into a CG402 diagnostic before the engine would crash on it.
    Memoized: enumerating permutations is factorial in the gap, and
    the same ``(P⁺, embedding)`` combination recurs across every
    ValidationTarget construction over the pair.
    """
    covered_key = tuple(covered)
    added_key = tuple(added)

    def build() -> Tuple[Tuple[int, ...], ...]:
        orders: List[Tuple[int, ...]] = []
        covered_set = set(covered_key)
        for perm in itertools.permutations(added_key):
            bound = set(covered_set)
            valid = True
            for v in perm:
                if not any(p_plus.has_edge(v, u) for u in bound):
                    valid = False
                    break
                bound.add(v)
            if valid:
                orders.append(perm)
        return tuple(orders)

    cached = derived_cache().get_or_build(
        PATTERN_SCOPE, ("orders", p_plus, covered_key, added_key), build
    )
    return list(cached)


def bridge_recipes_for(
    p_plus: Pattern, embedding: Tuple[int, ...]
) -> Tuple["BridgeRecipe", ...]:
    """All :class:`BridgeRecipe` options for one alignment embedding.

    Memoized per ``(P⁺, embedding)``: recipe construction walks every
    connected extension order and computes intermediate-pattern
    densities, which is the dominant cost of ValidationTarget
    construction.  Recipes are immutable after construction and safe
    to share across targets.
    """

    def build() -> Tuple["BridgeRecipe", ...]:
        covered = list(embedding)
        added = [v for v in p_plus.vertices() if v not in set(covered)]
        orders = connected_extension_orders(p_plus, covered, added)
        return tuple(
            BridgeRecipe(p_plus, embedding, order) for order in orders
        )

    return derived_cache().get_or_build(
        PATTERN_SCOPE, ("recipes", p_plus, embedding), build
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
        dedup_embeddings: bool = True,
        use_intersections: bool = True,
        adjacency: str = "auto",
    ) -> None:
        """``dedup_embeddings=False`` keeps every embedding instead of one
        per Aut(P⁺)-orbit; ``strategy="naive"`` keeps enumeration
        order; ``use_intersections=False`` scans one anchor's adjacency
        list and filters the rest edge-by-edge instead of intersecting
        cached sets.  Together these model a hand-written
        user-defined-function containment check that lacks Contigra's
        precomputed alignment tables and fused caches (the Peregrine+
        baseline of §8.2).  ``adjacency`` selects the candidate kernel
        (see :mod:`repro.graph.index`); ``"sets"`` keeps the seed
        frozenset path."""
        self.p_m = p_m
        self.p_plus = p_plus
        self.induced = induced
        self.use_intersections = use_intersections
        # A bool, not the index: targets are pickled with their engine.
        self._use_kernels = (
            resolve_index(graph, adjacency) is not None
            and use_intersections
        )
        self.gap = p_plus.num_vertices - p_m.num_vertices
        if self.gap < 1:
            raise ValueError("validation target must be strictly larger")
        if dedup_embeddings:
            embeddings = alignment_embeddings(p_m, p_plus, induced)
        else:
            embeddings = [
                tuple(emb[v] for v in p_m.vertices())
                for emb in subpattern_embeddings(p_m, p_plus, induced=induced)
            ]
        recipes: List[BridgeRecipe] = []
        for embedding in embeddings:
            candidates = list(bridge_recipes_for(p_plus, embedding))
            if not candidates:
                # Unbridgeable from this embedding (disconnected P⁺);
                # the analyzer reports this statically as CG402.
                continue
            if strategy != "naive":
                candidates = order_exploration_paths(
                    candidates,
                    density_of=lambda r: r.intermediate_density,
                    strategy=strategy,
                    targets=[p_plus],
                    graph=graph,
                )
            # For a fixed embedding, DFS over any one connected order
            # enumerates every completion, so only the heuristic's top
            # pick is kept — the strategy decides *which* RL-Path runs,
            # never how many (that is the entire effect Fig 16 sweeps).
            recipes.append(candidates[0])
        if embeddings and not recipes:
            # Embeddings exist but none can be extended along connected
            # RL-Paths (disconnected P⁺).  With *zero* embeddings the
            # empty recipe list is legitimate — P⁺ simply never
            # contains P^M and the VTask never matches.
            raise ValueError(
                f"no aligned RL-Path recipe bridges "
                f"{p_m.name or p_m.num_vertices} to "
                f"{p_plus.name or p_plus.num_vertices} "
                "(is the containing pattern connected?)"
            )
        if strategy != "naive":
            # Keep the globally heuristic-preferred recipes first.
            recipes = order_exploration_paths(
                recipes,
                density_of=lambda r: r.intermediate_density,
                strategy=strategy,
                targets=[p_plus],
                graph=graph,
            )
        self.recipes = recipes

    # ------------------------------------------------------------------
    # Hot path
    # ------------------------------------------------------------------

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
        deadline is checked *inside* the bridging recursion, so a
        pathological single VTask (dense graph, deep gap) cannot
        overshoot the time budget unchecked.
        """
        stats.constraint_checks += 1
        return self._walk(assignment, graph, cache, stats, ctx, None)

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

        Used by §5.4's generality mode (ETask-to-ETask fusion for
        unconstrained workloads): each emitted completion is one
        promoted match of the larger pattern.  ``emit`` receives the
        full P⁺ assignment tuple; duplicates across embeddings are the
        caller's to fold (one subgraph can contain several base-pattern
        matches).
        """
        self._walk(assignment, graph, cache, stats, ctx, emit)

    def _walk(
        self,
        assignment: Sequence[int],
        graph: Graph,
        cache: SetOperationCache,
        stats: ConstraintStats,
        ctx: Optional[TaskContext],
        emit: Optional[Callable[[Tuple[int, ...]], None]],
    ) -> Optional[Tuple[int, ...]]:
        """Walk each recipe's step program over one P^M match.

        ``emit=None`` returns at the first completion (Algorithm 2);
        otherwise every completion goes to ``emit``.  The observability
        gate, deadline hook and candidate source are resolved once per
        VTask.  ``bound`` is indexed by P⁺ vertex, ``-1`` = unbound:
        injectivity is ``v in bound``, a completion ``tuple(bound)``.
        """
        stats.vtasks_started += 1
        obs = ctx if ctx is not None and ctx.observed else None
        tick = ctx.check_deadline if ctx is not None else None
        index = graph.kernel_index() if self._use_kernels else None
        lazy = index is None and self.use_intersections
        if obs is not None:
            mode = {} if emit is None else {"mode": "enumerate"}
            obs.emit(VTASK_SPAWN, gap=self.gap, **mode)
            obs.phase_start(PHASE_ALIGN, gap=self.gap, **mode)
        try:
            for recipe in self.recipes:
                bound = [-1] * self.p_plus.num_vertices
                for p_m_v, p_plus_v in enumerate(recipe.embedding):
                    bound[p_plus_v] = assignment[p_m_v]
                if obs is not None:
                    obs.phase_start(PHASE_BRIDGE, gap=self.gap)
                try:
                    completion = self._step(
                        0, recipe.steps, bound, graph, index, lazy,
                        cache, stats, tick, obs, emit,
                    )
                finally:
                    if obs is not None:
                        obs.phase_end(PHASE_BRIDGE)
                if completion is not None:
                    stats.vtasks_matched += 1
                    if obs is not None:
                        obs.emit(VTASK_MATCH, gap=self.gap)
                    return completion
            return None
        finally:
            if obs is not None:
                obs.phase_end(PHASE_ALIGN)

    def _step(
        self,
        depth: int,
        steps: Tuple[BridgeStep, ...],
        bound: List[int],
        graph: Graph,
        index: Optional[GraphIndex],
        lazy: bool,
        cache: SetOperationCache,
        stats: ConstraintStats,
        tick: Optional[Callable[[], None]],
        obs: Optional[TaskContext],
        emit: Optional[Callable[[Tuple[int, ...]], None]],
    ) -> Optional[Tuple[int, ...]]:
        """One node of the bridge walk — the only walker there is.

        Both modes visit the same nodes in the same order (candidates
        ascending); the deadline ticks at every node.  Of the three
        candidate sources, the kernel index and the UDF-model scan
        return filtered lists; the fused ``sets`` pool is only sorted
        up front and filtered in the loop (injectivity, label, induced
        non-neighbours as ``neighbor_set`` membership), so a first-match
        walk never pays for candidates past the one it descends into.
        """
        if tick is not None:
            tick()
        if depth == len(steps):
            if emit is None:
                return tuple(bound)
            emit(tuple(bound))
            return None
        if depth:
            stats.bridge_steps += 1
        if obs is not None:
            obs.emit(KERNEL_INTERSECT, count=1)
        stats.candidate_computations += 1
        new_vertex, anchors, nonneighbors, label = steps[depth]
        anchor_data = [bound[u] for u in anchors]
        blocked: Sequence[FrozenSet[int]] = ()
        if lazy:
            candidates = sorted(
                raw_intersection(graph, anchor_data, cache, stats)
            )
            if self.induced:
                blocked = [graph.neighbor_set(bound[u]) for u in nonneighbors]
        elif index is not None:
            candidates = self._kernel_source(
                index, anchor_data, nonneighbors, label, bound, cache, stats
            )
        else:
            candidates = self._udf_source(
                graph, anchor_data, nonneighbors, label, bound, stats
            )
        for v in candidates:
            if lazy and (
                v in bound
                or label is not None and graph.label(v) != label
            ):
                continue
            for neighbors in blocked:
                if v in neighbors:
                    break
            else:
                bound[new_vertex] = v
                found = self._step(
                    depth + 1, steps, bound, graph, index, lazy,
                    cache, stats, tick, obs, emit,
                )
                if found is not None:
                    return found
        bound[new_vertex] = -1
        return None

    def _udf_source(
        self,
        graph: Graph,
        anchor_data: List[int],
        nonneighbors: Tuple[int, ...],
        label: Optional[int],
        bound: List[int],
        stats: ConstraintStats,
    ) -> List[int]:
        """UDF-model source (``use_intersections=False``, Peregrine+):
        scan one anchor's adjacency and probe the rest edge by edge,
        eagerly — ``extensions_attempted`` counts every probed vertex."""
        rest = anchor_data[1:]
        selected: List[int] = []
        for v in sorted(graph.neighbor_set(anchor_data[0])):
            if v in bound:
                continue
            if label is not None and graph.label(v) != label:
                continue
            if rest:
                stats.extensions_attempted += 1
                if not all(graph.has_edge(v, w) for w in rest):
                    continue
            if self.induced and any(
                graph.has_edge(v, bound[u]) for u in nonneighbors
            ):
                continue
            selected.append(v)
        return selected

    def _kernel_source(
        self,
        index: GraphIndex,
        anchor_data: List[int],
        nonneighbors: Tuple[int, ...],
        label: Optional[int],
        bound: List[int],
        cache: SetOperationCache,
        stats: ConstraintStats,
    ) -> List[int]:
        """Kernel source: label restriction inside the cached pool;
        injectivity and induced non-neighbour filters as bitset masks
        when the pool is a bitmask, per vertex when it is a tuple."""
        pool = kernel_pool(index, anchor_data, label, cache, stats)
        if isinstance(pool, int):
            for u in bound:
                if u >= 0 and pool >> u & 1:
                    pool -= 1 << u
            if self.induced:
                for u in nonneighbors:
                    if not pool:
                        break
                    pool &= ~index.neighbor_bits(bound[u])
            return bits_to_sorted(pool)
        barred = [bound[u] for u in nonneighbors] if self.induced else ()
        return [
            v for v in pool
            if v not in bound
            and not (barred and any(index.has_edge(v, w) for w in barred))
        ]

    def __repr__(self) -> str:
        return (
            f"ValidationTarget({self.p_m.name or self.p_m.num_vertices} -> "
            f"{self.p_plus.name or self.p_plus.num_vertices}, "
            f"gap={self.gap}, recipes={len(self.recipes)})"
        )
