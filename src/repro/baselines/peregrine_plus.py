"""Peregrine+ baselines: post-hoc constraint checking (paper §8.2).

Peregrine+ is the paper's strengthened baseline — Peregrine with task
caches and multi-pattern exploration — where containment constraints
are implemented in the *user-defined function*: every explored match
is checked against the constraints **after** exploration, with no
access to the ETask caches, no lateral ordering, no promotion, no
skipping.  That is exactly what these functions do, sharing the
pattern/VTask machinery with Contigra so the comparison isolates the
execution model rather than implementation luck:

* exploration uses the same :class:`~repro.mining.engine.MiningEngine`;
* each NSQ match's containment probe is the VTask's bridge without
  what Contigra adds to it (:func:`udf_recipes`, :func:`udf_contains`):
  every embedding instead of one per Aut(P⁺)-orbit, the first connected
  extension order instead of Fig 9's pick, and one anchor's adjacency
  scanned and probed edge by edge instead of cached intersections — the
  UDF "has no access to the ETask caches" (§8.4.2).

``schedule="graphpi"`` additionally disables the exploration cache,
standing in for the GraphPi bar of Fig 2 (a compilation-based system
without Peregrine+'s result reuse).
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Optional, Sequence, Set

from ..core import statespace
from ..core.vtask import BridgeRecipe, bridge_recipes_for
from ..exec.context import Budget
from ..graph.graph import Graph
from ..mining.engine import MiningEngine
from ..mining.stats import ConstraintStats
from ..patterns.isomorphism import subpattern_embeddings
from ..patterns.pattern import Pattern
from ..patterns.plan import PlanStep
from ..patterns.quasicliques import quasi_clique_patterns_up_to


class PostHocResult:
    """Valid matches plus the post-hoc work the baseline performed."""

    def __init__(self) -> None:
        self.valid: Set[FrozenSet[int]] = set()
        self.stats = ConstraintStats()
        self.elapsed = 0.0

    @property
    def count(self) -> int:
        return len(self.valid)

    def __repr__(self) -> str:
        return (
            f"PostHocResult({self.count} valid, "
            f"{self.stats.constraint_checks} checks)"
        )


def _baseline_budget(time_limit: Optional[float]) -> Budget:
    """Cheap cooperative deadline shared across the baseline's loops.

    The same single deadline implementation every engine uses
    (:class:`repro.exec.context.Budget`), at the tick interval the
    baseline historically polled at.
    """
    return Budget(time_limit=time_limit, check_interval=128)


def posthoc_mqc(
    graph: Graph,
    gamma: float,
    max_size: int,
    min_size: int = 3,
    time_limit: Optional[float] = None,
    schedule: str = "peregrine",
    check_maximality: bool = True,
) -> PostHocResult:
    """Maximal quasi-cliques the post-hoc way (Fig 2 and Table 3 baselines).

    ``check_maximality=False`` reproduces Fig 2's "without maximality"
    bars: pure exploration, no constraint work.
    """
    if schedule not in ("peregrine", "graphpi"):
        raise ValueError(f"unknown schedule {schedule!r}")
    result = PostHocResult()
    stats = result.stats
    budget = _baseline_budget(time_limit)
    engine = MiningEngine(
        graph, induced=True, cache_enabled=schedule == "peregrine"
    )
    engine.stats = stats

    patterns_by_size = quasi_clique_patterns_up_to(
        max_size, gamma, min_size=min_size
    )
    all_patterns = [
        p for size in sorted(patterns_by_size) for p in patterns_by_size[size]
    ]
    matches: List = []

    def collect(match) -> None:
        budget.check_deadline()
        matches.append(match)

    for pattern in all_patterns:
        for match in engine.stream(pattern):
            collect(match)

    if not check_maximality:
        for match in matches:
            result.valid.add(match.vertex_set)
        result.elapsed = budget.elapsed()
        return result

    # Post-hoc phase: every match individually re-examined by a
    # user-callback-style containment probe — grow the subgraph through
    # its union neighborhood and test each superset for the quasi-clique
    # property.  No alignment tables, no candidate intersections, no
    # cache sharing, nothing skipped: the per-match cost the paper's
    # Figure 2 measures (453M checks on Patents, 2.3B on Youtube).
    for match in matches:
        budget.check_deadline()
        stats.matches_checked += 1
        if not _contained_in_larger_quasi_clique(
            graph, match.vertex_set, gamma, max_size, stats, budget
        ):
            result.valid.add(match.vertex_set)
    result.elapsed = budget.elapsed()
    return result


def _contained_in_larger_quasi_clique(
    graph: Graph,
    vertex_set: FrozenSet[int],
    gamma: float,
    max_size: int,
    stats: ConstraintStats,
    budget: Budget,
) -> bool:
    """UDF-style maximality probe: search supersets up to ``max_size``.

    Supersets are grown one neighborhood vertex at a time (a superset
    quasi-clique need not pass through intermediate quasi-cliques, so
    no degree pruning applies at intermediate steps — the exact
    blowup the paper's §1 "Per-Match Cost" paragraph describes).  A
    visited-set bounds duplicate work, as a careful UDF would.
    """
    from ..patterns.quasicliques import quasi_clique_min_degree

    visited = set()

    def grow(members: FrozenSet[int]) -> bool:
        budget.check_deadline()
        if len(members) >= max_size:
            return False  # no room for a strictly larger mined pattern
        neighborhood = set()
        for v in members:
            neighborhood.update(graph.neighbors(v))
        neighborhood -= members
        for candidate in sorted(neighborhood):
            superset = members | {candidate}
            if superset in visited:
                continue
            visited.add(superset)
            stats.constraint_checks += 1
            degrees = graph.degrees_within(sorted(superset))
            threshold = quasi_clique_min_degree(len(superset), gamma)
            if min(degrees.values()) >= threshold:
                return True
            if len(superset) < max_size and grow(frozenset(superset)):
                return True
        return False

    return grow(vertex_set)


def posthoc_nsq(
    graph: Graph,
    p_m: Pattern,
    p_plus_list: Sequence[Pattern],
    induced: bool = False,
    time_limit: Optional[float] = None,
) -> PostHocResult:
    """Nested subgraph query via the user-defined-function baseline."""
    result = PostHocResult()
    stats = result.stats
    budget = _baseline_budget(time_limit)
    engine = MiningEngine(graph, induced=induced)
    engine.stats = stats
    checks = [udf_recipes(p_m, p_plus, induced) for p_plus in p_plus_list]
    valid_assignments: Set[tuple] = set()

    def on_match(match) -> None:
        budget.check_deadline()
        stats.matches_checked += 1
        for recipes in checks:
            if udf_contains(recipes, match.assignment, graph, stats):
                return
        # A match satisfying its plan's symmetry conditions is already
        # its own lex-min automorphic image: nothing to canonicalise.
        valid_assignments.add(match.assignment)

    for match in engine.stream(p_m):
        on_match(match)
    result.valid = {frozenset(a) for a in valid_assignments}
    result.stats = stats
    result.elapsed = budget.elapsed()
    # NSQ identity is per match orbit, not vertex set; keep both views.
    result.assignments = valid_assignments  # type: ignore[attr-defined]
    return result


def udf_recipes(
    p_m: Pattern, p_plus: Pattern, induced: bool
) -> List[BridgeRecipe]:
    """The UDF's bridge options: for every embedding of P^M into P⁺ (no
    orbit deduplication), the recipe of the first connected extension
    order."""
    recipes = []
    for emb in subpattern_embeddings(p_m, p_plus, induced=induced):
        embedding = tuple(emb[v] for v in p_m.vertices())
        options = bridge_recipes_for(p_plus, embedding, induced)
        if options:
            recipes.append(options[0])
    return recipes


def udf_contains(
    recipes: Sequence[BridgeRecipe],
    assignment: Sequence[int],
    graph: Graph,
    stats: ConstraintStats,
) -> bool:
    """Whether some P⁺ match contains the P^M match ``assignment``,
    searched the way a hand-written callback would (see
    :func:`udf_recipes`).  Counts like a VTask, plus
    ``extensions_attempted`` for every edge-probed candidate."""
    stats.constraint_checks += 1
    stats.vtasks_started += 1
    first = len(assignment)
    for recipe in recipes:
        if _udf_extend(recipe.steps, list(assignment), first, graph, stats):
            stats.vtasks_matched += 1
            return True
    return False


def _udf_extend(
    steps: Sequence[PlanStep],
    bound: List[int],
    first: int,
    graph: Graph,
    stats: ConstraintStats,
) -> bool:
    """Bind the next slot of ``steps``: scan the first anchor's
    adjacency, eagerly, then descend into each survivor in turn."""
    slot = len(bound)
    if slot == len(steps):
        return True
    if slot > first:
        stats.bridge_steps += 1
    stats.candidate_computations += 1
    _, anchors, nonneighbors, label, _, _ = steps[slot]
    anchor_data = [bound[j] for j in anchors]
    rest = anchor_data[1:]
    selected = []
    for v in sorted(graph.neighbor_set(anchor_data[0])):
        if v in bound:
            continue
        if label is not None and graph.label(v) != label:
            continue
        if rest:
            stats.extensions_attempted += 1
            if not all(graph.has_edge(v, w) for w in rest):
                continue
        if any(graph.has_edge(v, bound[j]) for j in nonneighbors):
            continue
        selected.append(v)
    for v in selected:
        bound.append(v)
        if _udf_extend(steps, bound, first, graph, stats):
            return True
        bound.pop()
    return False


def posthoc_kws(
    graph: Graph,
    keywords: Iterable[int],
    max_size: int,
    time_limit: Optional[float] = None,
) -> PostHocResult:
    """Keyword search the Peregrine+ way (Fig 15 / Fig 17 baseline).

    Faithful to §8.2: every connected structure of each size is
    explored by its *own* ETasks (merged labels — labels ignored at
    intermediate steps), so a size-5 structure's tasks re-walk the
    size-3/4 prefixes a promoted system would reuse.  Nothing is
    skipped or canceled — the baseline has no state-space analysis —
    and every covering match is minimality-checked individually in the
    user callback.
    """
    from ..patterns.structures import connected_structures

    keyword_set = frozenset(keywords)
    result = PostHocResult()
    stats = result.stats
    budget = _baseline_budget(time_limit)
    engine = MiningEngine(graph, induced=True)
    engine.stats = stats
    covering: List[FrozenSet[int]] = []
    # The same coverage primitive Contigra's walk reads, so Fig 15 / 17
    # compare execution models and not two spellings of "covers".
    coverage = statespace.KeywordCoverage(graph, keyword_set, max_size)

    def on_match(match) -> None:
        budget.check_deadline()
        if coverage.covers(match.vertex_set):
            covering.append(match.vertex_set)

    for size in range(len(keyword_set), max_size + 1):
        for structure in connected_structures(size):
            for match in engine.stream(structure):
                on_match(match)

    for vertex_set in covering:
        budget.check_deadline()
        stats.matches_checked += 1
        if statespace.is_minimal_cover(graph, sorted(vertex_set), keyword_set):
            result.valid.add(vertex_set)
    result.elapsed = budget.elapsed()
    return result
