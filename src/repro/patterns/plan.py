"""Exploration plans (paper §2.3).

An exploration plan fixes, for one pattern:

* a *matching order* — the sequence in which pattern vertices are
  bound to data vertices (always connected: every vertex after the
  first has at least one earlier neighbor);
* per-step *backward neighbors* — which earlier steps' data vertices
  the new candidate must be adjacent to (the engine intersects their
  adjacency lists);
* per-step *backward non-neighbors* — for induced matching, earlier
  steps the candidate must NOT be adjacent to;
* *symmetry-breaking conditions* re-keyed by step position;
* per-step label constraints.

These per-step facts are compiled into one :attr:`ExplorationPlan.steps`
tuple (Peregrine's exploration plan taken literally: the matching
order and each step's set operations are fixed ahead of time), and
that step program into one generated nested-loop function
(:mod:`repro.patterns.codegen`, :meth:`ExplorationPlan.program`).  A
VTask's bridge recipe compiles to the same record
(:class:`repro.core.vtask.BridgeRecipe`).  Plans are deterministic
functions of the pattern and are memoized, so a step program is built
and compiled once per pattern.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .pattern import Pattern
from .symmetry import Condition, conditions_by_position, symmetry_conditions

#: One compiled step ``(vertex, anchor slots, non-neighbour slots,
#: label, lower-bound slots, upper-bound slots)``: step ``i`` binds slot
#: ``i`` of a partial match to pattern vertex ``vertex``.  The other
#: slots are earlier ones: the candidate must be adjacent to every
#: anchor's data vertex, adjacent to no non-neighbour's, greater than
#: every lower bound's and less than every upper bound's (symmetry
#: breaking).  The record of every step program the walker runs.
PlanStep = Tuple[
    int, Tuple[int, ...], Tuple[int, ...], Optional[int],
    Tuple[int, ...], Tuple[int, ...],
]


class ExplorationPlan:
    """Precomputed matching strategy for one pattern.

    Attributes
    ----------
    pattern: the target pattern.
    order: ``order[i]`` is the pattern vertex bound at step ``i``.
    backward_neighbors: per step, sorted earlier positions whose data
        vertices must be adjacent to the new candidate.
    backward_nonneighbors: per step, earlier positions whose data
        vertices must NOT be adjacent (only populated for induced plans).
    conditions: raw symmetry conditions in pattern-vertex ids.
    conditions_at: conditions re-keyed by step position
        (see :func:`repro.patterns.symmetry.conditions_by_position`).
    labels_at: label constraint per step (None = wildcard).
    induced: whether matches must be induced subgraphs.
    steps: the compiled step program, one :data:`PlanStep` per step;
        ``order``, ``backward_neighbors``, ``backward_nonneighbors``,
        ``labels_at`` and ``conditions_at`` are its columns.
    """

    __slots__ = (
        "pattern",
        "order",
        "backward_neighbors",
        "backward_nonneighbors",
        "conditions",
        "conditions_at",
        "labels_at",
        "induced",
        "steps",
        "_programs",
    )

    def __init__(
        self,
        pattern: Pattern,
        order: Sequence[int],
        induced: bool,
        conditions: Optional[Sequence[Condition]] = None,
    ) -> None:
        if sorted(order) != list(range(pattern.num_vertices)):
            raise ValueError("order must be a permutation of pattern vertices")
        self.pattern = pattern
        self.order: Tuple[int, ...] = tuple(order)
        self.induced = induced
        backward_n: List[Tuple[int, ...]] = []
        backward_nn: List[Tuple[int, ...]] = []
        for i, v in enumerate(self.order):
            anchors, nonneighbors = step_links(
                pattern, self.order[:i], v, induced
            )
            backward_n.append(anchors)
            backward_nn.append(nonneighbors)
            if i > 0 and not anchors:
                raise ValueError(
                    f"matching order disconnected at step {i} "
                    f"(pattern vertex {v})"
                )
        self.backward_neighbors: Tuple[Tuple[int, ...], ...] = tuple(backward_n)
        self.backward_nonneighbors: Tuple[Tuple[int, ...], ...] = tuple(
            backward_nn
        )
        self.conditions: List[Condition] = (
            list(conditions)
            if conditions is not None
            else symmetry_conditions(pattern)
        )
        self.conditions_at = conditions_by_position(self.conditions, self.order)
        self.labels_at: Tuple[Optional[int], ...] = tuple(
            pattern.label(v) for v in self.order
        )
        steps: List[PlanStep] = []
        for i in range(len(self.order)):
            conditions_here = self.conditions_at.get(i, ())
            steps.append((
                self.order[i],
                backward_n[i],
                backward_nn[i],
                self.labels_at[i],
                tuple(j for j, greater in conditions_here if greater),
                tuple(j for j, greater in conditions_here if not greater),
            ))
        self.steps: Tuple[PlanStep, ...] = tuple(steps)
        self._programs: Dict[str, Callable[..., Any]] = {}

    @property
    def num_steps(self) -> int:
        return len(self.order)

    def program(self, source: str) -> Callable[..., Any]:
        """The generated ETask function of :attr:`steps` over the pool
        ``source`` (``"sets"`` or ``"kernel"``; see
        :func:`repro.patterns.codegen.step_program`)."""
        program = self._programs.get(source)
        if program is None:
            from .codegen import ETASK, step_program

            program = step_program(self.steps, 1, ETASK, source)
            self._programs[source] = program
        return program

    def __repr__(self) -> str:
        return (
            f"ExplorationPlan(order={self.order}, induced={self.induced}, "
            f"conditions={self.conditions})"
        )


def step_links(
    pattern: Pattern, earlier: Sequence[int], vertex: int, induced: bool
) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Anchor and non-neighbour slots for binding ``vertex`` after the
    pattern vertices ``earlier`` (slot ``j`` binds ``earlier[j]``).

    Anchors are the adjacent slots.  Non-neighbours are every other
    slot under induced semantics; edge-induced steps still enforce the
    pattern's explicit anti-edges (per-pair induced semantics).
    """
    anchors = tuple(
        j for j, u in enumerate(earlier) if pattern.has_edge(vertex, u)
    )
    if induced:
        nonneighbors = tuple(
            j for j, u in enumerate(earlier)
            if not pattern.has_edge(vertex, u)
        )
    else:
        nonneighbors = tuple(
            j for j, u in enumerate(earlier)
            if pattern.has_anti_edge(vertex, u)
        )
    return anchors, nonneighbors


def choose_matching_order(pattern: Pattern) -> Tuple[int, ...]:
    """Greedy connected matching order.

    Start at a maximum-degree vertex; repeatedly append the vertex with
    the most already-ordered neighbors (ties: higher degree, then lower
    id).  This mirrors the dense-first orders pattern-aware systems
    generate: more backward neighbors means smaller candidate sets.
    """
    n = pattern.num_vertices
    if not pattern.is_connected():
        raise ValueError(
            "matching orders require connected patterns; "
            "disconnected patterns must be decomposed by the caller"
        )
    start = max(pattern.vertices(), key=lambda v: (pattern.degree(v), -v))
    order = [start]
    remaining = set(pattern.vertices()) - {start}
    while remaining:
        def score(v: int) -> tuple:
            back = sum(1 for u in order if pattern.has_edge(v, u))
            return (back, pattern.degree(v), -v)

        best = max(remaining, key=score)
        order.append(best)
        remaining.discard(best)
    return tuple(order)


_PLAN_CACHE: Dict[tuple, ExplorationPlan] = {}


def plan_for(pattern: Pattern, induced: bool = False) -> ExplorationPlan:
    """Memoized plan for ``pattern`` (keyed by structure and semantics)."""
    key = (pattern.structure_key(), induced)
    plan = _PLAN_CACHE.get(key)
    if plan is None:
        plan = ExplorationPlan(
            pattern, choose_matching_order(pattern), induced=induced
        )
        _PLAN_CACHE[key] = plan
    return plan
