"""Nested Subgraph Queries (paper §2.2, evaluated in §8.4.2 / Fig 12).

An NSQ mines matches of ``P^M`` that are not contained in a match of
any of a list of larger patterns — the pattern-level analog of a
nested ``MATCH ... WHERE NOT EXISTS`` clause in Cypher/GQL.

The paper's two evaluation queries (Fig 12a/b) are provided as
:func:`paper_query_triangles` and :func:`paper_query_tailed_triangles`.
The figure images are not machine-readable in our source; the
containing patterns chosen here are natural supergraphs of the
respective targets (documented in DESIGN.md) — the experiment's point
is the cost profile of nested containment checking, which any such
pair exercises.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..core.constraints import nested_query_constraints
from ..core.runtime import ContigraEngine, ContigraResult
from ..exec.context import TaskContext
from ..graph.graph import Graph
from ..patterns.library import house, tailed_triangle, triangle
from ..patterns.pattern import Pattern
from ..request import run_engine


def nested_subgraph_query(
    graph: Graph,
    p_m: Pattern,
    p_plus_list: Sequence[Pattern],
    induced: bool = False,
    time_limit: Optional[float] = None,
    scheduler: Optional[str] = None,
    n_workers: int = 2,
    ctx: Optional[TaskContext] = None,
    retries: int = 0,
    on_failure: str = "raise",
    **engine_options,
) -> ContigraResult:
    """Run one nested subgraph query with Contigra.

    Returns the :class:`~repro.core.runtime.ContigraResult` whose
    ``assignments()`` are the valid (non-contained) matches of ``p_m``.
    ``scheduler`` selects an execution-core scheduler (``serial`` /
    ``process`` / ``workqueue``); None keeps the serial in-process run.
    ``ctx`` supplies an external execution context (deadline,
    cancellation, observability bus) that replaces ``time_limit``.  ``retries`` re-dispatches
    shards lost to transient worker failures; ``on_failure="degrade"``
    returns a partial result with ``result.incomplete`` set instead of
    raising (see docs/execution.md, "Failure semantics").
    """
    constraint_set = nested_query_constraints(
        p_m, list(p_plus_list), induced=induced
    )
    return run_engine(
        ContigraEngine(graph, constraint_set, **engine_options),
        scheduler=scheduler,
        n_workers=n_workers,
        ctx=ctx,
        time_limit=time_limit,
        retries=retries,
        on_failure=on_failure,
    )


def paper_query_triangles() -> Tuple[Pattern, List[Pattern]]:
    """Query 1: triangles not contained in two size-5 patterns (Fig 12a).

    The containing patterns are the house (triangle + 4-cycle body) and
    the gem (triangle sharing edges with two further triangles on a
    5th vertex) — both strict size-5 supergraphs of the triangle.
    """
    gem = Pattern(
        5,
        [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (0, 4), (2, 4)],
        name="gem",
    )
    return triangle(), [house(), gem]


def paper_query_tailed_triangles() -> Tuple[Pattern, List[Pattern]]:
    """Query 2: tailed triangles not contained in size-6 patterns (Fig 12b).

    Containing patterns (the tailed triangle is vertices 0-1-2 with
    tail 3 on 2): (a) a *braced* shape adding one vertex over the roof
    edge and one over the tail edge, and (b) a *dumbbell* closing a
    second triangle on the tail.  Both extensions attach each added
    vertex to two existing ones, so validating them genuinely
    exercises task fusion's shared set operations.
    """
    braced = Pattern(
        6,
        [(0, 1), (1, 2), (0, 2), (2, 3), (0, 4), (1, 4), (2, 5), (3, 5)],
        name="braced-tailed-triangle",
    )
    dumbbell = Pattern(
        6,
        [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (3, 5), (4, 5)],
        name="dumbbell",
    )
    return tailed_triangle(), [braced, dumbbell]
