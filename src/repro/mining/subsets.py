"""Shared-tree enumeration of connected vertex sets.

The ESU algorithm (Wernicke 2006) enumerates every connected vertex
set of a graph exactly once: sets grow from their minimum vertex, and
each extension vertex is offered to exactly one branch.  This is the
substrate for two Contigra features:

* **ETask-to-ETask fusion** (paper §5.4): patterns whose structures
  nest share one exploration tree instead of one tree per pattern —
  a search-tree node *is* the fused state of every ETask whose pattern
  its subgraph could still grow into.
* **Keyword-search exploration with promotion** (paper §8.5): a
  matching RL-Path at level k is the promoted starting state for
  level k + 1, with no re-exploration from scratch.

The ``visit`` callback steers the walk: it sees each connected set
once and returns whether to keep growing that branch — which is how
eager filtering (§7) and feasibility pruning cancel RL-Paths early.

The last level of the tree is handed over one sibling batch at a time
instead: sets of ``max_size`` vertices cannot grow, so their ``visit``
answer would be ignored.  ``leaves(prefix, children)`` receives the
visited set of ``max_size - 1`` vertices (``prefix``, the walk's own
list: restore it before returning) and the extension vertices that
complete it, one leaf ``prefix + [w]`` per ``w``.  A caller that can
answer a whole batch at once passes its own ``leaves``; the default
calls ``visit`` on each leaf in the walk's order (the last child
first), so a walk that gives no ``leaves`` has ``visit`` see every
set, leaves included, in one depth-first order.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence

from ..graph.graph import Graph
from .stats import MiningStats

# visit(current_set) -> True to extend further, False to prune the branch.
VisitFn = Callable[[Sequence[int]], bool]
# leaves(prefix, children): every set prefix + [w], w in children, is a
# set of max_size vertices; nothing is grown from them.
LeavesFn = Callable[[List[int], List[int]], None]


def _visit_each(visit: VisitFn) -> LeavesFn:
    """The per-leaf ``leaves``: ``visit`` on each leaf, last child first
    (the order the walk grows siblings in)."""

    def leaves(prefix: List[int], children: List[int]) -> None:
        for w in reversed(children):
            prefix.append(w)
            visit(prefix)
            prefix.pop()

    return leaves


def explore_connected_sets(
    graph: Graph,
    max_size: int,
    visit: VisitFn,
    roots: Optional[Iterable[int]] = None,
    stats: Optional[MiningStats] = None,
    leaves: Optional[LeavesFn] = None,
) -> None:
    """Visit every connected vertex set of size <= ``max_size`` once.

    Sets are visited in growth order: every proper prefix of a set's
    enumeration chain is a connected subset of it, so monotone pruning
    predicates (anything true of a set that stays true of supersets)
    may safely cut branches in ``visit``.

    The walk is depth-first over one ``current`` list, whatever
    ``visit`` answers: when a set of k > 1 vertices is visited, the
    latest visited set of k - 1 vertices is ``current[:-1]``.  A
    ``visit`` may therefore carry per-branch state in a stack indexed
    by ``len(current)`` (state of depth k from state of depth k - 1
    and ``current[-1]``) instead of recomputing it from the whole set.

    Sets of ``max_size`` > 1 vertices go to ``leaves`` one sibling
    batch per call (module docstring) instead of to ``visit``; single
    roots of a ``max_size`` 1 walk still go to ``visit``.  The prefix
    order above holds for them too: ``prefix`` is the latest visited
    set of ``max_size - 1`` vertices.

    Counters are added per sibling batch, ahead of the visits: on a
    completed walk ``extensions_attempted`` / ``rl_paths`` count every
    visited set (leaves included) exactly; if ``visit`` or ``leaves``
    raises, they also include the unvisited siblings of each set on
    the abandoned branch.
    """
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    stats = stats if stats is not None else MiningStats()
    if leaves is None:
        leaves = _visit_each(visit)
    for root in roots if roots is not None else graph.vertices():
        stats.etasks_started += 1
        current = [root]
        stats.rl_paths += 1
        if max_size > 1 and visit(current):
            extension = [u for u in graph.neighbors(root) if u > root]
            _extend(
                graph, current, extension, root, max_size, visit, leaves,
                stats,
            )
        elif max_size == 1:
            visit(current)
        stats.etasks_completed += 1


def _extend(
    graph: Graph,
    current: List[int],
    extension: List[int],
    root: int,
    max_size: int,
    visit: VisitFn,
    leaves: LeavesFn,
    stats: MiningStats,
) -> None:
    # ESU: each extension vertex spawns one branch and is excluded from
    # later siblings, which is what makes every set appear exactly once.
    ext = list(extension)
    stats.extensions_attempted += len(ext)
    stats.rl_paths += len(ext)
    if len(current) + 1 == max_size:
        # Children cannot grow: the whole batch is one call.
        leaves(current, ext)
        return
    neighborhood = set()
    for v in current:
        neighborhood.update(graph.neighbors(v))
    while ext:
        w = ext.pop()
        current.append(w)
        if visit(current):
            new_ext = ext + [
                u
                for u in graph.neighbors(w)
                if u > root and u not in neighborhood and u != w
            ]
            _extend(
                graph, current, new_ext, root, max_size, visit, leaves,
                stats,
            )
        current.pop()


def count_connected_sets(graph: Graph, max_size: int) -> int:
    """Total connected vertex sets up to ``max_size`` (testing helper)."""
    counter = {"n": 0}

    def visit(_current: Sequence[int]) -> bool:
        counter["n"] += 1
        return True

    explore_connected_sets(graph, max_size, visit)
    return counter["n"]
