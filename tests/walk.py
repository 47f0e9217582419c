"""The oracle walker: a step program interpreted from a bound prefix.

The engine runs generated functions
(:func:`repro.patterns.codegen.step_program`); this explicit-stack
walker is what they replaced, kept beside the tests that check every
generated function against it (``tests/test_step_programs.py``).

A step program is one :data:`~repro.patterns.plan.PlanStep` record per
slot of a partial match.  An ETask walks its
:class:`~repro.patterns.plan.ExplorationPlan`'s program from ``[root]``;
a VTask walks a :class:`~repro.core.vtask.BridgeRecipe`'s (slots
``0..k−1`` are the aligned P^M match, no bounds) from that match ``S``:
§5.2's fused VTask continues the ETask's walk.  Pools come from the
shared cache through :func:`~repro.mining.candidates.raw_intersection`
or :func:`~repro.mining.candidates.kernel_pool`, ascending.
"""

from __future__ import annotations

import sys
from itertools import filterfalse
from typing import Callable, Iterator, List, Optional, Sequence

from repro.exec.context import CancellationToken, TaskContext
from repro.exec.events import KERNEL_INTERSECT
from repro.graph.graph import Graph
from repro.graph.index import GraphIndex, bits_to_sorted
from repro.mining.cache import SetOperationCache
from repro.mining.candidates import kernel_pool, raw_intersection
from repro.mining.stats import MiningStats
from repro.patterns.plan import PlanStep

#: ``hi`` of a step without upper bounds.
_UNBOUNDED = sys.maxsize


def walk(
    steps: Sequence[PlanStep],
    bound: List[int],
    graph: Graph,
    index: Optional[GraphIndex],
    cache: SetOperationCache,
    stats: MiningStats,
    tick: Optional[Callable[[], None]],
    token: Optional[CancellationToken],
    obs: Optional[TaskContext],
    paths: Optional[MiningStats],
    first: bool,
) -> Iterator[List[int]]:
    """Depth-first walk of ``steps`` from ``bound``, on an explicit stack.

    Yields ``bound`` itself whenever every slot is bound.  Every node
    calls ``tick`` and ends the walk if ``token`` is cancelled; every
    incomplete node counts a candidate computation and, when ``obs`` is
    given, emits ``kernel_intersect``.  ``paths``, if given, gets the
    RL-path counters: ``rl_paths`` per match and dead end,
    ``matches_found``, ``extensions_attempted`` per descent.

    Enumerate mode filters each pool eagerly, so a step without
    candidates is a dead end.  First-match mode (``first``, Algorithm 2)
    ends after the first yield and filters a ``sets`` pool lazily: each
    candidate is tested just before the walk descends into it, so a
    walk that succeeds early never filters the rest of the pool, and a
    step without bounds or non-neighbours allocates no filter (short
    VTask walks are many; GC pressure is their cost).
    """
    full = len(steps)
    frames: List[Iterator[int]] = []
    while True:
        if tick is not None:
            tick()
        if token is not None and token.cancelled:
            return
        slot = len(bound)
        if slot == full:
            if paths is not None:
                paths.rl_paths += 1
                paths.matches_found += 1
            yield bound
            if first:
                return
            bound.pop()
        else:
            if obs is not None:
                obs.emit(KERNEL_INTERSECT, count=1)
            stats.candidate_computations += 1
            _, anchors, nonneighbors, label, lower, upper = steps[slot]
            lo = -1
            if lower:
                for j in lower:
                    if bound[j] > lo:
                        lo = bound[j]
            hi = _UNBOUNDED
            if upper:
                for j in upper:
                    if bound[j] < hi:
                        hi = bound[j]
            anchor_data = [bound[j] for j in anchors]
            candidates: List[int]
            if index is None:
                members = raw_intersection(graph, anchor_data, cache, stats)
                if first:
                    candidates = sorted(members)
                else:
                    # The non-neighbours' adjacency goes at C speed,
                    # bounds and injectivity in one pass, then one sort.
                    for j in nonneighbors:
                        members = members - graph.neighbor_set(bound[j])
                    candidates = sorted(
                        [v for v in members if lo < v < hi and v not in bound]
                    )
                if label is not None:
                    labels = graph.labels
                    candidates = [
                        v for v in candidates if labels[v] == label
                    ] if labels is not None else []
            else:
                pool = kernel_pool(index, anchor_data, label, cache, stats)
                if isinstance(pool, int):
                    # Bounds, injectivity and non-neighbours as masks
                    # before the one decode.
                    if pool:
                        if lower:
                            pool &= -1 << (lo + 1)
                        if upper:
                            pool &= (1 << hi) - 1
                        for v in bound:
                            if pool >> v & 1:
                                pool -= 1 << v
                        for j in nonneighbors:
                            if not pool:
                                break
                            pool &= ~index.neighbor_bits(bound[j])
                    candidates = bits_to_sorted(pool)
                else:
                    # An ascending, label-filtered tuple: the same pass
                    # keeps it ascending, no sort.
                    candidates = [
                        v for v in pool if lo < v < hi and v not in bound
                    ]
                    for j in nonneighbors:
                        barred = index.graph.neighbor_set(bound[j])
                        candidates = [
                            v for v in candidates if v not in barred
                        ]
            if candidates:
                frame: Iterator[int] = iter(candidates)
                if first and index is None:
                    if lower:
                        frame = filter(lo.__lt__, frame)
                    if upper:
                        frame = filter(hi.__gt__, frame)
                    for j in nonneighbors:
                        frame = filterfalse(
                            graph.neighbor_set(bound[j]).__contains__, frame
                        )
                frames.append(frame)
            else:
                # Dead end: this root-to-leaf path ends below a match.
                if paths is not None:
                    paths.rl_paths += 1
                bound.pop()
        while frames:
            v = next(frames[-1], -1)
            if v >= 0:
                if first and v in bound:
                    continue
                if paths is not None:
                    paths.extensions_attempted += 1
                bound.append(v)
                break
            frames.pop()
            bound.pop()
        else:
            return
