"""The ETask walker, pinned.

An ETask walks its plan's compiled step program
(:attr:`repro.patterns.plan.ExplorationPlan.steps`) on an explicit
stack.  The pins below are the counters and the *ordered* match list of
the recursive walk it replaced (``compute_candidates`` per node), read
from that implementation: the walker must visit the same nodes in the
same order.  Each case runs on the ``sets`` path and on the kernels
(``auto`` over a graph dense enough to engage them, with both bitset
and tuple pools), and both must equal the one pin — so sets == kernels
at the ETask level too.

The engine run at the bottom pins a whole MQC run's
``ConstraintStats`` minus the cache counters: runs are root-major
within a pattern size over one cache per (size, root), which may move
cache traffic and nothing else.
"""

import hashlib
import random

import pytest

from repro.apps.mqc import maximal_quasi_cliques
from repro.exec.context import TaskContext
from repro.graph import Graph, erdos_renyi, resolve_index
from repro.graph.index import BITSET_MIN_DEGREE
from repro.mining import MiningEngine
from repro.mining.etask import run_single_pattern
from repro.patterns import Pattern, clique, path, plan_for, star, triangle

#: Counters the walker must not move (cache traffic may).
WALK_COUNTERS = (
    "matches_found",
    "rl_paths",
    "candidate_computations",
    "extensions_attempted",
    "etasks_completed",
)

#: Counters a shared per-(size, root) cache is allowed to move.
CACHE_COUNTERS = (
    "cache_hits",
    "cache_misses",
    "cache_hit_rate",
    "set_intersections",
    "bitset_intersections",
)


def two_tier(seed, num_labels=0, core_n=24, total_n=30, p=0.9):
    """A dense core plus a degree-2 periphery, average degree >= 16:
    ``auto`` engages the kernels, and pools come in both forms
    (bitsets seeded in the core, tuples seeded in the periphery)."""
    rng = random.Random(seed)
    core = erdos_renyi(core_n, p, seed=seed)
    adjacency = [list(core.neighbors(v)) for v in core.vertices()]
    adjacency.extend([] for _ in range(total_n - core_n))
    for v in range(core_n, total_n):
        for u in sorted(rng.sample(range(core_n), 2)):
            adjacency[v].append(u)
            adjacency[u].append(v)
    labels = (
        [rng.randrange(num_labels) for _ in range(total_n)]
        if num_labels
        else None
    )
    graph = Graph(adjacency, labels=labels, name=f"two-tier-{seed}")
    assert resolve_index(graph, "auto") is not None
    degrees = [graph.degree(v) for v in graph.vertices()]
    assert min(degrees) < BITSET_MIN_DEGREE <= max(degrees)
    return graph


def open_wedge():
    """A path of two edges whose ends must NOT be adjacent: an anti-edge
    (a non-neighbour step even under edge-induced semantics)."""
    return Pattern(3, [(0, 1), (1, 2)], anti_edges=[(0, 2)], name="wedge")


GRAPHS = {
    "plain": lambda: two_tier(seed=3),
    "labelled": lambda: two_tier(seed=4, num_labels=2),
}

PATTERNS = {
    "clique4": clique(4),
    "star3": star(3),
    "path3": path(3),
    "wedge": open_wedge(),
    "labelled-triangle": Pattern(
        3, [(0, 1), (1, 2), (0, 2)], labels=[0, 1, 1]
    ),
    "labelled-path": Pattern(3, [(0, 1), (1, 2)], labels=[1, 0, 1]),
}

#: (graph, pattern) pairs; labelled patterns run on the labelled graph.
PAIRS = [
    ("plain", "clique4"),
    ("plain", "star3"),
    ("plain", "path3"),
    ("plain", "wedge"),
    ("labelled", "clique4"),
    ("labelled", "labelled-triangle"),
    ("labelled", "labelled-path"),
    ("labelled", "wedge"),
]


def digest(assignments):
    """A short hash of an *ordered* match list."""
    text = "\n".join(repr(a) for a in assignments)
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]


def walk(graph_key, pattern_key, induced, adjacency, ctx=None):
    """Counters, match count and ordered-match digest of one
    ``run_single_pattern`` over every root."""
    found = []
    stats = run_single_pattern(
        GRAPHS[graph_key](),
        plan_for(PATTERNS[pattern_key], induced=induced),
        lambda match: found.append(match.assignment),
        ctx=ctx,
        adjacency=adjacency,
    )
    counters = {name: getattr(stats, name) for name in WALK_COUNTERS}
    return counters, len(found), digest(found), stats


#: Read from the recursive walk (``compute_candidates`` per node):
#: (graph, pattern, induced) -> (counters in WALK_COUNTERS order,
#: matches, ordered-match digest).
PINS = {
    ("plain", "clique4", True):
        ((5915, 6190, 1806, 7691, 30), 5915, "80f1a0d593096a21"),
    ("plain", "clique4", False):
        ((5915, 6190, 1806, 7691, 30), 5915, "80f1a0d593096a21"),
    ("plain", "star3", True):
        ((238, 905, 1254, 1462, 30), 238, "30f003d03fe51ed4"),
    ("plain", "star3", False):
        ((34161, 34685, 5796, 39927, 30), 34161, "f1696b81422e8d2e"),
    ("plain", "path3", True):
        ((569, 1544, 1954, 2493, 30), 569, "70ac129991f272da"),
    ("plain", "path3", False):
        ((100079, 100702, 11038, 111087, 30), 100079, "380c34ad3629f44a"),
    ("plain", "wedge", True):
        ((700, 875, 554, 1224, 30), 700, "25c8a6e434348ddc"),
    ("plain", "wedge", False):
        ((700, 875, 554, 1224, 30), 700, "25c8a6e434348ddc"),
    ("labelled", "clique4", True):
        ((5146, 5416, 1704, 6820, 30), 5146, "b27fee3c6f37ac18"),
    ("labelled", "clique4", False):
        ((5146, 5416, 1704, 6820, 30), 5146, "b27fee3c6f37ac18"),
    ("labelled", "labelled-triangle", True):
        ((580, 600, 150, 716, 14), 580, "a570b92736d21079"),
    ("labelled", "labelled-triangle", False):
        ((580, 600, 150, 716, 14), 580, "a570b92736d21079"),
    ("labelled", "labelled-path", True):
        ((102, 174, 150, 238, 14), 102, "f68fe7054698054c"),
    ("labelled", "labelled-path", False):
        ((682, 696, 150, 818, 14), 682, "3f5719cc0fe88921"),
    ("labelled", "wedge", True):
        ((778, 913, 544, 1292, 30), 778, "a435672c82649d6b"),
    ("labelled", "wedge", False):
        ((778, 913, 544, 1292, 30), 778, "a435672c82649d6b"),
    "early-close":
        ((25, 25, 4, 28, 0), "bc888e918f4cca3f"),
    "pre-cancelled":
        (0, 0, 0, 0, 30),
}


@pytest.mark.parametrize("adjacency", ["sets", "auto"])
@pytest.mark.parametrize("induced", [True, False], ids=["induced", "edge"])
@pytest.mark.parametrize("graph_key,pattern_key", PAIRS)
def test_walk_counters_and_order_pinned(
    graph_key, pattern_key, induced, adjacency
):
    counters, matches, order, stats = walk(
        graph_key, pattern_key, induced, adjacency
    )
    want_counters, want_matches, want_order = PINS[
        (graph_key, pattern_key, induced)
    ]
    assert tuple(counters[name] for name in WALK_COUNTERS) == want_counters
    assert (matches, order) == (want_matches, want_order)
    assert counters["matches_found"] == matches
    if adjacency == "sets":
        assert stats.bitset_intersections == 0


def test_early_closed_generator_stops_mid_walk():
    """Closing the stream stops the walk where it stands: the open task
    is never completed, and no node past the last yielded match was
    visited."""
    graph = GRAPHS["plain"]()
    for adjacency in ("sets", "auto"):
        engine = MiningEngine(graph, induced=True, adjacency=adjacency)
        stream = engine.stream(clique(4))
        taken = [next(stream).assignment for _ in range(25)]
        stream.close()
        assert digest(taken) == PINS["early-close"][1]
        assert tuple(
            getattr(engine.stats, name) for name in WALK_COUNTERS
        ) == PINS["early-close"][0]


def test_pre_cancelled_token_visits_nothing():
    """A cancelled token stops every task at its root: no candidate is
    computed, and each task still counts as completed (it ran to the
    end of its — empty — walk)."""
    ctx = TaskContext.create()
    ctx.cancel("before the run")
    for adjacency in ("sets", "auto"):
        counters, matches, _, stats = walk(
            "plain", "clique4", True, adjacency, ctx=ctx
        )
        assert matches == 0
        assert tuple(
            counters[name] for name in WALK_COUNTERS
        ) == PINS["pre-cancelled"]
        assert stats.cache_hits + stats.cache_misses == 0


def test_induced_non_neighbours_and_anti_edges():
    """A non-neighbour step rejects candidates adjacent to the slot's
    data vertex: induced plans for every pattern non-edge, edge-induced
    plans only for anti-edges."""
    graph = erdos_renyi(5, 1.0, seed=0)  # K5: every pair adjacent
    for induced, pattern, want in (
        (True, path(2), 0),
        (False, path(2), 30),
        (False, open_wedge(), 0),
        (True, triangle(), 10),
    ):
        stats = run_single_pattern(
            graph, plan_for(pattern, induced=induced), lambda m: False
        )
        assert stats.matches_found == want, (induced, pattern)


#: Small MQC runs at gamma 0.6 — sizes 3 / 4 / 5 mine 1 / 3 / 3
#: patterns, so the larger sizes run several patterns root-major over
#: one cache per root.  adjacency -> (graph, max size).
MQC_RUNS = {
    "sets": (lambda: erdos_renyi(40, 0.3, seed=11), 5),
    "auto": (GRAPHS["plain"], 4),
}

#: Read from the pattern-major run (a cold cache per (pattern, root)):
#: (maximal sets, ConstraintStats minus CACHE_COUNTERS), and its hits.
MQC_PINS = {
    "sets": (1253, {
        "etasks_started": 280, "etasks_completed": 280, "rl_paths": 5480,
        "matches_found": 2384, "candidate_computations": 13487,
        "galloping_intersections": 0, "extensions_attempted": 8667,
        "vtasks_started": 4364, "vtasks_matched": 1131,
        "vtasks_canceled_lateral": 654,
        "vtask_cancel_rate": 0.13033080908728578, "etasks_canceled": 927,
        "etasks_skipped": 0, "promotions": 927, "constraint_checks": 3233,
        "matches_checked": 2384, "eager_filter_cuts": 0, "bridge_steps": 881,
    }),
    "auto": (9751, {
        "etasks_started": 120, "etasks_completed": 120, "rl_paths": 14450,
        "matches_found": 11265, "candidate_computations": 10737,
        "galloping_intersections": 0, "extensions_attempted": 18836,
        "vtasks_started": 3034, "vtasks_matched": 1514,
        "vtasks_canceled_lateral": 1508,
        "vtask_cancel_rate": 0.33201232937032144, "etasks_canceled": 6022,
        "etasks_skipped": 0, "promotions": 6022, "constraint_checks": 1520,
        "matches_checked": 11265, "eager_filter_cuts": 0, "bridge_steps": 0,
    }),
}
PATTERN_MAJOR_HITS = {"sets": 5702, "auto": 6409}


@pytest.mark.parametrize("adjacency", ["sets", "auto"])
def test_mqc_constraint_stats_pinned_outside_the_cache(adjacency):
    graph, max_size = MQC_RUNS[adjacency]
    result = maximal_quasi_cliques(graph(), 0.6, max_size, adjacency=adjacency)
    stats = result.raw.stats.as_dict()
    moved = {name: stats.pop(name) for name in CACHE_COUNTERS}
    assert (len(result.all_sets()), stats) == MQC_PINS[adjacency]
    # Same-size patterns share each root's cache: more hits than the
    # pattern-major run.
    assert moved["cache_hits"] > PATTERN_MAJOR_HITS[adjacency]
    assert (moved["bitset_intersections"] > 0) == (adjacency == "auto")
