"""Delta re-validation vs. scratch re-mine on small mutation batches.

The acceptance row for the standing-query subsystem: a batch touching
at most 1% of the edges must be absorbed by the incremental path
(frontier → one ring of pattern-diameter radius → re-mine rooted in
the ring, see ``repro.mining.incremental``) at least twice as fast on
average as a from-scratch re-mine of the new version.  The report
records per-trial wall-clock for both paths, the speedup, and the
frontier/region sizes the delta planner produced — the same quantities
the daemon exports as ``repro_incremental_*`` metrics.

The substrate is a planted-community graph, where the ring stays
inside a handful of communities.  At γ 0.8 and size ≤ 4 every pattern
is a clique, so the radius is one hop and the ring is the touched
vertices' neighbourhoods.  Queries with non-clique patterns have a
radius of two or three hops; the wider the ring relative to the
graph's diameter, the closer the delta path comes to a full re-mine
plus planning overhead — incrementality pays off when the graph is
large relative to the query's reach, which is the deployment regime.

Equivalence (incremental added/retracted == scratch set-diff) is
asserted inline for every trial; the randomized property suite in
``tests/test_incremental.py`` is the broader oracle.

Results go to ``benchmarks/results/incremental_micro.txt``.
"""

import random
import time

from repro.bench import format_table
from repro.graph.generators import community_graph
from repro.graph.store import MutationBatch, graph_store, reset_default_store
from repro.mining.incremental import (
    StandingQuery,
    SubscriptionRegistry,
    scratch_index,
)
from repro.obs.metrics import MetricsRegistry

from _common import emit, run_once

GAMMA = 0.8
MAX_SIZE = 4
TRIALS = 5
BATCH_EDGES = 6  # ~0.2% of the graph's edges, well under the 1% cap


def _small_batch(rng, graph):
    """A structural batch touching ``BATCH_EDGES`` random edges."""
    edges = sorted(
        (u, v)
        for u in graph.vertices()
        for v in graph.neighbors(u)
        if u < v
    )
    n = graph.num_vertices
    k = BATCH_EDGES // 2
    removes = rng.sample(edges, k=min(len(edges), k))
    non_edges = []
    while len(non_edges) < k:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and v not in graph.neighbors(u):
            non_edges.append((min(u, v), max(u, v)))
    return MutationBatch.of(add_edges=non_edges, remove_edges=removes)


def _experiment():
    reset_default_store()
    store = graph_store()
    graph = community_graph(
        80, 12, intra_probability=0.5, inter_edges=1, seed=3, name="comm"
    )
    store.register(graph, "comm-dyn")
    query = StandingQuery.mqc(GAMMA, MAX_SIZE)
    metrics = MetricsRegistry()
    registry = SubscriptionRegistry(metrics=metrics)
    registry.attach(store)
    updates = []
    registry.subscribe("comm-dyn", query, sink=updates.append)

    rng = random.Random(7)
    assert BATCH_EDGES <= graph.num_edges // 100  # the <= 1% contract
    rows = []
    for trial in range(TRIALS):
        old = store.latest("comm-dyn")
        batch = _small_batch(rng, old.graph)
        started = time.perf_counter()
        new = store.apply_batch("comm-dyn", batch)
        delta_seconds = time.perf_counter() - started
        update = updates[-1]
        assert update.mode == "delta", update.mode

        started = time.perf_counter()
        fresh = scratch_index(new.graph, query)
        scratch_seconds = time.perf_counter() - started

        # Equivalence against the scratch oracle, every trial.
        old_index = scratch_index(old.graph, query)
        assert {
            (p.structure_key(), a) for p, a in update.added
        } == fresh.keys() - old_index.keys()
        assert {
            (p.structure_key(), a) for p, a in update.retracted
        } == old_index.keys() - fresh.keys()

        rows.append(
            [
                f"t{trial}",
                len(batch.add_edges) + len(batch.remove_edges),
                update.frontier_size,
                update.region_size,
                update.revalidated,
                f"+{len(update.added)}/-{len(update.retracted)}",
                f"{delta_seconds * 1e3:.1f}",
                f"{scratch_seconds * 1e3:.1f}",
                f"{scratch_seconds / delta_seconds:.1f}x",
            ]
        )
    table = format_table(
        [
            "trial", "edges", "frontier", "region",
            "revalidated", "delta", "delta_ms", "scratch_ms", "speedup",
        ],
        rows,
    )
    registry.detach()
    speedups = [float(r[-1][:-1]) for r in rows]
    return table, speedups, metrics.to_prometheus()


def test_delta_beats_scratch_on_small_batches(benchmark):
    table, speedups, prometheus = run_once(benchmark, _experiment)
    lines = [
        f"incremental delta vs scratch re-mine "
        f"(80x12 community graph, gamma={GAMMA}, max_size={MAX_SIZE}, "
        f"batches <= 1% of edges)",
        "",
        table,
        "",
        "delta planner metrics (as exported by the daemon):",
    ]
    lines += [
        line
        for line in prometheus.splitlines()
        if line.startswith("repro_incremental_")
    ]
    emit("incremental_micro", "\n".join(lines))
    # Acceptance: the delta path is at least twice as fast on average
    # over small batches (individual trials vary with frontier
    # placement).
    mean = sum(speedups) / len(speedups)
    assert mean >= 2.0, f"delta under 2x scratch: {speedups}"
