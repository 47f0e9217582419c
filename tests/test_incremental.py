"""Standing queries and delta-driven re-exploration.

Covers ``repro.mining.incremental`` bottom-up: the touched-vertex
frontier, the pattern radius, BFS region expansion over the union
adjacency, the ``SubscriptionRegistry`` lifecycle (baseline seeding,
store-listener wiring, sink delivery, scratch fallback, metrics),
and — the anchor — the delta-equivalence property oracle: for random
(graph, batch) pairs, the incremental added/retracted sets must equal
the set-diff of scratch re-mines of the two versions, under all three
schedulers.
"""

import random

import pytest

from repro.apps.nsq import paper_query_tailed_triangles
from repro.bench import dataset
from repro.core.constraints import ConstraintSet, nested_query_constraints
from repro.errors import TimeLimitExceeded
from repro.graph import Graph, erdos_renyi
from repro.graph.generators import community_graph
from repro.graph.store import (
    MutationBatch,
    derived_cache,
    graph_store,
    reset_default_store,
)
from repro.mining.incremental import (
    StandingQuery,
    SubscriptionRegistry,
    _index_of,
    _run_region,
    delta_frontier,
    expand_frontier,
    pattern_diameter,
    pattern_radius,
    scratch_index,
)
from repro.patterns import Pattern
from repro.obs.metrics import MetricsRegistry

SCHEDULERS = (None, "process", "workqueue")


@pytest.fixture(autouse=True)
def fresh_store():
    reset_default_store()
    yield
    reset_default_store()


def _registry(**kwargs):
    reg = SubscriptionRegistry(**kwargs)
    reg.attach(graph_store())
    return reg


def _triangle_batch(n):
    """Append a disjoint triangle: a guaranteed new maximal QC."""
    return MutationBatch.of(
        add_vertices=3, add_edges=[(n, n + 1), (n, n + 2), (n + 1, n + 2)]
    )


# ----------------------------------------------------------------------
# Delta planning units
# ----------------------------------------------------------------------


class TestDeltaFrontier:
    def test_covers_edges_labels_and_appended_vertices(self):
        batch = MutationBatch.of(
            add_edges=[(0, 3)],
            remove_edges=[(5, 6)],
            set_labels=[(8, 1)],
            add_vertices=2,
        )
        assert delta_frontier(batch, 10) == frozenset(
            {0, 3, 5, 6, 8, 10, 11}
        )

    def test_empty_batch_has_empty_frontier(self):
        assert delta_frontier(MutationBatch.of(), 10) == frozenset()


def _tailed_triangle_query():
    """NSQ: tailed triangles outside the braced and dumbbell P⁺."""
    p_m, p_plus = paper_query_tailed_triangles()
    return StandingQuery(constraint_set=nested_query_constraints(p_m, p_plus))


class TestPatternRadius:
    def test_radius_is_largest_pattern_diameter(self):
        # γ 0.8, size ≤ 4: the triangle and K4, every pattern a clique.
        query = StandingQuery.mqc(0.8, 4)
        assert query.radius == pattern_radius(query.constraint_set) == 1
        # γ 0.6, size ≤ 5: a 5-vertex quasi-clique leaves some pair of
        # vertices two hops apart.
        assert StandingQuery.mqc(0.6, 5).radius == 2
        # Two triangles joined by a bridge: opposite ends are 3 hops
        # apart, and the radius follows the P⁺, not the 4-vertex P.
        _, p_plus = paper_query_tailed_triangles()
        (dumbbell,) = [p for p in p_plus if p.name == "dumbbell"]
        assert pattern_diameter(dumbbell) == 3
        assert _tailed_triangle_query().radius == 3

    def test_radius_floor_is_one(self):
        assert pattern_radius(ConstraintSet([], [])) == 1

    def test_diameter_is_memoized(self):
        path = Pattern(4, [(0, 1), (1, 2), (2, 3)])
        assert pattern_diameter(path) == 3
        before = pattern_diameter.cache_info()
        assert pattern_diameter(Pattern(4, [(0, 1), (1, 2), (2, 3)])) == 3
        after = pattern_diameter.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)
        assert pattern_diameter(Pattern(1, [])) == 0

    def test_disconnected_pattern_has_no_diameter(self):
        with pytest.raises(ValueError, match="disconnected"):
            pattern_diameter(Pattern(4, [(0, 1), (2, 3)]))


class TestExpandFrontier:
    def _path(self, n):
        rows = [[] for _ in range(n)]
        for v in range(n - 1):
            rows[v].append(v + 1)
            rows[v + 1].append(v)
        return Graph([sorted(r) for r in rows])

    def test_bfs_hops_on_a_path(self):
        g = self._path(6)
        assert expand_frontier({0}, 2, g, g) == frozenset({0, 1, 2})
        assert expand_frontier({3}, 1, g, g) == frozenset({2, 3, 4})
        assert expand_frontier({0}, 0, g, g) == frozenset({0})

    def test_union_adjacency_reaches_through_removed_edges(self):
        old = self._path(4)
        new = Graph([[], [2], [1, 3], [2]])  # edge 0-1 removed
        # From 0 the old rows still carry reach to the destroyed match.
        assert 1 in expand_frontier({0}, 1, old, new)

    def test_appended_vertices_use_new_rows_only(self):
        old = self._path(3)
        new = Graph([[1], [0, 2], [1, 3], [2]])  # vertex 3 appended
        region = expand_frontier({3}, 1, old, new)
        assert region == frozenset({2, 3})

    def test_out_of_range_seeds_are_dropped(self):
        g = self._path(3)
        assert expand_frontier({99}, 2, g, g) == frozenset()


class TestRegionMining:
    def test_full_root_universe_equals_unrestricted_run(self):
        g = erdos_renyi(16, 0.35, seed=3)
        query = StandingQuery.mqc(0.8, 4)
        full = scratch_index(g, query)
        restricted = _index_of(
            _run_region(query, g, list(g.vertices()))
        )
        assert restricted.keys() == full.keys()

    @pytest.mark.parametrize("scheduler", ("serial", "process", "workqueue"))
    def test_region_rerun_keeps_the_time_limit(self, scheduler):
        """A delta pass's region re-mine runs under the query's time
        limit on every scheduler: an explicit root region once let the
        work-queue run ignore it and return a result."""
        g = dataset("dblp")
        query = StandingQuery.mqc(
            0.6, 6, scheduler=scheduler, time_limit=0.05
        )
        with pytest.raises(TimeLimitExceeded):
            _run_region(query, g, list(g.vertices()))

    def test_lazy_reexport_from_mining_package(self):
        import repro.mining as mining
        from repro.mining import incremental

        assert mining.SubscriptionRegistry is incremental.SubscriptionRegistry
        assert mining.delta_frontier is incremental.delta_frontier
        with pytest.raises(AttributeError):
            mining.not_a_real_symbol


# ----------------------------------------------------------------------
# SubscriptionRegistry lifecycle
# ----------------------------------------------------------------------


class TestSubscriptionRegistry:
    def test_subscribe_seeds_baseline_index(self):
        g = erdos_renyi(18, 0.3, seed=9, name="reg")
        graph_store().register(g, "reg")
        reg = _registry()
        query = StandingQuery.mqc(0.8, 4)
        sub = reg.subscribe("reg", query, tenant="t")
        assert sub.matches == len(scratch_index(g, query))
        assert sub.last_version_key == g.version_key
        assert len(reg) == 1
        listed = reg.subscriptions()
        assert [s.id for s in listed] == [sub.id]
        assert listed[0].to_dict()["tenant"] == "t"

    def test_subscribe_unknown_name_raises(self):
        with pytest.raises(KeyError):
            _registry().subscribe("ghost", StandingQuery.mqc(0.8, 4))

    def test_delta_adds_then_retracts_the_appended_triangle(self):
        g = erdos_renyi(18, 0.3, seed=9, name="reg")
        store = graph_store()
        store.register(g, "reg")
        reg = _registry()
        updates = []
        sub = reg.subscribe(
            "reg", StandingQuery.mqc(0.8, 4), sink=updates.append
        )
        baseline = sub.matches
        n = g.num_vertices

        store.apply_batch("reg", _triangle_batch(n))
        (grow,) = updates  # one delta pass per batch
        assert (grow.subscription, grow.graph) == (sub.id, "reg")
        assert grow.mode == "delta"
        assert grow.frontier_size == 3
        triangle = (n, n + 1, n + 2)
        assert any(a == triangle for _, a in grow.added)
        assert not grow.retracted
        assert sub.matches == baseline + len(grow.added)

        # Retraction is an index lookup on the cached old version —
        # mode stays "delta", and the vanished triangle is reported.
        store.apply_batch(
            "reg", MutationBatch.of(remove_edges=[(n, n + 1)])
        )
        assert len(updates) == 2
        shrink = updates[-1]
        assert shrink.mode == "delta"
        assert any(a == triangle for _, a in shrink.retracted)
        assert sub.deltas == 2
        assert sub.added_total >= 1
        assert sub.retracted_total >= 1

    def test_evicted_index_degrades_to_scratch_not_wrong(self):
        g = erdos_renyi(18, 0.3, seed=9, name="reg")
        store = graph_store()
        store.register(g, "reg")
        reg = _registry()
        updates = []
        sub = reg.subscribe(
            "reg", StandingQuery.mqc(0.8, 4), sink=updates.append
        )
        # Simulate cache pressure: the old version's index is gone.
        derived_cache().invalidate(
            g.version_key, ("standing_matches", sub.id)
        )
        n = g.num_vertices
        store.apply_batch("reg", _triangle_batch(n))
        update = updates[-1]
        assert update.mode == "scratch"
        assert any(a == (n, n + 1, n + 2) for _, a in update.added)

    def test_empty_effective_batch_is_noop(self):
        g = erdos_renyi(12, 0.3, seed=5, name="reg")
        store = graph_store()
        store.register(g, "reg")
        reg = _registry()
        reg.subscribe("reg", StandingQuery.mqc(0.8, 4))
        latest = store.latest("reg")
        updates = reg.on_batch("reg", latest, latest, MutationBatch.of())
        assert [u.mode for u in updates] == ["noop"]
        assert not updates[0].added and not updates[0].retracted

    def test_unsubscribe_and_detach_stop_delivery(self):
        g = erdos_renyi(12, 0.3, seed=5, name="reg")
        store = graph_store()
        store.register(g, "reg")
        reg = _registry()
        updates = []
        sub = reg.subscribe(
            "reg", StandingQuery.mqc(0.8, 4), sink=updates.append
        )
        assert reg.unsubscribe(sub.id)
        assert not reg.unsubscribe(sub.id)
        with pytest.raises(KeyError):
            reg.get(sub.id)
        store.apply_batch("reg", _triangle_batch(g.num_vertices))
        assert updates == []
        # Re-attach is idempotent (no double delivery), detach is final.
        reg.attach(store)
        reg.attach(store)
        sub2 = reg.subscribe(
            "reg", StandingQuery.mqc(0.8, 4), sink=updates.append
        )
        n2 = store.latest("reg").graph.num_vertices
        store.apply_batch("reg", _triangle_batch(n2))
        assert len(updates) == 1
        reg.detach()
        store.apply_batch(
            "reg", MutationBatch.of(remove_edges=[(n2, n2 + 1)])
        )
        assert len(updates) == 1
        assert reg.get(sub2.id).deltas == 1

    def test_failing_sink_is_isolated(self):
        g = erdos_renyi(12, 0.3, seed=5, name="reg")
        store = graph_store()
        store.register(g, "reg")
        reg = _registry()

        def bad_sink(update):
            raise RuntimeError("subscriber crashed")

        sub = reg.subscribe("reg", StandingQuery.mqc(0.8, 4), sink=bad_sink)
        # The mutation path must survive the broken subscriber.
        entry = store.apply_batch("reg", _triangle_batch(g.num_vertices))
        assert entry.version == 2
        assert reg.get(sub.id).deltas == 1

    def test_metrics_observed_per_delta(self):
        g = erdos_renyi(12, 0.3, seed=5, name="reg")
        store = graph_store()
        store.register(g, "reg")
        registry = MetricsRegistry()
        reg = _registry(metrics=registry)
        reg.subscribe("reg", StandingQuery.mqc(0.8, 4))
        store.apply_batch("reg", _triangle_batch(g.num_vertices))
        text = registry.to_prometheus()
        assert "repro_incremental_frontier_size" in text
        assert "repro_incremental_region_size" in text
        assert "repro_incremental_revalidated_matches" in text
        assert "repro_incremental_delta_seconds" in text
        assert "repro_incremental_matches_added" in text
        assert "repro_incremental_matches_retracted" in text


# ----------------------------------------------------------------------
# The property oracle: incremental == set-diff of scratch re-mines
# ----------------------------------------------------------------------


def _random_batch(rng, graph):
    """A random structural batch guaranteed to change the graph."""
    n = graph.num_vertices
    edges = sorted(
        (u, v) for u in graph.vertices() for v in graph.neighbors(u) if u < v
    )
    non_edges = sorted(
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if v not in graph.neighbors(u)
    )
    removes = rng.sample(edges, k=min(len(edges), rng.randint(1, 2)))
    adds = rng.sample(non_edges, k=min(len(non_edges), rng.randint(0, 2)))
    grow = rng.random() < 0.4
    if grow:
        # A vertex appended with edges into the existing graph.
        anchors = rng.sample(range(n), k=min(n, 3))
        adds = adds + [(a, n) for a in anchors]
    return MutationBatch.of(
        add_edges=adds, remove_edges=removes, add_vertices=1 if grow else 0
    )


def _assert_deltas_match_scratch(query, oracle, graph, trials, seed):
    """Drive ``trials`` random batches; check each against scratch."""
    rng = random.Random(seed)
    store = graph_store()
    store.register(graph, "dyn")
    reg = _registry()
    updates = []
    sub = reg.subscribe("dyn", query, sink=updates.append)
    for _ in range(trials):
        old = store.latest("dyn")
        batch = _random_batch(rng, old.graph)
        new = store.apply_batch("dyn", batch)
        assert new is not old, "random batch must mutate"
        update = updates[-1]
        old_idx = scratch_index(old.graph, oracle)
        new_idx = scratch_index(new.graph, oracle)
        expected_added = new_idx.keys() - old_idx.keys()
        expected_retracted = old_idx.keys() - new_idx.keys()
        got_added = {
            (p.structure_key(), a) for p, a in update.added
        }
        got_retracted = {
            (p.structure_key(), a) for p, a in update.retracted
        }
        assert got_added == expected_added
        assert got_retracted == expected_retracted
        assert update.mode == "delta"
        assert sub.matches == len(new_idx)
        # The stored per-version index equals a scratch re-mine.
        stored = derived_cache().peek(
            new.version_key, ("standing_matches", sub.id)
        )
        assert stored is not None
        assert stored.keys() == new_idx.keys()
    return updates


#: Standing queries whose patterns are not all cliques, so the radius
#: is above 1: (query, graph).  Planted communities joined by single
#: bridges keep every region short of the whole graph, so carry-over
#: is exercised on every batch.
NON_CLIQUE_CASES = {
    "mqc-0.6-5": (
        lambda: StandingQuery.mqc(0.6, 5),
        lambda: community_graph(
            10, 6, intra_probability=0.5, inter_edges=1, seed=5, name="dyn"
        ),
    ),
    "nsq-tailed-triangles": (
        _tailed_triangle_query,
        lambda: community_graph(
            12, 5, intra_probability=0.5, inter_edges=1, seed=5, name="dyn"
        ),
    ),
}


class TestDeltaEquivalenceOracle:
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_incremental_matches_scratch_setdiff(self, scheduler):
        query = StandingQuery.mqc(
            0.75, 4, scheduler=scheduler, n_workers=2
        )
        oracle = StandingQuery.mqc(0.75, 4)  # serial scratch re-mines
        _assert_deltas_match_scratch(
            query,
            oracle,
            erdos_renyi(20, 0.3, seed=41, name="dyn"),
            trials=4 if scheduler is None else 2,
            seed=0xC0117A6,
        )

    @pytest.mark.parametrize("case", sorted(NON_CLIQUE_CASES))
    def test_non_clique_query_matches_scratch_setdiff(self, case):
        make_query, make_graph = NON_CLIQUE_CASES[case]
        graph = make_graph()
        updates = _assert_deltas_match_scratch(
            make_query(), make_query(), graph, trials=8, seed=0x5EED
        )
        assert all(u.region_size < graph.num_vertices for u in updates)
        assert sum(len(u.added) + len(u.retracted) for u in updates) > 0

    def test_ring_boundary_is_exactly_the_radius(self):
        # A tailed triangle T = {0, 1, 2} + tail 3, a second tailed
        # triangle S = {0, 1, 2} + tail 6, and a half-built second
        # triangle on 3.  Closing it (edge 4-5) completes a dumbbell
        # around T, so T stops being valid although none of its edges
        # changed — and T's vertex 0 is exactly 3 hops (the radius)
        # from the touched edge.  S reaches 4 hops out: it straddles
        # the ring's edge and is unchanged.
        rows = [
            [1, 2, 6], [0, 2], [0, 1, 3], [2, 4, 5], [3], [3], [0],
        ]
        g = Graph(rows, name="ring")
        store = graph_store()
        store.register(g, "ring")
        query = _tailed_triangle_query()
        reg = _registry()
        updates = []
        sub = reg.subscribe("ring", query, sink=updates.append)
        old = store.latest("ring")
        new = store.apply_batch("ring", MutationBatch.of(add_edges=[(4, 5)]))
        (update,) = updates

        radius = query.radius
        assert radius == 3
        region = expand_frontier({4, 5}, radius, old.graph, new.graph)
        short = expand_frontier({4, 5}, radius - 1, old.graph, new.graph)
        assert 0 in region and 0 not in short
        assert 6 not in region

        old_idx = scratch_index(old.graph, query)
        new_idx = scratch_index(new.graph, query)
        t, s = frozenset({0, 1, 2, 3}), frozenset({0, 1, 2, 6})
        assert {frozenset(a) for _, a in old_idx} == {t, s}
        assert {frozenset(a) for _, a in new_idx} == {s}

        # The only changed match is T, retracted.
        assert not update.added
        assert [frozenset(a) for _, a in update.retracted] == [t]
        # S is carried over, not re-derived: only T was inside the ring.
        assert update.revalidated == 1
        assert update.region_size == update.to_dict()["root_region"] == 6
        stored = derived_cache().peek(
            new.version_key, ("standing_matches", sub.id)
        )
        assert stored.keys() == new_idx.keys()
