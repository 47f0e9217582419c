"""Versioned graph store: identity, derived caching, invalidation.

Covers the ``repro.graph.store`` subsystem end to end: content
fingerprints (including the count-string collision the old
``GraphStats.version`` had), the ``DerivedCache`` protocol and its
counters, cross-object artifact sharing (same content ⇒ same cached
index/adjacency-set/stats objects, including across pickle round
trips), ``MutationBatch``/``apply_mutation`` semantics, the
``GraphStore`` registry, and the mutation-equivalence property: mining
a batch-mutated graph is bit-identical to mining the same graph
rebuilt from scratch, on every scheduler, with stale derived artifacts
provably evicted.
"""

import gc
import pickle
import random
import weakref

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps import maximal_quasi_cliques
from repro.apps.mqc import build_mqc_engine
from repro.apps.nsq import nested_subgraph_query, paper_query_triangles
from repro.graph import Graph, erdos_renyi
from repro.graph.store import (
    DerivedCache,
    GraphStore,
    MutationBatch,
    apply_mutation,
    derived_cache,
    format_version_key,
    graph_fingerprint,
    graph_store,
    reset_default_store,
)

SCHEDULERS = ("serial", "process", "workqueue")


@pytest.fixture(autouse=True)
def fresh_store():
    """Isolate every test from globally accumulated store state."""
    reset_default_store()
    yield
    reset_default_store()


def _mine_mqc(graph, scheduler=None):
    return maximal_quasi_cliques(
        graph, gamma=0.8, max_size=4, min_size=3, scheduler=scheduler
    )


def _rebuilt(graph):
    """The same content built from scratch (no structure sharing)."""
    return Graph(
        [list(graph.neighbors(v)) for v in graph.vertices()],
        labels=graph.labels,
        name=graph.name,
    )


# ----------------------------------------------------------------------
# Content fingerprints
# ----------------------------------------------------------------------


class TestFingerprint:
    def test_content_addressed_not_name_addressed(self):
        rows = [[1], [0, 2], [1]]
        a = Graph(rows, name="left")
        b = Graph(rows, name="right")
        assert a.fingerprint == b.fingerprint
        assert a.version_key == "left@" + a.fingerprint[:12]
        assert b.version_key == "right@" + a.fingerprint[:12]
        assert a.version_key == format_version_key("left", a.fingerprint)

    def test_same_counts_different_structure_distinct(self):
        # The old GraphStats.version ("name:4v:2e:0l") collided here:
        # both graphs have 4 vertices, 2 edges, 0 labels.
        matching = Graph([[1], [0], [3], [2]], name="g")
        path = Graph([[1], [0, 2], [1], []], name="g")
        assert matching.fingerprint != path.fingerprint
        sa, sb = matching.stats_summary(), path.stats_summary()
        assert sa.size_signature == sb.size_signature  # the collision
        assert sa.version != sb.version  # the fix

    def test_labels_change_fingerprint(self):
        rows = [[1], [0]]
        assert (
            graph_fingerprint([(1,), (0,)], None)
            != graph_fingerprint([(1,), (0,)], (0, 1))
        )
        assert Graph(rows).fingerprint != Graph(rows, labels=[0, 1]).fingerprint

    def test_stats_carries_fingerprint_and_signature(self):
        g = erdos_renyi(12, 0.4, seed=3)
        stats = g.stats_summary()
        assert stats.fingerprint == g.fingerprint
        assert stats.version == g.version_key
        d = stats.to_dict()
        assert d["fingerprint"] == g.fingerprint
        assert "version_alias" not in d
        assert ":" in stats.size_signature  # the fingerprint-less fallback


# ----------------------------------------------------------------------
# DerivedCache protocol
# ----------------------------------------------------------------------


class TestDerivedCache:
    def test_miss_then_hit_builds_once(self):
        cache = DerivedCache()
        calls = []
        build = lambda: calls.append(1) or "artifact"  # noqa: E731
        assert cache.get_or_build("g@1", "stats", build) == "artifact"
        assert cache.get_or_build("g@1", "stats", build) == "artifact"
        assert calls == [1]
        assert cache.counters() == {
            "hits": 1, "misses": 1, "invalidations": 0,
        }

    def test_invalidate_version_counts_entries(self):
        cache = DerivedCache()
        cache.get_or_build("g@1", "a", dict)
        cache.get_or_build("g@1", "b", dict)
        cache.get_or_build("g@2", "a", dict)
        assert cache.invalidate("g@1") == 2
        assert cache.counters()["invalidations"] == 2
        assert cache.versions() == ["g@2"]

    def test_invalidate_single_artifact(self):
        cache = DerivedCache()
        cache.get_or_build("g@1", "a", dict)
        cache.get_or_build("g@1", "b", dict)
        assert cache.invalidate("g@1", artifact_key="a") == 1
        assert cache.artifact_count("g@1") == 1

    def test_version_lru_eviction(self):
        cache = DerivedCache(max_versions=2)
        cache.get_or_build("g@1", "a", dict)
        cache.get_or_build("g@2", "a", dict)
        cache.get_or_build("g@3", "a", dict)
        assert "g@1" not in cache.versions()
        assert cache.counters()["invalidations"] == 1

    def test_engine_leaves_only_its_graph_version(self):
        # Pattern facts (alignments, recipes, compiled programs,
        # containment, diameters) are memoised where they are
        # computed; the cache holds graph-version artifacts only.
        g = erdos_renyi(18, 0.3, seed=4)
        engine = build_mqc_engine(g, gamma=0.6, max_size=4, min_size=3)
        engine.run()
        assert derived_cache().versions() == [g.version_key]


# ----------------------------------------------------------------------
# Cross-object and cross-pickle artifact sharing
# ----------------------------------------------------------------------


class TestArtifactSharing:
    def test_same_content_graphs_share_artifacts(self):
        g1 = erdos_renyi(18, 0.3, seed=5)
        g2 = _rebuilt(g1)
        idx = g1.kernel_index()
        assert g2.kernel_index() is idx
        assert g2.neighbor_set(0) is g1.neighbor_set(0)
        assert g2.stats_summary() is g1.stats_summary()

    def test_pickle_reattaches_instead_of_rebuilding(self):
        # Satellite regression: shards arriving in a worker must
        # re-attach to the already-built index for their graph
        # version, not rebuild one per shard.
        g = erdos_renyi(18, 0.3, seed=6)
        idx = g.kernel_index()
        cache = derived_cache()
        builds_before = cache.counters()["misses"]
        blob = pickle.dumps(g)
        shard_a = pickle.loads(blob)
        shard_b = pickle.loads(blob)
        assert shard_a.fingerprint == g.fingerprint
        assert shard_a.kernel_index() is idx
        assert shard_b.kernel_index() is idx
        # Zero index rebuilds across the two simulated shards.
        assert cache.counters()["misses"] == builds_before

    def test_two_worker_process_run_matches_serial(self):
        g = erdos_renyi(22, 0.3, seed=7)
        serial = _mine_mqc(g, scheduler="serial")
        procs = maximal_quasi_cliques(
            g, gamma=0.8, max_size=4, min_size=3,
            scheduler="process", n_workers=2,
        )
        assert procs.all_sets() == serial.all_sets()


# ----------------------------------------------------------------------
# MutationBatch / apply_mutation
# ----------------------------------------------------------------------


class TestMutationBatch:
    def test_apply_matches_from_scratch_rebuild(self):
        g = erdos_renyi(10, 0.35, seed=11)
        u, v = next(
            (a, b) for a in g.vertices() for b in g.neighbors(a) if a < b
        )
        batch = MutationBatch.of(
            add_edges=[(0, 9), (3, 7)], remove_edges=[(u, v)]
        )
        mutated = apply_mutation(g, batch)
        edges = {
            (min(a, b), max(a, b))
            for a in g.vertices()
            for b in g.neighbors(a)
        }
        edges -= {(u, v)}
        edges |= {(0, 9), (3, 7)}
        expected_rows = [[] for _ in g.vertices()]
        for a, b in edges:
            expected_rows[a].append(b)
            expected_rows[b].append(a)
        expected = Graph([sorted(r) for r in expected_rows], name=g.name)
        assert mutated.fingerprint == expected.fingerprint

    def test_set_semantics_idempotent(self):
        g = Graph([[1], [0], []])
        batch = MutationBatch.of(add_edges=[(0, 1)], remove_edges=[(1, 2)])
        assert apply_mutation(g, batch).fingerprint == g.fingerprint

    def test_self_loop_rejected(self):
        g = Graph([[1], [0]])
        with pytest.raises(ValueError):
            apply_mutation(g, MutationBatch.of(add_edges=[(1, 1)]))

    def test_out_of_range_rejected(self):
        g = Graph([[1], [0]])
        with pytest.raises(ValueError):
            apply_mutation(g, MutationBatch.of(add_edges=[(0, 5)]))

    def test_add_vertices_defaults_label_zero(self):
        g = Graph([[1], [0]], labels=[2, 3])
        grown = apply_mutation(
            g, MutationBatch.of(add_vertices=2, add_edges=[(1, 3)])
        )
        assert grown.num_vertices == 4
        assert grown.labels == (2, 3, 0, 0)
        assert grown.neighbors(3) == (1,)

    def test_structure_sharing_on_untouched_rows(self):
        g = erdos_renyi(12, 0.3, seed=13)
        mutated = apply_mutation(
            g, MutationBatch.of(add_edges=[(0, 11)])
        )
        # Rows not named by the batch are the same tuple objects.
        untouched = [
            v for v in g.vertices()
            if v not in (0, 11)
        ]
        assert untouched
        for v in untouched:
            assert mutated.neighbors(v) is g.neighbors(v)

    def test_empty_batch_is_empty(self):
        assert MutationBatch.of().is_empty
        assert not MutationBatch.of(add_vertices=1).is_empty


# ----------------------------------------------------------------------
# GraphStore registry
# ----------------------------------------------------------------------


class TestGraphStore:
    def test_register_resolve_latest(self):
        store = GraphStore()
        g = erdos_renyi(8, 0.4, seed=17, name="toy")
        gv = store.register(g)
        assert gv.ref == "toy@v1"
        assert store.resolve("toy").graph is g
        assert store.resolve("toy@latest").graph is g
        assert store.resolve("toy@v1").graph is g
        with pytest.raises(KeyError):
            store.resolve("toy@v2")
        with pytest.raises(KeyError):
            store.resolve("elsewhere")

    def test_register_idempotent_on_identical_content(self):
        store = GraphStore()
        g = erdos_renyi(8, 0.4, seed=17)
        first = store.register(g, "toy")
        again = store.register(_rebuilt(g), "toy")
        assert again.version == first.version

    def test_apply_batch_bumps_version_and_invalidates(self):
        cache = DerivedCache()
        store = GraphStore(cache=cache)
        g = erdos_renyi(10, 0.4, seed=19, name="toy")
        store.register(g)
        cache.get_or_build(g.version_key, "probe", dict)
        before = cache.counters()["invalidations"]
        edge = next(
            (u, v) for u in g.vertices() for v in g.neighbors(u) if u < v
        )
        v2 = store.apply_batch("toy", MutationBatch.of(remove_edges=[edge]))
        assert v2.ref == "toy@v2"
        assert v2.fingerprint != g.fingerprint
        assert store.latest("toy").version == 2
        # v1's derived scope was dropped (retain=1 keeps only v2).
        assert cache.counters()["invalidations"] > before
        assert g.version_key not in cache.versions()


# ----------------------------------------------------------------------
# Mutation equivalence: mine(apply_batch(g)) == mine(rebuild(g))
# ----------------------------------------------------------------------


class TestMutationEquivalence:
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_mqc_identical_after_mutation(self, scheduler):
        g = erdos_renyi(20, 0.3, seed=23, name="mut")
        store = graph_store()
        store.register(g, "mut")
        _mine_mqc(g)  # warm derived artifacts for v1
        edge = next(
            (u, v) for u in g.vertices() for v in g.neighbors(u) if u < v
        )
        batch = MutationBatch.of(
            add_edges=[(0, g.num_vertices - 1)], remove_edges=[edge]
        )
        before = derived_cache().counters()["invalidations"]
        mutated = store.apply_batch("mut", batch).graph
        # Stale v1 artifacts were provably evicted, not reused.
        assert derived_cache().counters()["invalidations"] > before
        expected = _mine_mqc(_rebuilt(mutated), scheduler=scheduler)
        actual = _mine_mqc(mutated, scheduler=scheduler)
        assert actual.all_sets() == expected.all_sets()
        assert actual.by_size.keys() == expected.by_size.keys()

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_nsq_identical_after_mutation(self, scheduler):
        g = erdos_renyi(18, 0.35, seed=29, name="mutq")
        p_m, p_plus = paper_query_triangles()
        nested_subgraph_query(g, p_m, p_plus)  # warm v1
        mutated = apply_mutation(
            g, MutationBatch.of(add_edges=[(0, 17), (1, 16)])
        )
        expected = nested_subgraph_query(
            _rebuilt(mutated), p_m, p_plus, scheduler=scheduler
        )
        actual = nested_subgraph_query(
            mutated, p_m, p_plus, scheduler=scheduler
        )
        assert sorted(actual.assignments()) == sorted(expected.assignments())

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_mutation_equivalence_property(self, data):
        n = data.draw(st.integers(min_value=4, max_value=12), label="n")
        seed = data.draw(st.integers(min_value=0, max_value=999), label="s")
        g = erdos_renyi(n, 0.4, seed=seed)
        possible = [
            (u, v) for u in range(n) for v in range(u + 1, n)
        ]
        adds = data.draw(
            st.lists(st.sampled_from(possible), max_size=4, unique=True),
            label="adds",
        )
        removes = data.draw(
            st.lists(st.sampled_from(possible), max_size=4, unique=True),
            label="removes",
        )
        batch = MutationBatch.of(add_edges=adds, remove_edges=removes)
        mutated = apply_mutation(g, batch)
        rebuilt = _rebuilt(mutated)
        assert mutated.fingerprint == rebuilt.fingerprint
        assert (
            _mine_mqc(mutated).all_sets() == _mine_mqc(rebuilt).all_sets()
        )
        # Replaying the same batch is a no-op difference only where
        # adds/removes overlap; applying to the mutated graph with
        # empty batch is the identity.
        assert (
            apply_mutation(mutated, MutationBatch.of()).fingerprint
            == mutated.fingerprint
        )


# ----------------------------------------------------------------------
# Zero-copy shared-memory graphs: O(1) pickle payloads
# ----------------------------------------------------------------------


class TestSharedGraphPayloads:
    """While a graph is published to shared memory, every pickle of it
    (and therefore every process-scheduler shard payload) collapses to
    an O(1) segment reference instead of the adjacency arrays."""

    @pytest.fixture(autouse=True)
    def clean_segments(self):
        from repro.graph.shm import shared_graphs, unpublish_all

        yield
        shared_graphs().release_attachments()
        unpublish_all()

    def test_published_pickle_payload_is_constant_size(self):
        from repro.graph.shm import publish_graph, unpublish_graph

        small = erdos_renyi(40, 0.2, seed=3, name="payload-small")
        big = erdos_renyi(600, 0.2, seed=5, name="payload-big")
        plain_small = len(pickle.dumps(small))
        plain_big = len(pickle.dumps(big))
        assert plain_big > 10 * plain_small  # scales with the graph

        publish_graph(small)
        publish_graph(big)
        shared_small = len(pickle.dumps(small))
        shared_big = len(pickle.dumps(big))
        # O(1): a segment reference, independent of graph size.
        assert shared_big < 400
        assert abs(shared_big - shared_small) < 100

        # Unpublishing restores the plain payload.
        assert unpublish_graph(big.fingerprint)
        assert len(pickle.dumps(big)) == plain_big

    def test_round_trip_attaches_and_dedups(self):
        from repro.graph.shm import publish_graph, shm_counters

        graph = erdos_renyi(120, 0.15, seed=7, name="rt")
        publish_graph(graph)
        payload = pickle.dumps(graph)
        before = shm_counters()["attaches"]
        first = pickle.loads(payload)
        second = pickle.loads(payload)
        assert second is first  # one attachment per segment, reused
        assert shm_counters()["attaches"] == before + 1
        assert first.fingerprint == graph.fingerprint
        assert first.labels == graph.labels
        for v in graph.vertices():
            assert first.neighbors(v) == graph.neighbors(v)

    def test_scheduler_shard_payload_ships_no_adjacency(self):
        from repro.core.runtime import ContigraJob
        from repro.exec.scheduler import _share_job_graph

        def shard_bytes(n):
            graph = erdos_renyi(n, 0.2, seed=11, name=f"shard-{n}")
            graph_store().register(graph)
            engine = build_mqc_engine(graph, 0.8, 4)
            job = ContigraJob(engine)
            _share_job_graph(job)  # what every scheduler run invokes
            return len(pickle.dumps(job.shard_payload([0, 1, 2])))

        small, big = shard_bytes(30), shard_bytes(500)
        # The payload carries the engine tables but no per-shard
        # adjacency: growing the graph 16x must not grow the payload.
        assert big < small + 200

    def test_unregistered_graph_is_not_published(self):
        from repro.core.runtime import ContigraJob
        from repro.exec.scheduler import _share_job_graph
        from repro.graph.shm import published_segment

        graph = erdos_renyi(30, 0.2, seed=13, name="unregistered")
        job = ContigraJob(build_mqc_engine(graph, 0.8, 4))
        _share_job_graph(job)
        assert published_segment(graph.fingerprint) is None

    def test_process_scheduler_results_identical_when_shared(self):
        graph = erdos_renyi(18, 0.4, seed=17, name="shared-e2e")
        reference = _mine_mqc(graph).all_sets()
        graph_store().register(graph)
        shared = _mine_mqc(graph, scheduler="process").all_sets()
        assert shared == reference


# ----------------------------------------------------------------------
# Invalidation liveness guard (cross-name / mutate-revert regression)
# ----------------------------------------------------------------------


class TestInvalidationLiveness:
    """``apply_batch`` must spare content keys that any name's retained
    window still holds — the pre-fix code invalidated by one name's
    history alone, dropping artifacts still scoped to a latest
    version elsewhere (or to the revert target of an A→B→A cycle)."""

    def test_two_names_sharing_content_keep_caches_warm(self):
        cache = DerivedCache()
        store = GraphStore(cache=cache)
        g = erdos_renyi(12, 0.35, seed=41, name="shared")
        store.register(g, "a")
        store.register(_rebuilt(g), "b")  # same content, second name
        cache.get_or_build(g.version_key, "probe", dict)
        before = cache.counters()["invalidations"]

        edge = next(
            (u, v) for u in g.vertices() for v in g.neighbors(u) if u < v
        )
        v2 = store.apply_batch("a", MutationBatch.of(remove_edges=[edge]))
        # "a" moved on, but "b" still holds the old content as its
        # latest: the shared artifacts must stay warm.
        assert cache.counters()["invalidations"] == before
        assert cache.peek(g.version_key, "probe") is not None

        # Reverting supersedes v2, whose content no name holds — *that*
        # is invalidated, while the shared key stays live (it is both
        # "b"'s latest and now "a"'s again).
        cache.get_or_build(v2.version_key, "probe", dict)
        v3 = store.apply_batch("a", MutationBatch.of(add_edges=[edge]))
        assert v3.fingerprint == g.fingerprint
        assert cache.counters()["invalidations"] > before
        assert cache.peek(v2.version_key, "probe") is None
        assert cache.peek(g.version_key, "probe") is not None

    def test_mutate_revert_cycle_keeps_caches_warm(self):
        cache = DerivedCache()
        store = GraphStore(derived_retain=2, cache=cache)
        g = erdos_renyi(12, 0.35, seed=43, name="cycle")
        v1 = store.register(g, "x")
        cache.get_or_build(v1.version_key, "probe", dict)
        edge = next(
            (u, v) for u in g.vertices() for v in g.neighbors(u) if u < v
        )
        before = cache.counters()["invalidations"]
        v2 = store.apply_batch("x", MutationBatch.of(remove_edges=[edge]))
        v3 = store.apply_batch("x", MutationBatch.of(add_edges=[edge]))
        assert v3.fingerprint == v1.fingerprint  # A -> B -> A
        # v1's content is the latest content again: still warm.
        assert cache.counters()["invalidations"] == before
        assert cache.peek(v1.version_key, "probe") is not None

        # One more mutation pushes v2 (the one-off B content) out of
        # the retained window: B is dropped, A stays warm throughout.
        non_edge = next(
            (a, b)
            for a in g.vertices()
            for b in range(a + 1, g.num_vertices)
            if b not in g.neighbors(a)
        )
        cache.get_or_build(v2.version_key, "probe", dict)
        store.apply_batch("x", MutationBatch.of(add_edges=[non_edge]))
        assert cache.peek(v2.version_key, "probe") is None
        assert cache.peek(v1.version_key, "probe") is not None

    def test_listener_sees_old_version_before_invalidation(self):
        cache = DerivedCache()
        store = GraphStore(cache=cache)
        g = erdos_renyi(10, 0.4, seed=47, name="evt")
        v1 = store.register(g, "evt")
        cache.get_or_build(v1.version_key, "probe", dict)
        observed = []

        def listener(name, old, new, batch):
            # Fired after registration, before invalidation: the old
            # version's artifacts are still readable.
            observed.append(
                (name, old.ref, new.ref,
                 cache.peek(old.version_key, "probe") is not None)
            )

        non_edge = next(
            (a, b)
            for a in g.vertices()
            for b in range(a + 1, g.num_vertices)
            if b not in g.neighbors(a)
        )
        store.add_listener(listener)
        store.apply_batch("evt", MutationBatch.of(add_edges=[non_edge]))
        assert observed == [("evt", "evt@v1", "evt@v2", True)]
        # ... and afterwards the superseded scope is gone (only "evt"
        # held that content).
        assert cache.peek(v1.version_key, "probe") is None
        store.remove_listener(listener)
        store.remove_listener(listener)  # absent remove is a no-op
        store.apply_batch("evt", MutationBatch.of(remove_edges=[non_edge]))
        assert len(observed) == 1

    def test_failing_listener_does_not_abort_mutation(self):
        store = GraphStore(cache=DerivedCache())
        g = erdos_renyi(8, 0.4, seed=53, name="boom")
        store.register(g, "boom")

        def bad(name, old, new, batch):
            raise RuntimeError("listener crashed")

        edge = next(
            (u, v) for u in g.vertices() for v in g.neighbors(u) if u < v
        )
        store.add_listener(bad)
        entry = store.apply_batch(
            "boom", MutationBatch.of(remove_edges=[edge])
        )
        assert entry.version == 2


# ----------------------------------------------------------------------
# MutationBatch.of validation (malformed-payload regression)
# ----------------------------------------------------------------------


_DERIVED_HANDLES = (
    "_adj_sets", "_index", "_label_index", "_label_freq", "_max_degree",
    "_stats",
)


def _attached_handles(graph):
    return [h for h in _DERIVED_HANDLES if getattr(graph, h) is not None]


class TestSupersededSnapshotsReleaseArtifacts:
    """Dropping a version's scope must free its artifacts even though
    the store keeps the snapshot: the pre-fix graphs kept strong
    references, so invalidation counted entries and freed nothing
    (0.5 MiB per mutation on the churn workload, unbounded)."""

    def _toggle_batch(self, rng, graph):
        pairs = set()
        while len(pairs) < 3:
            u, v = rng.sample(range(graph.num_vertices), 2)
            pairs.add((min(u, v), max(u, v)))
        present = [e for e in pairs if graph.has_edge(*e)]
        return MutationBatch.of(
            add_edges=sorted(pairs - set(present)), remove_edges=present
        )

    def test_churn_frees_superseded_versions(self):
        from repro.baselines.naive import maximal_quasi_cliques as oracle_mqc
        from repro.mining.incremental import (
            StandingQuery,
            SubscriptionRegistry,
        )

        rng = random.Random(0x1EAF)
        store = graph_store()
        store.register(erdos_renyi(22, 0.3, seed=9, name="churn"), "churn")
        registry = SubscriptionRegistry()
        registry.attach(store)
        registry.subscribe(
            "churn", StandingQuery.mqc(0.8, 4), sink=lambda update: None
        )
        probes = []
        for step in range(40):
            latest = store.latest("churn")
            if step % 4 == 0:
                _mine_mqc(latest.graph)
                latest.graph.kernel_index()
                # dicts are not weak-referenceable: probe a row of the
                # version's ``adj_sets`` artifact and its stats summary.
                probes.append(weakref.ref(latest.graph.neighbor_set(0)))
                probes.append(weakref.ref(latest.graph.stats_summary()))
                assert _attached_handles(latest.graph)
            new = store.apply_batch(
                "churn", self._toggle_batch(rng, latest.graph)
            )
            assert new is not latest
            for gv in store.versions("churn")[:-1]:
                if gv.version_key != new.version_key:  # not a revert
                    assert _attached_handles(gv.graph) == [], gv.ref
        assert len(store.versions("churn")) == 41
        gc.collect()
        assert [ref for ref in probes if ref() is not None] == []

        # Superseded snapshots stay minable: they re-attach and rebuild.
        old = store.get("churn", 9)
        assert _mine_mqc(old.graph).all_sets() == oracle_mqc(
            old.graph, 0.8, 3, 4
        )
        assert _attached_handles(old.graph)

    def test_lru_eviction_releases_handles(self):
        _, cache = reset_default_store()
        cache._max_versions = 2
        graphs = [erdos_renyi(8, 0.4, seed=s, name=f"g{s}") for s in range(4)]
        for g in graphs:
            g.neighbor_set(0)
            g.max_degree
        assert [bool(_attached_handles(g)) for g in graphs] == [
            False, False, True, True,
        ]
        assert graphs[0].neighbor_set(0) == frozenset(graphs[0].neighbors(0))

    def test_drops_racing_attaches_leave_no_stray_reference(self):
        """Readers attach while the main thread drops their versions:
        every read is right, and one last drop finds every reference
        (a reference written after its holder was forgotten would
        survive it)."""
        import sys
        import threading
        import time

        graphs = [erdos_renyi(12, 0.4, seed=s, name=f"r{s}") for s in range(3)]
        want = [
            [frozenset(g.neighbors(v)) for v in g.vertices()] for g in graphs
        ]
        deadline = time.monotonic() + 1.0
        errors = []

        def reader():
            try:
                while time.monotonic() < deadline:
                    for g, rows in zip(graphs, want):
                        assert [g.neighbor_set(v) for v in g.vertices()] == rows
                        assert g.max_degree == max(map(len, rows))
                        assert g.kernel_index().graph is g
            except Exception as exc:  # noqa: BLE001 — reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=reader) for _ in range(4)]
            for t in threads:
                t.start()
            while time.monotonic() < deadline:
                for g in graphs:
                    derived_cache().invalidate(g.version_key)
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        derived_cache().invalidate()
        assert [_attached_handles(g) for g in graphs] == [[], [], []]

    def test_single_artifact_invalidation_releases_handles(self):
        g = erdos_renyi(8, 0.4, seed=1, name="one")
        probe = weakref.ref(g.stats_summary())
        g.neighbor_set(0)
        derived_cache().invalidate(g.version_key, "stats")
        assert _attached_handles(g) == []
        gc.collect()
        assert probe() is None
        assert g.stats_summary() is g.stats_summary()


class TestMutationBatchValidation:
    """``MutationBatch.of`` must coerce and validate every field with
    field-level errors — a string or float count from a parsed JSON
    payload used to be stored raw and explode deep inside
    ``apply_mutation``."""

    def test_add_vertices_rejects_string(self):
        with pytest.raises(ValueError, match="add_vertices"):
            MutationBatch.of(add_vertices="3")

    def test_add_vertices_rejects_bool(self):
        with pytest.raises(ValueError, match="add_vertices"):
            MutationBatch.of(add_vertices=True)

    def test_add_vertices_rejects_fractional_float(self):
        with pytest.raises(ValueError, match="add_vertices"):
            MutationBatch.of(add_vertices=2.5)

    def test_add_vertices_accepts_integral_float(self):
        # JSON numbers may decode as floats; 2.0 means 2.
        assert MutationBatch.of(add_vertices=2.0).add_vertices == 2

    def test_add_vertices_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            MutationBatch.of(add_vertices=-1)

    def test_edge_lists_reject_strings_with_indexed_message(self):
        with pytest.raises(ValueError, match=r"add_edges\[0\]"):
            MutationBatch.of(add_edges=["01"])
        with pytest.raises(ValueError, match=r"remove_edges\[1\]"):
            MutationBatch.of(remove_edges=[(0, 1), 7])

    def test_edge_elements_coerced_with_positional_message(self):
        with pytest.raises(ValueError, match=r"add_edges\[0\]\[1\]"):
            MutationBatch.of(add_edges=[(0, "1")])
        with pytest.raises(ValueError, match=r"set_labels\[0\]\[0\]"):
            MutationBatch.of(set_labels=[(1.5, 0)])
        batch = MutationBatch.of(add_edges=[[0.0, 1.0]])
        assert batch.add_edges == ((0, 1),)

    def test_wrong_arity_pairs_rejected(self):
        with pytest.raises(ValueError, match=r"add_edges\[0\]"):
            MutationBatch.of(add_edges=[(0, 1, 2)])
        with pytest.raises(ValueError, match=r"set_labels\[0\]"):
            MutationBatch.of(set_labels=[(1,)])


# ----------------------------------------------------------------------
# Mutate-while-mining: in-flight runs keep their bound snapshot
# ----------------------------------------------------------------------


class TestMutateWhileMining:
    def test_batch_applied_mid_run_does_not_change_bound_graph(self):
        graph = erdos_renyi(20, 0.35, seed=59, name="inflight")
        store = graph_store()
        v1 = store.register(graph, "inflight")
        engine = build_mqc_engine(graph, 0.8, 4)
        reference = engine.run()
        bound_key = v1.version_key

        edge = next(
            (u, v)
            for u in graph.vertices()
            for v in graph.neighbors(u)
            if u < v
        )
        mutated_during_run = []

        def sink(pattern, vertices):
            # The first match triggers a concurrent mutation: the
            # in-flight run must keep mining its bound v1 snapshot.
            if not mutated_during_run:
                entry = store.apply_batch(
                    "inflight", MutationBatch.of(remove_edges=[edge])
                )
                mutated_during_run.append(entry)

        fresh_engine = build_mqc_engine(graph, 0.8, 4)
        result = fresh_engine.run(match_sink=sink)
        assert mutated_during_run, "sink never fired"
        assert store.latest("inflight").version == 2
        # Bound version unchanged, and the result is v1's answer.
        assert fresh_engine.graph.version_key == bound_key
        assert fresh_engine.graph is graph
        assert {
            (p.structure_key(), a) for p, a in result.valid
        } == {(p.structure_key(), a) for p, a in reference.valid}

    def test_batch_applied_mid_run_keeps_shm_lease(self):
        from repro.graph.shm import (
            acquire_graph,
            publish_graph,
            published_segment,
            release_graph,
            shared_graphs,
            unpublish_all,
        )

        graph = erdos_renyi(30, 0.3, seed=61, name="leased")
        store = graph_store()
        store.register(graph, "leased")
        try:
            publish_graph(graph)
            fingerprint = acquire_graph(graph)  # an in-flight run's lease
            assert shared_graphs().lease_count(fingerprint) == 1
            edge = next(
                (u, v)
                for u in graph.vertices()
                for v in graph.neighbors(u)
                if u < v
            )
            store.apply_batch(
                "leased", MutationBatch.of(remove_edges=[edge])
            )
            # The mutation neither released the lease nor unlinked the
            # segment out from under the in-flight run.
            assert shared_graphs().lease_count(fingerprint) == 1
            assert published_segment(fingerprint) is not None
            release_graph(fingerprint)
        finally:
            shared_graphs().release_attachments()
            unpublish_all()

