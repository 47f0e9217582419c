"""Property tests for the candidate-kernel layer (repro.graph.index).

There are two adjacency modes.  ``sets`` — the legacy frozenset path,
``index=None`` — is the oracle; ``auto`` must produce *identical*
candidates at every step of every ETask walk (the same ordered matches
and per-node counters), and identical match sets and paper counters
end to end, under every scheduler, with and without auxiliary graphs.

``auto`` chooses twice from what it observes, and the cases are built
so both sides of each choice run: index-level cases construct
``GraphIndex(graph)`` directly over graphs with a high-degree core and
a low-degree periphery (bitset pools *and* hash-set pools); engine
cases use graphs of average degree >= 16, where ``auto`` resolves to
the kernels at all (on sparser graphs it *is* ``sets`` — the dispatch
identity test).
"""

import pickle
import random
from collections import Counter

import pytest

from repro.apps import maximal_quasi_cliques, mine_quasi_cliques
from repro.apps.nsq import nested_subgraph_query, paper_query_triangles
from repro.core.runtime import ContigraEngine
from repro.core.vtask import ValidationTarget
from repro.graph import (
    Graph,
    GraphIndex,
    auto_selects_kernels,
    bits_to_sorted,
    erdos_renyi,
    resolve_index,
)
from repro.graph.index import BITSET_MIN_DEGREE, bits_from_sorted
from repro.mining import (
    ConstraintStats,
    MiningEngine,
    MiningStats,
    ETask,
    SetOperationCache,
    kernel_pool,
    root_candidates,
)
from repro.patterns import clique, path, plan_for, star, triangle
from repro.patterns.pattern import Pattern

from conftest import labeled_random_graph, random_graph

#: The counters the paper's figures are built from.
PAPER_COUNTERS = (
    "extensions_attempted",
    "vtasks_started",
    "promotions",
    "vtasks_canceled_lateral",
)


def core_periphery(seed, core_n=20, total_n=34, p=0.9, num_labels=0):
    """A dense core (degree >= BITSET_MIN_DEGREE) plus a degree-2
    periphery: both pool tiers, and the regime auxiliary pruning
    targets (the periphery can host no clique-like match)."""
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
    degrees = [graph.degree(v) for v in graph.vertices()]
    assert min(degrees) < BITSET_MIN_DEGREE <= max(degrees)
    return graph


def dense(graph):
    """Engine-level fixture guard: ``auto`` must engage the kernels."""
    assert resolve_index(graph, "auto") is not None
    return graph


# ----------------------------------------------------------------------
# Kernel primitives and index-level kernels (both pool tiers)
# ----------------------------------------------------------------------


class TestBitsetPrimitives:
    @pytest.mark.parametrize("seed", range(10))
    def test_bits_round_trip(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(1, 300)
        vertices = sorted(rng.sample(range(n), rng.randrange(0, n)))
        bits = bits_from_sorted(vertices, n)
        assert bits_to_sorted(bits) == vertices

    def test_bits_empty(self):
        assert bits_from_sorted([], 10) == 0
        assert bits_to_sorted(0) == []


def _decode(pool):
    """A kernel pool (bitmask or ascending tuple) as an ascending list."""
    return bits_to_sorted(pool) if isinstance(pool, int) else list(pool)


def _naive_pool(graph, anchors, label):
    expected = set.intersection(*(set(graph.neighbors(v)) for v in anchors))
    if label is not None:
        expected = {v for v in expected if graph.label(v) == label}
    return sorted(expected)


class TestGraphIndex:
    def test_adjacency_and_label_masks_agree_with_graph(self):
        graph = core_periphery(seed=7, num_labels=3)
        index = GraphIndex(graph)
        for v in graph.vertices():
            assert bits_to_sorted(index.neighbor_bits(v)) == sorted(
                graph.neighbors(v)
            )
            for u in graph.vertices():
                assert index.has_edge(u, v) == graph.has_edge(u, v)
        for lab in range(3):
            assert bits_to_sorted(index.label_bits(lab)) == sorted(
                graph.vertices_with_label(lab)
            )

    @pytest.mark.parametrize("seed", range(5))
    def test_pool_matches_naive_intersection_on_both_tiers(self, seed):
        graph = core_periphery(seed=seed, num_labels=2)
        index = GraphIndex(graph)
        rng = random.Random(seed)
        stats = MiningStats()
        forms = set()
        for _ in range(40):
            anchors = rng.sample(range(graph.num_vertices), rng.randrange(1, 4))
            for label in (None, 0, 1):
                pool = index.pool(anchors, label, stats)
                forms.add(type(pool))
                expected = _naive_pool(graph, anchors, label)
                assert _decode(pool) == expected
        assert forms == {int, tuple}  # bitset seeds and hash-set seeds
        assert 0 < stats.bitset_intersections < stats.set_intersections
        assert stats.galloping_intersections == 0  # the counter is vestigial

    def test_refine_keeps_representation(self):
        graph = core_periphery(seed=3, num_labels=2)
        index = GraphIndex(graph)
        stats = MiningStats()
        core_seed, periphery_seed = 0, graph.num_vertices - 1
        other = graph.neighbors(periphery_seed)[0]
        for seed_vertex, form in ((core_seed, int), (periphery_seed, tuple)):
            pool = index.pool([seed_vertex], None, stats)
            assert isinstance(pool, form)
            refined = index.refine(pool, [other], stats)
            assert isinstance(refined, form)
            assert _decode(refined) == _naive_pool(
                graph, [seed_vertex, other], None
            )

    def test_one_index_per_graph_version(self):
        graph = random_graph(10, 0.3, seed=1)
        assert graph.kernel_index() is graph.kernel_index("auto")
        twin = Graph([graph.neighbors(v) for v in graph.vertices()])
        assert twin.kernel_index() is graph.kernel_index()

    def test_auto_graph_level_fallback_is_dispatch_identity(self):
        sparse = random_graph(40, 0.05, seed=2)
        dense_graph = random_graph(40, 0.6, seed=2)
        assert not auto_selects_kernels(sparse)
        assert auto_selects_kernels(dense_graph)
        # auto on a sparse graph IS the legacy path (no index at all),
        # so it can never be slower than sets there.
        assert resolve_index(sparse, "auto") is None
        assert resolve_index(dense_graph, "auto") is dense_graph.kernel_index()
        assert resolve_index(dense_graph, "sets") is None
        assert MiningEngine(sparse, adjacency="auto").index is None
        assert MiningEngine(dense_graph, adjacency="auto").index is not None


class TestRemovedModesRejected:
    """Five modes became two; the other three fail loudly, everywhere
    the same way."""

    @pytest.mark.parametrize("mode", ["csr", "bitset", "vector"])
    def test_rejected_by_every_entry_point(self, mode, capsys):
        from repro.apps.mqc import mqc_constraint_set
        from repro.cli import main

        graph = random_graph(8, 0.5, seed=1)
        messages = set()
        for build in (
            lambda: MiningEngine(graph, adjacency=mode),
            lambda: ContigraEngine(
                graph, mqc_constraint_set(0.8, 4), adjacency=mode
            ),
            lambda: ValidationTarget(
                triangle(), clique(4), graph, induced=True, adjacency=mode
            ),
            lambda: resolve_index(graph, mode),
        ):
            with pytest.raises(ValueError) as info:
                build()
            messages.add(str(info.value))
        assert len(messages) == 1 and repr(mode) in messages.pop()
        for build in (
            lambda: graph.kernel_index(mode),
            lambda: GraphIndex(graph, mode=mode),
        ):
            with pytest.raises(ValueError):
                build()
        with pytest.raises(SystemExit) as exit_info:
            main(["mqc", "--dataset", "dblp", "--adjacency", mode])
        assert exit_info.value.code == 2
        assert "--adjacency" in capsys.readouterr().err


class TestKernelPool:
    def test_shared_cache_keys_do_not_collide_with_legacy(self):
        graph = random_graph(20, 0.4, seed=5)
        index = graph.kernel_index()
        stats = MiningStats()
        cache = SetOperationCache(stats=stats)
        pool = kernel_pool(index, [0, 1], None, cache, stats)
        # Legacy keys are bare frozensets; kernel keys carry label+mode.
        assert cache.lookup(frozenset({0, 1})) is None
        again = kernel_pool(index, [1, 0], None, cache, stats)
        assert again == pool

    def test_empty_pool_is_cached_not_recomputed(self):
        # Two isolated-from-each-other vertices: empty intersection.
        graph = Graph([(1,), (0,), (3,), (2,)])
        index = graph.kernel_index()
        stats = MiningStats()
        cache = SetOperationCache(stats=stats)
        kernel_pool(index, [0, 2], None, cache, stats)
        before = stats.cache_hits
        kernel_pool(index, [0, 2], None, cache, stats)
        assert stats.cache_hits == before + 1

    def test_etask_step_and_fused_vtask_step_share_one_entry(self):
        # A triangle's one bridge step to K4 anchors on all three of
        # its vertices — the intersection K4's ETask makes at its last
        # step, below the triangle's ordered prefix.
        graph = dense(random_graph(28, 0.62, seed=29))
        a, b, c = next(
            m.assignment
            for m in MiningEngine(graph, adjacency="sets").stream(triangle())
            if min(map(graph.degree, m.assignment)) >= BITSET_MIN_DEGREE
        )
        stats = ConstraintStats()
        cache = SetOperationCache(stats=stats)
        plan, index = plan_for(clique(4)), resolve_index(graph, "auto")
        for root in sorted((a, b, c)):
            task = ETask(graph, plan, root, cache, stats, index=index)
            for _ in task.matches():
                pass
        walked = (stats.cache_hits, stats.cache_misses)
        assert stats.bitset_intersections > 0
        intersections = stats.bitset_intersections
        target = ValidationTarget(triangle(), clique(4), graph, induced=False)
        target.run((a, b, c), graph, cache, stats)
        assert (stats.cache_hits, stats.cache_misses) == (
            walked[0] + 1, walked[1]
        )
        assert stats.bitset_intersections == intersections

    def test_cached_pool_form_is_a_function_of_its_key(self, monkeypatch):
        # Which branch a fused lookup takes (mask ANDs or per-vertex
        # filtering) must not depend on which task stored the entry.
        graph = dense(core_periphery(seed=81, core_n=22, total_n=27))
        stored = []
        store = SetOperationCache.store

        def spy(self, key, value):
            stored.append((key, value))
            store(self, key, value)

        monkeypatch.setattr(SetOperationCache, "store", spy)
        assert maximal_quasi_cliques(graph, 0.6, 4, adjacency="auto").all_sets()
        forms = set()
        for (anchors, _label, cache_key), pool in stored:
            assert cache_key == "auto"
            is_bitset = min(map(graph.degree, anchors)) >= BITSET_MIN_DEGREE
            assert isinstance(pool, int) == is_bitset, (sorted(anchors), pool)
            forms.add(type(pool))
        assert forms == {int, tuple}


# ----------------------------------------------------------------------
# Walk equivalence: the kernels vs the frozenset oracle
# ----------------------------------------------------------------------


def _assert_candidates_equivalent(
    graph: Graph,
    pattern: Pattern,
    induced: bool,
    stats: MiningStats,
) -> int:
    """Walk every root's ETask on the kernel path and on the legacy
    path: the same candidates at every step show as the same ordered
    matches and the same per-node counters.  Returns the number of
    candidate computations compared; kernel work is counted in
    ``stats``."""
    plan = plan_for(pattern, induced=induced)
    walks = []
    for index in (None, GraphIndex(graph)):
        run_stats = MiningStats()
        matches = []
        for root in root_candidates(graph, plan):
            task = ETask(
                graph, plan, root, SetOperationCache(stats=run_stats),
                run_stats, index=index,
            )
            matches.extend(task.matches())
        walks.append((matches, [
            getattr(run_stats, name) for name in (
                "candidate_computations", "extensions_attempted",
                "rl_paths", "matches_found",
            )
        ]))
    stats.merge(run_stats)  # the kernel walk's
    assert walks[1] == walks[0], pattern
    return walks[0][1][0]


class TestCandidateEquivalence:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("induced", [False, True])
    def test_unlabeled_sweep(self, seed, induced):
        graph = core_periphery(seed=seed, core_n=18, total_n=28)
        stats = MiningStats()
        total = sum(
            _assert_candidates_equivalent(graph, pattern, induced, stats)
            for pattern in (triangle(), clique(4), path(3), star(3))
        )
        assert total >= 100
        assert 0 < stats.bitset_intersections < stats.set_intersections

    @pytest.mark.parametrize("seed", range(3))
    def test_labeled_sweep(self, seed):
        graph = core_periphery(
            seed=seed, core_n=18, total_n=28, num_labels=2
        )
        labeled_triangle = Pattern(
            3, [(0, 1), (1, 2), (0, 2)], labels=[0, 1, seed % 2]
        )
        labeled_path = Pattern(3, [(0, 1), (1, 2)], labels=[1, 0, 1])
        stats = MiningStats()
        total = sum(
            _assert_candidates_equivalent(graph, pattern, False, stats)
            for pattern in (labeled_triangle, labeled_path, clique(4))
        )
        assert total > 0
        assert 0 < stats.bitset_intersections < stats.set_intersections


# ----------------------------------------------------------------------
# End-to-end equivalence: engines, apps, schedulers, aux
# ----------------------------------------------------------------------


def _match_multiset(graph, pattern, mode, induced=False):
    engine = MiningEngine(graph, induced=induced, adjacency=mode)
    return Counter(m.assignment for m in engine.stream(pattern))


def _paper_counters(result, drop=()):
    counters = result.stats.as_dict()
    return {k: counters[k] for k in PAPER_COUNTERS if k not in drop}


class TestEndToEndEquivalence:
    @pytest.mark.parametrize("induced", [False, True])
    def test_match_multisets_identical(self, induced):
        graph = dense(labeled_random_graph(30, 0.6, num_labels=2, seed=13))
        labeled = Pattern(3, [(0, 1), (1, 2), (0, 2)], labels=[0, 1, 1])
        for pattern in (triangle(), clique(4), labeled):
            assert _match_multiset(
                graph, pattern, "auto", induced
            ) == _match_multiset(graph, pattern, "sets", induced), pattern

    def test_apps_identical(self):
        graph = dense(random_graph(26, 0.68, seed=19))
        assert (
            mine_quasi_cliques(graph, 0.7, 4, adjacency="auto").all_sets()
            == mine_quasi_cliques(graph, 0.7, 4, adjacency="sets").all_sets()
        )
        p_m, p_plus = paper_query_triangles()
        runs = {
            mode: nested_subgraph_query(graph, p_m, p_plus, adjacency=mode)
            for mode in ("auto", "sets")
        }
        assert runs["auto"].assignments() == runs["sets"].assignments()
        assert _paper_counters(runs["auto"]) == _paper_counters(runs["sets"])

    @pytest.mark.parametrize("scheduler", ["serial", "process", "workqueue"])
    @pytest.mark.parametrize("aux", [False, True])
    def test_mqc_matches_and_paper_counters(self, scheduler, aux):
        # gamma 0.6 gives size-3 patterns several containing patterns,
        # so promotion *and* lateral cancellation both fire.
        graph = dense(
            core_periphery(seed=81, core_n=22, total_n=27)
            if aux
            else random_graph(28, 0.62, seed=29)
        )
        options = dict(scheduler=scheduler, n_workers=2)
        oracle = maximal_quasi_cliques(
            graph, 0.6, 4, adjacency="sets", **options
        )
        kernels = maximal_quasi_cliques(
            graph, 0.6, 4, adjacency="auto", enable_aux=aux, **options
        )
        assert oracle.all_sets() and kernels.all_sets() == oracle.all_sets()
        drop = set()
        if aux:
            # Pruned pools attempt fewer extensions: the point of aux.
            drop.add("extensions_attempted")
        if scheduler == "workqueue":
            # Worker-local registries fill in steal order.
            drop.add("promotions")
        expected = _paper_counters(oracle, drop)
        assert all(expected[k] > 0 for k in expected), expected
        assert _paper_counters(kernels, drop) == expected
        assert kernels.stats.bitset_intersections > 0


# ----------------------------------------------------------------------
# Satellite behaviors: lazy/cached graph properties, pickling
# ----------------------------------------------------------------------


class TestGraphCaching:
    def test_neighbor_set_is_lazy_and_cached(self):
        graph = random_graph(20, 0.3, seed=31)
        assert graph._adj_sets is None  # nothing attached before use
        first = graph.neighbor_set(3)
        assert 3 in graph._adj_sets
        assert graph.neighbor_set(3) is first
        assert first == frozenset(graph.neighbors(3))
        # Same-content graphs attach to the same cache-owned sets.
        twin = Graph([graph.neighbors(v) for v in graph.vertices()])
        assert twin.neighbor_set(3) is first

    def test_max_degree_cached(self):
        graph = random_graph(20, 0.3, seed=33)
        expected = max(graph.degree(v) for v in graph.vertices())
        assert graph.max_degree == expected
        assert graph._max_degree == expected

    def test_label_frequencies_cached_and_copied(self):
        graph = labeled_random_graph(20, 0.3, num_labels=3, seed=35)
        freq = graph.label_frequencies()
        assert sum(freq.values()) == graph.num_vertices
        freq[0] = -1  # mutating the copy must not poison the cache
        assert graph.label_frequencies()[0] != -1

    def test_pickle_round_trip_reattaches_derived_state(self):
        graph = dense(labeled_random_graph(24, 0.75, num_labels=2, seed=37))
        adj = graph.neighbor_set(0)
        idx = graph.kernel_index()
        _ = graph.max_degree
        clone = pickle.loads(pickle.dumps(graph))
        # The payload carries no derived handles...
        assert clone._adj_sets is None
        assert clone._index is None
        assert clone._max_degree is None
        assert clone.num_edges == graph.num_edges
        assert clone.labels == graph.labels
        assert clone.fingerprint == graph.fingerprint
        for v in graph.vertices():
            assert clone.neighbors(v) == graph.neighbors(v)
        # ...and on first use, the clone re-attaches to the same
        # cache-owned artifacts instead of rebuilding (same process ⇒
        # same derived cache ⇒ same objects).
        assert clone.neighbor_set(0) is adj
        assert clone.kernel_index() is idx
        assert _match_multiset(clone, triangle(), "auto") == _match_multiset(
            graph, triangle(), "sets"
        )

    def test_pickled_engine_carries_no_index_payload(self):
        from repro.apps.mqc import build_mqc_engine

        graph = dense(erdos_renyi(24, 0.75, seed=39))
        engine = build_mqc_engine(graph, 0.8, 4)
        idx = graph.kernel_index()  # populated by the engine, then pickled
        revived = pickle.loads(pickle.dumps(engine))
        assert revived.adjacency == "auto"
        assert revived.graph._index is None  # nothing shipped
        # In-process revival shares the already-built index.
        assert revived.graph.kernel_index() is idx


# ----------------------------------------------------------------------
# Auxiliary (pruned-adjacency) graphs: soundness
# ----------------------------------------------------------------------


class TestAuxiliaryGraphs:
    def test_pruning_never_drops_a_match_vertex(self):
        from repro.graph.aux import auxiliary_graph

        graph = core_periphery(seed=23)
        pattern = clique(4)
        aux = auxiliary_graph(graph, pattern)
        assert aux.summary.prune_ratio > 0  # the test is not vacuous
        used = {
            v
            for assignment in _match_multiset(graph, pattern, "sets")
            for v in assignment
        }
        assert used <= set(aux.allowed)
        assert aux.filter_roots(list(graph.vertices())) == sorted(aux.allowed)

    def test_aux_pool_is_full_pool_restricted_to_survivors(self):
        from repro.graph.aux import auxiliary_graph

        graph = core_periphery(seed=31)
        aux = auxiliary_graph(graph, clique(4))
        full = graph.kernel_index()
        pruned = aux.index()
        # Distinct cache keys: pruned and full pools never collide.
        assert full.cache_key == "auto"
        assert pruned.cache_key.startswith("auto#aux")
        allowed = set(aux.allowed)
        stats = MiningStats()
        rng = random.Random(7)
        for _ in range(20):
            anchors = rng.sample(aux.allowed, 2)
            full_pool = set(_decode(full.pool(anchors, None, stats)))
            aux_pool = set(_decode(pruned.pool(anchors, None, stats)))
            assert aux_pool == full_pool & allowed

    def test_artifact_cached_per_signature(self):
        from repro.graph.aux import auxiliary_graph, requirement_signature

        graph = core_periphery(seed=41)
        first = auxiliary_graph(graph, clique(4))
        assert auxiliary_graph(graph, clique(4)) is first
        # A different degree requirement is a different artifact.
        assert requirement_signature(triangle()) != requirement_signature(
            clique(4)
        )
        assert auxiliary_graph(graph, triangle()) is not first

    def test_nsq_identical_with_aux(self):
        graph = dense(core_periphery(seed=81, core_n=22, total_n=27))
        p_m, p_plus = paper_query_triangles()
        baseline = nested_subgraph_query(
            graph, p_m, p_plus, adjacency="sets"
        ).assignments()
        with_aux = nested_subgraph_query(
            graph, p_m, p_plus, adjacency="auto", enable_aux=True
        ).assignments()
        assert with_aux == baseline
