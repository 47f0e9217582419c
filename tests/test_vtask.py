"""Tests for VTasks: alignment, gap bridging, fusion, enumeration."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.nsq import (
    nested_subgraph_query,
    paper_query_tailed_triangles,
)
from repro.baselines.naive import match_contained_in, pattern_matches
from repro.baselines.peregrine_plus import udf_contains, udf_recipes
from repro.bench.datasets import dataset
from repro.core import ValidationTarget
from repro.exec.context import TaskContext
from repro.exec.events import KERNEL_INTERSECT
from repro.graph import erdos_renyi
from repro.graph.index import resolve_index
from repro.mining import ConstraintStats, SetOperationCache
from repro.patterns import (
    clique,
    diamond,
    diamond_house,
    house,
    quasi_clique_patterns,
    tailed_triangle,
    triangle,
)
from repro.patterns.isomorphism import subpattern_embeddings

from conftest import graph_strategy, labeled_random_graph


def make(p_m, p_plus, graph, induced=False, **kw):
    return ValidationTarget(p_m, p_plus, graph, induced=induced, **kw)


class TestConstruction:
    def test_recipes_exist(self):
        g = erdos_renyi(10, 0.4, seed=0)
        target = make(triangle(), house(), g)
        assert target.recipes
        assert target.gap == 2

    def test_orbit_dedup_reduces_recipes(self):
        g = erdos_renyi(10, 0.4, seed=0)
        deduped = make(clique(4), clique(6), g, induced=True)
        every = list(
            subpattern_embeddings(clique(4), clique(6), induced=True)
        )
        assert len(deduped.recipes) < len(every)
        # K4 in K6 is a single orbit under Aut(K6).
        assert len(deduped.recipes) == 1

    def test_same_size_rejected(self):
        g = erdos_renyi(5, 0.5, seed=0)
        with pytest.raises(ValueError):
            make(triangle(), triangle(), g)

    def test_recipe_anchors_nonempty(self):
        g = erdos_renyi(10, 0.4, seed=0)
        target = make(triangle(), diamond_house(), g)
        for recipe in target.recipes:
            added = recipe.steps[len(recipe.embedding):]
            assert added and all(anchors for _, anchors, *_ in added)

    def test_unknown_strategy_rejected(self):
        g = erdos_renyi(5, 0.5, seed=0)
        with pytest.raises(ValueError):
            make(triangle(), house(), g, strategy="bogus")


class TestRunCorrectness:
    """VTask existence result must agree with the brute-force oracle."""

    def _check_agreement(self, graph, p_m, p_plus, induced):
        stats = ConstraintStats()
        cache = SetOperationCache(stats=stats)
        target = make(p_m, p_plus, graph, induced=induced)
        for assignment in pattern_matches(graph, p_m, induced=induced):
            ordered = [assignment[v] for v in p_m.vertices()]
            got = target.run(ordered, graph, cache, stats)
            want = match_contained_in(graph, ordered, p_m, p_plus, induced)
            assert (got is not None) == want
            if got is not None:
                # the completion must itself be a valid p_plus match
                # containing the p_m match's vertices
                assert set(ordered) <= set(got)
                for u, v in p_plus.edges:
                    assert graph.has_edge(got[u], got[v])

    @pytest.mark.parametrize("seed", range(4))
    def test_triangle_house_edge_induced(self, seed):
        g = erdos_renyi(12, 0.3, seed=seed)
        self._check_agreement(g, triangle(), house(), induced=False)

    @pytest.mark.parametrize("seed", range(4))
    def test_gap_two_bridging(self, seed):
        g = erdos_renyi(12, 0.3, seed=seed)
        self._check_agreement(g, triangle(), diamond_house(), induced=False)

    @pytest.mark.parametrize("seed", range(3))
    def test_induced_quasi_cliques(self, seed):
        g = erdos_renyi(12, 0.45, seed=seed)
        (k4,) = quasi_clique_patterns(4, 0.8)
        for k6 in quasi_clique_patterns(6, 0.8):
            self._check_agreement(g, k4, k6, induced=True)

    @pytest.mark.parametrize("mode", ["naive", "heuristic"])
    def test_udf_modes_agree(self, mode):
        g = erdos_renyi(12, 0.35, seed=7)
        stats = ConstraintStats()
        cache = SetOperationCache(stats=stats)
        fancy = make(triangle(), house(), g, strategy=mode)
        plain = udf_recipes(triangle(), house(), induced=False)
        for assignment in pattern_matches(g, triangle()):
            ordered = [assignment[v] for v in triangle().vertices()]
            a = fancy.run(ordered, g, cache, stats) is not None
            b = udf_contains(plain, ordered, g, stats)
            assert a == b
        # Only the UDF-model scan counts per-candidate probes, and it
        # stays eager: the Peregrine+ baseline numbers must not move.
        assert stats.extensions_attempted == 316

    @given(graph_strategy(max_vertices=9), st.integers(0, 3))
    @settings(max_examples=20, deadline=None)
    def test_property_containment_agreement(self, g, pick):
        patterns = [
            (triangle(), tailed_triangle()),
            (triangle(), house()),
            (diamond(), diamond_house()),
            (triangle(), clique(5)),
        ]
        p_m, p_plus = patterns[pick]
        self._check_agreement(g, p_m, p_plus, induced=False)


class TestEnumeration:
    def test_enumerate_completions_finds_all(self):
        g = erdos_renyi(11, 0.5, seed=3)
        stats = ConstraintStats()
        cache = SetOperationCache(stats=stats)
        target = make(triangle(), clique(4), g, induced=True)
        from repro.patterns import canonical_assignment_oracle
        from repro.mining import MiningEngine

        expected = {
            canonical_assignment_oracle(m.assignment, clique(4))
            for m in MiningEngine(g, induced=True).find_all(clique(4))
        }
        found = set()
        for assignment in pattern_matches(g, triangle(), induced=True):
            ordered = [assignment[v] for v in triangle().vertices()]
            target.enumerate_completions(
                ordered, g, cache, stats,
                lambda comp: found.add(
                    canonical_assignment_oracle(comp, clique(4))
                ),
            )
        assert found == expected

    def test_fusion_shares_cache(self):
        g = erdos_renyi(14, 0.5, seed=4)
        stats = ConstraintStats()
        shared = SetOperationCache(stats=stats)
        target = make(triangle(), clique(4), g, induced=True)
        matches = pattern_matches(g, triangle(), induced=True)[:20]
        for assignment in matches:
            ordered = [assignment[v] for v in triangle().vertices()]
            target.run(ordered, g, shared, stats)
        assert stats.cache_hits > 0


def _bridge_cases():
    """(P^M, P⁺) by gap; the last one binds labelled P⁺ vertices."""
    braced, _ = paper_query_tailed_triangles()[1]
    return {
        "gap1": (triangle(), tailed_triangle()),
        "gap2": (triangle(), house()),
        "gap3": (triangle(), braced),
        "labelled": (
            triangle(), house().with_labels([None, None, None, 0, 1])
        ),
    }


def _bridge_graph(path):
    """A labelled graph on which ``auto`` resolves to ``path``."""
    if path == "kernels":
        g = labeled_random_graph(22, 0.85, num_labels=2, seed=5)
    else:
        g = labeled_random_graph(12, 0.4, num_labels=2, seed=5)
    assert (resolve_index(g, "auto") is not None) == (path == "kernels")
    return g


def _sampled_matches(g, p_m, induced, limit=60):
    matches = [
        [a[v] for v in p_m.vertices()]
        for a in pattern_matches(g, p_m, induced=induced)
    ]
    return matches[:: max(1, len(matches) // limit)]


class TestCompiledBridge:
    """The step program and the one walker that executes it."""

    @pytest.mark.parametrize("path", ["sets", "kernels"])
    @pytest.mark.parametrize("induced", [False, True])
    @pytest.mark.parametrize("case", sorted(_bridge_cases()))
    def test_walker_agrees_with_oracle_in_both_modes(
        self, case, induced, path
    ):
        p_m, p_plus = _bridge_cases()[case]
        g = _bridge_graph(path)
        stats = ConstraintStats()
        cache = SetOperationCache(stats=stats)
        target = make(p_m, p_plus, g, induced=induced)
        # Enumerate mode on the dense graph emits thousands of
        # completions per match; a dozen matches cover both outcomes.
        limit = 60 if path == "sets" else 12
        # Every completion is checked (hundreds of thousands on the
        # dense graph), so the P⁺ tables are built once, outside the
        # loop, and adjacency is a neighbour-set membership test.
        n_plus = p_plus.num_vertices
        pairs = [(u, v) for u in p_plus.vertices() for v in range(u)]
        edges = [(u, v) for u, v in pairs if p_plus.has_edge(u, v)]
        non_edges = (
            [(u, v) for u, v in pairs if not p_plus.has_edge(u, v)]
            if induced else []
        )
        labels = [
            (v, p_plus.label(v))
            for v in p_plus.vertices()
            if p_plus.label(v) is not None
        ]
        # A VTask never polls the token: a cancelled one that returned
        # None would pass a contained match as valid.
        cancelled = TaskContext.create()
        cancelled.cancel("before the VTask")
        for ordered in _sampled_matches(g, p_m, induced, limit):
            got = target.run(ordered, g, cache, stats)
            assert target.run(ordered, g, cache, stats, ctx=cancelled) == got
            emitted = []
            target.enumerate_completions(
                ordered, g, cache, stats, emitted.append
            )
            want = match_contained_in(g, ordered, p_m, p_plus, induced)
            assert (got is not None) == want
            # One walker, one order: ``run`` stops at the completion
            # enumerate mode reaches first.
            assert got == (emitted[0] if emitted else None)
            matched = set(ordered)
            for completion in emitted:
                assert matched <= set(completion)
                assert len(set(completion)) == n_plus
                for v, label in labels:
                    assert g.label(completion[v]) == label
                rows = [g.neighbor_set(x) for x in completion]
                assert all(completion[v] in rows[u] for u, v in edges)
                assert not any(completion[v] in rows[u] for u, v in non_edges)

    def test_step_program_mirrors_recipe_and_survives_pickle(self):
        g = erdos_renyi(12, 0.45, seed=2)
        pairs = [(p, q, False) for p, q in _bridge_cases().values()]
        (k4,) = quasi_clique_patterns(4, 0.8)
        pairs += [(k4, k6, True) for k6 in quasi_clique_patterns(6, 0.8)]
        pairs.append((diamond(), diamond_house(), False))
        checked = 0
        for p_m, p_plus, induced in pairs:
            target = make(p_m, p_plus, g, induced=induced)
            clone = pickle.loads(pickle.dumps(target))
            for recipe, copy in zip(target.recipes, clone.recipes):
                # The program, recomputed from the pattern alone: the
                # aligned slots first, then one step per added vertex,
                # with the plan's non-neighbour rule and no bounds.
                k = len(recipe.embedding)
                bound = []
                for slot, step in enumerate(recipe.steps):
                    v, anchors, nonneighbors, label, lower, upper = step
                    assert (lower, upper) == ((), ())
                    assert label == p_plus.label(v)
                    if slot < k:
                        assert v == recipe.embedding[slot]
                        assert (anchors, nonneighbors) == ((), ())
                    else:
                        assert anchors
                        assert set(nonneighbors) == (
                            set(range(slot)) - set(anchors)
                            if induced else set()
                        )
                        assert all(
                            p_plus.has_edge(bound[j], v) for j in anchors
                        )
                        assert not any(
                            p_plus.has_edge(bound[j], v)
                            for j in nonneighbors
                        )
                    bound.append(v)
                assert sorted(bound) == list(p_plus.vertices())
                assert recipe.pick(bound) == tuple(p_plus.vertices())
                assert copy.steps == recipe.steps
                checked += 1
            stats = ConstraintStats()
            cache = SetOperationCache(stats=stats)
            for ordered in _sampled_matches(g, p_m, induced, limit=10):
                assert clone.run(ordered, g, cache, stats) == target.run(
                    ordered, g, cache, stats
                )
        assert checked > 20

    def test_enumerate_mode_counts_and_traces_bridge_steps(self):
        g = erdos_renyi(12, 0.5, seed=3)
        target = make(triangle(), house(), g)
        stats = ConstraintStats()
        ctx = TaskContext.create()
        intersects = []
        ctx.bus.subscribe(
            lambda event, ts, payload, track: event == KERNEL_INTERSECT
            and intersects.append(payload)
        )
        ordered = _sampled_matches(g, triangle(), False, limit=1)[0]
        target.enumerate_completions(
            ordered, g, SetOperationCache(stats=stats), stats,
            lambda completion: None, ctx=ctx,
        )
        assert 0 < stats.bridge_steps < stats.candidate_computations
        # One record per recipe call, each with its exact count.
        assert sum(p["count"] for p in intersects) == (
            stats.candidate_computations
        )

    def test_paper_nsq_counters_pinned(self):
        # Laziness must not change what is visited: these are the
        # values the eager filter-then-iterate bridge read.
        p_m, p_plus = paper_query_tailed_triangles()
        stats = nested_subgraph_query(dataset("youtube"), p_m, p_plus).stats
        assert stats.vtasks_started == 77_891
        assert stats.candidate_computations == 238_908
        assert stats.cache_hits == 219_845
        assert stats.bridge_steps == 142_978
