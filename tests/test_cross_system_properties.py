"""Cross-system property tests: the whole stack agrees with itself.

These are the highest-leverage invariants in the repository — every
engine, baseline, and oracle computing the same quantity must produce
the same answer on randomized inputs, across semantics and toggles.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import (
    keyword_search,
    maximal_quasi_cliques,
    mine_quasi_cliques,
    mine_quasi_cliques_fused,
)
from repro.baselines import posthoc_mqc, tthinker_mqc
from repro.baselines.naive import (
    all_quasi_cliques,
    maximal_quasi_cliques as oracle_mqc,
    minimal_keyword_covers,
)
from repro.core import maximality_constraints
from repro.core.runtime import ContigraEngine
from repro.exec import ProcessShardScheduler
from repro.graph import erdos_renyi
from repro.patterns import quasi_clique_patterns_up_to

from conftest import labeled_random_graph


class TestFiveWayMQCAgreement:
    """Contigra, sharded Contigra, Peregrine+, TThinker, oracle."""

    @given(st.integers(0, 10_000), st.sampled_from([0.6, 0.7, 0.8]))
    @settings(max_examples=8, deadline=None)
    def test_all_systems_agree(self, seed, gamma):
        g = erdos_renyi(13, 0.45, seed=seed)
        want = oracle_mqc(g, gamma, 3, 5)
        assert maximal_quasi_cliques(g, gamma, 5).all_sets() == want
        assert posthoc_mqc(g, gamma, 5).valid == want
        assert tthinker_mqc(g, gamma, 5).maximal == want
        cs = maximality_constraints(
            quasi_clique_patterns_up_to(5, gamma), induced=True
        )
        sharded = ContigraEngine(g, cs).run_with(
            ProcessShardScheduler(n_workers=2)
        )
        assert set(sharded.vertex_sets()) == want


class TestQuasiCliqueInvariants:
    @given(st.integers(0, 10_000), st.sampled_from([0.6, 0.8]))
    @settings(max_examples=10, deadline=None)
    def test_maximal_is_antichain_of_all(self, seed, gamma):
        """Maximal QCs are QCs, mutually non-nested, and dominate."""
        g = erdos_renyi(13, 0.5, seed=seed)
        universe = all_quasi_cliques(g, gamma, 3, 5)
        maximal = maximal_quasi_cliques(g, gamma, 5).all_sets()
        assert maximal <= universe
        for a in maximal:
            for b in maximal:
                assert not (a < b)
        for candidate in universe:
            assert any(candidate <= m for m in maximal) or any(
                candidate < other for other in universe
            )

    @given(st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_gamma_monotonicity(self, seed):
        """Raising gamma can only shrink the quasi-clique universe."""
        g = erdos_renyi(13, 0.5, seed=seed)
        loose = mine_quasi_cliques(g, 0.6, 5).all_sets()
        tight = mine_quasi_cliques(g, 0.8, 5).all_sets()
        assert tight <= loose

    @given(st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_fused_equals_plain(self, seed):
        g = erdos_renyi(13, 0.5, seed=seed)
        assert (
            mine_quasi_cliques_fused(g, 0.7, 5).all_sets()
            == mine_quasi_cliques(g, 0.7, 5).all_sets()
        )


class TestKeywordSearchInvariants:
    @given(st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_minimal_covers_are_minimal_and_complete(self, seed):
        g = labeled_random_graph(12, 0.3, num_labels=4, seed=seed)
        keywords = frozenset({0, 1})
        got = keyword_search(
            g, keywords, 4, collect_workload_stats=False
        ).minimal
        want = minimal_keyword_covers(g, keywords, 4)
        assert got == want
        # pairwise non-nested
        for a in got:
            for b in got:
                assert not (a < b)

    @given(st.integers(0, 10_000))
    @settings(max_examples=8, deadline=None)
    def test_larger_budget_only_adds(self, seed):
        """Raising max_size can only add minimal covers (smaller ones
        stay minimal: minimality is judged against subsets only)."""
        g = labeled_random_graph(12, 0.3, num_labels=4, seed=seed)
        small = keyword_search(
            g, [0, 1], 3, collect_workload_stats=False
        ).minimal
        large = keyword_search(
            g, [0, 1], 4, collect_workload_stats=False
        ).minimal
        assert small <= large
