"""Tests for unconstrained QC mining (plain vs fused) and the ESU tree."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.quasicliques import (
    mine_quasi_cliques,
    mine_quasi_cliques_fused,
    quasi_clique_feasible,
)
from repro.baselines.naive import all_quasi_cliques, connected_vertex_sets
from repro.graph import erdos_renyi, graph_from_edges
from repro.mining.stats import MiningStats
from repro.mining.subsets import count_connected_sets, explore_connected_sets

from conftest import graph_strategy


class TestESU:
    @pytest.mark.parametrize("seed", range(4))
    def test_counts_match_oracle(self, seed):
        g = erdos_renyi(12, 0.3, seed=seed)
        assert count_connected_sets(g, 5) == len(
            connected_vertex_sets(g, 1, 5)
        )

    def test_each_set_exactly_once(self):
        g = erdos_renyi(10, 0.4, seed=7)
        seen = []

        def visit(current):
            seen.append(frozenset(current))
            return True

        explore_connected_sets(g, 4, visit)
        assert len(seen) == len(set(seen))
        assert set(seen) == set(connected_vertex_sets(g, 1, 4))

    def test_sets_are_connected(self):
        g = erdos_renyi(10, 0.3, seed=8)

        def visit(current):
            assert g.is_connected_subset(current)
            return True

        explore_connected_sets(g, 4, visit)

    def test_pruning_cuts_branch(self):
        g = graph_from_edges([(0, 1), (1, 2), (2, 3)])
        visited = []

        def visit(current):
            visited.append(tuple(sorted(current)))
            return len(current) < 2  # never grow past pairs

        explore_connected_sets(g, 4, visit)
        assert all(len(s) <= 2 for s in visited)

    def test_max_size_one(self):
        g = erdos_renyi(5, 0.5, seed=0)
        assert count_connected_sets(g, 1) == 5

    def test_invalid_max_size(self):
        with pytest.raises(ValueError):
            explore_connected_sets(
                erdos_renyi(3, 0.5, seed=0), 0, lambda s: True
            )

    @given(graph_strategy(max_vertices=9), st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_property_counts(self, g, max_size):
        assert count_connected_sets(g, max_size) == len(
            connected_vertex_sets(g, 1, max_size)
        )

    @given(
        graph_strategy(max_vertices=9),
        st.integers(1, 5),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_prefix_is_the_latest_shorter_visit(self, g, max_size, rng):
        """The contract per-branch stacks lean on (KWS carries keyword
        coverage this way): whatever ``visit`` answers, a visited set of
        k > 1 vertices extends the latest visited set of k - 1."""
        latest = {}

        def visit(current):
            k = len(current)
            if k > 1:
                assert latest[k - 1] == current[:-1]
            latest[k] = list(current)
            return rng.random() < 0.7

        explore_connected_sets(g, max_size, visit)

    @given(
        st.integers(6, 10),
        st.floats(0.2, 0.7),
        st.integers(0, 10_000),
        st.integers(1, 5),
        st.integers(2, 5),
    )
    @settings(max_examples=40, deadline=None)
    def test_leaves_batches_expand_to_the_per_leaf_walk(
        self, n, p, seed, max_size, keep
    ):
        """A ``leaves`` callback sees the last level one sibling batch at
        a time; expanded child by child (last child first) the batches
        are exactly the sets the per-leaf default visits, in the same
        order, with every counter the same."""
        g = erdos_renyi(n, p, seed=seed)

        def walk(batched):
            seen = []
            stats = MiningStats()

            def visit(current):
                seen.append(tuple(current))
                # Prune some branches: the contract holds whatever
                # ``visit`` answers.
                return sum(current) % keep != 0

            def leaves(prefix, children):
                assert len(prefix) == max_size - 1
                before = list(prefix)
                for w in reversed(children):
                    seen.append(tuple(prefix) + (w,))
                assert prefix == before

            explore_connected_sets(
                g, max_size, visit, stats=stats,
                leaves=leaves if batched else None,
            )
            return seen, stats.as_dict()

        assert walk(batched=True) == walk(batched=False)


class TestQuasiCliqueMining:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("gamma", [0.6, 0.8])
    def test_plain_matches_oracle(self, seed, gamma):
        g = erdos_renyi(14, 0.45, seed=seed)
        got = mine_quasi_cliques(g, gamma, 5).all_sets()
        assert got == all_quasi_cliques(g, gamma, 3, 5)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("gamma", [0.6, 0.8])
    def test_fused_matches_plain(self, seed, gamma):
        g = erdos_renyi(14, 0.45, seed=seed)
        plain = mine_quasi_cliques(g, gamma, 5)
        fused = mine_quasi_cliques_fused(g, gamma, 5)
        assert plain.all_sets() == fused.all_sets()
        for size in plain.by_size:
            assert plain.by_size[size] == fused.by_size.get(size, set())

    def test_fused_promotions_counted(self):
        g = erdos_renyi(16, 0.5, seed=2)
        fused = mine_quasi_cliques_fused(g, 0.6, 5)
        assert fused.stats.promotions > 0

    def test_result_accessors(self):
        g = erdos_renyi(14, 0.5, seed=3)
        result = mine_quasi_cliques(g, 0.8, 4)
        assert result.count == len(result.all_sets())
        assert all(
            len(s) == size
            for size, group in result.by_size.items()
            for s in group
        )


class TestFeasibility:
    def test_feasible_when_degrees_suffice(self):
        # a triangle can grow into a 4-clique if outside degrees allow
        assert quasi_clique_feasible([2, 2, 2], [3, 3, 3], 3, 6, 0.8)

    def test_infeasible_when_isolated(self):
        # one vertex has no reachable outside neighbors and too-low degree
        assert not quasi_clique_feasible([1, 2, 2], [0, 3, 3], 3, 6, 0.8)

    def test_safety_against_oracle(self):
        """No set on a growth path to a quasi-clique is ever pruned."""
        for seed in range(3):
            g = erdos_renyi(12, 0.5, seed=seed)
            want = all_quasi_cliques(g, 0.8, 3, 5)
            got = mine_quasi_cliques_fused(g, 0.8, 5).all_sets()
            assert got == want
