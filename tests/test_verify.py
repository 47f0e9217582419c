"""Tests for the result self-verification module."""

import pytest

from repro.apps import (
    maximal_quasi_cliques,
    mine_quasi_cliques,
    verify_maximal_quasi_cliques,
)
from repro.graph import erdos_renyi


class TestMQCVerification:
    def test_clean_result_passes(self):
        g = erdos_renyi(16, 0.45, seed=1)
        result = maximal_quasi_cliques(g, 0.7, 5)
        assert verify_maximal_quasi_cliques(
            g, result.all_sets(), 0.7, 5
        ) == []

    def test_detects_non_quasi_clique(self):
        g = erdos_renyi(16, 0.45, seed=1)
        result = maximal_quasi_cliques(g, 0.7, 5)
        # inject a sparse garbage set
        garbage = frozenset({0, 1, 2})
        while g.edges_within(sorted(garbage)) == 3:
            garbage = frozenset(
                {max(garbage) + 1, max(garbage) + 2, max(garbage) + 3}
            )
        sets = set(result.all_sets()) | {garbage}
        violations = verify_maximal_quasi_cliques(g, sets, 0.7, 5)
        assert violations

    def test_detects_nesting(self):
        g = erdos_renyi(16, 0.5, seed=2)
        result = maximal_quasi_cliques(g, 0.7, 5)
        big = max(result.all_sets(), key=len)
        nested = frozenset(sorted(big)[:-1])
        sets = set(result.all_sets()) | {nested}
        violations = verify_maximal_quasi_cliques(g, sets, 0.7, 5)
        assert any("contained" in v or "extendable" in v or "not a" in v
                   for v in violations)

    def test_detects_non_maximal(self):
        g = erdos_renyi(16, 0.5, seed=3)
        universe = mine_quasi_cliques(g, 0.7, 5)
        maximal = maximal_quasi_cliques(g, 0.7, 5).all_sets()
        non_maximal = next(
            iter(universe.all_sets() - maximal), None
        )
        if non_maximal is None:
            pytest.skip("no non-maximal quasi-clique in this graph")
        violations = verify_maximal_quasi_cliques(
            g, {non_maximal}, 0.7, 5
        )
        assert violations

    def test_size_range_enforced(self):
        g = erdos_renyi(10, 0.9, seed=4)
        violations = verify_maximal_quasi_cliques(
            g, {frozenset({0, 1})}, 0.7, 5, min_size=3
        )
        assert any("out of range" in v for v in violations)
