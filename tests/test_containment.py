"""Tests for pattern-level containment relations."""

import pytest

from repro.apps.mqc import mqc_constraint_set
from repro.patterns import containment
from repro.patterns import (
    classify_constraint,
    clique,
    contains,
    cycle,
    house,
    path,
    subpattern_embeddings,
    triangle,
)


class TestContains:
    def test_triangle_in_clique(self):
        assert contains(triangle(), clique(5))

    def test_square_not_in_clique_induced(self):
        assert contains(cycle(4), clique(5), induced=False)
        assert not contains(cycle(4), clique(5), induced=True)

    def test_embeddings_structure(self):
        embs = list(subpattern_embeddings(triangle(), house()))
        assert embs  # the roof
        for emb in embs:
            for u, v in triangle().edges:
                assert house().has_edge(emb[u], emb[v])


    def test_mqc_tables_ask_each_pair_once(self, monkeypatch):
        """A second γ 0.6 / ≤ 6 build reads every containment test from
        the pattern scope: equal pairs, no subpattern search."""
        first = mqc_constraint_set(0.6, 6)
        calls = []
        real = containment.contains_subpattern
        monkeypatch.setattr(
            containment, "contains_subpattern",
            lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs),
        )
        second = mqc_constraint_set(0.6, 6)

        def pairs(constraints):
            return [(c.p_m, c.p_plus) for c in constraints.all_constraints]

        assert pairs(second) == pairs(first) and len(pairs(first)) == 81
        assert calls == []


class TestClassification:
    def test_successor(self):
        assert classify_constraint(triangle(), house()) == "successor"

    def test_predecessor(self):
        assert classify_constraint(house(), triangle()) == "predecessor"

    def test_equal_sizes_rejected(self):
        with pytest.raises(ValueError):
            classify_constraint(triangle(), path(2))
