"""Tests for virtual state-space analysis (paper §7)."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import statespace
from repro.core.statespace import (
    EAGER,
    NO_CHECK,
    SKIP,
    KeywordCoverage,
    classify_all,
    classify_minimality,
    covers,
    has_connected_cover_smaller_than,
    is_minimal_cover,
    skip_ratio,
    virtual_state_space,
)
from repro.graph import Graph, graph_from_edges
from repro.patterns import Pattern, path, star, triangle

from conftest import graph_strategy, labeled_random_graph

KW = frozenset({0, 1, 2})


class TestVirtualStateSpace:
    def test_proper_connected_only(self):
        states = virtual_state_space(triangle())
        sizes = sorted(len(subset) for subset, _ in states)
        assert sizes == [1, 1, 1, 2, 2, 2]  # no size-3 (improper)

    def test_subpatterns_carry_labels(self):
        p = path(2).with_labels([0, 1, 2])
        labels = {
            tuple(sub.labels) for _, sub in virtual_state_space(p)
        }
        assert (0, 1) in labels


class TestClassification:
    def test_skip_when_subpattern_covers(self):
        # path 0-1-2-3 labeled kw0,kw1,kw2,* — prefix 0-1-2 covers.
        p = path(3).with_labels([0, 1, 2, None])
        assert classify_minimality(p, KW) == SKIP

    def test_no_check_when_cover_needs_every_vertex(self):
        p = path(2).with_labels([0, 1, 2])
        assert classify_minimality(p, KW) == NO_CHECK

    def test_eager_when_wildcard_could_complete(self):
        # star: center wildcard, leaves kw0..kw2.  Any proper connected
        # sub needs the center; a keyword-labeled center in the data
        # would make 'center+two leaves' a cover.
        p = star(3).with_labels([None, 0, 1, 2])
        assert classify_minimality(p, KW) == EAGER

    def test_triangle_exact_cover(self):
        p = triangle().with_labels([0, 1, 2])
        assert classify_minimality(p, KW) == NO_CHECK

    def test_classify_all_partitions(self):
        patterns = [
            path(3).with_labels([0, 1, 2, None]),
            path(2).with_labels([0, 1, 2]),
            star(3).with_labels([None, 0, 1, 2]),
        ]
        buckets = classify_all(patterns, KW)
        assert len(buckets[SKIP]) == 1
        assert len(buckets[NO_CHECK]) == 1
        assert len(buckets[EAGER]) == 1
        assert skip_ratio(buckets) == 1 / 3

    def test_skip_ratio_empty(self):
        assert skip_ratio({SKIP: [], NO_CHECK: [], EAGER: []}) == 0.0


class TestDataLevelChecks:
    def _labeled_path(self, labels):
        g = graph_from_edges(
            [(i, i + 1) for i in range(len(labels) - 1)]
        )
        return Graph(
            [g.neighbors(v) for v in g.vertices()], labels=labels
        )

    def test_covers(self):
        g = self._labeled_path([0, 1, 2, 9])
        assert covers(g, [0, 1, 2], KW)
        assert not covers(g, [0, 1, 3], KW)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_coverage_table_agrees_with_the_set_spelling(self, data):
        g = data.draw(graph_strategy(max_vertices=10, max_labels=5))
        keywords = data.draw(st.frozensets(st.integers(0, 5), max_size=4))
        max_size = data.draw(st.integers(len(keywords), 6))
        members = data.draw(
            st.lists(st.sampled_from(range(g.num_vertices)), max_size=6)
        )
        table = KeywordCoverage(g, keywords, max_size)
        mask = table.mask(members)
        assert (mask == table.full) == covers(g, members, keywords)
        assert table.covers(members) == covers(g, members, keywords)
        found = {g.label(v) for v in members} & keywords
        missing = len(keywords) - len(found)
        assert (len(members) > table.room[mask]) == (
            len(members) + missing > max_size
        )

    def test_coverage_table_on_unlabeled_graph(self):
        g = graph_from_edges([(0, 1), (1, 2)])
        assert not KeywordCoverage(g, KW, 3).covers([0, 1, 2])

    def test_minimal_cover_positive(self):
        g = self._labeled_path([0, 1, 2])
        assert is_minimal_cover(g, [0, 1, 2], KW)

    def test_minimal_cover_rejects_extra_leaf(self):
        g = self._labeled_path([0, 1, 2, 9])
        assert not is_minimal_cover(g, [0, 1, 2, 3], KW)

    def test_cut_vertex_keeps_minimality(self):
        # 0(kw0) - 1(*) - 2(kw1), plus 1-3(kw2): vertex 1 is unlabeled
        # but removing it disconnects -> minimal (paper Fig 3 note).
        g = graph_from_edges([(0, 1), (1, 2), (1, 3)])
        g = Graph([g.neighbors(v) for v in g.vertices()],
                  labels=[0, 9, 1, 2])
        assert is_minimal_cover(g, [0, 1, 2, 3], KW)

    def test_disconnected_not_cover(self):
        g = graph_from_edges([(0, 1), (2, 3)])
        g = Graph([g.neighbors(v) for v in g.vertices()],
                  labels=[0, 1, 2, 9])
        assert not is_minimal_cover(g, [0, 1, 2], KW)

    def test_has_connected_cover_smaller_than(self):
        g = self._labeled_path([0, 1, 2, 9])
        assert has_connected_cover_smaller_than(g, [0, 1, 2, 3], KW, 3)
        assert not has_connected_cover_smaller_than(g, [0, 1, 2], KW, 2)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_classification_consistent_with_data(self, seed):
        """SKIP-classified data shapes are never minimal; NO_CHECK
        shapes always are — on the data itself."""
        g = labeled_random_graph(10, 0.4, num_labels=5, seed=seed)
        keywords = KW
        for size in (3, 4):
            for combo in itertools.combinations(range(10), size):
                if not g.is_connected_subset(combo):
                    continue
                if not covers(g, combo, keywords):
                    continue
                labels = [
                    g.label(v) if g.label(v) in keywords else None
                    for v in combo
                ]
                position = {v: i for i, v in enumerate(combo)}
                edges = [
                    (position[u], position[w])
                    for u in combo
                    for w in g.neighbors(u)
                    if w in position and u < w
                ]
                pattern = Pattern(size, edges, labels=labels)
                cls = classify_minimality(pattern, keywords)
                minimal = is_minimal_cover(g, combo, keywords)
                if cls == SKIP:
                    assert not minimal
                elif cls == NO_CHECK:
                    assert minimal
