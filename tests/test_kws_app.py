"""Tests for the keyword-search application (paper §7 / §8.5)."""

import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.apps.kws as kws
from repro.apps.kws import (
    _MatchClassifier,
    classify_workload,
    frequent_and_rare_keywords,
    keyword_patterns,
    keyword_search,
)
from repro.baselines import posthoc_kws
from repro.baselines.naive import minimal_keyword_covers
from repro.core import statespace
from repro.errors import TimeLimitExceeded
from repro.graph import attach_labels, erdos_renyi

from conftest import labeled_random_graph

KW = [0, 1, 2]


class TestPatternWorkload:
    def test_pattern_count_scale(self):
        """3 keywords, size <= 5: a few hundred patterns (paper: 287)."""
        patterns = keyword_patterns(KW, 5)
        assert 200 <= len(patterns) <= 600

    def test_small_workload_exact(self):
        # size <= 3 with 3 keywords: path (3 distinct middle choices)
        # and triangle (1) -> 4 patterns.
        assert len(keyword_patterns(KW, 3)) == 4

    def test_all_cover_keywords(self):
        for p in keyword_patterns(KW, 4):
            definite = {lab for lab in p.labels if lab is not None}
            assert definite == set(KW)

    def test_canonical_dedup(self):
        patterns = keyword_patterns(KW, 4)
        keys = {p.canonical_key() for p in patterns}
        assert len(keys) == len(patterns)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            keyword_patterns([], 4)
        with pytest.raises(ValueError):
            keyword_patterns(KW, 2)

    def test_classification_mostly_skip(self):
        """The §7 claim: ~95% of patterns are skipped outright."""
        buckets = classify_workload(KW, 5)
        ratio = statespace.skip_ratio(buckets)
        assert ratio > 0.85


class TestSearchCorrectness:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_oracle(self, seed):
        g = attach_labels(
            erdos_renyi(18, 0.2, seed=seed), num_labels=6, seed=seed
        )
        got = keyword_search(
            g, KW, 5, collect_workload_stats=False
        ).minimal
        assert got == minimal_keyword_covers(g, KW, 5)

    @pytest.mark.parametrize(
        "toggles",
        [
            {"enable_promotion": False},
            {"enable_eager_filter": False},
            {"enable_elimination": False},
            {"rl_strategy": "dense-first"},
            {"rl_strategy": "sparse-first"},
            {
                "enable_promotion": False,
                "enable_eager_filter": False,
                "enable_elimination": False,
            },
        ],
    )
    def test_toggles_never_change_results(self, toggles):
        g = labeled_random_graph(16, 0.25, num_labels=5, seed=21)
        want = minimal_keyword_covers(g, KW, 5)
        got = keyword_search(
            g, KW, 5, collect_workload_stats=False, **toggles
        ).minimal
        assert got == want

    def test_baseline_agrees(self):
        g = labeled_random_graph(16, 0.25, num_labels=5, seed=2)
        ours = keyword_search(g, KW, 5, collect_workload_stats=False)
        baseline = posthoc_kws(g, KW, 5)
        assert ours.minimal == baseline.valid

    @given(st.integers(0, 10_000))
    @settings(max_examples=12, deadline=None)
    def test_property_agreement(self, seed):
        g = labeled_random_graph(12, 0.3, num_labels=4, seed=seed)
        got = keyword_search(
            g, [0, 1], 4, collect_workload_stats=False
        ).minimal
        assert got == minimal_keyword_covers(g, [0, 1], 4)

    def test_unlabeled_graph_rejected(self):
        with pytest.raises(ValueError):
            keyword_search(erdos_renyi(8, 0.4, seed=0), KW, 4)

    def test_time_limit(self):
        g = labeled_random_graph(80, 0.3, num_labels=8, seed=3)
        with pytest.raises(TimeLimitExceeded):
            keyword_search(
                g, KW, 5, time_limit=0.001, collect_workload_stats=False
            )


class TestSearchWork:
    def test_eager_filter_reduces_checks(self):
        g = labeled_random_graph(18, 0.3, num_labels=4, seed=5)
        eager = keyword_search(g, KW, 5, collect_workload_stats=False)
        lazy = keyword_search(
            g, KW, 5, enable_eager_filter=False,
            collect_workload_stats=False,
        )
        assert eager.stats.rl_paths <= lazy.stats.rl_paths

    def test_promotion_reduces_exploration(self):
        g = labeled_random_graph(18, 0.3, num_labels=4, seed=6)
        promoted = keyword_search(g, KW, 5, collect_workload_stats=False)
        scratch = keyword_search(
            g, KW, 5, enable_promotion=False,
            collect_workload_stats=False,
        )
        assert promoted.stats.rl_paths < scratch.stats.rl_paths

    def test_elimination_avoids_data_checks(self):
        g = labeled_random_graph(18, 0.3, num_labels=4, seed=7)
        with_elim = keyword_search(g, KW, 5, collect_workload_stats=False)
        without = keyword_search(
            g, KW, 5, enable_elimination=False,
            collect_workload_stats=False,
        )
        assert with_elim.stats.matches_checked <= without.stats.matches_checked

    def test_workload_stats_collected(self):
        g = labeled_random_graph(14, 0.3, num_labels=4, seed=8)
        result = keyword_search(g, KW, 5)
        assert result.patterns_total > 0
        assert 0 < result.pattern_skip_ratio <= 1


class TestQueryValidation:
    """A query no pattern can answer is rejected before any mining, and
    the answer does not depend on ``collect_workload_stats``."""

    @pytest.mark.parametrize("collect", [True, False])
    @pytest.mark.parametrize(
        "keywords, max_size, field",
        [([], 4, "keywords"), (KW, 2, "max_size"), (KW, 0, "max_size"),
         ([0], 0, "max_size")],
    )
    def test_rejected_up_front(self, keywords, max_size, field, collect,
                               monkeypatch):
        import repro.apps.kws as kws
        from repro.request import RequestError

        def never(*_args, **_kwargs):
            raise AssertionError("mined before validating")

        monkeypatch.setattr(kws, "explore_connected_sets", never)
        g = labeled_random_graph(10, 0.3, num_labels=4, seed=1)
        with pytest.raises(ValueError) as err:
            keyword_search(
                g, keywords, max_size, collect_workload_stats=collect
            )
        assert isinstance(err.value, RequestError)
        assert err.value.field == field

    @pytest.mark.parametrize("collect", [True, False])
    def test_single_vertex_query(self, collect):
        g = labeled_random_graph(20, 0.3, num_labels=4, seed=1)
        result = keyword_search(g, [2], 1, collect_workload_stats=collect)
        assert result.minimal == {
            frozenset([v]) for v in g.vertices_with_label(2)
        }
        assert result.minimal == minimal_keyword_covers(g, [2], 1)


def _per_leaf_explorer(explore):
    """``explore_connected_sets`` without the caller's ``leaves``: the
    default per-leaf adapter sends every leaf through ``visit``."""

    def per_leaf(*args, leaves=None, **kwargs):
        return explore(*args, **kwargs)

    return per_leaf


class TestLeafBatch:
    """The promoted walk answers each last-level sibling batch at once;
    covers and every counter equal the per-leaf walk's."""

    TOGGLES = list(itertools.product([True, False], repeat=3))

    @pytest.mark.parametrize("toggles", TOGGLES)
    @given(
        st.integers(10, 16),
        st.floats(0.15, 0.45),
        st.integers(3, 6),
        st.integers(0, 10_000),
    )
    @settings(max_examples=8, deadline=None)
    def test_same_covers_and_counters_as_per_leaf(
        self, toggles, n, p, num_labels, seed
    ):
        promotion, eager_filter, elimination = toggles
        g = labeled_random_graph(n, p, num_labels=num_labels, seed=seed)

        def run():
            result = keyword_search(
                g, KW, 5,
                enable_promotion=promotion,
                enable_eager_filter=eager_filter,
                enable_elimination=elimination,
                collect_workload_stats=False,
            )
            return result.minimal, result.stats.as_dict()

        batched = run()
        per_leaf = _per_leaf_explorer(kws.explore_connected_sets)
        with mock.patch.object(kws, "explore_connected_sets", per_leaf):
            reference = run()
        assert batched == reference

    def test_time_limit_with_the_batch_on(self):
        batches = []
        explore = kws.explore_connected_sets

        def spying(*args, leaves=None, **kwargs):
            def counting(prefix, children):
                batches.append(len(children))
                leaves(prefix, children)

            return explore(*args, leaves=counting, **kwargs)

        g = labeled_random_graph(80, 0.3, num_labels=8, seed=3)
        with mock.patch.object(kws, "explore_connected_sets", spying):
            with pytest.raises(TimeLimitExceeded):
                keyword_search(
                    g, KW, 5, time_limit=0.001,
                    collect_workload_stats=False,
                )
        assert batches


class TestCounterPin:
    """Same nodes, same order, every counter: the work counters and the
    covers of one seeded graph under all eight ablations, as recorded
    before coverage moved onto the bit table (PR 22's parent commit)."""

    MINIMAL = {
        (0, 1, 2, 13, 14), (0, 1, 3, 12), (0, 1, 3, 13), (0, 1, 12, 14),
        (0, 2, 11, 13, 14), (0, 3, 10, 13), (0, 4, 11, 12, 14),
        (0, 6, 11, 12, 14), (0, 10, 13, 14), (0, 13, 14, 15),
        (1, 2, 3, 11, 12), (1, 3, 4, 11, 12), (1, 3, 4, 11, 13),
        (1, 3, 5, 9, 12), (1, 3, 6, 11, 12), (1, 3, 8, 12),
        (1, 5, 9, 12, 14), (1, 5, 12, 14, 15), (2, 3, 11, 13),
        (2, 10, 11, 13, 14), (2, 11, 13, 14, 15), (3, 5, 13),
        (3, 8, 13, 15), (5, 13, 14), (8, 10, 13, 14), (8, 12, 14),
        (8, 13, 14, 15),
    }
    # (promotion, eager_filter, elimination) -> non-zero counters.
    COUNTERS = {
        (True, True, True): dict(
            etasks_started=16, etasks_completed=16, rl_paths=889,
            matches_found=115, extensions_attempted=873,
            etasks_skipped=567, constraint_checks=239,
            matches_checked=24, eager_filter_cuts=115),
        (True, True, False): dict(
            etasks_started=16, etasks_completed=16, rl_paths=1214,
            matches_found=115, extensions_attempted=1198,
            constraint_checks=1072, matches_checked=115,
            eager_filter_cuts=115),
        (True, False, True): dict(
            etasks_started=16, etasks_completed=16, rl_paths=979,
            matches_found=205, extensions_attempted=963,
            etasks_skipped=657, constraint_checks=239,
            matches_checked=24),
        (True, False, False): dict(
            etasks_started=16, etasks_completed=16, rl_paths=1304,
            matches_found=205, extensions_attempted=1288,
            constraint_checks=1739, matches_checked=205),
        (False, True, True): dict(
            etasks_started=48, etasks_completed=48, rl_paths=1831,
            matches_found=115, extensions_attempted=1783,
            etasks_skipped=88, constraint_checks=239,
            matches_checked=24, eager_filter_cuts=34),
        (False, True, False): dict(
            etasks_started=48, etasks_completed=48, rl_paths=1831,
            matches_found=115, extensions_attempted=1783,
            constraint_checks=1072, matches_checked=115,
            eager_filter_cuts=34),
        (False, False, True): dict(
            etasks_started=48, etasks_completed=48, rl_paths=1925,
            matches_found=205, extensions_attempted=1877,
            etasks_skipped=178, constraint_checks=239,
            matches_checked=24),
        (False, False, False): dict(
            etasks_started=48, etasks_completed=48, rl_paths=1925,
            matches_found=205, extensions_attempted=1877,
            constraint_checks=1739, matches_checked=205),
    }

    @pytest.mark.parametrize("toggles", sorted(COUNTERS))
    def test_counters_and_covers_as_recorded(self, toggles):
        promotion, eager_filter, elimination = toggles
        g = labeled_random_graph(16, 0.25, num_labels=5, seed=21)
        result = keyword_search(
            g, KW, 5,
            enable_promotion=promotion,
            enable_eager_filter=eager_filter,
            enable_elimination=elimination,
            collect_workload_stats=False,
        )
        counters = result.stats.as_dict()
        assert {k: v for k, v in counters.items() if v} == (
            self.COUNTERS[toggles]
        )
        assert {tuple(sorted(s)) for s in result.minimal} == self.MINIMAL


class TestFastClassifier:
    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_matches_statespace_classification(self, seed):
        """The bitmask fast path must equal the reference classifier, on
        every connected combo fed sorted and in a shuffled walk order."""
        from repro.patterns import Pattern

        g = labeled_random_graph(9, 0.35, num_labels=5, seed=seed)
        keywords = frozenset({0, 1, 2})
        classifier = _MatchClassifier(keywords)
        rng = random.Random(seed)
        for size in (3, 4, 5):
            for combo in itertools.combinations(range(9), size):
                if not g.is_connected_subset(combo):
                    continue
                ordered = sorted(combo)
                position = {v: i for i, v in enumerate(ordered)}
                edges = [
                    (position[u], position[w])
                    for u in ordered
                    for w in g.neighbors(u)
                    if w in position and u < w
                ]
                labels = [
                    g.label(v) if g.label(v) in keywords else None
                    for v in ordered
                ]
                reference = statespace.classify_minimality(
                    Pattern(size, edges, labels=labels), keywords
                )
                shuffled = list(combo)
                rng.shuffle(shuffled)
                assert classifier.classify(g, combo) == reference
                assert classifier.classify(g, shuffled) == reference

    @given(
        st.integers(2, 9),
        st.floats(0.2, 0.8),
        st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_key_is_prefix_stable(self, n, p, seed):
        """The key of ``s[:k]`` is the low k(k-1)/2 bits and first k
        labels of the key of ``s``, and growing a prefix key one member
        at a time gives the key of the whole set."""
        g = labeled_random_graph(n, p, num_labels=4, seed=seed)
        members = list(range(n))
        random.Random(seed).shuffle(members)
        classifier = _MatchClassifier(frozenset({0, 1}))
        adjacency, labels = classifier.key(g, members)
        grown = (0, ())
        for k in range(1, n + 1):
            low = (1 << (k * (k - 1) // 2)) - 1
            assert classifier.key(g, members[:k]) == (
                adjacency & low, labels[:k]
            )
            grown = classifier.key(g, members[:k], grown)
        assert grown == (adjacency, labels)
        # Pair (i, j), i < j, owns bit j(j-1)/2 + i.
        for j in range(n):
            for i in range(j):
                bit = adjacency >> (j * (j - 1) // 2 + i) & 1
                assert bit == (members[i] in g.neighbor_set(members[j]))

    def test_same_shape_shares_one_memo_entry(self, monkeypatch):
        """The key is the shape in walk-order form, not the vertex ids:
        two paths walked from their keyword middle classify once."""
        from repro.graph import Graph

        # Two paths, 0 - 1 - 2 and 3 - 4 - 5, keyword on the middle
        # vertex of each; the other labels differ but are not keywords.
        adjacency = [[1], [0, 2], [1], [4], [3, 5], [4]]
        g = Graph(adjacency, labels=[7, 0, 8, 9, 0, 7])
        classifier = _MatchClassifier(frozenset({0}))
        calls = []
        derive = classifier._classify_shape

        def counting(n, edges, labels):
            calls.append((n, tuple(edges), tuple(labels)))
            return derive(n, edges, labels)

        monkeypatch.setattr(classifier, "_classify_shape", counting)
        first = classifier.classify(g, [1, 2, 0])
        second = classifier.classify(g, [4, 3, 5])
        assert first == second == statespace.SKIP
        assert calls == [(3, ((0, 1), (0, 2)), (0, None, None))]
        assert len(classifier._classes) == 1
        # The same path walked from an end is another form: one more
        # entry, the same class.
        assert classifier.classify(g, [0, 1, 2]) == statespace.SKIP
        assert calls[1] == (3, ((0, 1), (1, 2)), (None, 0, None))
        assert len(classifier._classes) == 2
        # A different shape on the same vertices' labels is a new entry.
        triangle = Graph([[1, 2], [0, 2], [0, 1]], labels=[0, 7, 8])
        classifier.classify(triangle, [0, 1, 2])
        assert len(calls) == 3 and len(classifier._classes) == 3


class TestKeywordSelection:
    def test_frequent_and_rare(self):
        g = labeled_random_graph(60, 0.1, num_labels=8, seed=9)
        mf, lf = frequent_and_rare_keywords(g, count=3)
        freq = g.label_frequencies()
        assert len(mf) == 3 and len(lf) == 3
        assert min(freq[k] for k in mf) >= max(freq[k] for k in lf)

    def test_too_few_labels_rejected(self):
        g = labeled_random_graph(10, 0.3, num_labels=2, seed=0)
        with pytest.raises(ValueError):
            frequent_and_rare_keywords(g, count=3)
