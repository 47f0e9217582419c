"""Minimal Keyword Search (paper §2.2, §7, evaluated in §8.5).

KWS mines connected subgraphs of up to ``max_size`` vertices whose
labels cover a keyword set ``W``, under the minimality constraint: a
match must not contain a smaller connected subgraph that also covers
``W``.

Contigra's treatment (paper §7) drives this implementation:

* **Pattern workload.**  :func:`keyword_patterns` enumerates the
  labeled target patterns — every connected structure of size
  ``len(W)..max_size`` with the keywords placed injectively and
  wildcards (merged labels) elsewhere; with three keywords and
  ``max_size = 5`` this yields the paper's "up to 287 patterns".
* **Virtual state-space analysis.**  Each pattern is bucketed SKIP /
  NO-CHECK / EAGER before exploration
  (:func:`repro.core.statespace.classify_all`); the SKIP bucket is the
  paper's "273 of 287 patterns ... completely skipped".
* **Exploration with promotion.**  Matches are explored on the shared
  connected-set tree (:mod:`repro.mining.subsets`): an RL-Path
  matching at level ``k`` is the promoted starting state for level
  ``k + 1`` ("when an RL-Path to level k matches, its ETask gets
  promoted to patterns in level k+1", §8.5).  Disabling promotion
  re-explores each level from scratch, reproducing the ETask-count
  ablation.
* **Eager filtering.**  The first time a branch's subgraph covers
  ``W``, every extension is non-minimal, so the RL-Path is canceled
  on the spot; per-match data checks run only for EAGER-class
  matches.  RL-Path ordering (Fig 18) controls the order in which the
  violating states of a match are probed.
"""

from __future__ import annotations

import functools
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..core import statespace
from ..core.ordering import resolve_strategy
from ..exec.context import Budget
from ..graph.graph import Graph
from ..mining.stats import ConstraintStats
from ..mining.subsets import explore_connected_sets
from ..patterns.library import clique, path
from ..patterns.pattern import Pattern
from ..patterns.structures import connected_structures
from ..request import RequestError

import itertools


# ----------------------------------------------------------------------
# Pattern workload
# ----------------------------------------------------------------------


def _check_keyword_query(n_keywords: int, max_size: int) -> None:
    """Reject a query no pattern can answer — no keyword, ``max_size <
    1``, or more keywords than ``max_size`` vertices — with a
    :class:`~repro.request.RequestError` (a ``ValueError`` naming the
    field)."""
    if not n_keywords:
        raise RequestError("keywords", "need at least one keyword")
    if max_size < 1:
        raise RequestError("max_size", f"must be >= 1, got {max_size}")
    if max_size < n_keywords:
        raise RequestError(
            "max_size",
            f"{n_keywords} keywords need at least as many "
            f"vertices, got {max_size}",
        )


def keyword_patterns(
    keywords: Sequence[int], max_size: int
) -> List[Pattern]:
    """All labeled KWS target patterns for ``keywords`` up to ``max_size``.

    Keywords are placed injectively on distinct vertices; remaining
    vertices carry the wildcard label (they stand for the merged
    non-keyword labels).  Patterns are deduplicated canonically.
    """
    keyword_list = list(dict.fromkeys(keywords))
    _check_keyword_query(len(keyword_list), max_size)
    results: List[Pattern] = []
    seen: Set[tuple] = set()
    for size in range(len(keyword_list), max_size + 1):
        for structure in connected_structures(size):
            for positions in itertools.permutations(
                range(size), len(keyword_list)
            ):
                labels: List[Optional[int]] = [None] * size
                for keyword, position in zip(keyword_list, positions):
                    labels[position] = keyword
                candidate = structure.with_labels(labels)
                key = candidate.canonical_key()
                if key in seen:
                    continue
                seen.add(key)
                results.append(candidate)
    return results


def classify_workload(
    keywords: Sequence[int], max_size: int
) -> Dict[str, List[Pattern]]:
    """State-space classification of the whole pattern workload (§7)."""
    return statespace.classify_all(
        keyword_patterns_cached(frozenset(keywords), max_size), keywords
    )


# ----------------------------------------------------------------------
# Data-side pattern classification (memoized per labeled shape)
# ----------------------------------------------------------------------


class _MatchClassifier:
    """Maps a matched vertex set to its pattern's state-space class.

    The mined pattern of a match keeps keyword labels where the data
    has them and wildcards elsewhere (merged labels, §2.3), so the
    class depends only on the structure plus keyword placement.  The
    memo key is the *exact* labeled shape in walk order (:meth:`key`):
    one int with a bit per adjacent pair of positions, read off
    ``neighbor_set`` membership, plus the keyword-or-``None`` label
    tuple.  Pairs are numbered colexicographically — pair (i, j),
    i < j, owns bit ``j(j-1)/2 + i`` — so the key of ``s + [w]`` is the
    key of ``s`` plus ``w``'s ``len(s)`` adjacency bits and one label:
    a sibling batch keys its shared prefix once.  The edge list is
    rebuilt from the int only on a miss.  Exact-form equality implies
    isomorphism, so entries are merely duplicated across isomorphic
    forms instead of being re-derived per match.  (Keying by canonical
    form would build a :class:`Pattern` and search its vertex orders
    for every match, which dwarfs the classification itself.)
    """

    def __init__(self, keywords: FrozenSet[int]) -> None:
        self._keywords = keywords
        # Data label -> pattern label: a keyword stays, the rest merge
        # into the wildcard (``dict.get`` answers ``None`` for them).
        self._pattern_label = {kw: kw for kw in keywords}.get
        self._classes: Dict[Tuple[int, tuple], str] = {}

    def key(
        self,
        graph: Graph,
        members: Sequence[int],
        prefix: Tuple[int, tuple] = (0, ()),
    ) -> Tuple[int, tuple]:
        """Walk-order shape key of ``members``, grown from ``prefix``,
        the key of ``members[:len(prefix[1])]``."""
        adjacency, labels = prefix
        start = len(labels)
        bit = 1 << (start * (start - 1) // 2)
        neighbor_set = graph.neighbor_set
        data_labels = graph.labels
        pattern_label = self._pattern_label
        for j in range(start, len(members)):
            w = members[j]
            adjacent = neighbor_set(w)
            for v in members[:j]:
                if v in adjacent:
                    adjacency |= bit
                bit <<= 1
            labels += (pattern_label(data_labels[w]),)
        return adjacency, labels

    def classify(
        self,
        graph: Graph,
        members: Sequence[int],
        prefix: Tuple[int, tuple] = (0, ()),
    ) -> str:
        """The class of ``members``; ``prefix`` as in :meth:`key`."""
        key = self.key(graph, members, prefix)
        cached = self._classes.get(key)
        if cached is None:
            adjacency, labels = key
            n = len(labels)
            pairs = [(i, j) for j in range(n) for i in range(j)]
            edges = [
                edge
                for slot, edge in enumerate(pairs)
                if adjacency >> slot & 1
            ]
            cached = self._classify_shape(n, edges, labels)
            self._classes[key] = cached
        return cached

    def _classify_shape(
        self,
        n: int,
        edges: Sequence[tuple],
        labels: Sequence[Optional[int]],
    ) -> str:
        """Bitmask re-derivation of §7's three-way bucketing.

        Semantically identical to
        :func:`repro.core.statespace.classify_minimality` (a property
        test asserts this) but works on adjacency bitmasks instead of
        Pattern objects — this runs once per labeled shape on the
        mining hot path, where object construction dominates.
        """
        adjacency = [0] * n
        for a, b in edges:
            adjacency[a] |= 1 << b
            adjacency[b] |= 1 << a
        possible_violation = False
        for mask in range(1, (1 << n) - 1):  # proper non-empty subsets
            # connectivity by bitmask BFS
            start = mask & -mask
            seen = start
            frontier = start
            while frontier:
                reached = 0
                probe = frontier
                while probe:
                    low = probe & -probe
                    reached |= adjacency[low.bit_length() - 1]
                    probe ^= low
                frontier = reached & mask & ~seen
                seen |= frontier
            if seen != mask:
                continue
            definite = set()
            wildcards = 0
            probe = mask
            while probe:
                low = probe & -probe
                lab = labels[low.bit_length() - 1]
                if lab is None:
                    wildcards += 1
                else:
                    definite.add(lab)
                probe ^= low
            missing = self._keywords - definite
            if not missing:
                return statespace.SKIP
            if len(missing) <= wildcards:
                possible_violation = True
        return statespace.EAGER if possible_violation else statespace.NO_CHECK


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------


class KeywordSearchResult:
    """Minimal covers plus work counters and workload statistics."""

    def __init__(self) -> None:
        self.minimal: Set[FrozenSet[int]] = set()
        self.stats = ConstraintStats()
        self.elapsed = 0.0
        self.patterns_total = 0
        self.patterns_skipped = 0

    @property
    def count(self) -> int:
        return len(self.minimal)

    @property
    def pattern_skip_ratio(self) -> float:
        if self.patterns_total == 0:
            return 0.0
        return self.patterns_skipped / self.patterns_total

    def __repr__(self) -> str:
        return f"KeywordSearchResult({self.count} minimal covers)"


# ----------------------------------------------------------------------
# The Contigra KWS explorer
# ----------------------------------------------------------------------


def _ordered_cover_check(
    graph: Graph,
    vertex_set: Sequence[int],
    coverage: statespace.KeywordCoverage,
    size_limit: int,
    ascending: bool,
    stats: ConstraintStats,
) -> bool:
    """Probe violating states in strategy order (Fig 18's knob).

    Identical outcome to
    :func:`repro.core.statespace.has_connected_cover_smaller_than`,
    but the subset sizes are scanned smallest-first (``ascending``,
    the sparse-first analog) or largest-first; the early exit makes
    the probe count — and hence the work — order-dependent.
    """
    members = list(dict.fromkeys(vertex_set))
    covers = coverage.covers
    # A cover has at least one vertex per keyword.
    fewest = bin(coverage.full).count("1")
    sizes = range(fewest, min(size_limit, len(members)) + 1)
    # Smaller violating states are sparser than larger ones, so the
    # strategy maps to the size scan direction.  (Sorting *within* a
    # size by induced density was tried and reverted: it costs more
    # than the early exits it buys at this scale.)
    for size in sizes if ascending else reversed(sizes):
        for subset in itertools.combinations(members, size):
            stats.constraint_checks += 1
            if covers(subset) and graph.is_connected_subset(subset):
                return True
    return False


def keyword_search(
    graph: Graph,
    keywords: Iterable[int],
    max_size: int,
    enable_promotion: bool = True,
    enable_eager_filter: bool = True,
    enable_elimination: bool = True,
    rl_strategy: str = "heuristic",
    time_limit: Optional[float] = None,
    collect_workload_stats: bool = True,
) -> KeywordSearchResult:
    """Mine minimal keyword covers with Contigra (§7 pipeline).

    The three toggles ablate the paper's techniques: ``promotion``
    (level-to-level reuse), ``eager_filter`` (RL-Path cancellation at
    the first cover), ``elimination`` (state-space SKIP/NO-CHECK
    classification).  All settings return identical minimal covers;
    only the work differs.

    A query no pattern can answer is rejected before any mining
    (:func:`_check_keyword_query`).
    """
    keyword_set = frozenset(keywords)
    if not graph.is_labeled:
        raise ValueError("keyword search requires a labeled graph")
    _check_keyword_query(len(keyword_set), max_size)
    result = KeywordSearchResult()
    stats = result.stats
    classifier = _MatchClassifier(keyword_set)
    budget = Budget(time_limit=time_limit)
    check_deadline = budget.check_deadline
    # The KWS workload always spans sparse (tree) and dense (clique)
    # structures, so Fig 9's decision tree lands in the "mixed
    # targets" branch: decide by data-graph density.  Resolving on two
    # representative targets avoids materializing the full pattern
    # workload just to pick an ordering.  (A single vertex is its own
    # clique and has no path beside it.)
    representatives = [clique(max_size)]
    if max_size > 1:
        representatives.append(path(max_size - 1))
    ascending = resolve_strategy(rl_strategy, representatives, graph)

    # Coverage is carried down the connected-set tree, not rebuilt per
    # visit: covered[d] is the keyword mask of the current branch's
    # first d vertices.  The explorer visits a set right after (a
    # descendant of) its prefix — the latest visited set one vertex
    # shorter *is* the prefix — so covered[d - 1] is still the prefix's
    # mask when its extension arrives.
    coverage = statespace.KeywordCoverage(graph, keyword_set, max_size)
    bits, full, room = coverage.bits, coverage.full, coverage.room
    covered = [0] * (max_size + 1)

    def handle_cover(
        current: Sequence[int], prefix: Tuple[int, tuple] = (0, ())
    ) -> None:
        """Classify a covering match and emit if minimal (``prefix``:
        the classifier key of ``current[:-1]``, when one is known)."""
        stats.matches_found += 1
        if enable_elimination:
            cls = classifier.classify(graph, current, prefix)
            if cls == statespace.SKIP:
                stats.etasks_skipped += 1
                return
            if cls == statespace.NO_CHECK:
                result.minimal.add(frozenset(current))
                return
        stats.matches_checked += 1
        if not _ordered_cover_check(
            graph,
            current,
            coverage,
            size_limit=len(current) - 1,
            ascending=ascending,
            stats=stats,
        ):
            result.minimal.add(frozenset(current))

    def visit(current: Sequence[int]) -> bool:
        check_deadline()
        depth = len(current)
        mask = covered[depth] = covered[depth - 1] | bits[current[-1]]
        if mask == full:
            handle_cover(current)
            if enable_eager_filter:
                # Any extension contains this cover: cancel the RL-Path.
                stats.eager_filter_cuts += 1
                return False
        elif enable_elimination and depth > room[mask]:
            # Virtual state-space skip, coverage side: every pattern
            # this branch could still match needs one vertex per
            # missing keyword; prune when the size cap can't fit them
            # (the paper's "ETasks targeting these patterns are
            # completely skipped", applied to the non-covering side).
            stats.etasks_skipped += 1
            return False
        return depth < max_size

    def leaves(prefix: List[int], children: List[int]) -> None:
        """``visit``'s answer for one batch of ``max_size``-vertex
        siblings.  At the size cap a mask short of ``full`` misses a
        keyword, so ``max_size > room[mask]``: each child either covers
        or takes the size-cap prune, and one comprehension sorts them.
        """
        check_deadline()
        mask = covered[len(prefix)]
        covering = [w for w in children if mask | bits[w] == full]
        if enable_elimination:
            stats.etasks_skipped += len(children) - len(covering)
        if not covering:
            return
        key = classifier.key(graph, prefix)
        for w in covering:
            prefix.append(w)
            handle_cover(prefix, key)
            prefix.pop()
        if enable_eager_filter:
            stats.eager_filter_cuts += len(covering)

    if enable_promotion:
        explore_connected_sets(
            graph, max_size, visit, stats=stats, leaves=leaves
        )
    else:
        # Without promotion each level's patterns are explored from
        # scratch: sizes re-walk their whole prefix trees.
        for size in range(len(keyword_set), max_size + 1):

            def visit_at(current: Sequence[int], size=size) -> bool:
                check_deadline()
                depth = len(current)
                mask = covered[depth] = covered[depth - 1] | bits[current[-1]]
                if depth == size:
                    if mask == full:
                        handle_cover(current)
                    return False
                if mask == full and enable_eager_filter:
                    stats.eager_filter_cuts += 1
                    return False
                return True

            explore_connected_sets(graph, size, visit_at, stats=stats)

    if collect_workload_stats:
        buckets = classify_workload(sorted(keyword_set), max_size)
        result.patterns_total = sum(len(g) for g in buckets.values())
        result.patterns_skipped = len(buckets[statespace.SKIP])
    result.elapsed = budget.elapsed()
    return result


@functools.lru_cache(maxsize=None)
def keyword_patterns_cached(
    keyword_set: FrozenSet[int], max_size: int
) -> List[Pattern]:
    """Memoized :func:`keyword_patterns` (workload classification and
    strategy resolution re-enumerate nothing)."""
    return keyword_patterns(sorted(keyword_set), max_size)


def frequent_and_rare_keywords(
    graph: Graph, count: int = 3
) -> Tuple[List[int], List[int]]:
    """The paper's MF / LF keyword sets (§8.5): the ``count`` most
    frequent labels and ``count`` less frequent ones.

    "Less frequent" follows the paper's spirit — rare but present; we
    take the rarest labels that still occur at least twice so queries
    are satisfiable.
    """
    freq = graph.label_frequencies()
    if len(freq) < count:
        raise ValueError(f"graph has fewer than {count} distinct labels")
    ranked = sorted(freq.items(), key=lambda item: (-item[1], item[0]))
    most_frequent = [label for label, _ in ranked[:count]]
    rare_pool = [label for label, n in reversed(ranked) if n >= 2]
    less_frequent = rare_pool[:count]
    if len(less_frequent) < count:
        less_frequent = [label for label, _ in ranked[-count:]]
    return most_frequent, less_frequent
