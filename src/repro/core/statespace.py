"""Virtual state-space analysis for predecessor dependencies (paper §7).

An RL-Path matching ``P^M`` violates a predecessor (minimality-style)
constraint when some state in its *state space* — any connected
subgraph of the match, not just the ones the RL-Path itself passed
through — matches a ``P^+``.  Constructing per-match state spaces is
combinatorial, so Contigra analyzes each target pattern's **virtual
state space** (all connected subpatterns) once, before exploration,
and buckets the pattern:

* ``SKIP`` — some virtual state definitely violates: every match of
  the pattern violates, so its ETasks are never scheduled.
* ``NO_CHECK`` — no virtual state can violate: matches are valid with
  zero runtime checking.
* ``EAGER`` — violation depends on data labels (merged/wildcard label
  positions): ETasks check violating states per level during
  exploration and cancel the RL-Path on a hit.

The concrete cover condition here is keyword coverage (the KWS
application); the analysis is exact for that semantics and the
data-level helpers double as the correctness oracle used in tests.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..graph.graph import Graph
from ..patterns.isomorphism import connected_subpatterns
from ..patterns.pattern import Pattern

SKIP = "skip"
NO_CHECK = "no-check"
EAGER = "eager"


def virtual_state_space(pattern: Pattern) -> List[Tuple[List[int], Pattern]]:
    """All *proper* connected subpatterns of ``pattern`` with their vertices."""
    states = []
    for subset in connected_subpatterns(
        pattern, min_size=1, max_size=pattern.num_vertices - 1
    ):
        states.append((subset, pattern.subpattern(subset)))
    return states


def _definite_labels(pattern: Pattern) -> FrozenSet[int]:
    return frozenset(
        lab for lab in pattern.labels if lab is not None
    )


def _wildcard_count(pattern: Pattern) -> int:
    return sum(1 for lab in pattern.labels if lab is None)


def classify_minimality(
    pattern: Pattern, keywords: FrozenSet[int]
) -> str:
    """Bucket one target pattern for the keyword-cover minimality constraint.

    ``pattern`` carries keyword labels on keyword vertices and ``None``
    (wildcard, i.e. merged labels) elsewhere.
    """
    definite_violation = False
    possible_violation = False
    for _, sub in virtual_state_space(pattern):
        missing = keywords - _definite_labels(sub)
        if not missing:
            definite_violation = True
            break
        if len(missing) <= _wildcard_count(sub):
            possible_violation = True
    if definite_violation:
        return SKIP
    if not possible_violation:
        return NO_CHECK
    return EAGER


def classify_all(
    patterns: Sequence[Pattern], keywords: Iterable[int]
) -> Dict[str, List[Pattern]]:
    """Classification of a whole workload, bucketed by class."""
    keyword_set = frozenset(keywords)
    buckets: Dict[str, List[Pattern]] = {SKIP: [], NO_CHECK: [], EAGER: []}
    for pattern in patterns:
        buckets[classify_minimality(pattern, keyword_set)].append(pattern)
    return buckets


def skip_ratio(buckets: Dict[str, List[Pattern]]) -> float:
    """Fraction of patterns whose ETasks are skipped (the §7 "95%")."""
    total = sum(len(group) for group in buckets.values())
    if total == 0:
        return 0.0
    return len(buckets[SKIP]) / total


# ----------------------------------------------------------------------
# Data-level checks (eager filtering and the correctness oracle)
# ----------------------------------------------------------------------


def covers(graph: Graph, vertex_set: Iterable[int], keywords: FrozenSet[int]) -> bool:
    """Whether the vertices' labels include every keyword.

    The set-spelled reference: :class:`KeywordCoverage` answers the
    same question in integer arithmetic and is tested against this.
    """
    found = set()
    for v in vertex_set:
        lab = graph.label(v)
        if lab in keywords:
            found.add(lab)
    return keywords <= found


class KeywordCoverage:
    """Keyword coverage as bit arithmetic, built once per query.

    Each keyword owns one bit, so the keywords a vertex set carries are
    the OR of its vertices' ``bits`` and the set covers when that
    equals ``full``.  A walker that grows sets one vertex at a time
    carries the mask down its branch (``mask | bits[v]`` per step)
    instead of re-reading labels.

    * ``bits[v]`` — the bit of ``v``'s label if it is a keyword, else 0.
    * ``full`` — the mask of a covering set.
    * ``room[mask]`` — the largest size a set carrying ``mask`` may have
      and still grow into a cover within ``max_size``: every missing
      keyword needs a vertex of its own, so ``max_size`` minus the
      missing count.  ``len(s) > room[mask]`` is the set-spelled
      ``len(s) + missing > max_size``.
    """

    __slots__ = ("bits", "full", "room")

    def __init__(
        self, graph: Graph, keywords: FrozenSet[int], max_size: int
    ) -> None:
        bit_of: Dict[Optional[int], int] = {
            kw: 1 << i for i, kw in enumerate(sorted(keywords))
        }
        # An unlabeled graph carries no keyword anywhere.
        labels: Sequence[Optional[int]] = (
            graph.labels or [None] * graph.num_vertices
        )
        self.bits: List[int] = [bit_of.get(lab, 0) for lab in labels]
        self.full: int = (1 << len(bit_of)) - 1
        floor = max_size - len(bit_of)
        self.room: List[int] = [
            floor + bin(mask).count("1") for mask in range(self.full + 1)
        ]

    def mask(self, vertex_set: Iterable[int]) -> int:
        """The keywords ``vertex_set`` carries, as a bit mask."""
        bits = self.bits
        found = 0
        for v in vertex_set:
            found |= bits[v]
        return found

    def covers(self, vertex_set: Iterable[int]) -> bool:
        """Same answer as :func:`covers`, without building a set."""
        return self.mask(vertex_set) == self.full


def has_connected_cover_smaller_than(
    graph: Graph,
    vertex_set: Sequence[int],
    keywords: FrozenSet[int],
    size_limit: int,
) -> bool:
    """Exists a connected subset of ``vertex_set`` below ``size_limit``
    whose labels cover all ``keywords``.

    This is the eager-filter predicate: during exploration, if the
    partial subgraph already contains such a subset, every completion
    of the RL-Path is non-minimal and the path is canceled.  Match
    vertex sets are tiny (<= 6), so subset enumeration is fine.
    """
    members = list(dict.fromkeys(vertex_set))
    for size in range(len(keywords), min(size_limit, len(members)) + 1):
        for subset in itertools.combinations(members, size):
            if covers(graph, subset, keywords) and graph.is_connected_subset(
                subset
            ):
                return True
    return False


def is_minimal_cover(
    graph: Graph, vertex_set: Sequence[int], keywords: FrozenSet[int]
) -> bool:
    """Ground-truth minimality: connected, covers W, and no proper
    connected subset covers W (paper §2.2 KWS definition)."""
    members = list(dict.fromkeys(vertex_set))
    if not covers(graph, members, keywords):
        return False
    if not graph.is_connected_subset(members):
        return False
    return not has_connected_cover_smaller_than(
        graph, members, keywords, size_limit=len(members) - 1
    )
