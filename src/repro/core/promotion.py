"""Task promotion (paper §5.3).

When a VTask finds a match for ``P⁺`` that contains the current
subgraph, that match is itself a subgraph the workload will want to
process (in MQC the containing quasi-clique must in turn be checked
for maximality).  Promotion converts the VTask's result directly into
an ETask-equivalent processing step, and cancels the from-scratch
ETask that would rediscover the same subgraph later.

At our vertex-set granularity promotion is realized with a registry:
the promoted subgraph is processed immediately (reusing every cached
set operation its VTask just stored — the cache-hit lift of Fig 13),
and recorded so regular ETasks reaching the same subgraph skip it
(counted as ETask cancellations, §8.4.1).
"""

from __future__ import annotations

from typing import Dict, Hashable, Set

from ..patterns.pattern import Pattern


class PromotionRegistry:
    """Tracks which subgraph matches have been processed per pattern.

    Keys are canonical assignment tuples (minimal automorphic image),
    which identify one match orbit under both matching semantics.
    """

    def __init__(self) -> None:
        self._processed: Dict[tuple, Set[Hashable]] = {}

    def mark(self, pattern: Pattern, key: Hashable) -> bool:
        """Record a processed match; True when newly recorded.

        The one probe per subgraph: a ``False`` return is the "already
        handled through promotion" answer callers skip on.
        """
        bucket = self._processed.setdefault(pattern.structure_key(), set())
        if key in bucket:
            return False
        bucket.add(key)
        return True

    def count(self) -> int:
        """Total processed subgraphs across patterns."""
        return sum(len(bucket) for bucket in self._processed.values())

    def clear(self) -> None:
        self._processed.clear()
