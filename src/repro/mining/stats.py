"""Counters collected during mining runs.

Every figure in the paper that is not pure wall-clock is driven by one
of these counters (cache hit rates for Fig 13, cancellations for
Fig 14, matches checked for Fig 17, ETasks explored for Fig 15's
discussion), so the engine increments them unconditionally — they are
cheap integer adds.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict


@dataclass
class MiningStats:
    """Counters for the base (Peregrine+-style) mining engine."""

    etasks_started: int = 0
    etasks_completed: int = 0
    rl_paths: int = 0
    matches_found: int = 0
    candidate_computations: int = 0
    set_intersections: int = 0
    bitset_intersections: int = 0
    galloping_intersections: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    extensions_attempted: int = 0

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of candidate computations served from cache."""
        total = self.cache_hits + self.cache_misses
        if total == 0:
            return 0.0
        return self.cache_hits / total

    def merge(self, other: "MiningStats") -> None:
        """Accumulate another stats object into this one (shard and
        worker joins); counters ``other`` lacks count as zero."""
        for f in fields(self):
            setattr(
                self, f.name, getattr(self, f.name) + getattr(other, f.name, 0)
            )

    def as_dict(self) -> Dict[str, float]:
        """Every counter, then the derived rates."""
        data: Dict[str, float] = {
            f.name: getattr(self, f.name) for f in fields(self)
        }
        data["cache_hit_rate"] = self.cache_hit_rate
        return data


@dataclass
class ConstraintStats(MiningStats):
    """Adds the Contigra-specific counters (paper §8.4, §8.5)."""

    vtasks_started: int = 0
    vtasks_matched: int = 0
    vtasks_canceled_lateral: int = 0
    etasks_canceled: int = 0
    etasks_skipped: int = 0
    promotions: int = 0
    constraint_checks: int = 0
    matches_checked: int = 0
    eager_filter_cuts: int = 0
    bridge_steps: int = 0

    @property
    def vtask_cancel_rate(self) -> float:
        """Fraction of scheduled VTasks canceled by lateral deps (Fig 14)."""
        total = self.vtasks_started + self.vtasks_canceled_lateral
        if total == 0:
            return 0.0
        return self.vtasks_canceled_lateral / total

    def as_dict(self) -> Dict[str, float]:  # noqa: D102
        data = super().as_dict()
        data["vtask_cancel_rate"] = self.vtask_cancel_rate
        return data
