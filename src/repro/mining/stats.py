"""Counters collected during mining runs.

Every figure in the paper that is not pure wall-clock is driven by one
of these counters (cache hit rates for Fig 13, cancellations for
Fig 14, matches checked for Fig 17, ETasks explored for Fig 15's
discussion), so the engine increments them unconditionally — they are
cheap integer adds.
"""

from __future__ import annotations

from dataclasses import dataclass
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
        """Accumulate another stats object into this one (worker joins)."""
        self.etasks_started += other.etasks_started
        self.etasks_completed += other.etasks_completed
        self.rl_paths += other.rl_paths
        self.matches_found += other.matches_found
        self.candidate_computations += other.candidate_computations
        self.set_intersections += other.set_intersections
        self.bitset_intersections += other.bitset_intersections
        self.galloping_intersections += other.galloping_intersections
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.extensions_attempted += other.extensions_attempted

    def as_dict(self) -> Dict[str, float]:
        return {
            "etasks_started": self.etasks_started,
            "etasks_completed": self.etasks_completed,
            "rl_paths": self.rl_paths,
            "matches_found": self.matches_found,
            "candidate_computations": self.candidate_computations,
            "set_intersections": self.set_intersections,
            "bitset_intersections": self.bitset_intersections,
            "galloping_intersections": self.galloping_intersections,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": self.cache_hit_rate,
            "extensions_attempted": self.extensions_attempted,
        }


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

    def merge(self, other: "MiningStats") -> None:  # noqa: D102
        super().merge(other)
        if isinstance(other, ConstraintStats):
            self.vtasks_started += other.vtasks_started
            self.vtasks_matched += other.vtasks_matched
            self.vtasks_canceled_lateral += other.vtasks_canceled_lateral
            self.etasks_canceled += other.etasks_canceled
            self.etasks_skipped += other.etasks_skipped
            self.promotions += other.promotions
            self.constraint_checks += other.constraint_checks
            self.matches_checked += other.matches_checked
            self.eager_filter_cuts += other.eager_filter_cuts
            self.bridge_steps += other.bridge_steps

    def as_dict(self) -> Dict[str, float]:  # noqa: D102
        data = super().as_dict()
        data.update(
            {
                "vtasks_started": self.vtasks_started,
                "vtasks_matched": self.vtasks_matched,
                "vtasks_canceled_lateral": self.vtasks_canceled_lateral,
                "vtask_cancel_rate": self.vtask_cancel_rate,
                "etasks_canceled": self.etasks_canceled,
                "etasks_skipped": self.etasks_skipped,
                "promotions": self.promotions,
                "constraint_checks": self.constraint_checks,
                "matches_checked": self.matches_checked,
                "eager_filter_cuts": self.eager_filter_cuts,
                "bridge_steps": self.bridge_steps,
            }
        )
        return data
