"""Mining substrate: ETasks, caches, the one-pattern match stream (the
Peregrine+ layer)."""

from .cache import SetOperationCache
from .candidates import (
    kernel_pool,
    raw_intersection,
    root_candidates,
)
from .engine import MiningEngine
from .etask import ETask, run_single_pattern
from .match import Match
from .stats import ConstraintStats, MiningStats
from .subsets import explore_connected_sets

#: Lazily re-exported from :mod:`repro.mining.incremental` — that
#: module imports :mod:`repro.core.runtime`, which imports this
#: package, so an eager import here would be circular.
_INCREMENTAL_EXPORTS = (
    "DeltaUpdate",
    "StandingQuery",
    "Subscription",
    "SubscriptionRegistry",
    "delta_frontier",
    "expand_frontier",
    "scratch_index",
)


def __getattr__(name):
    if name in _INCREMENTAL_EXPORTS:
        from . import incremental

        return getattr(incremental, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    *_INCREMENTAL_EXPORTS,
    "Match",
    "ETask",
    "run_single_pattern",
    "MiningEngine",
    "SetOperationCache",
    "kernel_pool",
    "raw_intersection",
    "root_candidates",
    "MiningStats",
    "ConstraintStats",
    "explore_connected_sets",
]
