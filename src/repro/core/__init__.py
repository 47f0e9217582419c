"""Contigra core: constraints, dependencies, VTasks, and the runtime."""

from .constraints import (
    ConstraintSet,
    ContainmentConstraint,
    maximality_constraints,
    minimality_constraints,
    nested_query_constraints,
)
from .dependencies import (
    LATERAL,
    PREDECESSOR,
    SUCCESSOR,
    DependencyEdge,
    DependencyGraph,
    derive_dependencies,
)
from .explain import explain_workload
from .lateral import LateralScheduler
from .ordering import (
    STRATEGIES,
    order_validation_targets,
    prefer_sparse_first,
    resolve_strategy,
)
from .promotion import PromotionRegistry
from .query import Query
from .runtime import ContigraEngine, ContigraResult
from .statespace import (
    EAGER,
    NO_CHECK,
    SKIP,
    classify_all,
    classify_minimality,
    covers,
    has_connected_cover_smaller_than,
    is_minimal_cover,
    skip_ratio,
    virtual_state_space,
)
from .vtask import BridgeRecipe, ValidationTarget

__all__ = [
    "Query",
    "explain_workload",
    "ContainmentConstraint",
    "ConstraintSet",
    "maximality_constraints",
    "minimality_constraints",
    "nested_query_constraints",
    "DependencyEdge",
    "DependencyGraph",
    "derive_dependencies",
    "SUCCESSOR",
    "PREDECESSOR",
    "LATERAL",
    "ValidationTarget",
    "BridgeRecipe",
    "LateralScheduler",
    "PromotionRegistry",
    "ContigraEngine",
    "ContigraResult",
    "STRATEGIES",
    "prefer_sparse_first",
    "resolve_strategy",
    "order_validation_targets",
    "virtual_state_space",
    "classify_minimality",
    "classify_all",
    "skip_ratio",
    "covers",
    "has_connected_cover_smaller_than",
    "is_minimal_cover",
    "SKIP",
    "NO_CHECK",
    "EAGER",
]
