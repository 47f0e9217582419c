"""Pattern substrate: patterns, isomorphism, symmetry, exploration plans."""

from .automorphisms import automorphisms
from .dsl import parse_pattern, to_dot, to_dsl
from .containment import classify_constraint, contains
from .isomorphism import (
    are_isomorphic,
    connected_subpatterns,
    contains_subpattern,
    subpattern_embeddings,
)
from .library import (
    clique,
    cycle,
    diamond,
    diamond_house,
    edge,
    house,
    labeled,
    path,
    star,
    tailed_triangle,
    triangle,
    wheel,
)
from .pattern import Pattern
from .plan import ExplorationPlan, plan_for
from .quasicliques import (
    is_quasi_clique,
    quasi_clique_min_degree,
    quasi_clique_patterns,
    quasi_clique_patterns_up_to,
)
from .structures import connected_structures
from .symmetry import (
    canonical_assignment,
    canonical_assignment_oracle,
    conditions_by_position,
    symmetry_conditions,
)

__all__ = [
    "connected_structures",
    "parse_pattern",
    "to_dsl",
    "to_dot",
    "Pattern",
    "ExplorationPlan",
    "plan_for",
    "automorphisms",
    "symmetry_conditions",
    "canonical_assignment",
    "canonical_assignment_oracle",
    "conditions_by_position",
    "are_isomorphic",
    "subpattern_embeddings",
    "contains_subpattern",
    "connected_subpatterns",
    "contains",
    "classify_constraint",
    "quasi_clique_min_degree",
    "is_quasi_clique",
    "quasi_clique_patterns",
    "quasi_clique_patterns_up_to",
    "edge",
    "path",
    "cycle",
    "clique",
    "star",
    "triangle",
    "tailed_triangle",
    "diamond",
    "house",
    "diamond_house",
    "wheel",
    "labeled",
]
