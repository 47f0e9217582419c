"""Pattern substrate: patterns, isomorphism, symmetry, exploration plans."""

from .automorphisms import automorphisms, orbit_of, orbits
from .dsl import parse_pattern, to_dot, to_dsl
from .containment import (
    classify_constraint,
    containment_closure,
    contains,
    embeddings,
    extension_sets,
    minimal_supersets,
    one_vertex_extensions,
)
from .isomorphism import (
    are_isomorphic,
    connected_subpatterns,
    contains_subpattern,
    find_isomorphism,
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
from .plan import ExplorationPlan, choose_matching_order, plan_for
from .quasicliques import (
    count_quasi_clique_patterns,
    is_quasi_clique,
    quasi_clique_min_degree,
    quasi_clique_patterns,
    quasi_clique_patterns_up_to,
)
from .structures import connected_structures, connected_structures_up_to
from .symmetry import (
    canonical_assignment,
    canonical_assignment_oracle,
    conditions_by_position,
    satisfies_conditions,
    symmetry_conditions,
)

__all__ = [
    "connected_structures",
    "connected_structures_up_to",
    "parse_pattern",
    "to_dsl",
    "to_dot",
    "Pattern",
    "ExplorationPlan",
    "plan_for",
    "choose_matching_order",
    "automorphisms",
    "orbits",
    "orbit_of",
    "symmetry_conditions",
    "satisfies_conditions",
    "canonical_assignment",
    "canonical_assignment_oracle",
    "conditions_by_position",
    "are_isomorphic",
    "find_isomorphism",
    "subpattern_embeddings",
    "contains_subpattern",
    "connected_subpatterns",
    "contains",
    "embeddings",
    "extension_sets",
    "one_vertex_extensions",
    "containment_closure",
    "minimal_supersets",
    "classify_constraint",
    "quasi_clique_min_degree",
    "is_quasi_clique",
    "quasi_clique_patterns",
    "quasi_clique_patterns_up_to",
    "count_quasi_clique_patterns",
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
