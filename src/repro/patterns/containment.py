"""Pattern-level containment relationships.

Containment constraints ⟨P^M, P^+⟩ (paper §2.2) relate two patterns.
When a :class:`repro.core.constraints.ContainmentConstraint` is built,
:func:`classify_constraint` decides the pair's direction and
:func:`contains` checks that one pattern sits inside the other; the
static analyzer's satisfiability pass asks :func:`contains` too.  How
one pattern embeds in the other, for plan alignment and bridging, is
:func:`repro.patterns.isomorphism.subpattern_embeddings`.
"""

from __future__ import annotations

from .isomorphism import contains_subpattern
from .pattern import Pattern


def contains(small: Pattern, big: Pattern, induced: bool = False) -> bool:
    """Whether ``big`` contains ``small``, memoised per pattern pair in
    the pinned pattern scope: every MQC build asks the same pairs."""
    from ..graph.store import PATTERN_SCOPE, derived_cache

    return derived_cache().get_or_build(
        PATTERN_SCOPE,
        ("contains", small, big, induced),
        lambda: contains_subpattern(small, big, induced=induced),
    )


def classify_constraint(p_m: Pattern, p_plus: Pattern) -> str:
    """Classify a constraint pair as ``"successor"`` or ``"predecessor"``.

    Successor: ``P^+`` is larger — matches must not be contained in a
    ``P^+`` match (maximality-style, paper §2.2 case a).  Predecessor:
    ``P^+`` is smaller — matches must not contain a ``P^+`` match
    (minimality-style, case b).  Equal sizes are rejected: a match
    cannot strictly contain an equally-sized distinct match.
    """
    if p_plus.num_vertices > p_m.num_vertices:
        return "successor"
    if p_plus.num_vertices < p_m.num_vertices:
        return "predecessor"
    raise ValueError(
        "containment constraints need patterns of different sizes"
    )
