"""Pass 2: constraint satisfiability (CG1xx) and bucketing (CG2xx).

CG1xx diagnostics catch constraints that can never behave as the user
intends — contradictory ``not_within``/``only_within`` pairs, and size
or relatedness violations that :class:`ContainmentConstraint` would
reject with a bare ``ValueError``.  A disconnected containing pattern
is the lint pass's CG001; no CG1xx code restates it.

CG2xx diagnostics generalize the paper's §7 virtual state-space
analysis from keyword covers to arbitrary predecessor constraints:
each target pattern is bucketed *skip* / *no-check* / *eager* by
checking, for every proper connected subpattern, whether some ``P^+``
definitely / possibly matches it.  A SKIP pattern yields zero results
by construction; a workload where every pattern is SKIP is a query
that burns a mining run to return nothing — exactly what the analyzer
exists to reject cheaply.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from ..core.constraints import ConstraintSet, ContainmentConstraint
from ..core.statespace import EAGER, NO_CHECK, SKIP, virtual_state_space
from ..patterns.containment import contains
from ..patterns.isomorphism import subpattern_embeddings
from ..patterns.pattern import Pattern
from .diagnostics import Diagnostic, make
from .lint import subject_name


def _pair_subject(p_m: Pattern, p_plus: Pattern) -> str:
    return f"{subject_name(p_m)} vs {subject_name(p_plus)}"


def _trivially_containing(
    target: Pattern, containing: Pattern, induced: bool
) -> bool:
    """Whether *every* match of ``target`` extends to ``containing``.

    True when some embedding of the target covers all of the containing
    pattern's edges and every added vertex is unlabeled and isolated:
    under edge-induced semantics any spare data vertex completes the
    containing match, so the constraint excludes every match (in any
    graph with enough vertices).  Induced matching can still rescue
    such a query (added vertices must be non-adjacent), so it is exempt.
    """
    if induced:
        return False
    for emb in subpattern_embeddings(target, containing, induced=False):
        covered = set(emb.values())
        added = [v for v in containing.vertices() if v not in covered]
        if all(
            containing.degree(v) == 0 and containing.label(v) is None
            for v in added
        ):
            return True
    return False


def check_query_satisfiability(
    target: Pattern,
    not_within: Sequence[Pattern],
    only_within: Sequence[Pattern],
    induced: bool,
) -> List[Diagnostic]:
    """CG1xx checks for a fluent-query spec (before construction)."""
    diagnostics: List[Diagnostic] = []
    target_name = subject_name(target)

    def check_pair(containing: Pattern, role: str) -> bool:
        """Shared structural checks; returns False when unusable."""
        pair = _pair_subject(target, containing)
        usable = True
        if containing.num_vertices <= target.num_vertices:
            diagnostics.append(
                make(
                    "CG102",
                    f"{role} pattern has {containing.num_vertices} "
                    f"vertices but the target has "
                    f"{target.num_vertices}; a containing pattern "
                    "must be strictly larger",
                    subject=pair,
                )
            )
            return False
        if target.has_anti_edges or containing.has_anti_edges:
            diagnostics.append(
                make(
                    "CG104",
                    "containment constraints do not support anti-edge "
                    "patterns; use induced matching or express the "
                    "non-adjacency as the constraint itself",
                    subject=pair,
                )
            )
            usable = False
        if not contains(target, containing, induced=induced):
            code = "CG101" if role == "only_within" else "CG103"
            reason = (
                "no match can be contained in it, so the query is "
                "statically empty"
                if role == "only_within"
                else "the constraint can never exclude anything"
            )
            diagnostics.append(
                make(
                    code,
                    f"{role} pattern does not contain the target "
                    f"{target_name}: {reason}",
                    subject=pair,
                )
            )
            usable = False
        return usable

    seen_not: Dict[tuple, str] = {}
    for containing in not_within:
        usable = check_pair(containing, "not_within")
        key = containing.canonical_key()
        if key in seen_not:
            diagnostics.append(
                make(
                    "CG105",
                    f"not_within({subject_name(containing)}) repeats "
                    f"the earlier not_within({seen_not[key]})",
                    subject=_pair_subject(target, containing),
                )
            )
        seen_not[key] = subject_name(containing)
        if usable and _trivially_containing(target, containing, induced):
            diagnostics.append(
                make(
                    "CG101",
                    "the containing pattern is the target plus "
                    "unconstrained isolated vertices; under "
                    "edge-induced matching every match of "
                    f"{target_name} is contained in it, so the query "
                    "excludes everything",
                    subject=_pair_subject(target, containing),
                )
            )

    only_keys = {p.canonical_key(): p for p in only_within}
    for containing in only_within:
        check_pair(containing, "only_within")
    for key, containing in only_keys.items():
        if key in seen_not:
            diagnostics.append(
                make(
                    "CG101",
                    f"only_within({subject_name(containing)}) "
                    f"contradicts not_within({seen_not[key]}): matches "
                    "must be both inside and outside the same pattern",
                    subject=_pair_subject(target, containing),
                )
            )
    return diagnostics


def check_duplicate_constraints(
    constraint_set: ConstraintSet,
) -> List[Diagnostic]:
    """CG105 over an already-constructed constraint set."""
    diagnostics: List[Diagnostic] = []
    seen: set = set()
    for constraint in constraint_set.all_constraints:
        key = (
            constraint.p_m.structure_key(),
            constraint.p_plus.canonical_key(),
            constraint.kind,
        )
        if key in seen:
            diagnostics.append(
                make(
                    "CG105",
                    f"{constraint.kind} constraint is declared twice",
                    subject=_pair_subject(constraint.p_m, constraint.p_plus),
                )
            )
        seen.add(key)
    return diagnostics


# ----------------------------------------------------------------------
# Generalized virtual state-space bucketing (CG2xx)
# ----------------------------------------------------------------------


def _spanning_match_kinds(
    p_plus: Pattern, state: Pattern, induced: bool
) -> Tuple[bool, bool]:
    """(definite, possible) matches of ``p_plus`` onto ``state``.

    A virtual state matches a predecessor ``P^+`` when the state's
    subgraph hosts a full ``P^+`` match, i.e. ``P^+`` embeds spanningly
    (same vertex count).  Labels decide certainty: a ``P^+`` label met
    by the same definite state label is certain, met by a wildcard
    (merged labels) is data-dependent, met by a different definite
    label is impossible.  Structure is exact under induced semantics;
    under edge-induced semantics extra data edges can only *add*
    matches, so "definite" stays sound (which is what SKIP relies on).
    """
    if p_plus.num_vertices != state.num_vertices:
        return False, False
    definite_any = False
    possible_any = False
    for emb in subpattern_embeddings(
        p_plus.unlabeled(), state.unlabeled(), induced=induced
    ):
        definite = True
        possible = True
        for v in p_plus.vertices():
            need = p_plus.label(v)
            if need is None:
                continue
            have = state.label(emb[v])
            if have == need:
                continue
            if have is None:
                definite = False
            else:
                possible = False
                break
        if possible:
            possible_any = True
            if definite:
                definite_any = True
                break
    return definite_any, possible_any


def classify_predecessor_pattern(
    pattern: Pattern,
    predecessors: Iterable[Pattern],
    induced: bool,
) -> str:
    """Bucket one target pattern against its predecessor constraints.

    The generalization of ``statespace.classify_minimality`` from
    keyword covers to arbitrary ``P^+`` patterns: SKIP when some
    proper connected subpattern definitely matches a ``P^+``
    (every match violates), NO_CHECK when none ever could, EAGER
    otherwise (wildcard labels leave it to the data).
    """
    predecessor_list = list(predecessors)
    possible_violation = False
    for _, state in virtual_state_space(pattern):
        for p_plus in predecessor_list:
            definite, possible = _spanning_match_kinds(
                p_plus, state, induced
            )
            if definite:
                return SKIP
            if possible:
                possible_violation = True
    return EAGER if possible_violation else NO_CHECK


def check_predecessor_buckets(
    constraint_set: ConstraintSet,
) -> List[Diagnostic]:
    """CG201/CG202/CG203 over a constraint set's predecessor targets."""
    diagnostics: List[Diagnostic] = []
    induced = constraint_set.induced
    buckets: Dict[tuple, str] = {}
    any_predecessor = False
    for pattern in constraint_set.patterns:
        predecessor = constraint_set.predecessor_constraints_for(pattern)
        if not predecessor:
            continue
        any_predecessor = True
        bucket = classify_predecessor_pattern(
            pattern, (c.p_plus for c in predecessor), induced
        )
        buckets[pattern.structure_key()] = bucket
        who = subject_name(pattern)
        if bucket == SKIP:
            diagnostics.append(
                make(
                    "CG201",
                    f"every match of {who} definitely contains a "
                    "predecessor-constraint match; its ETasks are "
                    "never scheduled (SKIP bucket)",
                    subject=who,
                )
            )
        elif bucket == EAGER:
            wildcards = sum(
                1 for lab in pattern.labels if lab is None
            )
            diagnostics.append(
                make(
                    "CG203",
                    f"{who} lands in the EAGER bucket: {wildcards} "
                    "wildcard label position(s) make violations "
                    "data-dependent, so each level of its RL-Paths "
                    "pays a runtime check",
                    subject=who,
                )
            )
    if any_predecessor and constraint_set.patterns and all(
        buckets.get(p.structure_key()) == SKIP
        for p in constraint_set.patterns
    ):
        diagnostics.append(
            make(
                "CG202",
                f"all {len(constraint_set.patterns)} mined pattern(s) "
                "are in the SKIP bucket; the query cannot return any "
                "match and should not be executed",
                subject="workload",
            )
        )
    return diagnostics


__all__ = [
    "check_query_satisfiability",
    "check_duplicate_constraints",
    "check_predecessor_buckets",
    "classify_predecessor_pattern",
]
