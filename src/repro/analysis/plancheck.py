"""Pass 4: exploration-plan verification (family CG4xx).

Verifies, per pattern, that the symmetry-breaking order is valid —
the conditions form a strict partial order and keep exactly one
representative per match orbit (checked exhaustively against
``|Aut(P)|`` for small patterns) — and, per successor constraint, that
at least one aligned RL-Path recipe exists so the fused VTask can
actually bridge the gap (paper §5.2).
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, Sequence

from ..core.constraints import ConstraintSet
from ..core.vtask import alignment_embeddings, bridge_recipes_for
from ..patterns.automorphisms import automorphisms
from ..patterns.pattern import Pattern
from ..patterns.plan import plan_for
from ..patterns.symmetry import Condition, satisfies_conditions
from .diagnostics import Diagnostic, make
from .lint import subject_name

#: Exhaustive orbit verification is k! work; beyond this size only the
#: structural (acyclicity) checks run.
_EXACT_CHECK_MAX_VERTICES = 6


def verify_symmetry_conditions(
    pattern: Pattern, conditions: Sequence[Condition]
) -> List[Diagnostic]:
    """CG401 checks for one pattern's symmetry-breaking conditions."""
    diagnostics: List[Diagnostic] = []
    who = subject_name(pattern)
    for v, u in conditions:
        if not (0 <= v < pattern.num_vertices) or not (
            0 <= u < pattern.num_vertices
        ):
            diagnostics.append(
                make(
                    "CG401",
                    f"condition phi({v}) < phi({u}) references a "
                    "vertex outside the pattern's vertex range "
                    f"0..{pattern.num_vertices - 1}",
                    subject=who,
                )
            )
            return diagnostics

    # Strict partial order: the < relation must be acyclic (a cycle
    # such as phi(a) < phi(b) < phi(a) rejects every match).
    adjacency: Dict[int, List[int]] = {}
    for v, u in conditions:
        adjacency.setdefault(v, []).append(u)
        adjacency.setdefault(u, [])
    state: Dict[int, int] = {}

    def cyclic(node: int) -> bool:
        state[node] = 1
        for succ in adjacency.get(node, []):
            if state.get(succ) == 1:
                return True
            if state.get(succ, 0) == 0 and cyclic(succ):
                return True
        state[node] = 2
        return False

    if any(state.get(node, 0) == 0 and cyclic(node) for node in adjacency):
        diagnostics.append(
            make(
                "CG401",
                "symmetry conditions contain a comparison cycle; no "
                "assignment can satisfy them and every match is "
                "dropped",
                subject=who,
            )
        )
        return diagnostics

    # Exhaustive orbit count: over all permutations of distinct ids,
    # the conditions must keep exactly one assignment per Aut-orbit.
    k = pattern.num_vertices
    if k <= _EXACT_CHECK_MAX_VERTICES:
        group_size = len(automorphisms(pattern))
        kept = sum(
            1
            for assignment in itertools.permutations(range(k))
            if satisfies_conditions(assignment, conditions)
        )
        expected = math.factorial(k) // group_size
        if kept != expected:
            diagnostics.append(
                make(
                    "CG401",
                    f"conditions keep {kept} of {math.factorial(k)} "
                    f"assignments but |Aut|={group_size} requires "
                    f"exactly {expected}; matches would be "
                    + ("duplicated" if kept > expected else "lost"),
                    subject=who,
                )
            )
    return diagnostics


def check_plans(
    patterns: Sequence[Pattern], induced: bool
) -> List[Diagnostic]:
    """CG401/CG403 over every distinct mined pattern."""
    diagnostics: List[Diagnostic] = []
    seen: set = set()
    for pattern in patterns:
        key = pattern.structure_key()
        if key in seen:
            continue
        seen.add(key)
        if not pattern.is_connected():
            continue  # CG001 already reported by the lint pass
        try:
            plan = plan_for(pattern, induced=induced)
        except ValueError as exc:
            diagnostics.append(
                make("CG403", str(exc), subject=subject_name(pattern))
            )
            continue
        diagnostics.extend(
            verify_symmetry_conditions(pattern, plan.conditions)
        )
    return diagnostics


def check_alignment_feasibility(
    p_m: Pattern, p_plus: Pattern, induced: bool
) -> List[Diagnostic]:
    """CG402 for one ⟨P^M, P⁺⟩ pair: at least one recipe must exist."""
    subject = f"{subject_name(p_m)} vs {subject_name(p_plus)}"
    embeddings = alignment_embeddings(p_m, p_plus, induced)
    if not embeddings:
        return [
            make(
                "CG402",
                "no alignment embedding of the target into the "
                "containing pattern exists; the VTask has nothing to "
                "reuse and can never run",
                subject=subject,
            )
        ]
    if any(bridge_recipes_for(p_plus, e, induced) for e in embeddings):
        return []
    return [
        make(
            "CG402",
            "every alignment embedding leaves the added vertices "
            "unreachable by a connected RL-Path; the fused VTask "
            "recipe set is empty",
            subject=subject,
        )
    ]


def check_constraint_alignments(
    constraint_set: ConstraintSet,
) -> List[Diagnostic]:
    """CG402 over every successor constraint of a workload."""
    diagnostics: List[Diagnostic] = []
    for constraint in constraint_set.all_constraints:
        if not constraint.is_successor:
            continue
        diagnostics.extend(
            check_alignment_feasibility(
                constraint.p_m,
                constraint.p_plus,
                constraint_set.induced,
            )
        )
    return diagnostics


__all__ = [
    "verify_symmetry_conditions",
    "check_plans",
    "check_alignment_feasibility",
    "check_constraint_alignments",
]
