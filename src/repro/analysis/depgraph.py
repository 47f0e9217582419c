"""Pass 3: dependency-graph diagnostics (family CG3xx).

Runs over :func:`repro.core.dependencies.derive_dependencies` output:
patterns that the constrained workload never uses (dead intermediates)
and successor/predecessor cycles (a promotion chain that would cancel
its own from-scratch ETask).  A lateral group of isomorphic targets is
a duplicated constraint, which CG105 already reports.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..core.constraints import ConstraintSet
from ..core.dependencies import LATERAL, derive_dependencies
from .diagnostics import Diagnostic, make
from .lint import subject_name


def _find_cycle(
    adjacency: Dict[tuple, List[tuple]],
    names: Dict[tuple, str],
) -> Optional[List[str]]:
    """One dependency cycle as a list of pattern names, or None."""
    WHITE, GREY, BLACK = 0, 1, 2
    color: Dict[tuple, int] = {node: WHITE for node in adjacency}
    stack: List[tuple] = []

    def visit(node: tuple) -> Optional[List[str]]:
        color[node] = GREY
        stack.append(node)
        for succ in adjacency.get(node, []):
            if color.get(succ, WHITE) == GREY:
                start = stack.index(succ)
                return [names[n] for n in stack[start:]] + [names[succ]]
            if color.get(succ, WHITE) == WHITE:
                found = visit(succ)
                if found is not None:
                    return found
        stack.pop()
        color[node] = BLACK
        return None

    for node in adjacency:
        if color[node] == WHITE:
            found = visit(node)
            if found is not None:
                return found
    return None


def check_dependency_graph(
    constraint_set: ConstraintSet,
) -> List[Diagnostic]:
    """CG301/CG302 over the derived dependency structure."""
    diagnostics: List[Diagnostic] = []
    dependency_graph = derive_dependencies(constraint_set)

    # --- CG302: cycles over successor/predecessor edges -------------
    adjacency: Dict[tuple, List[tuple]] = {}
    names: Dict[tuple, str] = {}
    for edge in dependency_graph.edges:
        if edge.kind == LATERAL:
            continue
        source_key = edge.source.structure_key()
        target_key = edge.target.structure_key()
        names.setdefault(source_key, subject_name(edge.source))
        names.setdefault(target_key, subject_name(edge.target))
        adjacency.setdefault(source_key, []).append(target_key)
        adjacency.setdefault(target_key, [])
    cycle = _find_cycle(adjacency, names)
    if cycle is not None:
        diagnostics.append(
            make(
                "CG302",
                "successor/predecessor dependencies form a cycle "
                f"({' -> '.join(cycle)}); scheduling cannot order the "
                "tasks and promotion would cancel the chain's own "
                "from-scratch ETask",
                subject=cycle[0],
            )
        )

    # --- CG301: dead intermediates ----------------------------------
    # Only meaningful for pure successor workloads: under predecessor
    # (minimality) constraints an unconstrained pattern is simply the
    # NO_CHECK bucket — mined freely, not dead.
    all_successor = constraint_set.all_constraints and all(
        c.is_successor for c in constraint_set.all_constraints
    )
    if all_successor:
        targeted: Set[tuple] = {
            c.p_plus.structure_key()
            for c in constraint_set.all_constraints
        }
        for pattern in constraint_set.patterns:
            key = pattern.structure_key()
            if key in targeted:
                continue
            if constraint_set.constraints_for(pattern):
                continue
            diagnostics.append(
                make(
                    "CG301",
                    f"pattern {subject_name(pattern)} has no "
                    "constraints and no constraint targets it; its "
                    "ETasks run but contribute nothing to the "
                    "constrained results",
                    subject=subject_name(pattern),
                )
            )

    return diagnostics


__all__ = ["check_dependency_graph"]
