"""Workload explanation: what will the runtime actually do?

``explain_workload`` builds the engine a run would build and renders
its pattern-level precomputation as text: patterns, matching orders,
symmetry conditions, constraint/dependency structure, and each
pattern's validation chain — its VTasks in lateral order, their
aligned RL-Path recipes, and which ones promote into a mined pattern.
This is the artifact you read to answer "why is this workload slow"
or "what did the heuristic pick" without stepping through the engine.
"""

from __future__ import annotations

from typing import List

from ..graph.graph import Graph
from ..patterns.plan import plan_for
from .constraints import ConstraintSet
from .dependencies import derive_dependencies
from .ordering import prefer_sparse_first
from .runtime import ContigraEngine


def explain_workload(
    graph: Graph,
    constraint_set: ConstraintSet,
    rl_strategy: str = "heuristic",
) -> str:
    """Human-readable description of a successor-constrained workload."""
    lines: List[str] = []
    induced = constraint_set.induced
    lines.append(
        f"workload: {len(constraint_set.patterns)} patterns, "
        f"{len(constraint_set.all_constraints)} constraints, "
        f"{'induced' if induced else 'edge-induced'} matching"
    )
    dependency_graph = derive_dependencies(constraint_set)
    summary = dependency_graph.summary()
    lines.append(
        f"dependencies: {summary['successor']} successor, "
        f"{summary['predecessor']} predecessor, "
        f"{summary['lateral']} lateral (inferred)"
    )
    sparse_first = prefer_sparse_first(constraint_set.patterns, graph)
    lines.append(
        f"data graph: |V|={graph.num_vertices} |E|={graph.num_edges} "
        f"density={graph.density:.4f} -> Fig 9 decision: "
        f"{'sparse' if sparse_first else 'dense'}-intermediates-first"
    )
    lines.append("")

    engine = ContigraEngine(graph, constraint_set, rl_strategy=rl_strategy)
    for chain in engine.chains:
        pattern = chain.pattern
        name = pattern.name or f"P{pattern.num_vertices}"
        plan = plan_for(pattern, induced=induced)
        lines.append(
            f"pattern {name}: k={pattern.num_vertices} "
            f"edges={pattern.num_edges} density={pattern.density:.2f}"
        )
        lines.append(
            f"  matching order: {plan.order}  "
            f"symmetry conditions: {plan.conditions or 'none'}"
        )
        if not chain.targets:
            lines.append("  no successor constraints (always valid)")
            lines.append("")
            continue
        lines.append(
            f"  VTask schedule ({len(chain.targets)} targets, serial, "
            f"most-likely-to-match first):"
        )
        for index, (target, into) in enumerate(
            zip(chain.targets, chain.promote_into)
        ):
            target_name = (
                target.p_plus.name or f"P{target.p_plus.num_vertices}"
            )
            promotes = ", promotes" if into is not None else ""
            lines.append(
                f"    {index + 1}. {target_name} "
                f"(gap {target.gap}, {len(target.recipes)} aligned "
                f"recipes, density {target.p_plus.density:.2f}{promotes})"
            )
        lines.append("")
    return "\n".join(lines)
