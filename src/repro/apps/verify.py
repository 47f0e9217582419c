"""Result self-verification for maximal quasi-cliques.

Downstream users of a mining system rarely re-derive ground truth; a
cheap certificate check on the *reported* results catches integration
mistakes (wrong gamma, wrong semantics, truncated runs).  The checker
validates the defining properties of an MQC result directly against
the data graph and returns a list of violation strings (empty means
the result is internally consistent).

The check is *sound but partial*: it verifies every reported match
satisfies its definition and mutual constraints, and spot-checks
completeness by local perturbation; full completeness needs the
oracles in :mod:`repro.baselines.naive` (exponential, test-only).
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Set

from ..graph.graph import Graph
from ..patterns.quasicliques import is_quasi_clique


def verify_maximal_quasi_cliques(
    graph: Graph,
    result_sets: Iterable[FrozenSet[int]],
    gamma: float,
    max_size: int,
    min_size: int = 3,
) -> List[str]:
    """Check an MQC result set's defining properties.

    Verifies: every reported set is a gamma-quasi-clique in range; no
    reported set is contained in another reported set; no reported set
    extends by one neighborhood vertex into a quasi-clique within the
    cap (one-step maximality — the local completeness spot check).
    """
    violations: List[str] = []
    sets = list(result_sets)
    for vertex_set in sets:
        size = len(vertex_set)
        if not min_size <= size <= max_size:
            violations.append(f"{sorted(vertex_set)}: size {size} out of range")
            continue
        if not is_quasi_clique(graph, sorted(vertex_set), gamma):
            violations.append(
                f"{sorted(vertex_set)}: not a gamma={gamma} quasi-clique"
            )
    as_set = set(sets)
    if len(as_set) != len(sets):
        violations.append("duplicate result sets reported")
    for a in as_set:
        for b in as_set:
            if a < b:
                violations.append(
                    f"{sorted(a)} contained in reported {sorted(b)}"
                )
    for vertex_set in as_set:
        if len(vertex_set) >= max_size:
            continue
        neighborhood: Set[int] = set()
        for v in vertex_set:
            neighborhood.update(graph.neighbors(v))
        neighborhood -= vertex_set
        for candidate in neighborhood:
            extended = sorted(vertex_set | {candidate})
            if is_quasi_clique(graph, extended, gamma):
                violations.append(
                    f"{sorted(vertex_set)}: extendable by {candidate} "
                    f"into a quasi-clique (not maximal)"
                )
                break
    return violations
