"""Maximal Quasi-Cliques (paper §2.2, evaluated in §8.4 / Table 3).

Mines gamma-quasi-cliques of sizes ``[min_size, max_size]`` that are
maximal within that range (the paper mines "quasi-cliques up to size 6
that are maximal").  The heavy lifting is the generic
:class:`~repro.core.runtime.ContigraEngine`; this module builds the
workload — quasi-clique patterns per size and the maximality
constraint set — and shapes the result.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Set

from ..core.constraints import ConstraintSet, maximality_constraints
from ..core.runtime import ContigraEngine, ContigraResult
from ..exec.context import TaskContext
from ..graph.graph import Graph
from ..patterns.quasicliques import quasi_clique_patterns_up_to
from ..request import run_engine


class MaximalQuasiCliqueResult:
    """Maximal quasi-clique vertex sets, grouped by size."""

    def __init__(self, raw: ContigraResult) -> None:
        self.raw = raw
        self.by_size: Dict[int, Set[FrozenSet[int]]] = {}
        for vertex_set in raw.vertex_sets():
            self.by_size.setdefault(len(vertex_set), set()).add(vertex_set)

    @property
    def count(self) -> int:
        return sum(len(group) for group in self.by_size.values())

    def all_sets(self) -> Set[FrozenSet[int]]:
        return {s for group in self.by_size.values() for s in group}

    @property
    def stats(self):
        return self.raw.stats

    @property
    def elapsed(self) -> float:
        return self.raw.elapsed

    @property
    def incomplete(self) -> bool:
        """Whether this is a degraded partial result (roots skipped)."""
        return bool(getattr(self.raw, "incomplete", False))

    @property
    def unprocessed_roots(self):
        return list(getattr(self.raw, "unprocessed_roots", []))

    @property
    def failure_reasons(self):
        return list(getattr(self.raw, "failure_reasons", []))

    def __repr__(self) -> str:
        sizes = {size: len(group) for size, group in sorted(self.by_size.items())}
        return f"MaximalQuasiCliqueResult({self.count} maximal, {sizes})"


def mqc_constraint_set(
    gamma: float, max_size: int, min_size: int = 3
) -> ConstraintSet:
    """The MQC workload: quasi-clique patterns of every size in range,
    each constrained to be maximal (contained in no larger one)."""
    return maximality_constraints(
        quasi_clique_patterns_up_to(max_size, gamma, min_size=min_size),
        induced=True,
    )


def build_mqc_engine(
    graph: Graph,
    gamma: float,
    max_size: int,
    min_size: int = 3,
    enable_fusion: bool = True,
    enable_promotion: bool = True,
    enable_lateral: bool = True,
    rl_strategy: str = "heuristic",
    adjacency: str = "auto",
    enable_aux: bool = False,
) -> ContigraEngine:
    """Construct the Contigra engine for an MQC workload.

    Exposed separately from :func:`maximal_quasi_cliques` so ablation
    benchmarks (Figs 13, 14, 16) can flip individual toggles.
    """
    return ContigraEngine(
        graph,
        mqc_constraint_set(gamma, max_size, min_size),
        enable_fusion=enable_fusion,
        enable_promotion=enable_promotion,
        enable_lateral=enable_lateral,
        rl_strategy=rl_strategy,
        adjacency=adjacency,
        enable_aux=enable_aux,
    )


def maximal_quasi_cliques(
    graph: Graph,
    gamma: float,
    max_size: int,
    min_size: int = 3,
    time_limit: Optional[float] = None,
    scheduler: Optional[str] = None,
    n_workers: int = 2,
    ctx: Optional[TaskContext] = None,
    retries: int = 0,
    on_failure: str = "raise",
    **engine_options,
) -> MaximalQuasiCliqueResult:
    """Mine maximal gamma-quasi-cliques with Contigra.

    ``engine_options`` forwards the runtime toggles
    (``enable_fusion``, ``enable_promotion``, ``enable_lateral``,
    ``rl_strategy``).  ``scheduler`` selects an execution-core
    scheduler (``serial`` / ``process`` / ``workqueue``); None keeps
    the in-process serial run.  ``ctx`` supplies an external execution
    context (deadline, cancellation, observability bus — see
    :func:`repro.obs.observed_context`); it carries the run's deadline,
    so passing ``time_limit`` as well is a ``ValueError``.  ``retries``
    re-dispatches
    shards lost to transient worker failures; ``on_failure="degrade"``
    turns exhausted retries into a partial result with
    ``result.incomplete`` set (see docs/execution.md, "Failure
    semantics").  Raises :class:`~repro.errors.TimeLimitExceeded` past
    ``time_limit``.
    """
    engine = build_mqc_engine(
        graph,
        gamma,
        max_size,
        min_size=min_size,
        **engine_options,
    )
    return MaximalQuasiCliqueResult(
        run_engine(
            engine,
            scheduler=scheduler,
            n_workers=n_workers,
            ctx=ctx,
            time_limit=time_limit,
            retries=retries,
            on_failure=on_failure,
        )
    )
