"""Static cost model: plan-time cardinality and budget estimation (CG6xx).

The structural passes (CG0xx–CG5xx) can prove a query malformed but
say nothing about whether a well-formed query fits a time or memory
budget on a concrete graph.  This pass closes that gap: it walks each
pattern's :class:`~repro.patterns.plan.ExplorationPlan` against a
:class:`~repro.graph.stats.GraphStats` summary and derives, without
touching a single data vertex:

* per-step candidate-pool and partial-match cardinality estimates,
* workload totals (ETask extension candidates + VTask bridge work),
* a peak-memory projection and one serial wall-time projection.

The wall time is the candidate total over :data:`CANDIDATES_PER_SECOND`,
the only throughput constant calibrated, on the serial loop.  CG601
judges it under every scheduler: it overstates a ``process`` run by
that scheduler's measured speedup, well inside the model's own
candidate error.

The estimates feed the CG6xx diagnostics (:func:`check_estimate`) that
power ``repro analyze --estimate`` and ``Query.strict()`` admission,
and the one pre-run gate (:func:`admit_query`) behind both the CLI's
``--admission`` flag and the serving daemon's intake.

Estimation model
----------------
Candidate pools shrink multiplicatively per anchor.  Extending a
partial match by a vertex adjacent to one bound anchor draws from a
pool of ``avg_degree`` (size-biased for the first hop); each
*additional* backward anchor keeps a candidate with probability
``s = max(avg_degree / n, clustering)`` — the edge probability of a
random graph, floored by the clustering coefficient because mining
walks correlated neighborhoods, not random pairs.  Label constraints
multiply by the label's frequency fraction; induced non-neighbor
anchors multiply by ``1 - s``; each symmetry-breaking condition at a
step halves the survivors.  Calibration loops the model against the
engine's ``extensions_attempted`` counter (see ``tests/test_costmodel``
and the ``estimate_error`` metric).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from ..core.constraints import ConstraintSet, ContainmentConstraint
from ..graph.stats import GraphStats

if TYPE_CHECKING:  # pragma: no cover - import-time only
    from ..graph.graph import Graph
from ..patterns.pattern import Pattern
from ..patterns.plan import ExplorationPlan, plan_for
from .diagnostics import AnalysisReport, make

__all__ = [
    "StepEstimate",
    "PlanEstimate",
    "WorkloadEstimate",
    "estimate_plan",
    "estimate_constraint_set",
    "estimate_query_spec",
    "check_estimate",
    "AdmissionDecision",
    "admit_query",
    "strict_refuses",
    "CANDIDATES_PER_SECOND",
]

#: Calibrated single-core throughput of the pure-Python candidate loop
#: (extension candidates evaluated per second).  Tuned against the
#: seed datasets; the ``estimate_error`` metric tracks drift.
CANDIDATES_PER_SECOND = 60_000.0

#: Memory model constants (bytes).  Python-object scale, not array
#: scale: a pooled candidate id costs a boxed int + list slot; a match
#: is a small tuple plus bookkeeping.
BYTES_PER_POOL_ENTRY = 96.0
BYTES_PER_MATCH = 200.0
BYTES_PER_CACHE_ENTRY = 160.0
BYTES_PER_EDGE = 120.0

#: Set-operation cache size ceiling assumed by the memory projection.
_CACHE_ENTRY_CEILING = 200_000.0

#: CG603 fires when max_degree / avg_degree exceeds this under a
#: sharded scheduler.
SHARD_SKEW_THRESHOLD = 8.0

#: CG604 (uncalibrated) fires below this vertex count.
_MIN_CALIBRATED_VERTICES = 50


def _edge_probability(stats: GraphStats) -> float:
    if stats.num_vertices <= 1:
        return 0.0
    return min(1.0, stats.avg_degree / (stats.num_vertices - 1))


def _shrink(stats: GraphStats) -> float:
    """Survival probability of one extra backward-anchor check."""
    return min(1.0, max(_edge_probability(stats), stats.clustering))


@dataclass(frozen=True)
class StepEstimate:
    """Projected cost of one exploration-plan step."""

    step: int
    backward_anchors: int
    label: Optional[int]
    pool_size: float
    partial_matches: float

    def to_dict(self) -> Dict[str, object]:
        return {
            "step": self.step,
            "backward_anchors": self.backward_anchors,
            "label": self.label,
            "pool_size": round(self.pool_size, 2),
            "partial_matches": round(self.partial_matches, 2),
        }


@dataclass(frozen=True)
class PlanEstimate:
    """Projected cost of fully exploring one pattern's plan."""

    pattern: str
    num_steps: int
    roots: float
    steps: Tuple[StepEstimate, ...]
    total_candidates: float
    est_matches: float
    uncalibrated: bool

    def to_dict(self) -> Dict[str, object]:
        return {
            "pattern": self.pattern,
            "num_steps": self.num_steps,
            "roots": round(self.roots, 2),
            "total_candidates": round(self.total_candidates, 2),
            "est_matches": round(self.est_matches, 2),
            "steps": [s.to_dict() for s in self.steps],
        }


@dataclass(frozen=True)
class WorkloadEstimate:
    """Whole-workload projection: cardinalities, memory, serial time."""

    graph: GraphStats
    plans: Tuple[PlanEstimate, ...]
    etask_candidates: float
    vtask_candidates: float
    est_matches: float
    peak_memory_bytes: float
    uncalibrated: bool

    @property
    def total_candidates(self) -> float:
        return self.etask_candidates + self.vtask_candidates

    @property
    def projected_seconds(self) -> float:
        """Projected wall time of the serial candidate loop."""
        return self.total_candidates / CANDIDATES_PER_SECOND

    def to_dict(self) -> Dict[str, object]:
        return {
            "graph": self.graph.to_dict(),
            "etask_candidates": round(self.etask_candidates, 2),
            "vtask_candidates": round(self.vtask_candidates, 2),
            "total_candidates": round(self.total_candidates, 2),
            "est_matches": round(self.est_matches, 2),
            "peak_memory_bytes": round(self.peak_memory_bytes),
            "projected_seconds": round(self.projected_seconds, 4),
            "uncalibrated": self.uncalibrated,
            "plans": [p.to_dict() for p in self.plans],
        }


# ----------------------------------------------------------------------
# Per-plan estimation
# ----------------------------------------------------------------------


def _label_multiplier(
    stats: GraphStats, label: Optional[int]
) -> Tuple[float, bool]:
    """``(pool multiplier, uncalibrated)`` for a step's label constraint.

    A labeled step on an unlabeled graph (or a label the graph never
    uses) statically matches nothing; the estimator reports zero and
    flags itself uncalibrated rather than invent a frequency.
    """
    if label is None:
        return 1.0, False
    if stats.num_labels == 0:
        return 0.0, True
    fraction = stats.label_fraction(label)
    if fraction == 0.0:
        return 0.0, True
    return fraction, False


def estimate_plan(
    plan: ExplorationPlan,
    stats: GraphStats,
) -> PlanEstimate:
    """Project candidate cardinalities for one exploration plan.

    Walks the plan's steps, propagating the expected number of partial
    matches; the per-step candidate count equals the new partials
    (``extensions_attempted`` counts candidates after anchor, label,
    and symmetry filtering — exactly what the pool model estimates).
    """
    n = float(stats.num_vertices)
    shrink = _shrink(stats)
    uncalibrated = False

    root_label = plan.labels_at[0]
    multiplier, flagged = _label_multiplier(stats, root_label)
    uncalibrated = uncalibrated or flagged
    roots = n * multiplier

    steps: List[StepEstimate] = [
        StepEstimate(
            step=0,
            backward_anchors=0,
            label=root_label,
            pool_size=roots,
            partial_matches=roots,
        )
    ]
    partials = roots
    total_candidates = 0.0
    for i in range(1, plan.num_steps):
        anchors = len(plan.backward_neighbors[i])
        nonneighbors = len(plan.backward_nonneighbors[i])
        conditions = len(plan.conditions_at.get(i, ()))
        label = plan.labels_at[i]

        # First hop from the size-biased anchor; every further anchor
        # survives with probability ``shrink``.
        pool = stats.avg_degree if i == 1 else stats.size_biased_degree
        pool *= shrink ** max(0, anchors - 1)
        multiplier, flagged = _label_multiplier(stats, label)
        uncalibrated = uncalibrated or flagged
        pool *= multiplier
        pool *= (1.0 - shrink) ** nonneighbors
        pool *= 0.5 ** conditions
        pool = min(pool, n)

        partials *= pool
        total_candidates += partials
        steps.append(
            StepEstimate(
                step=i,
                backward_anchors=anchors,
                label=label,
                pool_size=pool,
                partial_matches=partials,
            )
        )

    name = plan.pattern.name or f"P{plan.pattern.num_vertices}"
    return PlanEstimate(
        pattern=name,
        num_steps=plan.num_steps,
        roots=roots,
        steps=tuple(steps),
        total_candidates=total_candidates,
        est_matches=partials,
        uncalibrated=uncalibrated,
    )


def _bridge_candidates(
    stats: GraphStats,
    target_matches: float,
    constraint: ContainmentConstraint,
) -> float:
    """Projected VTask bridge work for one containment constraint.

    Each checked match of ``p_m`` explores an RL-Path of
    ``constraint.gap`` extension steps toward ``p_plus``; the later
    steps of the containing pattern's own plan are the best static
    proxy for the bridge pools.  VTasks stop at the first witness, so
    the chain is capped at one full traversal per match.
    """
    plus_plan = plan_for(constraint.p_plus, constraint.induced)
    shrink = _shrink(stats)
    start = constraint.p_m.num_vertices
    partials = target_matches
    total = 0.0
    for i in range(start, plus_plan.num_steps):
        anchors = len(plus_plan.backward_neighbors[i])
        pool = stats.size_biased_degree * shrink ** max(0, anchors - 1)
        pool = min(pool, float(stats.num_vertices))
        partials *= pool
        total += partials
    return total


def _memory_bytes(
    stats: GraphStats,
    plans: Sequence[PlanEstimate],
    est_matches: float,
    total_candidates: float,
) -> float:
    graph_bytes = 2.0 * stats.num_edges * BYTES_PER_EDGE
    # Kernel bitsets engage on dense graphs: one n-bit row per touched
    # vertex, bounded by all n rows.
    index_bytes = 0.0
    if stats.avg_degree >= 16.0:
        index_bytes = stats.num_vertices * (stats.num_vertices / 8.0)
    # DFS holds one candidate pool per depth; the widest plan bounds it.
    pool_bytes = max(
        (
            sum(s.pool_size for s in plan.steps[1:]) * BYTES_PER_POOL_ENTRY
            for plan in plans
        ),
        default=0.0,
    )
    match_bytes = est_matches * BYTES_PER_MATCH
    cache_bytes = (
        min(_CACHE_ENTRY_CEILING, total_candidates) * BYTES_PER_CACHE_ENTRY
    )
    return graph_bytes + index_bytes + pool_bytes + match_bytes + cache_bytes


# ----------------------------------------------------------------------
# Workload-level entry points
# ----------------------------------------------------------------------


def _assemble(
    stats: GraphStats,
    plan_estimates: Sequence[PlanEstimate],
    vtask_candidates: float,
) -> WorkloadEstimate:
    etask_candidates = sum(p.total_candidates for p in plan_estimates)
    est_matches = sum(p.est_matches for p in plan_estimates)
    total = etask_candidates + vtask_candidates
    uncalibrated = (
        any(p.uncalibrated for p in plan_estimates)
        or stats.num_vertices < _MIN_CALIBRATED_VERTICES
        or stats.num_edges == 0
    )
    return WorkloadEstimate(
        graph=stats,
        plans=tuple(plan_estimates),
        etask_candidates=etask_candidates,
        vtask_candidates=vtask_candidates,
        est_matches=est_matches,
        peak_memory_bytes=_memory_bytes(
            stats, plan_estimates, est_matches, total
        ),
        uncalibrated=uncalibrated,
    )


def estimate_constraint_set(
    constraint_set: ConstraintSet, stats: GraphStats
) -> WorkloadEstimate:
    """Estimate a containment-constrained workload (ETasks + VTasks)."""
    plan_estimates: List[PlanEstimate] = []
    vtask_candidates = 0.0
    for pattern in constraint_set.patterns:
        plan = plan_for(pattern, constraint_set.induced)
        estimate = estimate_plan(plan, stats)
        plan_estimates.append(estimate)
        for constraint in constraint_set.successor_constraints_for(pattern):
            vtask_candidates += _bridge_candidates(
                stats, estimate.est_matches, constraint
            )
    return _assemble(stats, plan_estimates, vtask_candidates)


def estimate_query_spec(
    target: Pattern,
    not_within: Sequence[Pattern] = (),
    only_within: Sequence[Pattern] = (),
    induced: bool = False,
    stats: Optional[GraphStats] = None,
) -> WorkloadEstimate:
    """Estimate a single-target query (the ``Query`` builder's shape)."""
    if stats is None:
        raise ValueError("estimate_query_spec requires graph stats")
    constraints = [
        ContainmentConstraint(target, containing, induced=induced)
        for containing in not_within
    ]
    constraint_set = ConstraintSet([target], constraints, induced=induced)
    estimate = estimate_constraint_set(constraint_set, stats)
    if not only_within:
        return estimate
    # ``only_within`` filters run as ordinary VTasks over each valid
    # match after the main run; account for their bridge work too.
    extra = 0.0
    for containing in only_within:
        constraint = ContainmentConstraint(target, containing, induced=induced)
        extra += _bridge_candidates(stats, estimate.est_matches, constraint)
    return _assemble(stats, list(estimate.plans), estimate.vtask_candidates + extra)


# ----------------------------------------------------------------------
# CG6xx admission diagnostics
# ----------------------------------------------------------------------


def _fmt_count(value: float) -> str:
    if value >= 1e6:
        return f"{value / 1e6:.1f}M"
    if value >= 1e3:
        return f"{value / 1e3:.1f}k"
    return f"{value:.0f}"


def check_estimate(
    estimate: WorkloadEstimate,
    budget_seconds: Optional[float] = None,
    budget_bytes: Optional[int] = None,
    scheduler: Optional[str] = None,
    n_workers: int = 2,
) -> AnalysisReport:
    """CG6xx diagnostics for one workload estimate against a budget.

    CG601 judges the serial projection whatever the scheduler: it is
    the only one calibrated.  ``scheduler``/``n_workers`` name the
    configuration the run would use, for the CG603 shard-skew check.

    Diagnostics are subject-tagged with the content-addressed graph
    version (``name@<fingerprint12>``), so an estimate computed against
    stale stats — a graph that has since been mutated through
    :meth:`repro.graph.store.GraphStore.apply_batch` — is visibly
    attributed to the old content, not just a same-named graph.
    """
    report = AnalysisReport()
    # Content-addressed subject: two graphs with equal vertex/edge/label
    # counts but different structure get distinct tags (satellite fix
    # for the old count-string collision).
    subject = estimate.graph.version

    if estimate.uncalibrated:
        report.add(
            make(
                "CG604",
                "graph is outside the calibrated regime (tiny, edgeless, "
                "or lacking the query's labels); projections are "
                "order-of-magnitude at best",
                subject=subject,
            )
        )

    if (
        budget_seconds is not None
        and estimate.projected_seconds > budget_seconds
    ):
        report.add(
            make(
                "CG601",
                f"projected serial wall time "
                f"{estimate.projected_seconds:.2f}s exceeds the "
                f"{budget_seconds:.2f}s budget "
                f"(~{_fmt_count(estimate.total_candidates)} candidates)",
                subject=subject,
            )
        )

    if (
        budget_bytes is not None
        and estimate.peak_memory_bytes > budget_bytes
    ):
        report.add(
            make(
                "CG602",
                f"projected peak memory "
                f"{estimate.peak_memory_bytes / 1e6:.1f}MB exceeds the "
                f"{budget_bytes / 1e6:.1f}MB budget",
                subject=subject,
            )
        )

    if (
        scheduler in ("process", "workqueue")
        and n_workers >= 2
        and estimate.graph.degree_skew > SHARD_SKEW_THRESHOLD
    ):
        report.add(
            make(
                "CG603",
                f"degree skew {estimate.graph.degree_skew:.1f}x "
                f"(max degree {estimate.graph.max_degree} vs average "
                f"{estimate.graph.avg_degree:.1f}) projects unbalanced "
                f"root shards across {n_workers} workers",
                subject=subject,
            )
        )
    return report


def strict_refuses(report: AnalysisReport) -> bool:
    """The strict-admission rule: refuse an error finding (CG601 TLE,
    CG602 OOM) only on a calibrated estimate.  An uncalibrated one
    (CG604) is admitted with its codes, as under ``warn``."""
    return report.has_errors and "CG604" not in report.codes()


@dataclass
class AdmissionDecision:
    """Outcome of one admission evaluation."""

    admitted: bool
    codes: List[str]
    diagnostics: List[Dict[str, str]]
    record: Dict[str, Any]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "admitted": self.admitted,
            "codes": self.codes,
            "diagnostics": self.diagnostics,
            **self.record,
        }


def admit_query(
    graph: "Graph",
    constraint_set: ConstraintSet,
    mode: str,
    budget_seconds: Optional[float] = None,
    budget_bytes: Optional[int] = None,
    scheduler: str = "serial",
    n_workers: int = 2,
) -> AdmissionDecision:
    """Evaluate the CG6xx gate for one query (CLI and daemon alike).

    ``mode='off'`` admits unconditionally (empty record).  ``'warn'``
    runs the estimate and annotates but always admits; ``'strict'``
    rejects when :func:`strict_refuses` says so.  ``admitted`` means
    "was allowed to run"; the findings are in ``codes`` and
    ``diagnostics`` either way, so a caller that refuses can say *why*.
    """
    if mode == "off":
        return AdmissionDecision(True, [], [], {"mode": "off"})
    stats = graph.stats_summary()
    estimate = estimate_constraint_set(constraint_set, stats)
    report = check_estimate(
        estimate,
        budget_seconds=budget_seconds,
        budget_bytes=budget_bytes,
        scheduler=scheduler,
        n_workers=n_workers,
    ).sorted()
    record: Dict[str, Any] = {
        "mode": mode,
        "graph": stats.version,
        "graph_fingerprint": stats.fingerprint,
        "estimated_candidates": round(estimate.total_candidates, 2),
        "projected_seconds": round(estimate.projected_seconds, 4),
        "projected_peak_memory_bytes": round(estimate.peak_memory_bytes),
    }
    admitted = not (mode == "strict" and strict_refuses(report))
    return AdmissionDecision(
        admitted,
        report.codes(),
        [d.to_dict() for d in report.diagnostics],
        record,
    )
