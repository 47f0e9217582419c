"""Fluent query builder for containment-constrained matching.

A thin, discoverable front end over the runtime — the shape a
downstream user of a "nested MATCH" feature (paper §1's Cypher/GQL
motivation) would reach for::

    from repro.core.query import Query
    from repro.patterns import triangle, house

    result = (
        Query(triangle())
        .not_within(house())            # successor constraint
        .induced(False)
        .time_limit(30)
        .run(graph)
    )
    for assignment in result.assignments():
        ...

``Query`` validates eagerly (bad constraints fail at build time, not
run time) and builds a fresh :class:`~repro.core.runtime.ContigraEngine`
per ``run``.

``.strict()`` opts into the static analyzer
(:mod:`repro.analysis`): every subsequent builder step — and the final
``build_constraints``/``run`` — re-analyzes the query and raises
:class:`~repro.errors.QueryAnalysisError` on any error-severity
``CGxxx`` diagnostic, so an unsatisfiable or self-defeating query
fails in milliseconds instead of burning a mining run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from ..errors import QueryAnalysisError
from ..exec.context import TaskContext
from ..exec.scheduler import SCHEDULER_NAMES
from ..graph.graph import Graph
from ..mining.cache import SetOperationCache
from ..patterns.pattern import Pattern
from ..request import run_engine
from .constraints import ConstraintSet, ContainmentConstraint
from .runtime import ContigraEngine, ContigraResult
from .vtask import ValidationTarget

if TYPE_CHECKING:  # pragma: no cover - import-time only
    from ..analysis.costmodel import WorkloadEstimate
    from ..analysis.diagnostics import AnalysisReport


class Query:
    """Builder for a single-target containment-constrained query."""

    def __init__(self, pattern: Pattern) -> None:
        if pattern.has_anti_vertices:
            raise ValueError(
                "lower anti-vertex patterns first "
                "(repro.apps.antivertex.lower_anti_vertices)"
            )
        if not pattern.is_connected():
            raise ValueError("query patterns must be connected")
        self._pattern = pattern
        self._not_within: List[Pattern] = []
        self._only_within: List[Pattern] = []
        self._induced = False
        self._time_limit: Optional[float] = None
        self._rl_strategy = "heuristic"
        self._fusion = True
        self._lateral = True
        self._strict = False
        self._scheduler: Optional[str] = None
        self._n_workers = 2

    # ------------------------------------------------------------------
    # Builder steps (each returns self for chaining)
    # ------------------------------------------------------------------

    def not_within(self, containing: Pattern) -> "Query":
        """Exclude matches contained in a match of ``containing``."""
        if containing.num_vertices <= self._pattern.num_vertices:
            raise ValueError(
                "not_within requires a strictly larger pattern; "
                "minimality-style constraints run on repro.apps.kws"
            )
        self._not_within.append(containing)
        return self._recheck()

    def only_within(self, containing: Pattern) -> "Query":
        """Keep only matches contained in a match of ``containing``.

        The positive counterpart of :meth:`not_within`: a match is
        valid only when some match of the strictly larger
        ``containing`` pattern contains it.  Multiple calls conjoin.
        """
        if containing.num_vertices <= self._pattern.num_vertices:
            raise ValueError(
                "only_within requires a strictly larger pattern"
            )
        self._only_within.append(containing)
        return self._recheck()

    def induced(self, flag: bool = True) -> "Query":
        """Use vertex-induced matching semantics."""
        self._induced = flag
        return self._recheck()

    def time_limit(self, seconds: float) -> "Query":
        """Abort with TimeLimitExceeded beyond ``seconds``."""
        if seconds <= 0:
            raise ValueError("time limit must be positive")
        self._time_limit = seconds
        return self

    def rl_strategy(self, strategy: str) -> "Query":
        """Override the RL-Path ordering strategy (Fig 9 knob)."""
        self._rl_strategy = strategy
        return self

    def without_fusion(self) -> "Query":
        """Disable VTask cache fusion (ablation)."""
        self._fusion = False
        return self

    def without_lateral_cancellation(self) -> "Query":
        """Disable lateral VTask cancellation (ablation)."""
        self._lateral = False
        return self

    def scheduler(self, name: str, n_workers: int = 2) -> "Query":
        """Run under an execution-core scheduler (``serial`` /
        ``process`` / ``workqueue``)."""
        if name not in SCHEDULER_NAMES:
            raise ValueError(
                f"unknown scheduler {name!r} "
                f"(choose from {SCHEDULER_NAMES})"
            )
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self._scheduler = name
        self._n_workers = n_workers
        return self._recheck()

    # ------------------------------------------------------------------
    # Static analysis
    # ------------------------------------------------------------------

    def spec(
        self,
    ) -> Tuple[Pattern, List[Pattern], List[Pattern], bool]:
        """The query's static shape: (target, not_within, only_within,
        induced) — what the analyzer inspects."""
        return (
            self._pattern,
            list(self._not_within),
            list(self._only_within),
            self._induced,
        )

    def analyze(self) -> "AnalysisReport":
        """Run the static analyzer over the query as built so far."""
        from ..analysis.analyzer import analyze_query_spec
        from ..analysis.schedcheck import check_scheduler

        report = analyze_query_spec(
            self._pattern,
            not_within=self._not_within,
            only_within=self._only_within,
            induced=self._induced,
        )
        if self._scheduler is not None:
            report.merge(
                check_scheduler(
                    self._scheduler, n_workers=self._n_workers
                )
            )
        return report

    def estimate(self, graph: Graph) -> "WorkloadEstimate":
        """Static cost projection for this query on ``graph``.

        Runs the CG6xx cost model (:mod:`repro.analysis.costmodel`)
        without touching a single data vertex: per-step cardinality
        estimates, peak memory, and the projected serial wall time.
        """
        from ..analysis.costmodel import estimate_query_spec

        return estimate_query_spec(
            self._pattern,
            not_within=self._not_within,
            only_within=self._only_within,
            induced=self._induced,
            stats=graph.stats_summary(),
        )

    def check_admission(self, graph: Graph) -> "AnalysisReport":
        """CG6xx admission report for this query's configured budget.

        Judges the serial projection against its ``time_limit`` (no
        time limit set means nothing to violate).
        """
        from ..analysis.costmodel import check_estimate

        return check_estimate(
            self.estimate(graph),
            budget_seconds=self._time_limit,
            scheduler=self._scheduler,
            n_workers=self._n_workers,
        )

    def strict(self) -> "Query":
        """Raise :class:`QueryAnalysisError` on error diagnostics.

        Analysis runs immediately and again after every subsequent
        builder step and at build time, so the first step that makes
        the query unsatisfiable is the one that fails.
        """
        self._strict = True
        return self._recheck()

    def _recheck(self) -> "Query":
        if self._strict:
            report = self.analyze()
            if report.has_errors:
                raise QueryAnalysisError(report.diagnostics)
        return self

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def build_constraints(self) -> ConstraintSet:
        """The constraint set this query denotes (validates eagerly)."""
        self._recheck()
        constraints = [
            ContainmentConstraint(
                self._pattern, containing, induced=self._induced
            )
            for containing in self._not_within
        ]
        return ConstraintSet(
            [self._pattern], constraints, induced=self._induced
        )

    def run(self, graph: Graph) -> ContigraResult:
        """Execute against a data graph.

        Strict queries with a time limit pass through the CG6xx
        admission gate first: a projected budget violation on a
        calibrated estimate raises :class:`QueryAnalysisError` in
        milliseconds instead of burning the budget to learn the same
        thing.  The rule is the daemon's
        (:func:`~repro.analysis.costmodel.strict_refuses`).
        """
        if self._strict and self._time_limit is not None:
            from ..analysis.costmodel import strict_refuses

            report = self.check_admission(graph)
            if strict_refuses(report):
                raise QueryAnalysisError(report.errors)
        engine = ContigraEngine(
            graph,
            self.build_constraints(),
            enable_fusion=self._fusion,
            enable_lateral=self._lateral,
            rl_strategy=self._rl_strategy,
        )
        # One context for the run and its post-filter: the time limit
        # bounds both.
        ctx = TaskContext.create(time_limit=self._time_limit)
        result = run_engine(
            engine,
            scheduler=self._scheduler,
            n_workers=self._n_workers,
            ctx=ctx,
        )
        if self._only_within:
            self._apply_only_within(result, graph, ctx)
        return result

    def _apply_only_within(
        self, result: ContigraResult, graph: Graph, ctx: TaskContext
    ) -> None:
        """Filter to matches contained in every ``only_within`` pattern.

        Required containment runs as ordinary VTasks over each valid
        match, under the run's context; a match survives only when
        every required target finds a containing completion.
        """
        required = [
            ValidationTarget(
                self._pattern,
                containing,
                graph,
                induced=self._induced,
                strategy=self._rl_strategy,
            )
            for containing in self._only_within
        ]
        cache = SetOperationCache(stats=result.stats)
        result.valid = [
            (pattern, assignment)
            for pattern, assignment in result.valid
            if all(
                target.run(assignment, graph, cache, result.stats, ctx=ctx)
                is not None
                for target in required
            )
        ]

    def count(self, graph: Graph) -> int:
        """Number of valid matches."""
        return self.run(graph).count

    def __repr__(self) -> str:
        target = self._pattern.name or f"P{self._pattern.num_vertices}"
        nots = ", ".join(
            p.name or f"P{p.num_vertices}" for p in self._not_within
        )
        onlys = ", ".join(
            p.name or f"P{p.num_vertices}" for p in self._only_within
        )
        only_part = f" only within [{onlys}]" if onlys else ""
        strict_part = ", strict" if self._strict else ""
        return (
            f"Query({target} not within [{nots}]{only_part}, "
            f"induced={self._induced}{strict_part})"
        )
