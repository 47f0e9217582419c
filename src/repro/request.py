"""One run path: a validated request, one scheduler choice, one record.

The paper has one execution model — a constraint set mined by ETasks
and validated by VTasks.  This module is the one place that turns what
a caller asked for into that model and back into a report:

* :class:`RunRequest` — the validated shape of one run.  The CLI feeds
  :meth:`RunRequest.of` argparse values, the daemon feeds it JSON, and
  both get the same field-level :class:`RequestError` (exit 2 / HTTP
  400), in the style of :meth:`repro.graph.store.MutationBatch.of`.
* :func:`run_engine` — the one call that builds a run's context and
  hands a :class:`~repro.core.runtime.ContigraJob` to a
  :mod:`repro.exec` scheduler.
* :func:`admit` / :func:`run` (:func:`execute` = both) and the
  :class:`RunRecord` every front end prints.

``apps`` and ``analysis`` are imported lazily: the app helpers, the
query builder and standing queries call :func:`run_engine` from below.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields
from functools import cached_property
from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional, Sequence

from .core.constraints import ConstraintSet, nested_query_constraints
from .core.runtime import (
    ContigraEngine,
    ContigraJob,
    ContigraResult,
    MatchSink,
)
from .errors import QueryAnalysisError, ReproError
from .exec.context import TaskContext
from .exec.resilience import ON_FAILURE_MODES
from .exec.scheduler import SCHEDULER_NAMES, make_scheduler
from .graph.graph import Graph
from .graph.index import ADJACENCY_MODES
from .obs import MetricsRegistry, RunScope, observe_estimate_error

if TYPE_CHECKING:
    from .analysis import AdmissionDecision

NSQ_QUERIES = ("triangles", "tailed-triangles")
ADMISSION_MODES = ("off", "warn", "strict")

_CHOICES = {
    "workload": ("mqc", "nsq"),
    "query": NSQ_QUERIES,
    "scheduler": SCHEDULER_NAMES,
    "admission": ADMISSION_MODES,
    "adjacency": ADJACENCY_MODES,
    "on_failure": ON_FAILURE_MODES,
}
#: Largest float: an int beyond it would overflow the deadline arithmetic.
_MAX_SECONDS = sys.float_info.max
#: Numeric fields: (type, range check, how the error words the range).
_RANGES = {
    "gamma": (float, lambda g: 0 < g <= 1, "in (0, 1]"),
    "time_limit": (float, lambda t: 0 < t <= _MAX_SECONDS, "positive seconds"),
    "max_size": (int, lambda n: n >= 1, ">= 1"),
    "min_size": (int, lambda n: n >= 1, ">= 1"),
    "workers": (int, lambda n: n >= 1, ">= 1"),
    "retries": (int, lambda n: n >= 0, ">= 0"),
}
#: Every :class:`RunRequest` field name (adapters filter input by it).
REQUEST_FIELDS = (*_CHOICES, *_RANGES, "aux")


class RequestError(ReproError, ValueError):
    """One malformed request field; ``str()`` is ``"<field>: <why>"``."""

    def __init__(self, field_name: str, message: str) -> None:
        super().__init__(f"{field_name}: {message}")
        self.field = field_name


def _clean(name: str, value: Any) -> Any:
    """One field's value, validated (a bool is not an int, a string is
    not a bool; JSON numbers arrive as int or float)."""
    got = f"got {type(value).__name__} {value!r}"
    if name in _CHOICES:
        if not isinstance(value, str) or value not in _CHOICES[name]:
            raise RequestError(name, f"must be one of {_CHOICES[name]}, {got}")
    elif name == "aux":
        if not isinstance(value, bool):
            raise RequestError(name, f"expected true or false, {got}")
    elif name in _RANGES:
        kind, in_range, wanted = _RANGES[name]
        if value is None and name == "time_limit":
            return None
        if kind is int and isinstance(value, float) and value.is_integer():
            value = int(value)
        if isinstance(value, bool) or not isinstance(
            value, int if kind is int else (int, float)
        ):
            noun = "an integer" if kind is int else "a number"
            raise RequestError(name, f"expected {noun}, {got}")
        if not in_range(value):
            raise RequestError(name, f"must be {wanted}, got {value!r}")
    else:
        raise RequestError(str(name), "unknown field")
    return value


@dataclass(frozen=True)
class RunRequest:
    """What one run was asked to do, validated.

    ``workload`` is ``mqc`` (shaped by ``gamma`` / ``max_size`` /
    ``min_size``) or ``nsq`` (the named paper ``query``); the rest is
    how to run it.  Defaults are the wire defaults; the CLI passes
    every field, so its own argparse defaults apply there.
    """

    workload: str = "mqc"
    gamma: float = 0.8
    max_size: int = 4
    min_size: int = 3
    query: str = "triangles"
    scheduler: str = "serial"
    workers: int = 2
    time_limit: Optional[float] = None
    admission: str = "off"
    adjacency: str = "auto"
    aux: bool = False
    retries: int = 0
    on_failure: str = "raise"

    @classmethod
    def of(cls, mapping: Mapping[str, Any]) -> "RunRequest":
        """Validate a flag/JSON mapping; absent fields take defaults.

        Raises :class:`RequestError` naming the first bad field: wrong
        type, out of range, unknown name, or ``max_size < min_size``.
        """
        if not isinstance(mapping, Mapping):
            raise RequestError(
                "request", f"expected an object, got {type(mapping).__name__}"
            )
        request = cls(**{k: _clean(k, v) for k, v in mapping.items()})
        if request.max_size < request.min_size:
            raise RequestError(
                "max_size",
                f"must be >= min_size ({request.min_size}), "
                f"got {request.max_size}",
            )
        return request

    def to_dict(self) -> Dict[str, Any]:
        """Every field; ``RunRequest.of(r.to_dict()) == r``."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def constraint_set(self) -> ConstraintSet:
        """The workload's patterns and containment constraints, built
        once per request (admission and the run share the object)."""
        return self._constraint_set

    @cached_property
    def _constraint_set(self) -> ConstraintSet:
        if self.workload == "mqc":
            from .apps.mqc import mqc_constraint_set

            return mqc_constraint_set(self.gamma, self.max_size, self.min_size)
        from .apps import nsq

        p_m, p_plus = (
            nsq.paper_query_triangles
            if self.query == "triangles"
            else nsq.paper_query_tailed_triangles
        )()
        return nested_query_constraints(p_m, p_plus)


def run_engine(
    engine: ContigraEngine,
    *,
    scheduler: Optional[str] = None,
    n_workers: int = 2,
    ctx: Optional[TaskContext] = None,
    time_limit: Optional[float] = None,
    match_sink: Optional[MatchSink] = None,
    retries: int = 0,
    on_failure: str = "raise",
    roots: Optional[Sequence[int]] = None,
) -> ContigraResult:
    """Run ``engine`` under a named scheduler (``None`` = serial).

    ``ctx`` is the run's context and carries its own deadline; without
    one, ``run_engine`` builds it with ``time_limit``.  Passing both is
    a ``ValueError``: the limit would otherwise be silently dropped.
    Every scheduler gets that one context.  ``roots`` restricts
    exploration to a root region (standing queries); ``None`` is the
    full universe.

    A serial run with no retries and no degrade mode is one
    :meth:`ContigraEngine.run` that is never rerun, so ``match_sink`` is
    live there: it fires as each match validates, whether or not anyone
    observes the context.  Everywhere else it sees the result's matches
    after the run.
    """
    name = scheduler or "serial"
    live = name == "serial" and retries == 0 and on_failure == "raise"
    if ctx is None:
        ctx = TaskContext.create(time_limit=time_limit)
    elif time_limit is not None:
        raise ValueError(
            "run_engine got both time_limit and ctx: the context carries "
            "the run's deadline, so give the limit to the context"
        )
    result: ContigraResult = make_scheduler(
        name, n_workers=n_workers, retries=retries, on_failure=on_failure
    ).run(ContigraJob(engine, roots, match_sink if live else None), ctx)
    if match_sink is not None and not live:
        for pattern, assignment in result.valid:
            match_sink(pattern, assignment)
    return result


class RunRecord:
    """The envelope of one run, the same object for every front end.

    Create it *before* the run starts (it snapshots the process-wide
    cache counters, so :meth:`deltas` are this run's own) and
    :meth:`finish` it with the result.  A record whose run raised stays
    readable: :meth:`to_dict` then has no counters.
    """

    def __init__(
        self,
        graph: Graph,
        request: Optional[RunRequest] = None,
        admission: Optional["AdmissionDecision"] = None,
        adjacency: Optional[str] = None,
    ) -> None:
        self.graph = graph
        self.config = {
            "scheduler": request.scheduler if request else "serial",
            "adjacency": request.adjacency if request else adjacency,
            "workers": request.workers if request else None,
        }
        #: The admission record, when the gate estimated anything
        #: (``off`` estimates nothing, so there is no loop to close).
        self.admission: Optional[Dict[str, Any]] = None
        if admission and "estimated_candidates" in admission.record:
            self.admission = admission.to_dict()
        self.result: Any = None
        self._scope = RunScope.begin()

    def finish(
        self, result: Any, metrics: Optional[MetricsRegistry] = None
    ) -> "RunRecord":
        """Attach the result and close the estimate-vs-actual loop
        (feeding ``repro_estimate_error_ratio`` when given ``metrics``)."""
        self.result = result
        if self.admission is not None:
            actual = result.stats.extensions_attempted
            estimated = self.admission["estimated_candidates"]
            self.admission["actual_candidates"] = actual
            if estimated > 0 and actual > 0:
                self.admission["estimate_error_ratio"] = round(
                    actual / estimated, 4
                )
            if metrics is not None:
                observe_estimate_error(metrics, estimated, actual)
        return self

    def deltas(self) -> Dict[str, Dict[str, int]]:
        """Movement of the process-wide cache counters during this run."""
        return self._scope.deltas()

    def to_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = dict(self.config)
        result = self.result
        if result is not None:
            record["wall_time_seconds"] = result.elapsed
            record["counters"] = result.stats.as_dict()
        record["graph"] = {
            "name": self.graph.name,
            "version": self.graph.version_key,
            "fingerprint": self.graph.fingerprint,
        }
        record["derived_cache"] = self.deltas()["derived_cache"]
        if getattr(result, "incomplete", False):
            # Degraded runs are never silently complete: the record
            # always names what was skipped and why.
            record["incomplete"] = True
            record["unprocessed_roots"] = list(result.unprocessed_roots)
            record["failure_reasons"] = list(result.failure_reasons)
        if self.admission is not None:
            record["admission"] = self.admission
        return record


def admit(
    request: RunRequest, graph: Graph, budget_bytes: Optional[int] = None
) -> "AdmissionDecision":
    """The CG6xx gate for ``request`` on ``graph``; the caller decides
    what a refusal looks like (exit 2, HTTP 422)."""
    from .analysis import admit_query

    return admit_query(
        graph,
        request.constraint_set(),
        request.admission,
        budget_seconds=request.time_limit,
        budget_bytes=budget_bytes,
        scheduler=request.scheduler,
        n_workers=request.workers,
    )


def run(
    request: RunRequest,
    graph: Graph,
    ctx: Optional[TaskContext] = None,
    match_sink: Optional[MatchSink] = None,
    admission: Optional["AdmissionDecision"] = None,
    metrics: Optional[MetricsRegistry] = None,
    record: Optional[RunRecord] = None,
) -> RunRecord:
    """Build the engine, schedule it, record it.

    Exceptions (``TimeLimitExceeded`` …) propagate; a caller that must
    report a failed run too passes its own ``record`` and reads it after.
    """
    record = record or RunRecord(graph, request, admission)
    engine = ContigraEngine(
        graph,
        request.constraint_set(),
        adjacency=request.adjacency,
        enable_aux=request.aux,
    )
    result = run_engine(
        engine,
        scheduler=request.scheduler,
        n_workers=request.workers,
        ctx=ctx,
        # A caller's context carries the limit already (the CLI's and
        # the daemon's are built with it).
        time_limit=request.time_limit if ctx is None else None,
        match_sink=match_sink,
        retries=request.retries,
        on_failure=request.on_failure,
    )
    return record.finish(result, metrics)


def execute(
    request: RunRequest,
    graph: Graph,
    ctx: Optional[TaskContext] = None,
    match_sink: Optional[MatchSink] = None,
) -> RunRecord:
    """:func:`admit` then :func:`run`; a strict refusal raises
    :class:`~repro.errors.QueryAnalysisError` before any task starts."""
    decision = admit(request, graph)
    if not decision.admitted:
        from .analysis import Diagnostic

        raise QueryAnalysisError(
            [Diagnostic(**d) for d in decision.diagnostics]
        )
    return run(request, graph, ctx, match_sink, admission=decision)
