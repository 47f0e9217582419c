"""Benchmark harness: timed runs with the paper's failure vocabulary.

Experiments in the paper end in one of four ways: a time, TLE (over
the time budget), OOM (out of memory), or OOS (out of storage).
:func:`timed_run` executes a workload callable and maps our budget
exceptions onto those outcomes, so benchmark tables can print the same
cells Table 3 and Figs 12/15 use.  Speedups against a failed baseline
are reported as lower bounds, as the paper does ("the speedups
reported for these large graphs are only a lower bound").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Sequence

from ..errors import (
    MemoryBudgetExceeded,
    StorageBudgetExceeded,
    TimeLimitExceeded,
)
from ..exec.context import Budget

OK = "ok"
TLE = "TLE"
OOM = "OOM"
OOS = "OOS"
#: The workload returned, but under ``on_failure="degrade"`` with
#: shards lost: a *partial* result, never to be compared against a
#: complete run's cell as if it were one.
DEGRADED = "degraded"

# The budget-violation vocabulary, in the order the paper's tables use.
_FAILURE_STATUS = (
    (TimeLimitExceeded, TLE),
    (MemoryBudgetExceeded, OOM),
    (StorageBudgetExceeded, OOS),
)


def failure_status(exc: BaseException) -> Optional[str]:
    """Map a budget exception to its outcome tag (None if not one).

    The single place that translates :mod:`repro.errors` budget types
    — raised anywhere, including across process boundaries by the
    sharded schedulers — into the paper's TLE/OOM/OOS cells.
    """
    for exc_type, status in _FAILURE_STATUS:
        if isinstance(exc, exc_type):
            return status
    return None


@dataclass
class RunOutcome:
    """Result of one timed workload execution.

    ``metrics`` is an optional :meth:`MetricsRegistry.snapshot
    <repro.obs.metrics.MetricsRegistry.snapshot>` of the run, embedded
    when the workload ran under an observed context — experiment JSON
    records then carry phase-duration histograms next to the counters.
    """

    status: str
    seconds: float
    value: Any = None
    count: Optional[int] = None
    stats: Dict[str, float] = field(default_factory=dict)
    metrics: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        return self.status == OK

    def cell(self) -> str:
        """Table cell: a time for successes, the failure tag otherwise."""
        if self.ok:
            return f"{self.seconds:.2f}"
        return self.status


def timed_run(
    workload: Callable[[], Any],
    time_limit: Optional[float] = None,
    metrics: Optional[Any] = None,
) -> RunOutcome:
    """Run ``workload`` once, mapping budget failures to outcomes.

    ``time_limit`` here is a harness-side backstop for workloads that
    do not accept a deadline themselves; workloads that do should be
    given the deadline directly (cooperative checks abort earlier).
    ``metrics`` is an optional
    :class:`~repro.obs.metrics.MetricsRegistry` fed by the workload's
    bus; its snapshot is embedded in the outcome (failures included —
    partial metrics from a TLE'd run are exactly what one debugs with).
    """
    clock = Budget()  # measurement clock; no limits enforced here
    try:
        value = workload()
    except (
        TimeLimitExceeded,
        MemoryBudgetExceeded,
        StorageBudgetExceeded,
    ) as exc:
        status = failure_status(exc)
        assert status is not None
        outcome = RunOutcome(status, clock.elapsed())
        if metrics is not None:
            outcome.metrics = metrics.snapshot()
        return outcome
    seconds = clock.elapsed()
    outcome = RunOutcome(OK, seconds, value=value)
    count = getattr(value, "count", None)
    if isinstance(count, int):
        outcome.count = count
    stats = getattr(value, "stats", None)
    if stats is not None and hasattr(stats, "as_dict"):
        outcome.stats = stats.as_dict()
    if metrics is not None:
        outcome.metrics = metrics.snapshot()
    if time_limit is not None and seconds > time_limit:
        outcome.status = TLE
    if getattr(value, "incomplete", False):
        # A degraded run is recorded as such, never silently merged
        # into the OK column (its count covers only the surviving
        # shards).
        outcome.status = DEGRADED
    return outcome


def speedup(
    ours: RunOutcome,
    baseline: RunOutcome,
    baseline_budget: Optional[float] = None,
) -> str:
    """Speedup cell: exact ratio, or a lower bound when baseline failed.

    For a failed baseline the paper reports speedup against the budget
    it burned before dying, marked as a lower bound.
    """
    if not ours.ok:
        return "-"
    if ours.seconds <= 0:
        return "inf"
    if baseline.ok:
        return _fmt_ratio(baseline.seconds / ours.seconds)
    floor = baseline.seconds
    if baseline_budget is not None:
        floor = max(floor, baseline_budget)
    return ">=" + _fmt_ratio(floor / ours.seconds)


def trend_label(sizes: Sequence[float], ratios: Sequence[float]) -> str:
    """Whether ``ratios`` trend with ``sizes``: widening / narrowing /
    flat/noisy.

    Least-squares line through ``(log size, ratio)``.  The fitted
    change across the measured range must exceed the residual standard
    error (``n - 2`` degrees of freedom) to count as a trend, so
    1.6 → 1.3 → 1.7 reads "flat/noisy" even though the last ratio is
    above the first; fewer than three points never show a trend.
    """
    n = len(ratios)
    if n < 3 or len(sizes) != n:
        return "flat/noisy"
    xs = [math.log(s) for s in sizes]
    mean_x = sum(xs) / n
    mean_y = sum(ratios) / n
    spread_x = sum((x - mean_x) ** 2 for x in xs)
    if spread_x == 0:
        return "flat/noisy"
    slope = (
        sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ratios))
        / spread_x
    )
    residual_error = math.sqrt(
        sum(
            (y - mean_y - slope * (x - mean_x)) ** 2
            for x, y in zip(xs, ratios)
        )
        / (n - 2)
    )
    if abs(slope) * (max(xs) - min(xs)) <= residual_error:
        return "flat/noisy"
    return "widening" if slope > 0 else "narrowing"


def _fmt_ratio(ratio: float) -> str:
    if ratio >= 1000:
        return f"{ratio:.2e}x"
    if ratio >= 10:
        return f"{ratio:.0f}x"
    return f"{ratio:.1f}x"
