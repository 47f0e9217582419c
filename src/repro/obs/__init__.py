"""``repro.obs`` — observability over the execution core.

Span tracing (:mod:`repro.obs.trace`), metrics
(:mod:`repro.obs.metrics`), and export validators
(:mod:`repro.obs.validate`) built on the event bus of
:mod:`repro.exec.events`.  Nothing here is imported by the engines —
observability attaches from the outside (CLI flags, bench harness,
tests) through bus subscriptions, and engines stay fast when nobody
listens.

The one-call entry point is :func:`observed_context`:

.. code-block:: python

    ctx, tracer, registry = observed_context(time_limit=60.0)
    engine = ContigraEngine(graph, query, ctx=ctx)
    result = engine.run()
    tracer.finalize().write_chrome("trace.json")
    registry.write_prometheus("metrics.prom")

See ``docs/observability.md`` for the architecture, the event/spans
mapping, and how traces stay complete across process-shard workers.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from ..exec.context import TaskContext
from .metrics import (
    COUNT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSubscriber,
    observe_estimate_error,
)
from .runscope import RunScope
from .trace import Span, SpanTracer
from .validate import validate_chrome_trace, validate_prometheus

__all__ = [
    "RunScope",
    "Span",
    "SpanTracer",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSubscriber",
    "COUNT_BUCKETS",
    "observe_estimate_error",
    "observed_context",
    "validate_chrome_trace",
    "validate_prometheus",
]


def observed_context(
    time_limit: Optional[float] = None,
    check_interval: int = 256,
    metrics: bool = True,
    **create_kwargs: Any,
) -> Tuple[TaskContext, SpanTracer, MetricsRegistry]:
    """A :class:`TaskContext` with tracing and metrics attached.

    Returns ``(ctx, tracer, registry)``: the context carries the tracer
    (so schedulers and CLIs can reach it via ``ctx.tracer``), the
    tracer and a :class:`MetricsSubscriber` over ``registry`` are both
    subscribed to the context's bus.  ``metrics=False`` skips the
    metrics subscription (the registry is still returned, just unfed).
    Extra keyword arguments pass through to
    :meth:`TaskContext.create`.
    """
    tracer = SpanTracer()
    registry = MetricsRegistry()
    ctx = TaskContext.create(
        time_limit=time_limit,
        check_interval=check_interval,
        tracer=tracer,
        **create_kwargs,
    )
    if metrics:
        MetricsSubscriber(registry).attach(ctx.bus)
    return ctx, tracer, registry
