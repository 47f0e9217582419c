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
    result = maximal_quasi_cliques(graph, 0.8, 4, ctx=ctx)
    tracer.finalize().write_chrome("trace.json")
    registry.write_prometheus("metrics.prom")

``repro trace trace.json`` renders the exported span tree.

See ``docs/observability.md`` for the architecture, the event/spans
mapping, and how traces stay complete across process-shard workers.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..exec.context import TaskContext
from .metrics import (
    COUNT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSubscriber,
    observe_estimate_error,
    publish_process_metrics,
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
    "publish_process_metrics",
    "validate_chrome_trace",
    "validate_prometheus",
]


def observed_context(
    time_limit: Optional[float] = None,
) -> Tuple[TaskContext, SpanTracer, MetricsRegistry]:
    """A :class:`TaskContext` with tracing and metrics attached.

    Returns ``(ctx, tracer, registry)``: the tracer and a
    :class:`MetricsSubscriber` over ``registry`` are both subscribed to
    the context's bus.
    """
    ctx = TaskContext.create(time_limit=time_limit)
    tracer = SpanTracer().attach(ctx.bus)
    registry = MetricsRegistry()
    MetricsSubscriber(registry).attach(ctx.bus)
    return ctx, tracer, registry
