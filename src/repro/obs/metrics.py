"""Metrics registry with Prometheus text exposition.

A tiny, dependency-free metrics core: :class:`Counter`, :class:`Gauge`,
and :class:`Histogram` (fixed buckets) instruments live in a
:class:`MetricsRegistry`, which renders the standard Prometheus text
exposition format (``# HELP`` / ``# TYPE`` headers, ``_bucket`` /
``_sum`` / ``_count`` series for histograms) and plain-dict snapshots
for embedding in benchmark JSON records.

:class:`MetricsSubscriber` bridges the execution event bus into the
registry: every event increments ``repro_events_total{event=...}``,
lifecycle events feed dedicated counters, and ``phase_start`` /
``phase_end`` pairs are folded into per-phase duration histograms —
using the *emission* timestamps delivered to subscribers, so
durations of replayed shard events reflect worker-side time, not
merge-time.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..exec.events import (
    CACHE_HIT,
    CACHE_MISS,
    CANCEL,
    MATCH,
    PHASE_END,
    PHASE_START,
    PROMOTE,
    RUN_DEGRADED,
    SHARD_FAILED,
    SHARD_RETRY,
    EventBus,
)
from .trace import track_key

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSubscriber",
    "DEFAULT_BUCKETS",
    "ESTIMATE_ERROR_BUCKETS",
    "COUNT_BUCKETS",
    "observe_estimate_error",
]

#: Default histogram buckets (seconds): micro-phase to whole-run scale.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.000_1, 0.001, 0.01, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0,
)

#: Buckets for the cost model's actual/estimated ratio — symmetric in
#: log space around the perfectly calibrated 1.0.
ESTIMATE_ERROR_BUCKETS: Tuple[float, ...] = (
    0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0,
)

#: Buckets for count-valued histograms (frontier sizes, re-validated
#: matches): 1 … 10⁵ in powers of ~3.  The seconds-scaled default tops
#: out at 120, which put every such sample in ``+Inf``.
COUNT_BUCKETS: Tuple[float, ...] = (
    1, 3, 10, 30, 100, 300, 1_000, 3_000, 10_000, 30_000, 100_000,
)

Labels = Tuple[Tuple[str, str], ...]


def _labels_key(labels: Optional[Dict[str, str]]) -> Labels:
    if not labels:
        return ()
    return tuple(sorted(labels.items()))


def _render_labels(labels: Labels) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{key}="{value}"' for key, value in labels)
    return "{" + inner + "}"


class Counter:
    """Monotonically increasing value."""

    kind = "counter"

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Labels = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def render(self) -> List[str]:
        return [f"{self.name}{_render_labels(self.labels)} {_fmt(self.value)}"]

    def snapshot(self) -> Any:
        return self.value


class Gauge:
    """Settable value (goes up and down)."""

    kind = "gauge"

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Labels = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def render(self) -> List[str]:
        return [f"{self.name}{_render_labels(self.labels)} {_fmt(self.value)}"]

    def snapshot(self) -> Any:
        return self.value


class Histogram:
    """Fixed-bucket histogram (cumulative ``le`` buckets, Prometheus style)."""

    kind = "histogram"

    __slots__ = ("name", "labels", "buckets", "counts", "total", "count")

    def __init__(
        self,
        name: str,
        labels: Labels = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("buckets must be a non-empty ascending sequence")
        self.name = name
        self.labels = labels
        self.buckets: Tuple[float, ...] = tuple(buckets)
        self.counts: List[int] = [0] * len(self.buckets)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.total += value
        self.count += 1
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1

    def render(self) -> List[str]:
        lines: List[str] = []
        for bound, cumulative in zip(self.buckets, self.counts):
            labels = self.labels + (("le", _fmt(bound)),)
            lines.append(
                f"{self.name}_bucket{_render_labels(labels)} {cumulative}"
            )
        inf_labels = self.labels + (("le", "+Inf"),)
        lines.append(
            f"{self.name}_bucket{_render_labels(inf_labels)} {self.count}"
        )
        suffix = _render_labels(self.labels)
        lines.append(f"{self.name}_sum{suffix} {_fmt(self.total)}")
        lines.append(f"{self.name}_count{suffix} {self.count}")
        return lines

    def snapshot(self) -> Any:
        return {
            "count": self.count,
            "sum": self.total,
            "buckets": {
                _fmt(bound): cumulative
                for bound, cumulative in zip(self.buckets, self.counts)
            },
        }


class MetricsRegistry:
    """Instrument store with get-or-create access and two exports.

    Instruments are keyed by ``(name, labels)``; all instruments
    sharing a name must share a kind (Prometheus requires one ``# TYPE``
    per family).  Access is lock-protected so work-queue threads can
    record concurrently.
    """

    def __init__(self) -> None:
        self._instruments: "Dict[Tuple[str, Labels], Any]" = {}
        self._kinds: Dict[str, str] = {}
        self._help: Dict[str, str] = {}
        self._lock = threading.Lock()

    def _get(
        self,
        factory: type,
        name: str,
        labels: Optional[Dict[str, str]],
        help_text: Optional[str],
        **kwargs: Any,
    ) -> Any:
        key = (name, _labels_key(labels))
        kind = str(factory.kind)  # type: ignore[attr-defined]
        with self._lock:
            existing = self._kinds.get(name)
            if existing is not None and existing != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {existing}"
                )
            instrument = self._instruments.get(key)
            if instrument is None:
                self._kinds[name] = kind
                if help_text is not None:
                    self._help[name] = help_text
                instrument = factory(name, _labels_key(labels), **kwargs)
                self._instruments[key] = instrument
            return instrument

    def counter(
        self,
        name: str,
        labels: Optional[Dict[str, str]] = None,
        help_text: Optional[str] = None,
    ) -> Counter:
        instrument = self._get(Counter, name, labels, help_text)
        assert isinstance(instrument, Counter)
        return instrument

    def gauge(
        self,
        name: str,
        labels: Optional[Dict[str, str]] = None,
        help_text: Optional[str] = None,
    ) -> Gauge:
        instrument = self._get(Gauge, name, labels, help_text)
        assert isinstance(instrument, Gauge)
        return instrument

    def histogram(
        self,
        name: str,
        labels: Optional[Dict[str, str]] = None,
        help_text: Optional[str] = None,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        instrument = self._get(
            Histogram, name, labels, help_text, buckets=buckets
        )
        assert isinstance(instrument, Histogram)
        return instrument

    def to_prometheus(self) -> str:
        """The registry in Prometheus text exposition format."""
        with self._lock:
            by_name: Dict[str, List[Any]] = {}
            for (name, _), instrument in sorted(
                self._instruments.items(), key=lambda item: item[0]
            ):
                by_name.setdefault(name, []).append(instrument)
            lines: List[str] = []
            for name in sorted(by_name):
                help_text = self._help.get(name, name.replace("_", " "))
                lines.append(f"# HELP {name} {help_text}")
                lines.append(f"# TYPE {name} {self._kinds[name]}")
                for instrument in by_name[name]:
                    lines.extend(instrument.render())
            return "\n".join(lines) + ("\n" if lines else "")

    def write_prometheus(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_prometheus())

    def snapshot(self) -> Dict[str, Any]:
        """Plain-dict export for embedding in benchmark JSON records.

        Keys are ``name`` or ``name{k=v,...}`` for labeled series.
        """
        with self._lock:
            result: Dict[str, Any] = {}
            for (name, labels), instrument in sorted(
                self._instruments.items(), key=lambda item: item[0]
            ):
                key = name + _render_labels(labels)
                result[key] = instrument.snapshot()
            return result


class MetricsSubscriber:
    """Feeds a :class:`MetricsRegistry` from an execution event bus.

    Phase durations use the emission timestamps the bus delivers
    (worker-side time for replayed shard events).  Phase stacks are
    per track — the :class:`repro.obs.trace.SpanTracer`'s
    :func:`~repro.obs.trace.track_key` — so interleaved threads and
    replayed shards measure correctly.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._stacks: Dict[str, List[Tuple[str, float]]] = {}
        self._lock = threading.Lock()

    def attach(self, bus: EventBus) -> "MetricsSubscriber":
        bus.subscribe(self.on_event)
        return self

    def on_event(
        self,
        event: str,
        timestamp: float,
        payload: Dict[str, Any],
        track: Optional[str],
    ) -> None:
        """Subscriber entry point (see ``repro.exec.events.Handler``)."""
        raw_count = payload.get("count", 1)
        count = float(raw_count) if isinstance(raw_count, (int, float)) else 1.0
        registry = self.registry
        registry.counter(
            "repro_events_total",
            labels={"event": event},
            help_text="Execution events by name",
        ).inc(count)
        if event == PHASE_START:
            phase = str(payload.get("phase", "?"))
            with self._lock:
                self._stacks.setdefault(track_key(track), []).append(
                    (phase, timestamp)
                )
            return
        if event == PHASE_END:
            phase = str(payload.get("phase", "?"))
            opened: Optional[Tuple[str, float]] = None
            with self._lock:
                stack = self._stacks.get(track_key(track))
                while stack:
                    candidate = stack.pop()
                    if candidate[0] == phase:
                        opened = candidate
                        break
            if opened is not None:
                registry.histogram(
                    "repro_phase_duration_seconds",
                    labels={"phase": phase},
                    help_text="Runtime phase durations",
                ).observe(max(0.0, timestamp - opened[1]))
            return
        if event == MATCH:
            registry.counter(
                "repro_matches_total",
                help_text="Valid matches accepted",
            ).inc(count)
        elif event == CANCEL:
            kind = str(payload.get("kind", "lateral"))
            registry.counter(
                "repro_cancellations_total",
                labels={"kind": kind},
                help_text="Canceled work items by kind",
            ).inc(count)
        elif event == PROMOTE:
            registry.counter(
                "repro_promotions_total",
                help_text="VTask matches promoted to task processing",
            ).inc(count)
        elif event in (CACHE_HIT, CACHE_MISS):
            outcome = "hit" if event == CACHE_HIT else "miss"
            registry.counter(
                "repro_cache_operations_total",
                labels={"outcome": outcome},
                help_text="Set-operation cache outcomes, exact",
            ).inc(count)
        elif event == SHARD_RETRY:
            registry.counter(
                "repro_shard_retries_total",
                help_text="Shard dispatches retried after transient "
                "worker failures",
            ).inc(count)
        elif event == SHARD_FAILED:
            registry.counter(
                "repro_shard_failures_total",
                labels={"error": str(payload.get("error", "?"))},
                help_text="Shards abandoned after exhausting retries, "
                "by error class",
            ).inc(count)
        elif event == RUN_DEGRADED:
            registry.counter(
                "repro_degraded_runs_total",
                help_text="Runs completed with partial (incomplete) "
                "results",
            ).inc(count)


def observe_estimate_error(
    registry: MetricsRegistry, estimated: float, actual: float
) -> Optional[float]:
    """Record one cost-model calibration point (actual / estimated).

    Feeds the ``repro_estimate_error_ratio`` histogram the static cost
    model (:mod:`repro.analysis.costmodel`) uses to track drift; a
    ratio of 1.0 means perfectly calibrated.  Returns the ratio, or
    ``None`` when either side is non-positive (nothing to calibrate
    against).
    """
    if estimated <= 0 or actual <= 0:
        return None
    ratio = actual / estimated
    registry.histogram(
        "repro_estimate_error_ratio",
        help_text="Actual/estimated candidate cardinality "
        "(1.0 = perfectly calibrated cost model)",
        buckets=ESTIMATE_ERROR_BUCKETS,
    ).observe(ratio)
    return ratio


def _fmt(value: float) -> str:
    """Float rendering without trailing noise (``1.0`` → ``1``)."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)
