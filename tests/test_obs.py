"""Observability layer: span tracing, metrics, validators, event-bus fixes.

Covers the event bus as an observation channel (one run-wide bus,
cross-process event replay, the cache-event vocabulary, handler
isolation, nothing emitted when nobody listens) and the ``repro.obs``
layer built on top of it.  The acceptance property lives in
``TestSchedulerObservabilityEquivalence``: the same seeded workload
produces identical lifecycle event multisets under all three
schedulers, with span trees covering (almost) the whole run, and the
events' counts equal the counters the engine keeps in place.
"""

import json

import pytest

from repro.apps import maximal_quasi_cliques
from repro.apps.nsq import nested_subgraph_query, paper_query_triangles
from repro.bench import dataset
from repro.core import maximality_constraints
from repro.core.runtime import ContigraEngine
from repro.exec import (
    EVENTS,
    LIFECYCLE_EVENTS,
    RESILIENCE_EVENTS,
    FaultPlan,
    ProcessShardScheduler,
    SerialScheduler,
    TaskContext,
    WorkQueueScheduler,
)
from repro.exec.events import (
    CACHE_HIT,
    CACHE_MISS,
    KERNEL_INTERSECT,
    EventBus,
    EventLog,
    EventRecorder,
    replay_events,
)
from repro.graph import erdos_renyi
from repro.graph.store import GraphStore, MutationBatch
from repro.mining import ETask, MiningStats, SetOperationCache
from repro.mining.incremental import StandingQuery, SubscriptionRegistry
from repro.obs import (
    COUNT_BUCKETS,
    MetricsRegistry,
    MetricsSubscriber,
    SpanTracer,
    observed_context,
    validate_chrome_trace,
    validate_prometheus,
)
from repro.patterns import path, plan_for, quasi_clique_patterns_up_to


def mqc_constraints(gamma=0.7, max_size=4):
    return maximality_constraints(
        quasi_clique_patterns_up_to(max_size, gamma), induced=True
    )


def assert_events_equal_counters(log, stats):
    """The events' summed ``count`` is the counter kept in place."""
    summed = {}
    for name, payload in log.records:
        if name in (
            "match_checked", "promote", "cancel",
            KERNEL_INTERSECT, CACHE_HIT, CACHE_MISS,
        ):
            key = (name, payload.get("kind"))
            summed[key] = summed.get(key, 0) + payload["count"]
    assert summed.pop((KERNEL_INTERSECT, None), 0) == (
        stats.candidate_computations
    )
    assert summed.pop((CACHE_HIT, None), 0) == stats.cache_hits
    assert summed.pop((CACHE_MISS, None), 0) == stats.cache_misses
    assert summed.pop(("match_checked", None), 0) == stats.matches_checked
    assert summed.pop(("promote", None), 0) == stats.promotions
    assert summed.pop(("cancel", "etask"), 0) == stats.etasks_canceled
    assert (
        summed.pop(("cancel", "lateral"), 0) == stats.vtasks_canceled_lateral
    )
    assert not summed, f"cancel kinds no counter holds: {summed}"


def observed_run(graph, scheduler, gamma=0.7, max_size=4, **engine_options):
    """One MQC engine run under ``scheduler`` with full observability
    on."""
    ctx, tracer, registry = observed_context()
    log = EventLog(ctx.bus)
    engine = ContigraEngine(
        graph, mqc_constraints(gamma, max_size), **engine_options
    )
    result = engine.run_with(scheduler, ctx=ctx)
    tracer.finalize()
    return result, tracer, registry, log


# ----------------------------------------------------------------------
# Satellite: every declared event name is emitted by some code path
# ----------------------------------------------------------------------


class TestEventVocabularyIsAlive:
    def test_engine_run_emits_every_non_cache_event(self):
        # Dense enough (avg degree >= AUTO_MIN_AVG_DEGREE) that auto
        # engages the kernel tier: kernel_intersect fires on that path.
        graph = erdos_renyi(20, 0.9, seed=11)
        _, _, _, log = observed_run(graph, SerialScheduler())
        seen = {name for name, _ in log.records}
        # Resilience events need a failure.
        missing = set(EVENTS) - seen - set(RESILIENCE_EVENTS)
        assert not missing, f"declared but never emitted: {missing}"

    def test_a_step_program_call_reports_its_set_operations_once(self):
        """One ETask's generated function, observed: one record per
        event name, each with the exact count the stats hold."""
        ctx, _, _ = observed_context()
        log = EventLog(ctx.bus)
        stats = MiningStats()
        task = ETask(
            erdos_renyi(12, 0.6, seed=0), plan_for(path(3)), 0,
            SetOperationCache(stats=stats), stats, ctx=ctx,
        )
        assert list(task.matches())
        assert stats.cache_hits and stats.cache_misses
        steps = [
            (name, payload) for name, payload in log.records
            if name in (KERNEL_INTERSECT, CACHE_HIT, CACHE_MISS)
        ]
        assert steps == [
            (KERNEL_INTERSECT, {"count": stats.candidate_computations}),
            (CACHE_HIT, {"count": stats.cache_hits}),
            (CACHE_MISS, {"count": stats.cache_misses}),
        ]

    def test_every_event_name_is_emitted_somewhere(self):
        """The regression gate: EVENTS may not contain dead names."""
        graph = erdos_renyi(20, 0.9, seed=11)
        _, _, _, log = observed_run(graph, SerialScheduler())
        seen = {name for name, _ in log.records}
        # Resilience events only fire on failures: a degraded chaos run
        # (every attempt crashes) emits retry, failure, and degradation.
        ctx, _, _ = observed_context()
        chaos_log = EventLog(ctx.bus)
        engine = ContigraEngine(graph, mqc_constraints())
        plan = FaultPlan().crash(0, times=10)
        degraded = engine.run_with(
            SerialScheduler(
                retries=1,
                on_failure="degrade",
                fault_plan=plan,
            ),
            ctx=ctx,
        )
        assert degraded.incomplete
        seen |= {name for name, _ in chaos_log.records}
        assert seen >= set(EVENTS)



# ----------------------------------------------------------------------
# Satellite: handler exceptions are isolated (strict mode re-raises)
# ----------------------------------------------------------------------


class TestHandlerIsolation:
    def test_raising_handler_is_skipped_by_default(self, caplog):
        bus = EventBus()
        calls = []
        bus.subscribe(lambda event, ts, payload, track: 1 / 0)
        bus.subscribe(lambda event, ts, payload, track: calls.append(payload))
        with caplog.at_level("ERROR"):
            bus.emit("match", pattern="t")
        assert calls == [{"pattern": "t"}]
        assert any("failed" in r.message for r in caplog.records)

    def test_strict_mode_propagates(self):
        bus = EventBus(strict=True)
        bus.subscribe(lambda event, ts, payload, track: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            bus.emit("match")

    def test_timed_handler_isolation(self):
        """Replayed events go through the same isolating loop."""
        bus = EventBus()
        seen = []

        def bad(event, ts, payload, track):
            raise RuntimeError("boom")

        bus.subscribe(bad)
        bus.subscribe(lambda event, ts, payload, track: seen.append(track))
        replay_events(bus, [("match", 0.0, {})], track="shard-0")
        assert seen == ["shard-0"]


# ----------------------------------------------------------------------
# Satellite: handler order + EventLog under concurrency
# ----------------------------------------------------------------------


class TestHandlerOrderAndEventLog:
    def test_handlers_run_in_subscription_order(self):
        bus = EventBus(strict=True)
        order = []
        bus.subscribe(lambda event, ts, payload, track: order.append("first"))
        bus.subscribe(lambda event, ts, payload, track: order.append("last"))
        bus.emit("match")
        assert order == ["first", "last"]

    def test_event_log_is_consistent_under_workqueue_concurrency(self):
        """Concurrent worker threads share one log through the run's
        bus; every record must stay a well-formed pair and lifecycle
        counts must equal the serial run's."""
        graph = erdos_renyi(12, 0.5, seed=5)
        _, _, _, serial_log = observed_run(
            graph, SerialScheduler(), enable_promotion=False
        )
        _, _, _, wq_log = observed_run(
            graph, WorkQueueScheduler(n_workers=3), enable_promotion=False
        )
        for record in wq_log.records:
            assert isinstance(record[0], str) and isinstance(record[1], dict)
        assert wq_log.multiset() == serial_log.multiset()


# ----------------------------------------------------------------------
# EventRecorder / replay (cross-scheduler plumbing)
# ----------------------------------------------------------------------


class TestRecorderReplay:
    def test_replay_preserves_payloads_counts_and_track(self):
        worker = EventBus()
        recorder = EventRecorder(worker)
        worker.emit("phase_start", phase="shard", roots=3)
        worker.emit("match", pattern="p")
        worker.emit("phase_end", phase="shard")

        parent = EventBus()
        log = EventLog(parent)
        timed = []
        parent.subscribe(
            lambda event, ts, payload, track: timed.append((event, ts, track))
        )
        n = replay_events(parent, recorder.serialize(), base=100.0, track="s0")
        assert n == 3
        assert log.count("match") == 1
        assert [t for _, _, t in timed] == ["s0", "s0", "s0"]
        # rebased onto the caller's anchor, original spacing preserved
        times = [ts for _, ts, _ in timed]
        assert all(ts >= 100.0 for ts in times)
        assert times == sorted(times)


# ----------------------------------------------------------------------
# SpanTracer
# ----------------------------------------------------------------------


class TestSpanTracer:
    def feed(self, tracer, events):
        for event, ts, payload, track in events:
            tracer.on_event(event, ts, payload, track)

    def test_nesting_durations_and_instants(self):
        tracer = SpanTracer()
        self.feed(tracer, [
            ("phase_start", 0.0, {"phase": "run"}, None),
            ("phase_start", 1.0, {"phase": "pattern", "pattern": "p"}, None),
            ("match", 1.5, {}, None),
            ("kernel_intersect", 1.6, {"count": 5}, None),
            ("phase_end", 2.0, {"phase": "pattern"}, None),
            ("phase_end", 3.0, {"phase": "run"}, None),
        ])
        tracer.finalize()
        assert len(tracer.roots) == 1
        run = tracer.roots[0]
        assert run.name == "run" and run.duration == pytest.approx(3.0)
        (pattern,) = run.children
        assert pattern.duration == pytest.approx(1.0)
        assert pattern.events == {"match": 1, "kernel_intersect": 5}
        assert tracer.coverage() == pytest.approx(1.0)
        assert tracer.event_totals() == {"match": 1, "kernel_intersect": 5}

    def test_tracks_are_independent_trees(self):
        tracer = SpanTracer()
        self.feed(tracer, [
            ("phase_start", 0.0, {"phase": "run"}, None),
            ("phase_start", 0.1, {"phase": "shard"}, "shard-0"),
            ("phase_start", 0.1, {"phase": "shard"}, "shard-1"),
            ("phase_end", 0.9, {"phase": "shard"}, "shard-0"),
            ("phase_end", 0.8, {"phase": "shard"}, "shard-1"),
            ("phase_end", 1.0, {"phase": "run"}, None),
        ])
        tracer.finalize()
        tracks = sorted(span.track for span in tracer.roots)
        assert tracks == ["main", "shard-0", "shard-1"]

    def test_finalize_closes_open_spans(self):
        tracer = SpanTracer()
        self.feed(tracer, [
            ("phase_start", 0.0, {"phase": "run"}, None),
            ("match", 2.0, {}, None),
        ])
        tracer.finalize()
        assert tracer.roots[0].end == 2.0

    def test_unmatched_end_is_tolerated(self):
        tracer = SpanTracer()
        self.feed(tracer, [("phase_end", 1.0, {"phase": "run"}, None)])
        tracer.finalize()
        assert tracer.roots == []

    def test_orphan_events_are_reported(self):
        tracer = SpanTracer()
        self.feed(tracer, [("match", 1.0, {}, None)])
        assert tracer.orphan_events == {"match": 1}

    def test_coverage_reflects_uncovered_gaps(self):
        tracer = SpanTracer()
        self.feed(tracer, [
            ("phase_start", 0.0, {"phase": "run"}, None),
            ("phase_end", 1.0, {"phase": "run"}, None),
            ("phase_start", 9.0, {"phase": "run"}, None),
            ("phase_end", 10.0, {"phase": "run"}, None),
        ])
        assert tracer.coverage() == pytest.approx(0.2)

    def test_chrome_export_is_valid_and_scaled(self):
        tracer = SpanTracer()
        self.feed(tracer, [
            ("phase_start", 10.0, {"phase": "run"}, None),
            ("phase_end", 10.5, {"phase": "run"}, None),
        ])
        tracer.finalize()
        doc = tracer.to_chrome()
        assert validate_chrome_trace(json.dumps(doc)) == []
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert spans[0]["ts"] == 0.0
        assert spans[0]["dur"] == pytest.approx(0.5e6)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


class TestMetrics:
    def test_counter_gauge_histogram_roundtrip(self):
        registry = MetricsRegistry()
        registry.counter("runs_total").inc()
        registry.gauge("workers").set(3)
        hist = registry.histogram("latency_seconds", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        hist.observe(5.0)
        text = registry.to_prometheus()
        assert validate_prometheus(text) == []
        assert "runs_total 1" in text
        assert "workers 3" in text
        assert 'latency_seconds_bucket{le="0.1"} 1' in text
        assert 'latency_seconds_bucket{le="1"} 2' in text
        assert 'latency_seconds_bucket{le="+Inf"} 3' in text
        assert "latency_seconds_count 3" in text
        snap = registry.snapshot()
        assert snap["runs_total"] == 1
        assert snap["latency_seconds"]["count"] == 3

    def test_labeled_series_share_one_family(self):
        registry = MetricsRegistry()
        registry.counter("events_total", labels={"event": "a"}).inc(2)
        registry.counter("events_total", labels={"event": "b"}).inc(3)
        text = registry.to_prometheus()
        assert text.count("# TYPE events_total counter") == 1
        assert 'events_total{event="a"} 2' in text
        assert validate_prometheus(text) == []

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)

    def test_histogram_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("h", buckets=(1.0, 0.1))

    def test_subscriber_maps_events_and_phase_durations(self):
        registry = MetricsRegistry()
        sub = MetricsSubscriber(registry)
        sub.on_event("phase_start", 1.0, {"phase": "align"}, None)
        sub.on_event("match", 1.2, {}, None)
        sub.on_event("cancel", 1.3, {"kind": "lateral", "count": 2}, None)
        sub.on_event("cache_hit", 1.4, {"count": 64}, None)
        sub.on_event("phase_end", 1.5, {"phase": "align"}, None)
        snap = registry.snapshot()
        assert snap['repro_events_total{event="match"}'] == 1
        assert snap["repro_matches_total"] == 1
        assert snap['repro_cancellations_total{kind="lateral"}'] == 2
        assert snap['repro_cache_operations_total{outcome="hit"}'] == 64
        duration = snap['repro_phase_duration_seconds{phase="align"}']
        assert duration["count"] == 1
        assert duration["sum"] == pytest.approx(0.5)

    def test_subscriber_keeps_replay_tracks_apart(self):
        registry = MetricsRegistry()
        sub = MetricsSubscriber(registry)
        sub.on_event("phase_start", 0.0, {"phase": "shard"}, "s0")
        sub.on_event("phase_start", 0.0, {"phase": "shard"}, "s1")
        sub.on_event("phase_end", 1.0, {"phase": "shard"}, "s0")
        sub.on_event("phase_end", 2.0, {"phase": "shard"}, "s1")
        duration = registry.snapshot()[
            'repro_phase_duration_seconds{phase="shard"}'
        ]
        assert duration["count"] == 2
        assert duration["sum"] == pytest.approx(3.0)


# ----------------------------------------------------------------------
# Validators (negative cases)
# ----------------------------------------------------------------------


class TestValidators:
    def test_chrome_rejects_garbage_and_bad_events(self):
        assert validate_chrome_trace("{nope") != []
        assert validate_chrome_trace('{"a": 1}') != []
        bad = json.dumps({"traceEvents": [{"name": "x"}]})
        assert any("ph" in p for p in validate_chrome_trace(bad))
        bad = json.dumps(
            {"traceEvents": [{"name": "x", "ph": "X", "ts": 0}]}
        )
        assert any("dur" in p for p in validate_chrome_trace(bad))

    def test_prometheus_rejects_malformed_samples(self):
        assert validate_prometheus("{weird") != []
        assert validate_prometheus("metric_a not_a_number") != []
        bad_hist = "\n".join([
            "# TYPE h histogram",
            'h_bucket{le="0.1"} 5',
            'h_bucket{le="1"} 3',       # not cumulative
            'h_bucket{le="+Inf"} 5',
            "h_sum 1", "h_count 5",
        ])
        assert any(
            "cumulative" in p for p in validate_prometheus(bad_hist)
        )
        no_inf = "\n".join([
            "# TYPE h histogram",
            'h_bucket{le="1"} 3',
            "h_sum 1", "h_count 3",
        ])
        assert any("+Inf" in p for p in validate_prometheus(no_inf))

    def test_prometheus_rejects_histogram_living_in_inf(self):
        # Counts observed into seconds buckets: everything above 120.
        registry = MetricsRegistry()
        misfit = registry.histogram("frontier_size")
        misfit.observe(450.0)
        misfit.observe(0.0)  # a no-op delta's zero must not excuse it
        problems = validate_prometheus(registry.to_prometheus())
        assert any("'+Inf'" in p and "unit" in p for p in problems)
        misfit.observe(0.5)  # one sample inside the scale does
        assert validate_prometheus(registry.to_prometheus()) == []

    def test_incremental_count_histograms_use_count_buckets(self):
        store = GraphStore()
        store.register(erdos_renyi(150, 0.05, seed=5, name="inc"), "inc")
        registry = MetricsRegistry()
        subscriptions = SubscriptionRegistry(store=store, metrics=registry)
        subscriptions.attach(store)
        try:
            subscriptions.subscribe("inc", StandingQuery.mqc(0.8, 3))
            # 130 touched vertices: past the seconds scale's top (120).
            store.apply_batch("inc", MutationBatch.of(
                add_edges=[(v, v + 1) for v in range(0, 130, 2)],
            ))
        finally:
            subscriptions.detach()
        text = registry.to_prometheus()
        assert validate_prometheus(text) == []
        for name in ("frontier_size", "revalidated_matches"):
            histogram = registry.histogram(f"repro_incremental_{name}")
            assert histogram.buckets == COUNT_BUCKETS
        frontier = registry.histogram("repro_incremental_frontier_size")
        assert frontier.total > 120 and frontier.counts[-1] == frontier.count


# ----------------------------------------------------------------------
# Acceptance property: scheduler-independent observability
# ----------------------------------------------------------------------


class TestSchedulerObservabilityEquivalence:
    """For the same seeded workload, all three schedulers must deliver
    identical lifecycle event multisets (zero events lost at shard
    merge) and span trees covering >=95% of the observed run."""

    SEEDS = (0, 1, 2, 3, 4, 5)

    def make_schedulers(self):
        return (
            ("serial", SerialScheduler()),
            ("process", ProcessShardScheduler(n_workers=2)),
            ("workqueue", WorkQueueScheduler(n_workers=3)),
        )

    def test_lifecycle_multisets_and_coverage(self):
        for seed in self.SEEDS:
            graph = erdos_renyi(9 + (seed % 3), 0.4, seed=seed)
            reference = None
            for name, scheduler in self.make_schedulers():
                result, tracer, registry, log = observed_run(
                    graph, scheduler, enable_promotion=False
                )
                multiset = log.multiset()
                if reference is None:
                    reference = (multiset, len(result.valid))
                else:
                    assert multiset == reference[0], (
                        f"seed {seed}, scheduler {name}: "
                        f"{multiset} != {reference[0]}"
                    )
                    assert len(result.valid) == reference[1]
                assert_events_equal_counters(log, result.stats)
                assert tracer.coverage() >= 0.95, (
                    f"seed {seed}, scheduler {name}: "
                    f"coverage {tracer.coverage()}"
                )
                # the metrics view agrees with the raw log
                snapshot = registry.snapshot()
                for event in LIFECYCLE_EVENTS:
                    key = f'repro_events_total{{event="{event}"}}'
                    assert snapshot.get(key, 0) == multiset.get(event, 0)

    def test_event_counts_equal_counters_with_promotion(self):
        """Promotion on: ``promote`` and ``cancel[etask]`` fire too
        (their totals differ by scheduler, the equality does not)."""
        graph = erdos_renyi(14, 0.6, seed=3)
        for name, scheduler in self.make_schedulers():
            result, _, _, log = observed_run(graph, scheduler)
            assert result.stats.promotions and result.stats.etasks_canceled
            assert_events_equal_counters(log, result.stats)

    @pytest.mark.parametrize("name", ["serial", "process", "workqueue"])
    def test_step_program_events_equal_the_exact_counters(self, name):
        """dblp at size <= 4: each per-root cache sees only a few hits,
        so a feed that reported every 64th one would read none."""
        scheduler = dict(self.make_schedulers())[name]
        result, _, registry, log = observed_run(
            dataset("dblp"), scheduler, max_size=4, gamma=0.8
        )
        stats = result.stats
        assert stats.cache_hits and stats.cache_misses
        assert_events_equal_counters(log, stats)
        snapshot = registry.snapshot()
        assert snapshot['repro_cache_operations_total{outcome="hit"}'] == (
            stats.cache_hits
        )
        assert snapshot['repro_cache_operations_total{outcome="miss"}'] == (
            stats.cache_misses
        )
        assert snapshot['repro_events_total{event="kernel_intersect"}'] == (
            stats.candidate_computations
        )

    def test_exports_validate_for_every_scheduler(self):
        graph = erdos_renyi(10, 0.4, seed=7)
        for name, scheduler in self.make_schedulers():
            _, tracer, registry, _ = observed_run(graph, scheduler)
            assert validate_chrome_trace(
                json.dumps(tracer.to_chrome())
            ) == [], name
            assert validate_prometheus(registry.to_prometheus()) == [], name

    def test_unobserved_run_has_no_subscribers_overhead(self):
        """Without observers the context reports unobserved, so the
        phase/emit hot paths stay behind their gates."""
        ctx = TaskContext.create()
        assert not ctx.observed
        assert not ctx.bus.observed

    @pytest.mark.parametrize("scheduler", ["serial", "workqueue"])
    def test_unobserved_run_emits_nothing(self, monkeypatch, scheduler):
        """No subscriber: zero ``emit`` calls, and no context derived
        per validated match (the work queue's one per round is all
        there is)."""
        emits, children = [], []
        real_child = TaskContext.child

        def counting_child(self):
            children.append(1)
            return real_child(self)

        monkeypatch.setattr(
            EventBus, "emit", lambda self, event, **kw: emits.append(event)
        )
        monkeypatch.setattr(TaskContext, "child", counting_child)
        graph = dataset("dblp")
        workers = 3
        mqc = maximal_quasi_cliques(
            graph, 0.8, 4, scheduler=scheduler, n_workers=workers,
            ctx=TaskContext.create(),
        )
        p_m, p_plus = paper_query_triangles()
        nsq = nested_subgraph_query(
            graph, p_m, p_plus, scheduler=scheduler, n_workers=workers,
            ctx=TaskContext.create(),
        )
        # Both validated matches and cancelled work, so both had
        # something to say.
        assert mqc.stats.matches_checked and mqc.stats.promotions
        assert nsq.stats.vtasks_canceled_lateral
        assert emits == []
        assert len(children) == (0 if scheduler == "serial" else 2)
