"""Tests for ``repro.serve``: the mining daemon and its bug sweep.

Covers the intake pipeline unit by unit (token buckets, tenant
config, the CG6xx admission gate), then the daemon end to end over
real sockets: lifecycle, the graph registry endpoints, streamed and
aggregate queries, concurrent tenants, rate limiting, strict
admission rejection, mid-stream disconnect cancellation, per-tenant
metrics, and the long-lived-process regressions (no metric carry-over
and no shared-memory leak across sequential in-process runs).
"""

from __future__ import annotations

import asyncio
import json
import sys
import threading
import time

import pytest

from repro.analysis import admit_query
from repro.apps.mqc import build_mqc_engine, mqc_constraint_set
from repro.apps.nsq import (
    paper_query_tailed_triangles,
    paper_query_triangles,
)
from repro.baselines.naive import nested_query_matches
from repro.bench import dataset
from repro.graph import erdos_renyi
from repro.graph.store import graph_store, reset_default_store
from repro.request import RunRequest
from repro.request import run as run_request
from repro.serve import (
    ServeConfig,
    TenantConfig,
    TokenBucket,
    serve_in_thread,
)
from repro.serve.client import ServeClient, ServeError
from repro.serve.daemon import MiningDaemon, Outbox

SMOKE_EDGES = [
    (0, 1), (1, 2), (0, 2),
    (2, 3), (3, 4), (2, 4),
    (4, 5),
]


@pytest.fixture(autouse=True)
def clean_store():
    reset_default_store()
    yield
    reset_default_store()


def wait_until(predicate, timeout=10.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


# ----------------------------------------------------------------------
# Units: rate limiting, config, admission
# ----------------------------------------------------------------------


class TestTokenBucket:
    def test_burst_then_deny_with_retry_after(self):
        bucket = TokenBucket(rate=1.0, burst=2)
        assert bucket.try_acquire(now=100.0) == (True, 0.0)
        assert bucket.try_acquire(now=100.0) == (True, 0.0)
        granted, retry = bucket.try_acquire(now=100.0)
        assert not granted
        assert retry == pytest.approx(1.0)

    def test_refill_restores_capacity_up_to_burst(self):
        bucket = TokenBucket(rate=2.0, burst=3)
        for _ in range(3):
            assert bucket.try_acquire(now=50.0)[0]
        assert not bucket.try_acquire(now=50.0)[0]
        # 1 second at rate 2 refills two tokens; a century caps at burst.
        assert bucket.try_acquire(now=51.0)[0]
        assert bucket.try_acquire(now=51.0)[0]
        assert not bucket.try_acquire(now=51.0)[0]
        for _ in range(3):
            assert bucket.try_acquire(now=5000.0)[0]
        assert not bucket.try_acquire(now=5000.0)[0]

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0)

    def test_request_above_burst_is_never_grantable(self):
        # Regression: a cost above burst used to come back with a
        # finite retry-after, sending well-behaved clients into an
        # endless retry loop.  It must be the explicit (False, inf)
        # never-grantable signal instead.
        bucket = TokenBucket(rate=1.0, burst=2)
        assert bucket.try_acquire(tokens=3.0, now=100.0) == (
            False, float("inf"),
        )
        # ... and the refusal consumed nothing: a full-burst request
        # still succeeds immediately.
        assert bucket.try_acquire(tokens=2.0, now=100.0) == (True, 0.0)


class TestServeConfig:
    def test_for_tenant_falls_back_to_default_policy(self):
        config = ServeConfig(
            tenants={"alice": TenantConfig("alice", rate=2.0, priority=5)},
            default=TenantConfig("default", rate=7.0, burst=9),
        )
        assert config.for_tenant("alice").priority == 5
        anon = config.for_tenant("bob")
        assert (anon.name, anon.rate, anon.burst) == ("bob", 7.0, 9)

    def test_from_dict_round_trip_and_validation(self):
        config = ServeConfig.from_dict(
            {
                "default": {"rate": 4.0},
                "tenants": {"t1": {"rate": 1.0, "burst": 1, "priority": -2}},
                "max_concurrent": 3,
                "admission": "warn",
            }
        )
        assert config.max_concurrent == 3
        assert config.admission == "warn"
        assert config.for_tenant("t1").priority == -2
        with pytest.raises(ValueError):
            ServeConfig(admission="sometimes")
        with pytest.raises(ValueError):
            TenantConfig.from_dict("x", {"rate": 1.0, "color": "red"})

    def test_from_file(self, tmp_path):
        path = tmp_path / "tenants.json"
        path.write_text(json.dumps({"default": {"rate": 3.0}}))
        config = ServeConfig.from_file(str(path), max_concurrent=4)
        assert config.default.rate == 3.0
        assert config.max_concurrent == 4


class TestAdmission:
    def _constraints(self):
        return mqc_constraint_set(0.8, 4)

    def test_off_admits_unconditionally(self):
        graph = erdos_renyi(20, 0.3, seed=1)
        decision = admit_query(graph, self._constraints(), "off")
        assert decision.admitted
        assert decision.codes == []

    def test_strict_rejects_projected_tle_with_cg601(self):
        graph = erdos_renyi(60, 0.4, seed=2)
        decision = admit_query(
            graph, self._constraints(), "strict", budget_seconds=1e-12
        )
        assert not decision.admitted
        assert "CG601" in decision.codes
        payload = decision.to_dict()
        assert payload["admitted"] is False
        assert payload["projected_seconds"] >= 0

    def test_strict_admits_an_uncalibrated_estimate_with_its_codes(self):
        graph = erdos_renyi(40, 0.4, seed=2)  # under 50 vertices
        decision = admit_query(
            graph, self._constraints(), "strict", budget_seconds=1e-12
        )
        assert decision.admitted
        assert {"CG601", "CG604"} <= set(decision.codes)

    def test_warn_annotates_but_admits(self):
        graph = erdos_renyi(40, 0.4, seed=2)
        decision = admit_query(
            graph, self._constraints(), "warn", budget_seconds=1e-12
        )
        assert decision.admitted
        assert "CG601" in decision.codes


# ----------------------------------------------------------------------
# Daemon end-to-end
# ----------------------------------------------------------------------


def _daemon(**kwargs):
    kwargs.setdefault("admission", "warn")
    kwargs.setdefault("port", 0)
    return serve_in_thread(ServeConfig(**kwargs))


class TestDaemonLifecycle:
    def test_start_serve_drain_shutdown(self):
        handle = _daemon()
        try:
            client = ServeClient(handle.host, handle.port)
            health = client.health()
            assert health["status"] == "ok"
            assert health["max_concurrent"] == 2
            client.register_graph("tiny", edges=SMOKE_EDGES, num_vertices=6)
            result = client.query(
                tenant="t", graph="tiny", gamma=0.8, max_size=4
            )
            assert result["type"] == "result"
            assert result["summary"]["status"] == "ok"
            assert client.shutdown()["status"] == "draining"
        finally:
            handle.stop()
        assert not handle.thread.is_alive()
        # The socket is gone after shutdown.
        with pytest.raises(OSError):
            ServeClient(handle.host, handle.port, timeout=2.0).health()

    def test_registry_endpoints_and_version_addressing(self):
        handle = _daemon()
        try:
            client = ServeClient(handle.host, handle.port)
            client.register_graph("g", edges=SMOKE_EDGES, num_vertices=6)
            client.mutate_graph("g", add_edges=[[0, 5], [1, 5]])
            graphs = client.graphs()
            refs = {entry["ref"] for entry in graphs}
            assert {"g@v1", "g@v2"} <= refs
            latest = [e for e in graphs if e.get("latest")]
            assert any(e["ref"] == "g@v2" for e in latest)
            # Old and new versions both resolvable by queries.
            v1 = client.query(tenant="t", graph="g@v1", max_size=3)
            v2 = client.query(tenant="t", graph="g@latest", max_size=3)
            assert v1["summary"]["status"] == "ok"
            assert v2["summary"]["status"] == "ok"
        finally:
            handle.stop()

    def test_error_paths(self):
        handle = _daemon()
        try:
            client = ServeClient(handle.host, handle.port)
            with pytest.raises(ServeError) as err:
                client.query(tenant="t", graph="missing")
            assert err.value.status == 404
            with pytest.raises(ServeError) as err:
                client.register_graph("dual", dataset="dblp",
                                      edges=[], num_vertices=0)
            assert err.value.status == 400
            with pytest.raises(ServeError) as err:
                client.query(tenant="t", graph="x", scheduler="quantum")
            assert err.value.status == 400
            with pytest.raises(ServeError) as err:
                client.mutate_graph("nope", add_edges=[[0, 1]])
            assert err.value.status == 404
            status, _ = client._request("GET", "/nope")
            assert status == 404
            status, _ = client._request("DELETE", "/graphs")
            assert status == 405
        finally:
            handle.stop()


PROCESS_METRIC_FAMILIES = (
    "repro_derived_cache_hits",
    "repro_shared_graph_publish_total",
    "repro_aux_graph_prune_ratio",
)


def test_process_metrics_on_both_front_ends(tmp_path):
    """``repro mqc --metrics`` and ``/metrics`` publish the same three
    process-wide families (one publisher, repro.obs)."""
    from repro.cli import main

    path = tmp_path / "run.prom"
    assert main(
        ["mqc", "--dataset", "dblp", "--max-size", "3",
         "--metrics", str(path)]
    ) == 0
    exported = path.read_text()
    handle = _daemon()
    try:
        scraped = ServeClient(handle.host, handle.port).metrics()
    finally:
        handle.stop()
    for family in PROCESS_METRIC_FAMILIES:
        assert f"\n{family} " in exported, family
        assert f"\n{family} " in scraped, family


class TestStreaming:
    def test_streamed_matches_arrive_incrementally(self):
        handle = _daemon()
        try:
            client = ServeClient(handle.host, handle.port)
            client.register_graph("tiny", edges=SMOKE_EDGES, num_vertices=6)
            events = list(
                client.stream_query(tenant="t", graph="tiny", max_size=4)
            )
            assert events[0]["type"] == "accepted"
            assert events[0]["admission"]["mode"] == "warn"
            matches = [e for e in events if e["type"] == "match"]
            summary = events[-1]
            assert summary["type"] == "summary"
            assert summary["status"] == "ok"
            assert summary["matches"] == len(matches) > 0
            for match in matches:
                assert isinstance(match["vertices"], list)
        finally:
            handle.stop()

    def test_two_concurrent_tenant_queries_both_stream(self):
        handle = _daemon(max_concurrent=2)
        try:
            client = ServeClient(handle.host, handle.port)
            graph = erdos_renyi(30, 0.4, seed=7)
            store = graph_store()
            store.register(graph, "shared")
            outcomes = {}

            def run(tenant):
                local = ServeClient(handle.host, handle.port, timeout=120.0)
                events = list(
                    local.stream_query(
                        tenant=tenant, graph="shared", max_size=4,
                        time_limit=120.0,
                    )
                )
                outcomes[tenant] = events

            threads = [
                threading.Thread(target=run, args=(name,))
                for name in ("alice", "bob")
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120.0)
            assert set(outcomes) == {"alice", "bob"}
            for tenant, events in outcomes.items():
                assert events[0]["type"] == "accepted", tenant
                assert events[-1]["status"] == "ok", tenant
                assert events[-1]["matches"] > 0, tenant
            metrics = client.metrics()
            assert 'repro_serve_queries_total{tenant="alice"} 1' in metrics
            assert 'repro_serve_queries_total{tenant="bob"} 1' in metrics
        finally:
            handle.stop()


class TestCoalescedDelivery:
    def test_a_burst_posted_while_the_loop_is_busy_is_one_delivery(self):
        async def scenario():
            outbox = Outbox(asyncio.get_running_loop(), streamed=True)
            poster = threading.Thread(
                target=lambda: [outbox.post({"seq": i}) for i in range(5000)]
            )
            poster.start()
            poster.join()  # the loop is blocked until every post is in
            received, deliveries = [], 0
            while len(received) < 5000:
                received.extend(await outbox.batches.get())
                deliveries += 1
            return received, deliveries

        received, deliveries = asyncio.run(scenario())
        assert [event["seq"] for event in received] == list(range(5000))
        assert deliveries <= 2

    def test_concurrent_posters_lose_nothing_and_keep_their_order(self):
        posters, per_poster = 4, 2000

        async def scenario():
            outbox = Outbox(asyncio.get_running_loop(), streamed=True)
            threads = [
                threading.Thread(
                    target=lambda t=t: [
                        outbox.post({"t": t, "seq": i})
                        for i in range(per_poster)
                    ]
                )
                for t in range(posters)
            ]
            for thread in threads:
                thread.start()
            received = []
            while len(received) < posters * per_poster:
                received.extend(
                    await asyncio.wait_for(outbox.batches.get(), 10.0)
                )
            for thread in threads:
                thread.join(10.0)
                assert not thread.is_alive()
            assert outbox.batches.empty()
            return received

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            received = asyncio.run(scenario())
        finally:
            sys.setswitchinterval(previous)
        assert len(received) == posters * per_poster
        for t in range(posters):
            assert [e["seq"] for e in received if e["t"] == t] == list(
                range(per_poster)
            )

    def test_streamed_lines_keep_sink_order_and_equal_the_aggregate(self):
        graph = dataset("dblp")
        sunk = []
        run_request(
            RunRequest.of({"gamma": 0.8, "max_size": 4}),
            graph,
            match_sink=lambda p, a: sunk.append(
                [p.name or f"P{p.num_vertices}", list(a)]
            ),
        )
        handle = _daemon()
        try:
            client = ServeClient(handle.host, handle.port, timeout=120.0)
            client.register_graph("dblp", dataset="dblp")
            params = dict(
                tenant="t", graph="dblp", gamma=0.8, max_size=4,
                time_limit=120.0,
            )
            events = list(client.stream_query(**params))
            aggregated = client.query(**params)
        finally:
            handle.stop()
        streamed = [
            [e["pattern"], e["vertices"]]
            for e in events
            if e["type"] == "match"
        ]
        assert len(streamed) > 100
        assert streamed == sunk
        assert [
            [e["pattern"], e["vertices"]] for e in aggregated["matches"]
        ] == streamed
        assert events[-1]["type"] == "summary"
        assert events[-1]["matches"] == len(streamed)
        assert aggregated["summary"]["matches"] == len(streamed)

    def test_orphaned_run_is_cancelled_when_the_head_cannot_be_sent(self):
        """A client gone before the ``accepted`` line: the queued run
        must not mine for nobody."""

        class GoneWriter:
            def write(self, data):
                pass

            async def drain(self):
                raise ConnectionResetError("client gone")

        async def scenario():
            daemon = MiningDaemon(ServeConfig(admission="off", port=0))
            await daemon.start()
            try:
                daemon.store.register(erdos_renyi(30, 0.4, seed=7), "g")
                with pytest.raises(ConnectionResetError):
                    await daemon._handle_query(
                        {"tenant": "t", "graph": "g", "max_size": 4},
                        asyncio.StreamReader(),
                        GoneWriter(),
                    )
                # Taken before any worker slot can see it.
                _, _, run = daemon._pending.get_nowait()
                return await asyncio.get_running_loop().run_in_executor(
                    None, daemon._execute, run
                )
            finally:
                await daemon.stop()

        terminal = asyncio.run(scenario())
        assert terminal["type"] == "cancelled"
        assert terminal["reason"] == "client disconnected"
        assert terminal["counters"]["matches_checked"] == 0


class TestNestedQueriesOverTheWire:
    @pytest.mark.parametrize("scheduler", ["serial", "process"])
    def test_streamed_and_aggregated_equal_the_naive_oracle(self, scheduler):
        cases = [
            (paper_query_triangles, "triangles", erdos_renyi(24, 0.12, seed=3)),
            (
                paper_query_tailed_triangles,
                "tailed-triangles",
                erdos_renyi(16, 0.18, seed=100),
            ),
        ]
        handle = _daemon()
        try:
            client = ServeClient(handle.host, handle.port, timeout=120.0)
            for build, query, graph in cases:
                graph_store().register(graph, query)
                want = nested_query_matches(graph, *build())
                assert want
                params = dict(
                    tenant="t", graph=query, workload="nsq", query=query,
                    scheduler=scheduler, workers=2,
                )
                events = list(client.stream_query(**params))
                assert events[-1]["type"] == "summary"
                assert events[-1]["status"] == "ok"
                streamed = [e for e in events if e["type"] == "match"]
                assert {tuple(e["vertices"]) for e in streamed} == want
                assert events[-1]["matches"] == len(streamed) == len(want)
                result = client.query(**params)
                assert result["summary"]["status"] == "ok"
                assert {
                    tuple(e["vertices"]) for e in result["matches"]
                } == want
        finally:
            handle.stop()

    def test_subscriptions_stay_mqc_only(self):
        handle = _daemon()
        try:
            client = ServeClient(handle.host, handle.port)
            client.register_graph("tiny", edges=SMOKE_EDGES, num_vertices=6)
            with pytest.raises(ServeError) as err:
                next(
                    client.subscribe(
                        tenant="t", graph="tiny", workload="nsq"
                    )
                )
            assert err.value.status == 400
            assert err.value.payload["field"] == "workload"
            assert client.subscriptions() == []
        finally:
            handle.stop()


class TestRateLimiting:
    def test_second_query_hits_429_with_retry_after(self):
        handle = serve_in_thread(
            ServeConfig(
                tenants={
                    "slow": TenantConfig("slow", rate=0.001, burst=1)
                },
                admission="off",
                port=0,
            )
        )
        try:
            client = ServeClient(handle.host, handle.port)
            client.register_graph("tiny", edges=SMOKE_EDGES, num_vertices=6)
            first = client.query(tenant="slow", graph="tiny", max_size=3)
            assert first["summary"]["status"] == "ok"
            with pytest.raises(ServeError) as err:
                client.query(tenant="slow", graph="tiny", max_size=3)
            assert err.value.status == 429
            assert err.value.payload["retry_after_seconds"] > 0
            # Other tenants are unaffected (separate buckets).
            other = client.query(tenant="fast", graph="tiny", max_size=3)
            assert other["summary"]["status"] == "ok"
            metrics = client.metrics()
            assert (
                'repro_serve_rate_limited_total{tenant="slow"} 1' in metrics
            )
        finally:
            handle.stop()


class TestAdmissionRejection:
    def test_strict_rejection_carries_cg601_diagnostic(self):
        handle = _daemon(admission="strict")
        try:
            client = ServeClient(handle.host, handle.port)
            graph = erdos_renyi(60, 0.4, seed=3)
            graph_store().register(graph, "big")
            with pytest.raises(ServeError) as err:
                client.query(
                    tenant="t", graph="big", max_size=4, time_limit=1e-12
                )
            assert err.value.status == 422
            admission = err.value.payload["admission"]
            assert admission["admitted"] is False
            assert "CG601" in admission["codes"]
            assert any(
                d.get("code") == "CG601" for d in admission["diagnostics"]
            )
            metrics = client.metrics()
            assert (
                'repro_serve_admission_rejected_total{tenant="t"} 1'
                in metrics
            )
            # Per-query override can downgrade to warn and proceed.
            ok = client.query(
                tenant="t", graph="big", max_size=3,
                time_limit=60.0, admission="warn",
            )
            assert ok["summary"]["status"] == "ok"
        finally:
            handle.stop()

    def test_cli_and_daemon_carry_the_same_admission_object(self, capsys):
        """One MQC request through both front ends: the CLI run record
        and the daemon's ``accepted`` / 422 payloads hold the same
        ``AdmissionDecision.to_dict()``."""
        from repro.cli import main

        request = dict(gamma=0.8, max_size=4, time_limit=60.0)
        main(["mqc", "--dataset", "dblp", "--gamma", "0.8",
              "--max-size", "4", "--time-limit", "60",
              "--admission", "warn", "--format", "json"])
        record = json.loads(capsys.readouterr().out)["admission"]
        handle = _daemon(admission="strict")
        try:
            client = ServeClient(handle.host, handle.port)
            client.register_graph("dblp", dataset="dblp")
            stream = client.stream_query(
                tenant="t", graph="dblp", admission="warn", **request
            )
            accepted = next(stream)["admission"]
            stream.close()
            with pytest.raises(ServeError) as err:
                client.query(
                    tenant="t", graph="dblp", **{**request, "time_limit": 1e-12}
                )
            refused = err.value.payload["admission"]
        finally:
            handle.stop()
        assert accepted["admitted"] is True and refused["admitted"] is False
        assert {k: record[k] for k in accepted} == accepted
        assert set(refused) == set(accepted)
        # The CLI adds only its post-run calibration.
        assert set(record) - set(accepted) == {
            "actual_candidates", "estimate_error_ratio",
        }


class TestTenantDeadline:
    def test_tiny_budget_ends_the_run_with_time_limit_exceeded(self):
        handle = _daemon(
            tenants={"hasty": TenantConfig("hasty", budget_seconds=1e-9)}
        )
        try:
            client = ServeClient(handle.host, handle.port)
            graph_store().register(erdos_renyi(40, 0.4, seed=3), "big")
            events = list(
                client.stream_query(tenant="hasty", graph="big", max_size=4)
            )
        finally:
            handle.stop()
        assert events[0]["type"] == "accepted"
        terminal = events[-1]
        assert terminal["type"] == "error"
        assert terminal["status"] == "error"
        assert "TimeLimitExceeded" in terminal["error"]


class TestDisconnectCancellation:
    def test_mid_stream_disconnect_cancels_the_run(self):
        handle = _daemon(max_concurrent=1, admission="off")
        try:
            client = ServeClient(handle.host, handle.port, timeout=120.0)
            # ~5s of serial mining if left alone: far longer than the
            # drain window below, so an empty slot proves cancellation.
            graph = erdos_renyi(80, 0.4, seed=7)
            graph_store().register(graph, "slow")
            stream = client.stream_query(
                tenant="t", graph="slow", max_size=5, time_limit=120.0
            )
            first = next(stream)
            assert first["type"] == "accepted"
            # Wait for the run to occupy the worker slot, then vanish.
            assert wait_until(lambda: len(handle.daemon._active) == 1)
            stream.close()
            assert wait_until(
                lambda: len(handle.daemon._active) == 0, timeout=20.0
            ), "run was not cancelled after client disconnect"
            # The daemon is still healthy and the slot is reusable.
            client.register_graph("tiny", edges=SMOKE_EDGES, num_vertices=6)
            result = client.query(tenant="t", graph="tiny", max_size=3)
            assert result["summary"]["status"] == "ok"
        finally:
            handle.stop()


class TestLongLivedProcessRegressions:
    def test_no_metric_carry_over_across_sequential_daemon_runs(self):
        """Acceptance: 3 identical sequential queries report identical
        per-run counters — nothing accumulates across runs."""
        handle = _daemon(admission="off")
        try:
            client = ServeClient(handle.host, handle.port)
            graph = erdos_renyi(24, 0.4, seed=11)
            graph_store().register(graph, "g")
            summaries = [
                client.query(tenant="t", graph="g", max_size=4)["summary"]
                for _ in range(3)
            ]
            baseline = summaries[0]["counters"]
            assert baseline["matches_found"] > 0
            for later in summaries[1:]:
                assert later["counters"] == baseline
            # Shared-memory lease accounting: the serial scheduler never
            # publishes, and nothing leaks between runs.
            for summary in summaries:
                shm = summary["run"]["shared_graphs"]
                assert shm["publishes"] == 0
                assert shm["unlinks"] == 0
        finally:
            handle.stop()

    def test_engine_run_twice_in_process_has_fresh_stats(self):
        """Regression for the cross-run accumulation bug: a second
        ``ContigraEngine.run()`` on the same engine instance used to
        inherit the first run's counters."""
        graph = erdos_renyi(20, 0.4, seed=5)
        engine = build_mqc_engine(graph, 0.8, 4)
        first = engine.run()
        second = engine.run()
        assert first.stats.as_dict() == second.stats.as_dict()
        assert second.stats.matches_found > 0
        assert len(first.valid) == len(second.valid)

    def test_match_sink_streams_every_valid_match(self):
        graph = erdos_renyi(20, 0.4, seed=5)
        engine = build_mqc_engine(graph, 0.8, 4)
        streamed = []
        result = engine.run(
            match_sink=lambda pattern, vs: streamed.append((pattern, vs))
        )
        assert streamed == result.valid


# ----------------------------------------------------------------------
# Intake validation: never-grantable costs and malformed mutations
# ----------------------------------------------------------------------


class TestIntakeValidation:
    def test_cost_above_burst_is_400_not_429(self):
        handle = serve_in_thread(
            ServeConfig(
                tenants={"t": TenantConfig("t", rate=1.0, burst=2)},
                admission="off",
                port=0,
            )
        )
        try:
            client = ServeClient(handle.host, handle.port)
            client.register_graph("tiny", edges=SMOKE_EDGES, num_vertices=6)
            with pytest.raises(ServeError) as err:
                client.query(tenant="t", graph="tiny", max_size=3, cost=5)
            # Waiting cannot satisfy this request: 400, not 429.
            assert err.value.status == 400
            assert "never be granted" in err.value.payload["error"]
            assert "retry_after_seconds" not in err.value.payload
            # A grantable cost still works afterwards.
            ok = client.query(tenant="t", graph="tiny", max_size=3, cost=2)
            assert ok["summary"]["status"] == "ok"
            with pytest.raises(ServeError) as err:
                client.query(tenant="t", graph="tiny", max_size=3, cost=-1)
            assert err.value.status == 400
        finally:
            handle.stop()

    @pytest.mark.parametrize(
        "bad, field",
        [
            ({"gamma": "dense"}, "gamma"),
            ({"workers": "two"}, "workers"),
            ({"time_limit": "soon"}, "time_limit"),
            ({"min_size": None}, "min_size"),
            ({"gamma": 1.5}, "gamma"),
            ({"max_size": 2}, "max_size"),
            ({"workers": 0, "scheduler": "process"}, "workers"),
            ({"stream": "false"}, "stream"),
            ({"workload": "kws"}, "workload"),
            ({"gama": 0.6}, "gama"),
            ({"adjacency": "sets"}, "adjacency"),
        ],
    )
    def test_malformed_query_bodies_get_field_level_400(
        self, bad, field, caplog
    ):
        """Each shape used to answer 500 with a logged traceback (some
        after the tenant's tokens were spent, one from a worker slot)."""
        handle = serve_in_thread(
            ServeConfig(
                tenants={"t": TenantConfig("t", rate=0.001, burst=1)},
                admission="off",
                port=0,
            )
        )
        try:
            client = ServeClient(handle.host, handle.port)
            client.register_graph("tiny", edges=SMOKE_EDGES, num_vertices=6)
            body = {"tenant": "t", "graph": "tiny", "max_size": 3, **bad}
            for path in ("/query", "/subscriptions"):
                status, raw = client._request("POST", path, body)
                payload = json.loads(raw)
                assert status == 400, (path, payload)
                assert payload["field"] == field
                assert payload["error"].startswith(f"{field}: ")
            # Validation ran before the token bucket: the tenant's one
            # token is still there for a well-formed request.
            ok = client.query(tenant="t", graph="tiny", max_size=3)
            assert ok["summary"]["status"] == "ok"
            with pytest.raises(ServeError) as err:
                client.query(tenant="t", graph="tiny", max_size=3)
            assert err.value.status == 429
            # Only bodies that parse are counted, and none of the bad
            # ones reached a worker slot.
            metrics = client.metrics()
            assert 'repro_serve_queries_total{tenant="t"} 2' in metrics
            assert "repro_serve_subscriptions_total" not in metrics
            assert client.health()["active_runs"] == 0
        finally:
            handle.stop()
        assert not [r for r in caplog.records if r.levelname == "ERROR"]

    def test_malformed_mutation_payloads_get_field_level_400(self):
        handle = _daemon()
        try:
            client = ServeClient(handle.host, handle.port)
            client.register_graph("m", edges=SMOKE_EDGES, num_vertices=6)
            with pytest.raises(ServeError) as err:
                client.mutate_graph("m", add_vertices="3")
            assert err.value.status == 400
            assert "add_vertices" in err.value.payload["error"]
            with pytest.raises(ServeError) as err:
                client.mutate_graph("m", add_edges=[[0, 1.5]])
            assert err.value.status == 400
            assert "add_edges[0][1]" in err.value.payload["error"]
            with pytest.raises(ServeError) as err:
                client.mutate_graph("m", add_vertices=-2)
            assert err.value.status == 400
            # The graph is untouched by the rejected payloads.
            assert all(
                e["ref"] == "m@v1"
                for e in client.graphs() if e["name"] == "m"
            )
        finally:
            handle.stop()


# ----------------------------------------------------------------------
# Standing queries over the wire
# ----------------------------------------------------------------------


class TestSubscriptions:
    def test_round_trip_subscribe_mutate_stream_disconnect(self):
        handle = _daemon()
        try:
            client = ServeClient(handle.host, handle.port, timeout=120.0)
            graph = erdos_renyi(20, 0.3, seed=9)
            graph_store().register(graph, "dyn")
            n = graph.num_vertices
            assert client.subscriptions() == []

            stream = client.subscribe(
                tenant="alice", graph="dyn", gamma=0.8, max_size=4
            )
            subscribed = next(stream)
            assert subscribed["type"] == "subscribed"
            sub_id = subscribed["subscription"]
            assert subscribed["matches"] >= 0
            # γ 0.8, size ≤ 4: every pattern is a clique (diameter 1).
            assert subscribed["radius"] == 1
            listed = client.subscriptions()
            assert [s["id"] for s in listed] == [sub_id]
            assert listed[0]["tenant"] == "alice"
            assert client.health()["subscriptions"] == 1

            # A disjoint appended triangle must arrive as match_added
            # followed by the delta summary.
            client.mutate_graph(
                "dyn",
                add_vertices=3,
                add_edges=[[n, n + 1], [n, n + 2], [n + 1, n + 2]],
            )
            events = []
            for event in stream:
                events.append(event)
                if event["type"] == "delta":
                    break
            added = [e for e in events if e["type"] == "match_added"]
            assert any(
                sorted(e["vertices"]) == [n, n + 1, n + 2] for e in added
            )
            delta = events[-1]
            assert delta["subscription"] == sub_id
            assert delta["mode"] == "delta"
            assert delta["frontier"] == 3

            metrics = client.metrics()
            assert (
                'repro_serve_subscriptions_total{tenant="alice"} 1'
                in metrics
            )
            assert "repro_serve_delta_events_total" in metrics
            assert "repro_incremental_frontier_size" in metrics

            # Disconnecting tears the subscription down server-side.
            stream.close()
            assert wait_until(
                lambda: len(handle.daemon.subscriptions) == 0, timeout=20.0
            ), "disconnect did not remove the subscription"
        finally:
            handle.stop()

    def test_delta_lines_arrive_in_order_and_end_with_delta(self):
        graph = erdos_renyi(20, 0.3, seed=9)
        n = graph.num_vertices
        # Removing one edge of a baseline match retracts it; a disjoint
        # appended triangle adds one.
        _, victim = build_mqc_engine(graph, 0.8, 4).run().valid[0]
        handle = _daemon()
        try:
            client = ServeClient(handle.host, handle.port, timeout=120.0)
            graph_store().register(graph, "dyn")
            stream = client.subscribe(
                tenant="t", graph="dyn", gamma=0.8, max_size=4
            )
            assert next(stream)["type"] == "subscribed"
            client.mutate_graph(
                "dyn",
                add_vertices=3,
                add_edges=[[n, n + 1], [n, n + 2], [n + 1, n + 2]],
                remove_edges=[list(victim[:2])],
            )
            events = []
            for event in stream:
                events.append(event)
                if event["type"] == "delta":
                    break
            stream.close()
        finally:
            handle.stop()
        delta = events[-1]
        assert delta["type"] == "delta"
        assert delta["added"] and delta["retracted"]
        assert [e["type"] for e in events] == (
            ["match_added"] * len(delta["added"])
            + ["match_retracted"] * len(delta["retracted"])
            + ["delta"]
        )
        lines = [
            {"pattern": e["pattern"], "vertices": e["vertices"]}
            for e in events[:-1]
        ]
        assert lines == delta["added"] + delta["retracted"]

    def test_explicit_unsubscribe_closes_the_stream(self):
        handle = _daemon()
        try:
            client = ServeClient(handle.host, handle.port, timeout=120.0)
            graph = erdos_renyi(16, 0.3, seed=11)
            graph_store().register(graph, "dyn")
            stream = client.subscribe(tenant="t", graph="dyn", max_size=4)
            sub_id = next(stream)["subscription"]
            assert client.unsubscribe(sub_id)["unsubscribed"] == sub_id
            tail = list(stream)
            assert tail and tail[-1]["type"] == "closed"
            assert client.subscriptions() == []
            with pytest.raises(ServeError) as err:
                client.unsubscribe("sub-999")
            assert err.value.status == 404
        finally:
            handle.stop()

    def test_subscribe_error_paths(self):
        handle = _daemon()
        try:
            client = ServeClient(handle.host, handle.port)
            with pytest.raises(ServeError) as err:
                next(client.subscribe(tenant="t", graph="missing"))
            assert err.value.status == 404
            with pytest.raises(ServeError) as err:
                next(
                    client.subscribe(
                        tenant="t", graph="x", scheduler="quantum"
                    )
                )
            assert err.value.status == 400
        finally:
            handle.stop()

    def test_daemon_shutdown_sends_closed_sentinel(self):
        handle = _daemon()
        client = ServeClient(handle.host, handle.port, timeout=120.0)
        graph = erdos_renyi(16, 0.3, seed=13)
        graph_store().register(graph, "dyn")
        stream = client.subscribe(tenant="t", graph="dyn", max_size=4)
        assert next(stream)["type"] == "subscribed"
        # Stopping with a live long-lived stream must not hang (the
        # sentinel unblocks the pump before the server close waits on
        # active handlers) and the client sees an orderly goodbye.
        handle.stop()
        tail = list(stream)
        assert any(e["type"] == "closed" for e in tail)
        assert not handle.thread.is_alive()
