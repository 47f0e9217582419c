"""Tests for ``repro.request``: the one run path.

``RunRequest.of`` is the only request parser, ``run_engine`` the only
scheduler choice, ``RunRecord`` the only envelope — so the same request
must read the same through every front end that adapts to them.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import maximal_quasi_cliques
from repro.apps.mqc import build_mqc_engine
from repro.bench import dataset
from repro.cli import main
from repro.core.runtime import ContigraJob
from repro.errors import QueryAnalysisError
from repro.exec.context import TaskContext
from repro.exec.events import MATCH
from repro.graph.store import reset_default_store
from repro.obs import observed_context
from repro.request import (
    REQUEST_FIELDS,
    RequestError,
    RunRequest,
    execute,
    run_engine,
)
from repro.serve import ServeConfig, serve_in_thread
from repro.serve.client import ServeClient

SCHEDULERS = ("serial", "process", "workqueue")

#: What each adapter adds around ``RunRecord.to_dict()``.
CLI_ONLY = {
    "maximal_quasi_cliques", "by_size", "elapsed_seconds", "vtasks",
    "vtasks_canceled", "promotions", "cache_hit_rate",
}
DAEMON_ONLY = {
    "type", "query_id", "status", "matches", "elapsed_seconds", "run",
}


@pytest.fixture(autouse=True)
def clean_store():
    reset_default_store()
    yield
    reset_default_store()


def _vertex_sets(matches):
    return {tuple(sorted(m["vertices"])) for m in matches}


def _counters(counters, scheduler):
    """Work-queue workers fill worker-local promotion registries in
    steal order, so ``promotions`` (and the checks they save) vary run
    to run there — the same exceptions ``test_kernel_equivalence`` drops."""
    drop = {"promotions", "matches_checked"} if scheduler == "workqueue" else ()
    return {k: v for k, v in counters.items() if k not in drop}


class TestRunRequest:
    def test_defaults_and_round_trip(self):
        request = RunRequest.of({})
        assert request == RunRequest()
        assert set(request.to_dict()) == set(REQUEST_FIELDS)
        custom = RunRequest.of(
            {"workload": "nsq", "query": "tailed-triangles", "workers": 3,
             "time_limit": 2.5, "aux": True, "max_size": 5.0}
        )
        assert custom.max_size == 5 and isinstance(custom.max_size, int)
        assert RunRequest.of(custom.to_dict()) == custom
        assert json.loads(json.dumps(custom.to_dict())) == custom.to_dict()

    @pytest.mark.parametrize(
        "mapping, field",
        [
            ({"gamma": "dense"}, "gamma"),
            ({"gamma": 1.5}, "gamma"),
            ({"gamma": 0}, "gamma"),
            ({"gamma": True}, "gamma"),
            ({"workers": "two"}, "workers"),
            ({"workers": 0}, "workers"),
            ({"workers": 1.5}, "workers"),
            ({"workers": True}, "workers"),
            ({"retries": -1}, "retries"),
            ({"time_limit": "soon"}, "time_limit"),
            ({"time_limit": 0}, "time_limit"),
            ({"time_limit": float("nan")}, "time_limit"),
            ({"time_limit": 10 ** 400}, "time_limit"),
            ({"min_size": None}, "min_size"),
            ({"max_size": 2}, "max_size"),
            ({"min_size": 5, "max_size": 4}, "max_size"),
            ({"aux": "false"}, "aux"),
            ({"aux": 0}, "aux"),
            ({"scheduler": "quantum"}, "scheduler"),
            ({"scheduler": ["serial"]}, "scheduler"),
            ({"admission": None}, "admission"),
            ({"workload": "kws"}, "workload"),
            ({"stream": True}, "stream"),
            ([("gamma", 0.8)], "request"),
        ],
    )
    def test_field_level_errors(self, mapping, field):
        with pytest.raises(RequestError) as err:
            RunRequest.of(mapping)
        assert err.value.field == field
        assert str(err.value).startswith(f"{field}: ")
        # One error type, catchable as the library's or as a ValueError.
        assert isinstance(err.value, ValueError)

    def test_constraint_set_is_built_once(self):
        request = RunRequest.of({"gamma": 0.8, "max_size": 4})
        assert request.constraint_set() is request.constraint_set()
        nsq = RunRequest.of({"workload": "nsq"})
        assert nsq.constraint_set().patterns[0].num_vertices == 3

    _json = st.recursive(
        st.none() | st.booleans() | st.integers() | st.text(max_size=8)
        | st.floats(allow_nan=True, allow_infinity=True),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=6,
    )

    @pytest.mark.slow  # 300 examples: ~2 s alone, over 5 s under load
    @given(
        st.dictionaries(
            st.sampled_from(REQUEST_FIELDS) | st.text(max_size=6),
            _json,
            max_size=6,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_any_json_mapping_parses_or_raises_the_field_error(self, body):
        try:
            request = RunRequest.of(body)
        except RequestError as exc:
            assert exc.field in body or exc.field == "max_size"
            return
        assert RunRequest.of(request.to_dict()) == request
        assert request.min_size <= request.max_size and request.workers >= 1


class TestRunEngineRule:
    """``run_engine`` is one plain ``engine.run`` with a live sink
    exactly when the run is serial with no retries and no degrade mode
    — whether anyone watches the context has no say."""

    @pytest.fixture
    def serial_runs(self, monkeypatch):
        """Counts ``ContigraJob.run_serial`` calls; ``active`` is True
        while one is running."""
        runs = SimpleNamespace(count=0, active=False)
        real = ContigraJob.run_serial

        def spy(job, ctx=None):
            runs.count += 1
            runs.active = True
            try:
                return real(job, ctx=ctx)
            finally:
                runs.active = False

        monkeypatch.setattr(ContigraJob, "run_serial", spy)
        return runs

    @pytest.mark.parametrize(
        "options, plain",
        [
            ({}, True),
            ({"scheduler": "serial"}, True),
            ({"scheduler": "serial", "ctx": "unobserved"}, True),
            ({"scheduler": "serial", "ctx": "observed"}, True),
            ({"retries": 1}, False),
            ({"on_failure": "degrade"}, False),
            ({"scheduler": "workqueue"}, False),
        ],
    )
    def test_fast_path_rule(self, serial_runs, options, plain):
        graph = dataset("dblp")
        tracer = None
        if options.get("ctx") == "observed":
            options["ctx"], tracer, _ = observed_context()
        elif options.get("ctx") == "unobserved":
            options["ctx"] = TaskContext.create()
        streamed, live = [], []

        def sink(pattern, assignment):
            streamed.append(assignment)
            live.append(serial_runs.active)

        result = run_engine(
            build_mqc_engine(graph, 0.8, 4), match_sink=sink, **options
        )
        if plain:
            # One serial run, and every match reached the sink mid-run.
            assert serial_runs.count == 1 and live and all(live)
        else:
            # The sink sees the result after the run.
            assert not any(live)
        # Either way the sink sees every valid match exactly once.
        assert sorted(streamed) == sorted(a for _, a in result.valid)
        if tracer is not None:
            tracer.finalize()
            runs = [s for s in tracer.all_spans() if s.name == "run"]
            assert len(runs) == 1

    def test_default_library_call_opens_no_scheduler(self, serial_runs):
        """A default library call, observed or not, is one plain
        serial run: one ``run_serial`` call each."""
        graph = dataset("dblp")
        plain = maximal_quasi_cliques(graph, 0.8, 4)
        assert serial_runs.count == 1
        ctx, tracer, _ = observed_context()
        observed = maximal_quasi_cliques(graph, 0.8, 4, ctx=ctx)
        assert serial_runs.count == 2
        tracer.finalize()
        assert [s.name for s in tracer.all_spans()].count("run") == 1
        assert observed.all_sets() == plain.all_sets()

    @pytest.mark.parametrize("watched", [False, True])
    def test_serial_sink_fires_as_each_match_validates(self, watched):
        """A subscriber must not move the sink behind the merge: each
        sink call lands mid-run, right before that match's event."""
        engine = build_mqc_engine(dataset("dblp"), 0.8, 4)
        ctx = TaskContext.create()
        order, checked_at_sink = [], []
        if watched:
            ctx.bus.subscribe(
                lambda event, ts, payload, track: event == MATCH
                and order.append("event")
            )

        def sink(pattern, assignment):
            order.append("sink")
            # ``engine.stats`` is the running run's counters.
            checked_at_sink.append(engine.stats.matches_checked)

        result = run_engine(
            engine, scheduler="serial", ctx=ctx, match_sink=sink
        )
        assert len(checked_at_sink) == len(result.valid) > 1
        assert checked_at_sink == sorted(checked_at_sink)
        assert checked_at_sink[0] < result.stats.matches_checked
        if watched:
            assert order == ["sink", "event"] * len(result.valid)

    def test_a_time_limit_beside_a_context_is_refused_before_mining(
        self, monkeypatch
    ):
        """The context carries the deadline: a ``time_limit`` passed
        beside one used to be dropped (the run went on past it), so the
        pair is an error raised before any ETask starts."""
        started = []
        monkeypatch.setattr(
            ContigraJob, "run_serial",
            lambda job, ctx=None: started.append(job),
        )
        with pytest.raises(ValueError, match="time_limit.*ctx"):
            maximal_quasi_cliques(
                dataset("dblp"), 0.6, 6, time_limit=0.05,
                ctx=TaskContext.create(),
            )
        assert started == []

    def test_roots_restrict_every_scheduler(self):
        graph = dataset("dblp")
        region = list(range(0, graph.num_vertices, 3))
        expected = None
        for scheduler in SCHEDULERS:
            result = run_engine(
                build_mqc_engine(graph, 0.8, 4),
                scheduler=scheduler, roots=region,
            )
            found = sorted(a for _, a in result.valid)
            expected = expected if expected is not None else found
            assert found and found == expected


class TestExecute:
    def test_strict_refusal_raises_before_running(self):
        request = RunRequest.of(
            {"max_size": 4, "time_limit": 1e-12, "admission": "strict"}
        )
        with pytest.raises(QueryAnalysisError) as err:
            execute(request, dataset("dblp"))
        assert "CG601" in str(err.value)

    def test_off_records_no_admission(self):
        record = execute(RunRequest.of({}), dataset("dblp"))
        assert "admission" not in record.to_dict()
        assert record.result.count > 0


class TestOnePath:
    """One MQC request on ``dblp`` through every front end, under each
    scheduler: same matches, same counters, same graph pin, and the
    same ``RunRecord.to_dict()`` keys plus each adapter's own."""

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_every_front_end_reads_the_same(self, scheduler, capsys):
        graph = dataset("dblp")
        wire = dict(
            gamma=0.8, max_size=4, scheduler=scheduler, workers=2,
            admission="warn", time_limit=60.0,
        )
        record = execute(RunRequest.of(wire), graph)
        expected = record.to_dict()
        matches = {tuple(sorted(a)) for _, a in record.result.valid}
        counters = _counters(expected["counters"], scheduler)
        assert matches and expected["admission"]["actual_candidates"] > 0

        library = maximal_quasi_cliques(
            graph, 0.8, 4, scheduler=scheduler, n_workers=2
        )
        assert {tuple(sorted(s)) for s in library.all_sets()} == matches
        assert _counters(library.stats.as_dict(), scheduler) == counters

        assert main(
            ["mqc", "--dataset", "dblp", "--gamma", "0.8", "--max-size", "4",
             "--scheduler", scheduler, "--workers", "2", "--admission",
             "warn", "--time-limit", "60", "--format", "json"]
        ) == 0
        cli = json.loads(capsys.readouterr().out)
        assert cli["maximal_quasi_cliques"] == len(matches)
        assert _counters(cli["counters"], scheduler) == counters
        assert cli["graph"] == expected["graph"]
        assert set(cli) - CLI_ONLY == set(expected)
        assert set(cli["admission"]) == set(expected["admission"])

        handle = serve_in_thread(ServeConfig(admission="strict", port=0))
        try:
            client = ServeClient(handle.host, handle.port, timeout=120.0)
            client.register_graph("dblp", dataset="dblp")
            events = list(client.stream_query(tenant="t", graph="dblp", **wire))
            aggregated = client.query(
                tenant="t", graph="dblp", stream=False, **wire
            )
            stream = client.subscribe(tenant="t", graph="dblp", **wire)
            subscribed = next(stream)
            listed = client.subscriptions()
            stream.close()
            metrics = client.metrics()
        finally:
            handle.stop()
        streamed = [e for e in events if e["type"] == "match"]
        for found, summary in (
            (streamed, events[-1]),
            (aggregated["matches"], aggregated["summary"]),
        ):
            assert summary["type"] == "summary"
            assert _vertex_sets(found) == matches
            assert summary["matches"] == len(found) == len(matches)
            assert _counters(summary["counters"], scheduler) == counters
            assert summary["graph"] == expected["graph"]
            assert set(summary) - DAEMON_ONLY == set(expected)
            # The daemon closes the estimate-vs-actual loop too.
            assert set(summary["admission"]) == set(expected["admission"])
            assert summary["admission"]["actual_candidates"] == (
                expected["admission"]["actual_candidates"]
            )
            assert summary["derived_cache"] == summary["run"]["derived_cache"]
        assert "repro_estimate_error_ratio_count 2" in metrics
        # The standing query's baseline is the same mine of the same pin.
        assert subscribed["matches"] == len(matches)
        assert listed[0]["version_key"] == expected["graph"]["version"]
        assert subscribed["admission"]["graph"] == expected["graph"]["version"]
