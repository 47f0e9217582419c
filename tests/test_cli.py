"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import build_parser, main
from repro.errors import (
    MemoryBudgetExceeded,
    StorageBudgetExceeded,
    TimeLimitExceeded,
)
from repro.graph import erdos_renyi, graph_from_edges
from repro.graph.io import write_edge_list, write_labels


def test_importing_the_cli_does_not_import_numpy():
    # No engine path uses numpy; importing it cost every process
    # ~0.2 s and ~12 MiB (docs/performance.md, "Removed tiers").
    probe = "import repro.cli, sys; sys.exit('numpy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], timeout=60)
    assert result.returncode == 0


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_every_scheduler_option_offers_every_scheduler(self):
        import argparse

        from repro.exec.scheduler import SCHEDULER_NAMES

        (commands,) = [
            action
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        offered = {
            name: tuple(action.choices)
            for name, sub in commands.choices.items()
            for action in sub._actions
            if "--scheduler" in action.option_strings and action.choices
        }
        assert {"mqc", "nsq", "watch"} <= set(offered)
        assert set(offered.values()) == {SCHEDULER_NAMES}

    @pytest.mark.parametrize("command", ["explain", "quasicliques"])
    def test_time_limit_only_where_it_is_honoured(self, command, capsys):
        # Neither command reads a deadline, so it does not take one.
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--dataset", "dblp", "--time-limit", "0.000001"])
        assert exit_info.value.code == 2
        assert "--time-limit" in capsys.readouterr().err

    def test_mqc_defaults(self):
        args = build_parser().parse_args(["mqc", "--dataset", "dblp"])
        args_dict = vars(args)
        assert args_dict["gamma"] == 0.8
        assert args_dict["max_size"] == 5


class TestCommands:
    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "amazon" in out
        assert "Youtube" in out

    def test_mqc_on_dataset(self, capsys):
        assert main(
            ["mqc", "--dataset", "dblp", "--gamma", "0.8",
             "--max-size", "4", "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["maximal_quasi_cliques"] > 0
        assert "cache_hit_rate" in payload

    def test_quasicliques_fused_flag(self, capsys):
        assert main(
            ["quasicliques", "--dataset", "dblp", "--max-size", "4",
             "--fused", "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "fused"

    def test_kws_mf(self, capsys):
        assert main(
            ["kws", "--dataset", "mico", "--keywords", "mf",
             "--max-size", "4", "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["patterns_total"] > 0

    def test_kws_single_vertex_query(self, capsys):
        # One keyword at --max-size 1 is a legal query (every vertex
        # carrying it); it used to die building a 0-vertex path.
        assert main(
            ["kws", "--dataset", "mico", "--keywords", "0",
             "--max-size", "1", "--format", "json"]
        ) == 0
        from repro.bench.datasets import dataset

        captured = capsys.readouterr()
        carriers = dataset("mico").vertices_with_label(0)
        assert json.loads(captured.out)["minimal_covers"] == len(carriers)
        assert "Traceback" not in captured.err

    def test_kws_explicit_keywords(self, capsys):
        assert main(
            ["kws", "--dataset", "mico", "--keywords", "0,1",
             "--max-size", "3", "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["keywords"] == [0, 1]

    def test_nsq(self, capsys):
        assert main(
            ["nsq", "--dataset", "amazon", "--query", "triangles",
             "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "valid_matches" in payload

    def test_graph_file_input(self, tmp_path, capsys):
        g = graph_from_edges(
            [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]
        )
        path = str(tmp_path / "g.txt")
        write_edge_list(g, path)
        assert main(
            ["mqc", "--graph", path, "--gamma", "1.0",
             "--max-size", "3", "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["maximal_quasi_cliques"] == 2  # two triangles

    def test_missing_graph_source(self):
        with pytest.raises(SystemExit):
            main(["mqc"])

    def test_explain(self, capsys):
        assert main(
            ["explain", "--dataset", "dblp", "--gamma", "0.8",
             "--max-size", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "VTask schedule" in out
        assert "matching order" in out

    def test_human_readable_output(self, capsys):
        assert main(
            ["mqc", "--dataset", "dblp", "--max-size", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "maximal_quasi_cliques:" in out

    def test_explain_json_format(self, capsys):
        assert main(
            ["explain", "--dataset", "dblp", "--gamma", "0.8",
             "--max-size", "4", "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["workload"] == "mqc"
        assert "VTask schedule" in payload["explain"]


class TestAnalyze:
    def test_selfcheck_clean(self, capsys):
        assert main(["analyze"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_selfcheck_json(self, capsys):
        assert main(["analyze", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["errors"] == 0

    def test_clean_query(self, capsys):
        assert main(
            ["analyze", "--pattern", "0-1, 1-2, 0-2",
             "--not-within", "0-1, 1-2, 0-2, 0-3"]
        ) == 0

    def test_unsatisfiable_query_exits_nonzero(self, capsys):
        assert main(
            ["analyze", "--pattern", "0-1, 1-2, 0-2",
             "--not-within", "0-1, 1-2, 0-2; vertices 4",
             "--format", "json"]
        ) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert any(
            d["code"].startswith("CG1") or d["code"] == "CG001"
            for d in payload["diagnostics"]
        )

    def test_parse_error_reported_as_cg004(self, capsys):
        assert main(["analyze", "--pattern", "0-0"]) == 1
        out = capsys.readouterr().out
        assert "CG004" in out
        assert "self loop" in out

    def test_suppress_downgrades_exit(self, capsys):
        # CG202 is the only error in this degenerate workload text;
        # suppressing it flips the exit code.
        args = ["analyze", "--pattern", "0-1, 1-2, 0-2",
                "--not-within", "0-1, 2-3; vertices 4"]
        assert main(args) == 1
        capsys.readouterr()
        assert main(args + ["--suppress", "CG001,CG103"]) == 0

    def test_kws_workload(self, capsys):
        assert main(
            ["analyze", "--workload", "kws", "--keywords", "0,1",
             "--max-size", "3", "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        codes = {d["code"] for d in payload["diagnostics"]}
        assert "CG201" in codes

    def test_mqc_workload(self, capsys):
        assert main(
            ["analyze", "--workload", "mqc", "--max-size", "4"]
        ) == 0

    def test_repeated_not_within_is_one_cg105(self, capsys):
        tailed = "0-1, 1-2, 0-2, 2-3"
        assert main(
            ["analyze", "--pattern", "0-1, 1-2, 0-2",
             "--not-within", tailed, "--not-within", tailed,
             "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [d["code"] for d in payload["diagnostics"]] == ["CG105"]

    def test_labelled_variants_render_distinct_lines(self, capsys):
        assert main(
            ["analyze", "--workload", "kws", "--keywords", "0,1",
             "--max-size", "4"]
        ) == 0
        lines = capsys.readouterr().out.splitlines()[:-1]  # drop totals
        assert len(lines) == 27
        assert len(set(lines)) == len(lines)


class TestAnalyzeExitCodeContract:
    """Error-severity findings exit nonzero under EVERY --format value.

    The daemon admission gate shells out to ``repro analyze`` and
    branches on the exit code alone; a format that swallowed the
    failure would silently admit bad queries.
    """

    ERROR_QUERY = ["analyze", "--pattern", "0-1, 1-2, 0-2",
                   "--not-within", "0-1, 1-2, 0-2; vertices 4"]
    CLEAN_QUERY = ["analyze", "--pattern", "0-1, 1-2, 0-2",
                   "--not-within", "0-1, 1-2, 0-2, 0-3"]

    @pytest.mark.parametrize("fmt", ["text", "json", "explain"])
    def test_error_exits_nonzero(self, fmt, capsys):
        assert main(self.ERROR_QUERY + ["--format", fmt]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("fmt", ["text", "json", "explain"])
    def test_clean_exits_zero(self, fmt, capsys):
        assert main(self.CLEAN_QUERY + ["--format", fmt]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("fmt", ["text", "json", "explain"])
    def test_estimate_budget_violation_exits_nonzero(self, fmt, capsys):
        assert main(
            ["analyze", "--workload", "mqc", "--max-size", "4",
             "--estimate", "--dataset", "dblp",
             "--budget-seconds", "0.0001", "--format", fmt]
        ) == 1
        capsys.readouterr()

    def test_explain_format_names_the_codes(self, capsys):
        assert main(self.ERROR_QUERY + ["--format", "explain"]) == 1
        out = capsys.readouterr().out
        assert "error" in out
        assert "docs/analysis.md" in out


class TestAnalyzeEstimate:
    def test_estimate_requires_graph_source(self):
        with pytest.raises(SystemExit):
            main(["analyze", "--workload", "mqc", "--estimate"])

    def test_estimate_json_payload(self, capsys):
        assert main(
            ["analyze", "--workload", "mqc", "--max-size", "4",
             "--estimate", "--dataset", "dblp", "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        estimate = payload["estimate"]
        assert estimate["total_candidates"] > 0

    def test_estimate_does_not_read_the_core_count(
        self, capsys, monkeypatch
    ):
        payloads = []
        for cores in (2, 16):
            monkeypatch.setattr(os, "cpu_count", lambda: cores)
            assert main(
                ["analyze", "--workload", "mqc", "--estimate",
                 "--dataset", "dblp", "--format", "json"]
            ) == 0
            payloads.append(capsys.readouterr().out)
        assert payloads[0] == payloads[1]

    def test_estimate_on_graph_file(self, tmp_path, capsys):
        g = graph_from_edges(
            [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]
        )
        path = str(tmp_path / "g.txt")
        write_edge_list(g, path)
        assert main(
            ["analyze", "--workload", "mqc", "--max-size", "3",
             "--estimate", "--graph", path, "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        # Tiny graph: the estimator flags itself uncalibrated.
        assert "CG604" in {d["code"] for d in payload["diagnostics"]}


class TestAdmissionGate:
    def test_off_by_default_no_admission_record(self, capsys):
        assert main(
            ["mqc", "--dataset", "dblp", "--max-size", "4", "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "admission" not in payload
        assert payload["workers"] == 2

    def test_warn_mode_records_and_proceeds(self, capsys):
        assert main(
            ["mqc", "--dataset", "dblp", "--max-size", "4",
             "--time-limit", "60", "--admission", "warn", "--format", "json"]
        ) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        admission = payload["admission"]
        assert admission["mode"] == "warn"
        assert admission["admitted"] is True
        assert admission["estimated_candidates"] > 0
        assert admission["actual_candidates"] > 0
        assert 0.1 <= admission["estimate_error_ratio"] <= 10.0
        # Nothing to report inside the budget: warn prints no finding.
        assert admission["codes"] == []
        assert "admission:" not in captured.err

    def test_warn_mode_proceeds_past_projected_violation(self, capsys):
        # warn prints the CG601 projection but still starts the run —
        # which then genuinely hits the time limit (proving the gate
        # did not block; strict mode would have exited 2 first) and
        # ends with the daemon's one-line error, not a traceback.
        assert main(
            ["mqc", "--dataset", "dblp", "--max-size", "4",
             "--time-limit", "0.0001", "--admission", "warn"]
        ) == 1
        err = capsys.readouterr().err
        assert "CG601" in err
        assert "Traceback" not in err
        last = err.strip().splitlines()[-1]
        assert last.startswith("TimeLimitExceeded: time limit exceeded: ")

    def test_kws_time_limit_exits_1_with_one_line(self, capsys):
        assert main(
            ["kws", "--dataset", "patents", "--keywords", "mf",
             "--max-size", "5", "--time-limit", "0.0001"]
        ) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("TimeLimitExceeded: time limit exceeded: ")

    @pytest.mark.parametrize(
        "exc",
        [
            TimeLimitExceeded(1.0, 2.0),
            MemoryBudgetExceeded(10, 20),
            StorageBudgetExceeded(10, 20),
        ],
        ids=lambda exc: type(exc).__name__,
    )
    def test_every_budget_error_is_one_line(self, exc, capsys, monkeypatch):
        import repro.cli as cli

        def fails(_args):
            raise exc

        monkeypatch.setattr(cli, "_cmd_kws", fails)
        assert main(["kws", "--dataset", "mico", "--max-size", "4"]) == 1
        err = capsys.readouterr().err
        assert err == f"{type(exc).__name__}: {exc}\n"

    def test_strict_mode_rejects_with_exit_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["mqc", "--dataset", "dblp", "--max-size", "4",
                 "--time-limit", "0.0001", "--admission", "strict"]
            )
        assert excinfo.value.code == 2
        assert "CG601" in capsys.readouterr().err

    def test_nsq_admission_metric_export(self, tmp_path, capsys):
        metrics_file = tmp_path / "metrics.prom"
        assert main(
            ["nsq", "--dataset", "dblp", "--admission", "warn",
             "--metrics", str(metrics_file), "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "admission" in payload
        assert "repro_estimate_error_ratio" in payload["metrics"]
        assert "repro_estimate_error_ratio" in metrics_file.read_text()


class TestBadFlagValues:
    """Values argparse's types accept but the request rejects: exit 2
    with one ``error: <field>: ...`` line (the daemon's 400 text), where
    each used to die with a traceback."""

    @pytest.mark.parametrize(
        "argv, field",
        [
            (["mqc", "--dataset", "dblp", "--gamma", "1.5"], "gamma"),
            (["mqc", "--dataset", "dblp", "--max-size", "2"], "max_size"),
            (["mqc", "--dataset", "dblp", "--workers", "0"], "workers"),
            (["nsq", "--dataset", "dblp", "--workers", "0"], "workers"),
            (["kws", "--dataset", "mico", "--keywords", "a,b"], "keywords"),
            (["kws", "--dataset", "mico", "--keywords", "mf",
              "--max-size", "0"], "max_size"),
            (["kws", "--dataset", "mico", "--keywords", "mf",
              "--max-size", "2"], "max_size"),
            (["analyze", "--workload", "mqc", "--scheduler", "process",
              "--workers", "0"], "workers"),
            (["analyze", "--workload", "kws", "--keywords", "0,1,2",
              "--max-size", "2"], "max_size"),
        ],
    )
    def test_exit_2_with_field_message(self, argv, field, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        last = captured.err.strip().splitlines()[-1]
        assert last.startswith(f"repro: error: {field}: ")
        assert "Traceback" not in captured.err

    def test_message_is_the_daemons(self, capsys):
        from repro.request import RequestError, RunRequest

        with pytest.raises(RequestError) as err:
            RunRequest.of({"gamma": 1.5})
        with pytest.raises(SystemExit):
            main(["mqc", "--dataset", "dblp", "--gamma", "1.5"])
        assert str(err.value) in capsys.readouterr().err


class TestSchedulerFlags:
    def test_mqc_scheduler_workqueue_json_counters(self, capsys):
        assert main(
            ["mqc", "--dataset", "dblp", "--max-size", "4",
             "--scheduler", "workqueue", "--workers", "2",
             "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scheduler"] == "workqueue"
        assert payload["wall_time_seconds"] > 0
        counters = payload["counters"]
        assert counters["matches_found"] > 0
        assert "vtasks_canceled_lateral" in counters
        assert "promotions" in counters

    def test_mqc_trace_and_metrics_exports(self, tmp_path, capsys):
        from repro.obs import validate_chrome_trace, validate_prometheus

        trace_file = tmp_path / "trace.json"
        metrics_file = tmp_path / "metrics.prom"
        assert main(
            ["mqc", "--dataset", "dblp", "--max-size", "4",
             "--scheduler", "workqueue", "--workers", "2",
             "--trace", str(trace_file), "--metrics", str(metrics_file),
             "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trace_file"] == str(trace_file)
        assert payload["trace_coverage"] >= 0.95
        assert payload["metrics"]["repro_matches_total"] > 0
        assert validate_chrome_trace(trace_file.read_text()) == []
        assert validate_prometheus(metrics_file.read_text()) == []
        # the trace subcommand renders the saved file as a span tree
        assert main(["trace", str(trace_file)]) == 0
        rendered = capsys.readouterr().out
        assert "run" in rendered and "pattern" in rendered

    def test_render_tree_shape(self, tmp_path, capsys):
        from repro.obs import SpanTracer

        tracer = SpanTracer()
        for event, ts, payload in [
            ("phase_start", 0.0, {"phase": "run"}),
            ("phase_start", 0.1, {"phase": "pattern", "pattern": "p"}),
            ("phase_end", 0.2, {"phase": "pattern"}),
            ("phase_end", 0.3, {"phase": "run"}),
        ]:
            tracer.on_event(event, ts, payload, None)
        trace_file = tmp_path / "trace.json"
        tracer.finalize().write_chrome(str(trace_file))
        assert main(["trace", str(trace_file)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "[main]"
        run, pattern = lines[1:]
        assert run.startswith("  run ")
        assert pattern.startswith("    pattern ")
        assert "pattern=p" in pattern

    def test_trace_subcommand_rejects_invalid_file(
        self, tmp_path, capsys
    ):
        bad = tmp_path / "bad.json"
        bad.write_text('{"traceEvents": [{"name": "x"}]}')
        assert main(["trace", str(bad)]) == 1
        assert "ph" in capsys.readouterr().err

    def test_untraced_run_has_no_observability_fields(self, capsys):
        assert main(
            ["nsq", "--dataset", "dblp", "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "metrics" not in payload
        assert "trace_file" not in payload

    def test_text_output_stays_a_short_summary(self, capsys):
        assert main(
            ["mqc", "--dataset", "dblp", "--max-size", "4",
             "--scheduler", "serial"]
        ) == 0
        out = capsys.readouterr().out
        assert "maximal_quasi_cliques:" in out
        assert "counters" not in out

    def test_nsq_scheduler_matches_serial(self, capsys):
        assert main(
            ["nsq", "--dataset", "dblp", "--format", "json"]
        ) == 0
        serial = json.loads(capsys.readouterr().out)
        assert main(
            ["nsq", "--dataset", "dblp", "--scheduler", "workqueue",
             "--format", "json"]
        ) == 0
        sharded = json.loads(capsys.readouterr().out)
        assert sharded["valid_matches"] == serial["valid_matches"]
        assert sharded["scheduler"] == "workqueue"

    def test_degrade_on_deadline_exits_zero_incomplete(
        self, tmp_path, capsys
    ):
        """``--on-failure degrade`` needs no ``--retries``: a deadline
        mid-run prints the partial record instead of a traceback."""
        path = str(tmp_path / "g.txt")
        write_edge_list(erdos_renyi(60, 0.4, seed=3), path)
        assert main(
            ["mqc", "--graph", path, "--gamma", "0.7", "--max-size", "4",
             "--time-limit", "0.02", "--on-failure", "degrade",
             "--format", "json"]
        ) == 0
        captured = capsys.readouterr()
        assert '"incomplete": true' in captured.out
        assert json.loads(captured.out)["unprocessed_roots"]
        assert "Traceback" not in captured.err

    def test_unknown_scheduler_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["mqc", "--dataset", "dblp", "--scheduler", "bogus"]
            )


class TestAnalyzeScheduler:
    def test_mqc_workload_process_scheduler_warns(self, capsys):
        assert main(
            ["analyze", "--workload", "mqc", "--max-size", "4",
             "--scheduler", "process", "--format", "json"]
        ) == 0  # warnings never fail the command
        payload = json.loads(capsys.readouterr().out)
        codes = {d["code"] for d in payload["diagnostics"]}
        assert "CG502" in codes
        assert "CG503" in codes

    def test_serial_scheduler_is_silent(self, capsys):
        assert main(
            ["analyze", "--workload", "mqc", "--max-size", "4",
             "--scheduler", "serial", "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        codes = {d["code"] for d in payload["diagnostics"]}
        assert not any(code.startswith("CG5") for code in codes)

    def test_unknown_scheduler_is_an_error(self, capsys):
        assert main(
            ["analyze", "--workload", "mqc", "--max-size", "4",
             "--scheduler", "bogus"]
        ) == 1
        assert "CG501" in capsys.readouterr().out

    def test_kws_workload_scheduler_ignored(self, capsys):
        assert main(
            ["analyze", "--workload", "kws", "--keywords", "0,1",
             "--max-size", "3", "--scheduler", "workqueue",
             "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        codes = {d["code"] for d in payload["diagnostics"]}
        assert "CG505" in codes


class TestGraphStoreCli:
    def test_graphs_lists_registered_versions(self, capsys):
        from repro.bench import dataset
        from repro.graph.store import graph_store

        graph_store().register(dataset("dblp"), "dblp")
        assert main(["graphs"]) == 0
        out = capsys.readouterr().out
        assert "dblp@v1" in out
        assert "derived cache:" in out

    def test_graphs_json_payload(self, capsys):
        assert main(["graphs", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {
            "graphs", "unmaterialized_datasets", "derived_cache",
        }
        assert set(payload["derived_cache"]) == {
            "hits", "misses", "invalidations",
        }

    def test_graph_flag_resolves_store_ref(self, capsys):
        assert main(
            ["mqc", "--graph", "dblp@latest", "--gamma", "0.8",
             "--max-size", "4", "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["maximal_quasi_cliques"] > 0
        assert payload["graph"]["version"].startswith("dblp-s@")
        assert len(payload["graph"]["fingerprint"]) == 64
        assert set(payload["derived_cache"]) == {
            "hits", "misses", "invalidations",
        }

    def test_graph_flag_unknown_ref_errors(self):
        with pytest.raises(SystemExit, match="unknown graph"):
            main(["mqc", "--graph", "nosuch@v3", "--max-size", "4"])

    def test_graph_flag_still_accepts_files(self, tmp_path, capsys):
        g = graph_from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
        path = tmp_path / "toy.txt"
        write_edge_list(g, path)
        assert main(
            ["mqc", "--graph", str(path), "--max-size", "4", "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["graph"]["fingerprint"] == g.fingerprint

    def test_admission_record_carries_fingerprint(self, capsys):
        assert main(
            ["mqc", "--dataset", "dblp", "--max-size", "4",
             "--admission", "warn", "--time-limit", "60", "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        record = payload["admission"]
        assert record["graph"].startswith("dblp-s@")
        assert len(record["graph_fingerprint"]) == 64
