"""Tests for the static query analyzer (repro.analysis)."""

import json

import pytest

from repro.analysis import (
    CODES,
    ERROR,
    INFO,
    WARNING,
    AnalysisReport,
    analyze_constraint_set,
    analyze_kws_workload,
    analyze_query_spec,
    check_dependency_graph,
    lint_pattern,
    lint_pattern_text,
    selfcheck,
)
from repro.core import ConstraintSet, ContainmentConstraint, Query
from repro.errors import QueryAnalysisError
from repro.graph import graph_from_edges
from repro.patterns import (
    Pattern,
    clique,
    house,
    parse_pattern,
    tailed_triangle,
    triangle,
)


def codes(report_or_list):
    if isinstance(report_or_list, AnalysisReport):
        return report_or_list.codes()
    return [d.code for d in report_or_list]


class TestDiagnostics:
    def test_registry_severities(self):
        assert all(
            severity in (ERROR, WARNING, INFO)
            for _, severity, _ in CODES.values()
        )

    def test_suppress_filters_codes(self):
        report = analyze_kws_workload([0, 1], 3)
        assert "CG201" in report.codes()
        assert "CG201" not in report.suppress(["CG201"]).codes()

    def test_sorted_puts_errors_first(self):
        report = analyze_query_spec(
            triangle(), not_within=[parse_pattern("0-1, 2-3")]
        )
        ordered = report.sorted().diagnostics
        severities = [d.severity for d in ordered]
        assert severities == sorted(
            severities, key=(ERROR, WARNING, INFO).index
        )

    def test_to_dict_roundtrips_counts(self):
        report = selfcheck()
        payload = report.to_dict()
        assert payload["errors"] == len(report.errors)
        assert len(payload["diagnostics"]) == len(report)


class TestLint:
    def test_disconnected_pattern_cg001(self):
        p = Pattern(4, {(0, 1), (2, 3)})
        assert "CG001" in codes(lint_pattern(p))

    def test_parse_error_cg004(self):
        pattern, diagnostics = lint_pattern_text("0-0", name="t")
        assert pattern is None
        assert codes(diagnostics) == ["CG004"]
        assert "self loop" in diagnostics[0].message

    def test_duplicate_item_cg005(self):
        pattern, diagnostics = lint_pattern_text("0-1, 1-2, 0-1")
        assert pattern is not None
        assert "CG005" in codes(diagnostics)


class TestSatisfiability:
    def test_unsatisfiable_self_containment_cg101(self):
        # P+ is the target plus an isolated wildcard vertex: under
        # edge-induced matching every triangle match extends to it, so
        # not_within excludes everything the query could return.
        p_plus = parse_pattern("0-1, 1-2, 0-2; vertices 4")
        report = analyze_query_spec(triangle(), not_within=[p_plus])
        assert "CG101" in report.codes()
        assert report.has_errors

    def test_only_within_not_within_contradiction_cg101(self):
        report = analyze_query_spec(
            triangle(),
            not_within=[tailed_triangle()],
            only_within=[tailed_triangle()],
        )
        assert "CG101" in report.codes()

    def test_equal_size_cg102(self):
        report = analyze_query_spec(triangle(), not_within=[triangle()])
        assert "CG102" in report.codes()

    def test_unrelated_cg103(self):
        from repro.patterns import cycle

        report = analyze_query_spec(
            cycle(4), not_within=[clique(5)], induced=True
        )
        assert "CG103" in report.codes()

    def test_duplicate_constraint_cg105(self):
        report = analyze_query_spec(
            triangle(), not_within=[house(), house()]
        )
        assert "CG105" in report.codes()

    def test_clean_query_has_no_diagnostics(self):
        report = analyze_query_spec(triangle(), not_within=[house()])
        assert report.ok
        assert len(report) == 0

    # A vertex labelled -1 matches only data label -1, so the tailed
    # triangle with -1 on its tail is not the unlabelled one.
    MINUS_ONE_TAIL = tailed_triangle().with_labels([None, None, None, -1])

    def test_minus_one_label_is_no_contradiction_cg101(self):
        query = Query(triangle()).not_within(self.MINUS_ONE_TAIL)
        report = query.only_within(tailed_triangle()).analyze()
        assert "CG101" not in report.codes()
        assert not report.has_errors

    def test_minus_one_label_is_no_duplicate_cg105(self):
        query = Query(triangle()).not_within(self.MINUS_ONE_TAIL)
        report = query.not_within(tailed_triangle()).analyze()
        assert "CG105" not in report.codes()


class TestBucketing:
    def test_all_skip_workload_cg201_cg202(self):
        # Fully-labeled keyword patterns: every size>1 cover contains
        # the single-vertex cover, so minimality rejects everything.
        labeled_edge = parse_pattern("0-1; labels 0:0 1:0")
        cs = ConstraintSet(
            [labeled_edge],
            [
                ContainmentConstraint(
                    labeled_edge,
                    Pattern(1, set(), labels=[0]),
                    induced=True,
                )
            ],
            induced=True,
        )
        report = AnalysisReport()
        from repro.analysis import check_predecessor_buckets

        report.extend(check_predecessor_buckets(cs))
        assert "CG201" in report.codes()
        assert "CG202" in report.codes()
        assert report.has_errors

    def test_kws_workload_mixes_buckets(self):
        report = analyze_kws_workload([0, 1], 3)
        assert "CG201" in report.codes()  # SKIP bucket exists
        assert "CG203" in report.codes()  # EAGER bucket exists
        assert "CG202" not in report.codes()  # but not all-SKIP
        assert report.ok


class TestDependencyGraph:
    def test_cycle_cg302(self):
        cs = ConstraintSet(
            [triangle(), tailed_triangle()],
            [
                ContainmentConstraint(triangle(), tailed_triangle()),
                ContainmentConstraint(tailed_triangle(), triangle()),
            ],
        )
        assert "CG302" in codes(check_dependency_graph(cs))

    def test_dead_intermediate_cg301(self):
        # house is mined but neither carries nor receives a constraint.
        cs = ConstraintSet(
            [triangle(), house()],
            [ContainmentConstraint(triangle(), tailed_triangle())],
        )
        assert "CG301" in codes(check_dependency_graph(cs))


class TestEntryPoints:
    def test_selfcheck_library_is_error_free(self):
        report = selfcheck()
        assert report.ok, report.render_text()

    def test_analyze_constraint_set_maximality(self):
        from repro.core import maximality_constraints
        from repro.patterns import quasi_clique_patterns_up_to

        cs = maximality_constraints(
            quasi_clique_patterns_up_to(4, 0.8), induced=True
        )
        assert analyze_constraint_set(cs).ok

    def test_analyze_query_builder(self):
        assert Query(triangle()).not_within(house()).analyze().ok


class TestStrictQuery:
    def test_strict_raises_on_unsatisfiable(self):
        p_plus = parse_pattern("0-1, 1-2, 0-2; vertices 4")
        with pytest.raises(QueryAnalysisError) as excinfo:
            Query(triangle()).strict().not_within(p_plus)
        assert any(
            d.code in ("CG001", "CG101") for d in excinfo.value.diagnostics
        )

    def test_strict_passes_clean_query(self):
        query = Query(triangle()).strict().not_within(house())
        assert query.analyze().ok

    def test_non_strict_defers_to_run(self):
        # Without strict() the builder accepts the pattern and the
        # failure surfaces as a plain ValueError at execution time,
        # when no RL-Path recipe can bridge to the disconnected P+
        # (statically, the analyzer's CG001 on that P+).
        p_plus = parse_pattern("0-1, 1-2, 0-2; vertices 4")
        query = Query(triangle()).not_within(p_plus)
        graph = graph_from_edges([(0, 1), (1, 2), (0, 2)])
        with pytest.raises(ValueError, match="bridges"):
            query.run(graph)


class TestOnlyWithinRuntime:
    def test_only_within_filters_matches(self):
        # K4 on {0..3} plus an isolated triangle {4,5,6}: triangles in
        # the K4 are inside a 4-clique; the isolated one is not.
        edges = [
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
            (4, 5), (5, 6), (4, 6),
        ]
        graph = graph_from_edges(edges)
        unconstrained = Query(triangle()).count(graph)
        within_k4 = Query(triangle()).only_within(clique(4)).count(graph)
        assert unconstrained == 5  # 4 in the K4 + 1 isolated
        assert within_k4 == 4

    def test_only_within_runs_under_the_query_deadline(self, monkeypatch):
        from repro.core import ValidationTarget

        edges = [
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
            (4, 5), (5, 6), (4, 6),
        ]
        contexts = []
        original = ValidationTarget.run

        def spy(self, assignment, graph, cache, stats, ctx=None):
            contexts.append(ctx)
            return original(self, assignment, graph, cache, stats, ctx=ctx)

        monkeypatch.setattr(ValidationTarget, "run", spy)
        query = Query(triangle()).only_within(clique(4)).time_limit(30.0)
        assert query.count(graph_from_edges(edges)) == 4
        # One post-filter VTask per unconstrained triangle.
        assert len(contexts) == 5
        assert all(
            ctx is not None and ctx.budget.time_limit == 30.0
            for ctx in contexts
        )

    def test_only_within_conjoins(self):
        edges = [
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
            (4, 5), (5, 6), (4, 6),
        ]
        graph = graph_from_edges(edges)
        count = (
            Query(triangle())
            .only_within(clique(4))
            .only_within(tailed_triangle())
            .count(graph)
        )
        # tailed triangle needs a fourth vertex off the triangle: the
        # K4 triangles have one, the isolated triangle does not.
        assert count == 4

    def test_only_within_requires_larger_pattern(self):
        with pytest.raises(ValueError):
            Query(triangle()).only_within(triangle())


class TestSchedulerFeasibility:
    def _mqc_constraints(self):
        from repro.core import maximality_constraints
        from repro.patterns import quasi_clique_patterns_up_to

        return maximality_constraints(
            quasi_clique_patterns_up_to(4, 0.7), induced=True
        )

    def test_unknown_scheduler_is_cg501(self):
        from repro.analysis import check_scheduler

        report = check_scheduler("bogus")
        assert report.has_errors
        assert report.errors[0].code == "CG501"

    def test_serial_scheduler_is_clean(self):
        from repro.analysis import check_scheduler

        report = check_scheduler(
            "serial", constraint_set=self._mqc_constraints()
        )
        assert not report.diagnostics

    def test_sharded_promotion_warns_cg502(self):
        from repro.analysis import check_scheduler

        constraint_set = self._mqc_constraints()
        codes = {
            d.code
            for d in check_scheduler(
                "process", constraint_set=constraint_set
            ).diagnostics
        }
        assert "CG502" in codes
        assert "CG503" in codes  # process workers: no shared token

    def test_workqueue_shares_the_token(self):
        from repro.analysis import check_scheduler

        codes = {
            d.code
            for d in check_scheduler(
                "workqueue", constraint_set=self._mqc_constraints()
            ).diagnostics
        }
        assert "CG502" in codes
        assert "CG503" not in codes

    def test_nsq_style_constraints_are_not_promotable(self):
        from repro.analysis import check_scheduler
        from repro.analysis.schedcheck import promotable_constraints
        from repro.core import nested_query_constraints
        from repro.patterns import house, triangle

        constraint_set = nested_query_constraints(triangle(), [house()])
        assert promotable_constraints(constraint_set) == []
        codes = {
            d.code
            for d in check_scheduler(
                "workqueue", constraint_set=constraint_set
            ).diagnostics
        }
        assert "CG502" not in codes

    def test_single_worker_draws_the_serial_report(self):
        """One worker runs the serial path: no sharding, one token."""
        from repro.analysis import check_scheduler

        for name in ("process", "workqueue"):
            report = check_scheduler(
                name, n_workers=1, constraint_set=self._mqc_constraints()
            )
            assert not report.diagnostics, name

    def test_query_builder_surfaces_scheduler_diagnostics(self):
        from repro.patterns import house, triangle

        report = (
            Query(triangle())
            .not_within(house())
            .scheduler("process")
            .analyze()
        )
        codes = {d.code for d in report.diagnostics}
        assert "CG503" in codes
        assert not report.has_errors


class TestDeterministicOrdering:
    """AnalysisReport.sorted() is a pure function of the findings."""

    def _diagnostics(self):
        from repro.analysis.diagnostics import make

        return [
            make("CG105", "dup constraint", subject="b"),
            make("CG001", "disconnected", subject="z"),
            make("CG105", "dup constraint", subject="a"),
            make("CG203", "eager wildcards", subject="m"),
            make("CG001", "disconnected", subject="a"),
            make("CG105", "other message", subject="a"),
        ]

    def test_sorted_is_insertion_order_independent(self):
        import itertools

        from repro.analysis.diagnostics import AnalysisReport

        diagnostics = self._diagnostics()
        baseline = AnalysisReport(list(diagnostics)).sorted().diagnostics
        for permutation in itertools.permutations(diagnostics):
            report = AnalysisReport(list(permutation)).sorted()
            assert report.diagnostics == baseline

    def test_sort_key_covers_severity_code_and_location(self):
        from repro.analysis.diagnostics import AnalysisReport

        ordered = AnalysisReport(self._diagnostics()).sorted().diagnostics
        # Errors first, then warnings sorted by (code, subject,
        # fragment, message), then infos.
        assert [d.code for d in ordered] == [
            "CG001", "CG001", "CG105", "CG105", "CG105", "CG203",
        ]
        assert [d.subject for d in ordered[:2]] == ["a", "z"]
        assert [(d.subject, d.message) for d in ordered[2:5]] == [
            ("a", "dup constraint"),
            ("a", "other message"),
            ("b", "dup constraint"),
        ]


TRIANGLE = "0-1, 1-2, 0-2"
TAILED = "0-1, 1-2, 0-2, 2-3"

#: code -> ``repro analyze`` argv that produces it from DSL text or CLI
#: flags.  ``STAR`` / ``TINY`` stand for edge-list files the test writes.
REACHED = {
    "CG001": ["--pattern", "0-1, 2-3"],
    "CG002": ["--pattern", "0-1, 1-2; anti 2"],
    "CG003": ["--pattern", "0-1, 1-2; anti-edges 0-2", "--induced"],
    "CG004": ["--pattern", "0-0"],
    "CG005": ["--pattern", "0-1, 1-2, 0-1"],
    "CG101": ["--pattern", TRIANGLE, "--not-within", TAILED,
              "--only-within", TAILED],
    "CG102": ["--pattern", TRIANGLE, "--not-within", TRIANGLE],
    "CG103": ["--pattern", "0-1, 1-2, 2-3, 0-3", "--induced",
              "--not-within",
              "0-1, 0-2, 0-3, 0-4, 1-2, 1-3, 1-4, 2-3, 2-4, 3-4"],
    "CG104": ["--pattern", TRIANGLE,
              "--not-within", TAILED + "; anti-edges 0-3"],
    "CG105": ["--pattern", TRIANGLE, "--not-within", TAILED,
              "--not-within", TAILED],
    "CG201": ["--workload", "kws", "--keywords", "0,1", "--max-size", "3"],
    "CG203": ["--workload", "kws", "--keywords", "0,1", "--max-size", "3"],
    "CG501": ["--pattern", TRIANGLE, "--scheduler", "bogus"],
    "CG502": ["--workload", "mqc", "--scheduler", "workqueue"],
    "CG503": ["--workload", "mqc", "--scheduler", "process"],
    "CG505": ["--workload", "kws", "--scheduler", "serial"],
    "CG601": ["--pattern", TRIANGLE, "--estimate", "--dataset", "dblp",
              "--budget-seconds", "0.000001"],
    "CG602": ["--pattern", TRIANGLE, "--estimate", "--dataset", "dblp",
              "--budget-bytes", "1"],
    "CG603": ["--pattern", "0-1, 1-2", "--estimate", "--graph", "STAR",
              "--scheduler", "process"],
    "CG604": ["--pattern", "0-1, 1-2", "--estimate", "--graph", "TINY"],
}

#: codes only a hand-built ``ConstraintSet`` reaches.  They stay: they
#: check input from outside the program (``TestBucketing`` and
#: ``TestDependencyGraph`` reach each one).
LIBRARY_ONLY = {
    "CG202": "keyword workloads always keep a NO_CHECK pattern of the "
             "keyword count's size, so only hand-built predecessor "
             "constraints make every pattern SKIP",
    "CG301": "the CLI's MQC workload constrains every mined pattern; a "
             "hand-built set can mine a pattern nothing constrains",
    "CG302": "CLI specs only point at strictly larger patterns and MQC "
             "closures only at larger ones; a hand-built set can close "
             "a cycle",
}

#: retired codes, never reused: (code, what reports the fact now)
RETIRED = {
    "CG106": "CG001 on the containing pattern",
    "CG303": "CG105",
    "CG401": "tests/test_symmetry.py::TestPlanConditions",
    "CG402": "tests/test_bridge_recipes.py::TestShippedWorkloadsBridge",
    "CG403": "unreachable: a connected pattern always has a plan",
    "CG504": "one worker runs the serial path",
}


class TestEveryCodeIsReached:
    """Every CG code answers to something a user can write."""

    def test_reached_and_library_only_partition_the_registry(self):
        assert not set(REACHED) & set(LIBRARY_ONLY)
        assert set(REACHED) | set(LIBRARY_ONLY) == set(CODES)
        assert all(reason for reason in LIBRARY_ONLY.values())

    def test_retired_codes_are_not_reused(self):
        assert not set(RETIRED) & set(CODES)

    @pytest.mark.parametrize("code", sorted(REACHED))
    def test_analyze_argv_reaches_the_code(self, code, tmp_path, capsys):
        from repro.cli import main
        from repro.graph.io import write_edge_list

        files = {
            "STAR": graph_from_edges([(0, leaf) for leaf in range(1, 21)]),
            "TINY": graph_from_edges([(0, 1)]),
        }
        argv = []
        for arg in REACHED[code]:
            if arg in files:
                path = str(tmp_path / f"{arg.lower()}.txt")
                write_edge_list(files[arg], path)
                arg = path
            argv.append(arg)
        main(["analyze", *argv, "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code in {d["code"] for d in payload["diagnostics"]}
