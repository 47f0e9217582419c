"""Tests for the CG6xx static cost model and the admission gate."""

import json
import pickle

import pytest

from repro.analysis import (
    check_estimate,
    estimate_constraint_set,
    estimate_query_spec,
)
from repro.analysis.costmodel import (
    CANDIDATES_PER_SECOND,
    estimate_plan,
    strict_refuses,
)
from repro.apps import maximal_quasi_cliques, nested_subgraph_query
from repro.apps.nsq import paper_query_triangles
from repro.bench import dataset
from repro.cli import main
from repro.core import maximality_constraints, nested_query_constraints
from repro.core.query import Query
from repro.errors import QueryAnalysisError
from repro.exec.context import TimeLimitExceeded
from repro.graph import GraphStats, erdos_renyi, graph_from_edges
from repro.graph.io import write_edge_list
from repro.obs import MetricsRegistry, observe_estimate_error
from repro.patterns import (
    plan_for,
    quasi_clique_patterns_up_to,
    triangle,
)


def _mqc_constraints(max_size=4, gamma=0.8):
    return maximality_constraints(
        quasi_clique_patterns_up_to(max_size, gamma, min_size=3),
        induced=True,
    )


class TestGraphStats:
    def test_basic_fields(self):
        g = dataset("dblp")
        stats = g.stats_summary()
        assert stats.num_vertices == g.num_vertices
        assert stats.num_edges == g.num_edges
        assert stats.avg_degree == pytest.approx(
            2 * g.num_edges / g.num_vertices
        )
        assert stats.max_degree == g.max_degree
        assert 0.0 <= stats.clustering <= 1.0
        # Histogram covers every vertex.
        assert sum(count for _, count in stats.degree_histogram) == (
            g.num_vertices
        )

    def test_cached_and_deterministic(self):
        g = dataset("mico")
        first = g.stats_summary()
        assert g.stats_summary() is first
        recomputed = GraphStats.from_graph(g)
        assert recomputed == first

    def test_label_fraction(self):
        g = dataset("mico")
        stats = g.stats_summary()
        total = sum(
            stats.label_fraction(lab)
            for lab, _ in stats.label_frequencies
        )
        assert total == pytest.approx(1.0)
        assert stats.label_fraction(10_000) == 0.0

    def test_triangle_clustering_is_exact_on_small_graph(self):
        # A triangle closes all three wedges.
        g = graph_from_edges([(0, 1), (1, 2), (0, 2)])
        assert g.stats_summary().clustering == pytest.approx(1.0)

    def test_pickle_reattaches_shared_stats(self):
        g = graph_from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
        stats = g.stats_summary()
        clone = pickle.loads(pickle.dumps(g))
        assert clone._stats is None  # instance memo is not serialized
        # Same process, same content ⇒ re-attached to the same
        # DerivedCache-owned GraphStats, not recomputed.
        assert clone.stats_summary() is stats


class TestPlanEstimate:
    def test_triangle_plan_estimate_shape(self):
        stats = dataset("dblp").stats_summary()
        estimate = estimate_plan(plan_for(triangle()), stats)
        assert estimate.num_steps == 3
        assert len(estimate.steps) == 3
        assert estimate.roots == stats.num_vertices
        assert estimate.total_candidates > 0
        assert estimate.est_matches > 0
        # Later steps face more anchors, so pools shrink.
        assert estimate.steps[2].pool_size < estimate.steps[1].pool_size

    def test_labeled_pattern_on_unlabeled_graph_is_uncalibrated(self):
        from repro.patterns.pattern import Pattern

        labeled = Pattern(
            3, [(0, 1), (1, 2), (0, 2)], labels=[0, 1, 2]
        )
        stats = dataset("dblp").stats_summary()  # unlabeled
        estimate = estimate_plan(plan_for(labeled), stats)
        assert estimate.uncalibrated
        assert estimate.est_matches == 0.0


class TestCalibration:
    """Acceptance: estimates within 10x of actual candidate counts."""

    @pytest.mark.parametrize("key", ["dblp", "mico", "amazon"])
    def test_mqc_within_order_of_magnitude(self, key):
        graph = dataset(key)
        estimate = estimate_constraint_set(
            _mqc_constraints(), graph.stats_summary()
        )
        result = maximal_quasi_cliques(
            graph, gamma=0.8, max_size=4, min_size=3
        )
        actual = result.stats.extensions_attempted
        assert actual > 0
        ratio = actual / estimate.total_candidates
        assert 0.1 <= ratio <= 10.0, (
            f"{key}: estimated {estimate.total_candidates:.0f} vs "
            f"actual {actual} (ratio {ratio:.2f})"
        )

    def test_nsq_within_order_of_magnitude(self):
        graph = dataset("amazon")
        p_m, p_plus_list = paper_query_triangles()
        estimate = estimate_constraint_set(
            nested_query_constraints(p_m, p_plus_list),
            graph.stats_summary(),
        )
        result = nested_subgraph_query(graph, p_m, p_plus_list)
        actual = result.stats.extensions_attempted
        ratio = actual / estimate.total_candidates
        assert 0.1 <= ratio <= 10.0


class TestChaosWorkload:
    """Acceptance: a budget-exhausting workload is flagged CG601 by the
    static estimate *before* execution, and really does blow the budget."""

    BUDGET = 0.5

    @pytest.fixture()
    def dense_graph_file(self, tmp_path):
        # Sized to need ~4x the budget unbounded (~2 s), so the TLE
        # fires with margin rather than within timing noise of it.
        graph = erdos_renyi(300, 0.2, seed=7)
        path = str(tmp_path / "dense.txt")
        write_edge_list(graph, path)
        return graph, path

    def test_estimate_flags_then_run_exhausts(
        self, dense_graph_file, capsys
    ):
        graph, path = dense_graph_file
        # 1. The static estimate rejects the workload without running it.
        exit_code = main(
            ["analyze", "--workload", "mqc", "--max-size", "5",
             "--estimate", "--graph", path,
             "--budget-seconds", str(self.BUDGET), "--format", "json"]
        )
        assert exit_code == 1
        payload = json.loads(capsys.readouterr().out)
        codes = [d["code"] for d in payload["diagnostics"]]
        assert "CG601" in codes
        assert payload["estimate"]["total_candidates"] > 0
        # 2. The real run under the same budget really is exhausted.
        with pytest.raises(TimeLimitExceeded):
            maximal_quasi_cliques(
                graph, gamma=0.8, max_size=5, min_size=3,
                time_limit=self.BUDGET,
            )

    def test_strict_admission_refuses_before_running(
        self, dense_graph_file, capsys
    ):
        _, path = dense_graph_file
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["mqc", "--graph", path, "--max-size", "5",
                 "--time-limit", str(self.BUDGET),
                 "--admission", "strict"]
            )
        assert excinfo.value.code == 2
        assert "CG601" in capsys.readouterr().err


class TestCheckEstimate:
    def test_memory_budget_violation(self):
        estimate = estimate_constraint_set(
            _mqc_constraints(), dataset("dblp").stats_summary()
        )
        report = check_estimate(estimate, budget_bytes=1_000)
        assert "CG602" in report.codes()
        assert report.has_errors

    def test_shard_imbalance_warning(self):
        # amazon's powerlaw hub degree is >8x its average.
        estimate = estimate_constraint_set(
            _mqc_constraints(), dataset("amazon").stats_summary()
        )
        report = check_estimate(
            estimate, scheduler="workqueue", n_workers=4
        )
        assert "CG603" in report.codes()
        assert not report.has_errors  # warning only

    def test_no_shard_warning_for_serial(self):
        estimate = estimate_constraint_set(
            _mqc_constraints(), dataset("amazon").stats_summary()
        )
        report = check_estimate(estimate, scheduler="serial", n_workers=1)
        assert "CG603" not in report.codes()

    def test_uncalibrated_info_on_tiny_graph(self):
        tiny = graph_from_edges([(0, 1), (1, 2), (0, 2)])
        estimate = estimate_constraint_set(
            _mqc_constraints(), tiny.stats_summary()
        )
        report = check_estimate(estimate)
        assert "CG604" in report.codes()

    def test_time_budget_judges_the_serial_projection(self):
        # A budget between a quarter of the serial projection and the
        # whole of it: four threads do not divide the calibrated time.
        estimate = estimate_constraint_set(
            _mqc_constraints(max_size=6, gamma=0.6),
            dataset("mico").stats_summary(),
        )
        serial = estimate.total_candidates / CANDIDATES_PER_SECOND
        assert serial > 1.0
        for budget in (serial / 3, serial * 0.9):
            report = check_estimate(
                estimate, budget_seconds=budget,
                scheduler="workqueue", n_workers=4,
            )
            assert "CG601" in report.codes()

    def test_generous_budgets_pass(self):
        estimate = estimate_constraint_set(
            _mqc_constraints(), dataset("dblp").stats_summary()
        )
        report = check_estimate(
            estimate,
            budget_seconds=3600.0,
            budget_bytes=8 * 1024**3,
        )
        assert not report.has_errors


class TestQueryAdmission:
    def test_estimate_accessor(self):
        graph = dataset("dblp")
        p_m, p_plus_list = paper_query_triangles()
        query = Query(p_m)
        for p_plus in p_plus_list:
            query = query.not_within(p_plus)
        estimate = query.estimate(graph)
        assert estimate.total_candidates > 0
        assert estimate.vtask_candidates > 0

    def test_strict_run_rejects_projected_tle(self):
        graph = erdos_renyi(200, 0.2, seed=7)
        p_m, p_plus_list = paper_query_triangles()
        query = Query(p_m).strict().time_limit(0.0001)
        for p_plus in p_plus_list:
            query = query.not_within(p_plus)
        with pytest.raises(QueryAnalysisError) as excinfo:
            query.run(graph)
        assert any(d.code == "CG601" for d in excinfo.value.diagnostics)

    def test_strict_rule_admits_an_uncalibrated_estimate(self):
        tiny = graph_from_edges([(0, 1), (1, 2), (0, 2)])
        report = Query(triangle()).time_limit(1e-12).check_admission(tiny)
        assert {"CG601", "CG604"} <= set(report.codes())
        assert not strict_refuses(report)

    def test_strict_run_admits_generous_budget(self):
        graph = dataset("dblp")
        result = (
            Query(triangle()).strict().time_limit(600).run(graph)
        )
        assert result.count > 0


class TestEstimateErrorMetric:
    def test_ratio_recorded(self):
        registry = MetricsRegistry()
        assert observe_estimate_error(registry, 100.0, 250.0) == 2.5
        snapshot = registry.snapshot()
        assert snapshot["repro_estimate_error_ratio"]["count"] == 1
        assert snapshot["repro_estimate_error_ratio"]["sum"] == 2.5

    def test_degenerate_sides_skipped(self):
        registry = MetricsRegistry()
        assert observe_estimate_error(registry, 0.0, 10.0) is None
        assert observe_estimate_error(registry, 10.0, 0.0) is None
        assert registry.snapshot() == {}


class TestQuerySpecEstimate:
    def test_only_within_adds_bridge_work(self):
        stats = dataset("dblp").stats_summary()
        p_m, p_plus_list = paper_query_triangles()
        bare = estimate_query_spec(p_m, stats=stats)
        constrained = estimate_query_spec(
            p_m, only_within=p_plus_list[:1], stats=stats
        )
        assert constrained.total_candidates > bare.total_candidates

    def test_requires_stats(self):
        with pytest.raises(ValueError):
            estimate_query_spec(triangle())
