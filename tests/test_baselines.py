"""Tests for the Peregrine+ post-hoc baselines and the TThinker sim."""

import pytest

from repro.baselines import (
    TThinkerConfig,
    posthoc_kws,
    posthoc_mqc,
    posthoc_nsq,
    tthinker_mqc,
)
from repro.baselines.naive import (
    all_quasi_cliques,
    maximal_quasi_cliques as oracle_mqc,
    minimal_keyword_covers,
    nested_query_matches,
)
from repro.apps.nsq import (
    paper_query_tailed_triangles,
    paper_query_triangles,
)
from repro.errors import (
    MemoryBudgetExceeded,
    StorageBudgetExceeded,
    TimeLimitExceeded,
)
from repro.graph import erdos_renyi
from repro.mining import MiningEngine
from repro.patterns import canonical_assignment_oracle

from conftest import labeled_random_graph


class TestPostHocMQC:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("gamma", [0.6, 0.8])
    def test_matches_oracle(self, seed, gamma):
        g = erdos_renyi(14, 0.45, seed=seed)
        assert posthoc_mqc(g, gamma, 5).valid == oracle_mqc(g, gamma, 3, 5)

    def test_without_maximality_returns_all(self):
        g = erdos_renyi(14, 0.45, seed=1)
        result = posthoc_mqc(g, 0.7, 5, check_maximality=False)
        assert result.valid == all_quasi_cliques(g, 0.7, 3, 5)
        assert result.stats.constraint_checks == 0

    def test_graphpi_schedule_agrees(self):
        g = erdos_renyi(13, 0.45, seed=2)
        a = posthoc_mqc(g, 0.7, 5, schedule="peregrine")
        b = posthoc_mqc(g, 0.7, 5, schedule="graphpi")
        assert a.valid == b.valid
        # graphpi variant has no exploration cache
        assert b.stats.cache_hits == 0

    def test_unknown_schedule_rejected(self):
        with pytest.raises(ValueError):
            posthoc_mqc(erdos_renyi(5, 0.5, seed=0), 0.7, 4, schedule="x")

    def test_checks_counted(self):
        g = erdos_renyi(14, 0.5, seed=3)
        result = posthoc_mqc(g, 0.7, 5)
        assert result.stats.matches_checked > 0
        assert result.stats.constraint_checks > 0

    def test_time_limit(self):
        g = erdos_renyi(60, 0.4, seed=4)
        with pytest.raises(TimeLimitExceeded):
            posthoc_mqc(g, 0.6, 6, time_limit=0.01)


class TestPostHocNSQandKWS:
    def test_nsq_matches_oracle(self):
        g = erdos_renyi(14, 0.22, seed=5)
        p_m, p_plus = paper_query_triangles()
        result = posthoc_nsq(g, p_m, p_plus)
        assert result.assignments == nested_query_matches(g, p_m, p_plus)

    @pytest.mark.parametrize(
        "query, graph_args",
        [
            (paper_query_triangles, (14, 0.22, 5)),
            (paper_query_triangles, (15, 0.2, 9)),
            (paper_query_tailed_triangles, (16, 0.18, 100)),
        ],
    )
    def test_nsq_stores_engine_matches_uncanonicalised(self, query, graph_args):
        """``posthoc_nsq`` keeps ``match.assignment`` as is: an engine
        match is already the canonical form the oracle computes."""
        n, p, seed = graph_args
        g = erdos_renyi(n, p, seed=seed)
        p_m, p_plus = query()
        matches = MiningEngine(g).find_all(p_m)
        assert matches
        for match in matches:
            assert (
                canonical_assignment_oracle(match.assignment, p_m)
                == match.assignment
            )
        result = posthoc_nsq(g, p_m, p_plus)
        assert result.assignments == nested_query_matches(g, p_m, p_plus)

    def test_kws_matches_oracle(self):
        g = labeled_random_graph(15, 0.25, num_labels=5, seed=6)
        result = posthoc_kws(g, [0, 1, 2], 5)
        assert result.valid == minimal_keyword_covers(g, [0, 1, 2], 5)

    def test_kws_checks_every_cover(self):
        g = labeled_random_graph(15, 0.3, num_labels=4, seed=7)
        result = posthoc_kws(g, [0, 1], 4)
        # post-hoc checks at least as many matches as it reports
        assert result.stats.matches_checked >= len(result.valid)


class TestTThinker:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("gamma", [0.6, 0.8])
    def test_matches_oracle(self, seed, gamma):
        g = erdos_renyi(14, 0.45, seed=seed)
        assert tthinker_mqc(g, gamma, 5).maximal == oracle_mqc(
            g, gamma, 3, 5
        )

    def test_low_gamma_rejected(self):
        with pytest.raises(ValueError):
            tthinker_mqc(erdos_renyi(5, 0.5, seed=0), 0.4, 4)

    def test_accounting_populated(self):
        g = erdos_renyi(14, 0.5, seed=8)
        result = tthinker_mqc(g, 0.7, 5)
        acct = result.accounting
        assert acct.candidates_buffered > 0
        assert acct.tasks_created > 0
        assert acct.candidate_bytes > 0
        assert acct.peak_memory_bytes > 0
        assert acct.live_bytes == 0  # all recursion frames released

    def test_memory_budget_raises_oom(self):
        g = erdos_renyi(20, 0.5, seed=9)
        config = TThinkerConfig(memory_budget_bytes=256)
        with pytest.raises(MemoryBudgetExceeded):
            tthinker_mqc(g, 0.7, 5, config=config)

    def test_storage_budget_raises_oos(self):
        g = erdos_renyi(20, 0.5, seed=9)
        config = TThinkerConfig(storage_budget_bytes=512)
        with pytest.raises(StorageBudgetExceeded):
            tthinker_mqc(g, 0.7, 5, config=config)

    def test_time_budget_raises_tle(self):
        g = erdos_renyi(40, 0.5, seed=10)
        config = TThinkerConfig(time_limit=0.001)
        with pytest.raises(TimeLimitExceeded):
            tthinker_mqc(g, 0.6, 6, config=config)

    def test_candidates_examined_in_postprocess(self):
        g = erdos_renyi(14, 0.5, seed=11)
        result = tthinker_mqc(g, 0.7, 5)
        assert result.candidates_examined == (
            result.accounting.candidates_buffered
        )


class TestTThinkerAccounting:
    """The simulated RAM and disk, with the byte model cut down to one
    byte per vertex so a charge is exactly the state size."""

    @pytest.fixture(autouse=True)
    def unit_bytes(self, monkeypatch):
        from repro.baselines import tthinker

        monkeypatch.setattr(tthinker, "_TASK_OVERHEAD", 0)
        monkeypatch.setattr(tthinker, "_BYTES_PER_VERTEX", 1)

    def test_memory_charge_release_and_peak(self):
        from repro.baselines.tthinker import TThinkerAccounting

        config = TThinkerConfig(memory_budget_bytes=100)
        acct = TThinkerAccounting()
        acct.enter_task(60, config)
        acct.enter_task(30, config)
        acct.exit_task(50)
        assert acct.live_bytes == 40
        assert acct.peak_memory_bytes == 90
        with pytest.raises(MemoryBudgetExceeded) as info:
            acct.enter_task(61, config)
        assert info.value.budget_bytes == 100
        assert info.value.used_bytes == 101

    def test_storage_is_cumulative(self):
        from repro.baselines.tthinker import TThinkerAccounting

        config = TThinkerConfig(storage_budget_bytes=100)
        acct = TThinkerAccounting()
        acct.exit_task(acct.enter_task(60, config))
        with pytest.raises(StorageBudgetExceeded) as info:
            acct.enter_task(41, config)
        assert info.value.budget_bytes == 100
        assert info.value.used_bytes == 101
