"""Capped maximal cliques: the MQC workload at gamma = 1 against the
naive MQC oracle."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import maximal_quasi_cliques
from repro.baselines.naive import maximal_quasi_cliques as oracle_mqc
from repro.graph import erdos_renyi, graph_from_edges


class TestCappedSemantics:
    @given(st.integers(0, 10_000), st.sampled_from([3, 4, 5]))
    @settings(max_examples=15, deadline=None)
    def test_contigra_equals_reference(self, seed, cap):
        g = erdos_renyi(13, 0.5, seed=seed)
        got = maximal_quasi_cliques(g, 1.0, cap).all_sets()
        assert got == oracle_mqc(g, 1.0, 3, cap)

    def test_reference_handles_oversized_cliques(self):
        # K5 capped at 3: every triangle inside is capped-maximal.
        g = graph_from_edges(
            [(u, v) for u in range(5) for v in range(u + 1, 5)]
        )
        got = maximal_quasi_cliques(g, 1.0, 3).all_sets()
        assert len(got) == 10  # C(5,3)
        assert got == oracle_mqc(g, 1.0, 3, 3)

    def test_min_size_filters(self):
        g = graph_from_edges([(0, 1), (1, 2), (0, 2), (3, 4)])
        got = maximal_quasi_cliques(g, 1.0, 4, min_size=3).all_sets()
        # the lone edge 3-4 is below min_size
        assert got == {frozenset({0, 1, 2})}
