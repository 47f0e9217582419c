"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import random

import pytest
from hypothesis import strategies as st

from repro.graph import Graph, GraphBuilder, erdos_renyi
from repro.patterns import Pattern

#: Tier-1 wall budget per test (ROADMAP item 3): a test whose call
#: phase runs longer fails unless it is marked ``slow``
#: (``pyproject.toml`` registers the marker).
TIER1_BUDGET_SECONDS = 5.0


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if (
        report.when == "call"
        and report.passed
        and call.duration > TIER1_BUDGET_SECONDS
        and item.get_closest_marker("slow") is None
    ):
        report.outcome = "failed"
        report.longrepr = (
            f"{item.nodeid} took {call.duration:.1f} s, over the "
            f"{TIER1_BUDGET_SECONDS:g} s tier-1 budget: make it faster "
            "or mark it @pytest.mark.slow"
        )


def random_graph(
    num_vertices: int, edge_probability: float, seed: int
) -> Graph:
    """Seeded G(n, p) helper (thin alias used across test modules)."""
    return erdos_renyi(num_vertices, edge_probability, seed=seed)


def labeled_random_graph(
    num_vertices: int,
    edge_probability: float,
    num_labels: int,
    seed: int,
) -> Graph:
    """Seeded labeled G(n, p) with uniform labels."""
    rng = random.Random(seed)
    base = erdos_renyi(num_vertices, edge_probability, seed=seed)
    labels = [rng.randrange(num_labels) for _ in base.vertices()]
    return Graph([base.neighbors(v) for v in base.vertices()], labels=labels)


@st.composite
def graph_strategy(
    draw, max_vertices: int = 12, max_labels: int = 0
) -> Graph:
    """Hypothesis strategy producing small arbitrary graphs."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(
        st.lists(st.sampled_from(possible), unique=True, max_size=len(possible))
        if possible
        else st.just([])
    )
    builder = GraphBuilder()
    for v in range(n):
        builder.add_vertex(v)
    builder.add_edges(edges)
    if max_labels > 0:
        labels = draw(
            st.lists(
                st.integers(min_value=0, max_value=max_labels - 1),
                min_size=n,
                max_size=n,
            )
        )
        return Graph(
            [builder.build().neighbors(v) for v in range(n)], labels=labels
        )
    return builder.build()


@st.composite
def connected_pattern_strategy(draw, max_vertices: int = 5) -> Pattern:
    """Hypothesis strategy producing small connected patterns."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    edges = set()
    # Random spanning tree first to guarantee connectivity.
    for v in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=v - 1))
        edges.add((parent, v))
    possible = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if (u, v) not in edges
    ]
    if possible:
        extra = draw(
            st.lists(st.sampled_from(possible), unique=True, max_size=len(possible))
        )
        edges.update(extra)
    return Pattern(n, edges)


@pytest.fixture
def small_graph() -> Graph:
    """The Figure 1 example graph of the paper (a..i)."""
    names = "abcdefghi"
    builder = GraphBuilder(name="fig1")
    edges = [
        ("a", "b"), ("a", "c"), ("a", "d"), ("a", "e"), ("a", "i"),
        ("b", "c"), ("b", "d"), ("b", "e"), ("b", "f"), ("b", "g"),
        ("c", "d"), ("c", "e"), ("c", "f"), ("c", "g"),
        ("d", "e"), ("d", "i"), ("e", "i"), ("f", "g"), ("g", "h"),
    ]
    for name in names:
        builder.add_vertex(name)
    builder.add_edges(edges)
    return builder.build()


@pytest.fixture
def triangle_graph() -> Graph:
    """One triangle plus a pendant vertex."""
    builder = GraphBuilder()
    builder.add_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
    return builder.build()
