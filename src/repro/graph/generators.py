"""Seeded synthetic graph generators.

These stand in for the real-world datasets of the paper's Table 1
(Amazon, DBLP, Mico, Patents, Youtube, Products), which are too large
for a pure-Python reproduction and not bundled with the repo.  The
generators are deterministic given a seed, so every benchmark run sees
the same graphs.

Three families are provided:

* :func:`powerlaw_graph` — preferential-attachment style, heavy-tailed
  degrees; models citation / co-purchase networks.
* :func:`community_graph` — planted dense communities with sparse
  inter-community edges; models co-authorship / social networks and
  guarantees a healthy supply of (quasi-)cliques, which the paper's
  workloads need.
* :func:`erdos_renyi` — uniform G(n, p), used mainly by tests.

:func:`attach_labels` adds a Zipfian label distribution, mimicking the
skew between "most frequent" and "less frequent" keywords used in the
paper's keyword-search evaluation (Fig 15).
"""

from __future__ import annotations

import random
from typing import List, Optional

from .builder import GraphBuilder
from .graph import Graph


def erdos_renyi(
    num_vertices: int,
    edge_probability: float,
    seed: int = 0,
    name: str = "",
) -> Graph:
    """Uniform random graph G(n, p)."""
    rng = random.Random(seed)
    builder = GraphBuilder(name=name)
    for v in range(num_vertices):
        builder.add_vertex(v)
    for u in range(num_vertices):
        for v in range(u + 1, num_vertices):
            if rng.random() < edge_probability:
                builder.add_edge(u, v)
    return builder.build()


def powerlaw_graph(
    num_vertices: int,
    edges_per_vertex: int = 3,
    triangle_probability: float = 0.4,
    seed: int = 0,
    name: str = "",
) -> Graph:
    """Holme–Kim style power-law graph with tunable clustering.

    Each new vertex attaches ``edges_per_vertex`` edges preferentially;
    with probability ``triangle_probability`` an attachment step closes
    a triangle instead, which raises clustering (dense neighborhoods
    are where the paper's quasi-clique matches live).
    """
    if edges_per_vertex < 1:
        raise ValueError("edges_per_vertex must be >= 1")
    rng = random.Random(seed)
    builder = GraphBuilder(name=name)
    # Seed clique so preferential attachment has targets.
    core = min(num_vertices, edges_per_vertex + 1)
    for u in range(core):
        for v in range(u + 1, core):
            builder.add_edge(u, v)
    # Repeated-endpoint list: sampling from it is degree-proportional.
    endpoints: List[int] = []
    for u in range(core):
        endpoints.extend([u] * max(1, core - 1))
    for new in range(core, num_vertices):
        targets: set = set()
        last_target: Optional[int] = None
        while len(targets) < min(edges_per_vertex, new):
            if (
                last_target is not None
                and rng.random() < triangle_probability
            ):
                # Triangle step: connect to a neighbor of the last target.
                neighbor_pool = [
                    w
                    for w in builder._adjacency[last_target]  # noqa: SLF001
                    if w != new and w not in targets
                ]
                if neighbor_pool:
                    choice = rng.choice(neighbor_pool)
                    targets.add(choice)
                    last_target = choice
                    continue
            choice = endpoints[rng.randrange(len(endpoints))]
            if choice != new and choice not in targets:
                targets.add(choice)
                last_target = choice
        for t in targets:
            builder.add_edge(new, t)
            endpoints.append(t)
            endpoints.append(new)
    return builder.build()


def community_graph(
    num_communities: int,
    community_size: int,
    intra_probability: float = 0.7,
    inter_edges: int = 2,
    seed: int = 0,
    name: str = "",
) -> Graph:
    """Planted-community graph.

    Each community is an Erdos–Renyi pocket with high ``intra_probability``
    (dense, rich in quasi-cliques); ``inter_edges`` random bridges connect
    each community to the rest of the graph.
    """
    rng = random.Random(seed)
    builder = GraphBuilder(name=name)
    total = num_communities * community_size
    for v in range(total):
        builder.add_vertex(v)
    for c in range(num_communities):
        base = c * community_size
        for i in range(community_size):
            for j in range(i + 1, community_size):
                if rng.random() < intra_probability:
                    builder.add_edge(base + i, base + j)
    for c in range(num_communities):
        base = c * community_size
        for _ in range(inter_edges):
            u = base + rng.randrange(community_size)
            v = rng.randrange(total)
            if v // community_size != c:
                builder.add_edge(u, v)
    return builder.build()


def attach_labels(
    graph: Graph,
    num_labels: int,
    seed: int = 0,
    zipf_exponent: float = 1.2,
) -> Graph:
    """Return a copy of ``graph`` with Zipf-distributed vertex labels.

    Label 0 is the most frequent, label ``num_labels - 1`` the rarest;
    the skew mirrors real label distributions and creates the paper's
    MF (most frequent) vs LF (less frequent) keyword regimes.
    """
    if num_labels < 1:
        raise ValueError("num_labels must be >= 1")
    rng = random.Random(seed)
    weights = [1.0 / (rank + 1) ** zipf_exponent for rank in range(num_labels)]
    total_weight = sum(weights)
    cumulative = []
    acc = 0.0
    for w in weights:
        acc += w / total_weight
        cumulative.append(acc)

    def draw() -> int:
        x = rng.random()
        for lab, threshold in enumerate(cumulative):
            if x <= threshold:
                return lab
        return num_labels - 1

    labels = [draw() for _ in graph.vertices()]
    adjacency = [graph.neighbors(v) for v in graph.vertices()]
    return Graph(adjacency, labels=labels, name=graph.name)
