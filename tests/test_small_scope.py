"""Every small nested query, both semantics, against the naive oracle.

The small-scope sweep of ROADMAP item 23, its 1-gap half.  P^M is every
connected structure on 2–4 vertices, and P⁺ is P^M plus one vertex with
any non-empty neighbour set, one per isomorphism class: 54 pairs.  A
pair is named ``{P^M}+{neighbours}``, ``s4.1+023`` being ``s4.1`` plus a
vertex adjacent to 0, 2 and 3.  Each pair runs edge-induced and induced
on three seeded G(11, p) graphs, and ``nested_subgraph_query`` must
return exactly ``baselines.naive.nested_query_matches``.

The cells that fail today are strict xfails.  Under ``induced=False`` a
VTask never looks up the P⁺ edges between vertices the P^M match already
bound (ROADMAP item 11), so matches go missing; every xfailed pair has
an embedding that maps a P^M non-edge onto a P⁺ edge, which is what
exposes it.
"""

import itertools

import pytest

from repro.apps.nsq import nested_subgraph_query
from repro.baselines.naive import nested_query_matches
from repro.graph.generators import erdos_renyi
from repro.patterns import connected_structures, subpattern_embeddings

#: (p, seed) of each ``erdos_renyi(11, p, seed=seed)`` graph.
GRAPHS = [(0.3, 0), (0.45, 1), (0.6, 2)]

#: Edge-induced cells that miss matches: pair -> indices into GRAPHS.
ITEM_11 = {
    "s3.0+01": (0,),
    "s3.0+012": (0, 1, 2),
    "s4.0+01": (0,),
    "s4.0+012": (0, 1),
    "s4.0+0123": (1, 2),
    "s4.1+01": (0,),
    "s4.1+02": (0, 1),
    "s4.1+03": (0,),
    "s4.1+012": (0, 1, 2),
    "s4.1+023": (0, 1, 2),
    "s4.1+0123": (0, 1, 2),
    "s4.2+01": (1,),
    "s4.2+12": (1, 2),
    "s4.2+012": (1, 2),
    "s4.2+013": (1, 2),
    "s4.2+123": (1, 2),
    "s4.2+0123": (1, 2),
    "s4.3+0123": (1, 2),
    "s4.4+012": (1, 2),
    "s4.4+0123": (1, 2),
}

REASON = (
    "edge-induced VTasks never look up the P+ edges between "
    "already-matched vertices (ROADMAP item 11)"
)


def one_gap_pairs():
    """``{name: (P^M, P⁺)}`` for every 1-gap pair, in sweep order."""
    pairs = {}
    for size in (2, 3, 4):
        for p_m in connected_structures(size):
            seen = set()
            for count in range(1, size + 1):
                for near in itertools.combinations(range(size), count):
                    p_plus = p_m.add_vertex(near)
                    key = p_plus.canonical_key()
                    if key not in seen:
                        seen.add(key)
                        name = f"{p_m.name}+{''.join(map(str, near))}"
                        pairs[name] = (p_m, p_plus)
    return pairs


PAIRS = one_gap_pairs()


def cells():
    for name in PAIRS:
        for induced in (False, True):
            for index, (p, seed) in enumerate(GRAPHS):
                marks = ()
                if not induced and index in ITEM_11.get(name, ()):
                    marks = pytest.mark.xfail(strict=True, reason=REASON)
                yield pytest.param(
                    name, induced, index, marks=marks,
                    id=f"{name}-{'induced' if induced else 'edge'}-p{p}",
                )


def test_the_sweep_has_54_pairs():
    assert len(PAIRS) == 54
    assert set(ITEM_11) <= set(PAIRS)


@pytest.mark.parametrize("name, induced, index", cells())
def test_nested_query_equals_the_oracle(name, induced, index):
    p_m, p_plus = PAIRS[name]
    p, seed = GRAPHS[index]
    graph = erdos_renyi(11, p, seed=seed)
    got = nested_subgraph_query(graph, p_m, [p_plus], induced=induced)
    want = nested_query_matches(graph, p_m, [p_plus], induced=induced)
    assert set(got.assignments()) == want


@pytest.mark.parametrize("name", sorted(ITEM_11))
def test_each_xfailed_pair_shows_item_11s_mechanism(name):
    # Some embedding of P^M into P+ maps a P^M non-edge onto a P+ edge:
    # the edge a VTask's recipe never checks.
    p_m, p_plus = PAIRS[name]
    non_edges = [
        (u, v)
        for u, v in itertools.combinations(p_m.vertices(), 2)
        if not p_m.has_edge(u, v)
    ]
    assert any(
        p_plus.has_edge(embedding[u], embedding[v])
        for embedding in subpattern_embeddings(p_m, p_plus)
        for u, v in non_edges
    )
