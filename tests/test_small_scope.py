"""Every small nested query, both semantics, against the naive oracle.

The small-scope sweep of ROADMAP item 23.  In the 1-gap rows P^M is
every connected structure on 2–4 vertices, and P⁺ is P^M plus one vertex
with any non-empty neighbour set, one per isomorphism class: 54 pairs.
A pair is named ``{P^M}+{neighbours}``, ``s4.1+023`` being ``s4.1`` plus
a vertex adjacent to 0, 2 and 3.  The 2-gap rows bridge two vertices,
where VTasks run multi-step recipes over several extension orders: P^M
is every connected structure on 2–3 vertices, and P⁺ adds two vertices,
each adjacent to a non-empty set of the vertices before it, one per
isomorphism class: 41 pairs, ``s3.0+1+023`` adding a vertex 3 adjacent
to 1 and then a vertex 4 adjacent to 0, 2 and 3.  Each pair runs
edge-induced and induced on three seeded G(11, p) graphs, and
``nested_subgraph_query`` must return exactly
``baselines.naive.nested_query_matches``.

The maximality rows reuse the pairs: each P^M with all of its 1-gap
P⁺s is one induced ``ConstraintSet`` that mines P^M and every P⁺ and
holds ⟨P^M, P⁺⟩ for each.  A P^M match then runs a chain of several
VTasks, and one that matches promotes into one of several mined
patterns.  On the same three graphs, with promotion and lateral
cancellation each on and off, ``ContigraEngine`` must return, per
pattern, the oracle's P^M matches contained in no P⁺ and every P⁺
match.

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
from repro.core import ContainmentConstraint, ConstraintSet, ContigraEngine
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
    "s3.0+0+01": (0, 1, 2),
    "s3.0+0+012": (0,),
    "s3.0+0+0123": (1, 2),
    "s3.0+1+01": (0,),
    "s3.0+1+02": (0,),
    "s3.0+1+012": (0,),
    "s3.0+1+023": (0,),
    "s3.0+1+0123": (1,),
    "s3.0+01+02": (1, 2),
    "s3.0+01+013": (1, 2),
    "s3.0+01+123": (1,),
    "s3.0+01+0123": (1, 2),
    "s3.0+12+0123": (1, 2),
    "s3.0+012+0123": (1, 2),
}

REASON = (
    "edge-induced VTasks never look up the P+ edges between "
    "already-matched vertices (ROADMAP item 11)"
)


def gap_pairs(sizes, gap):
    """``{name: (P^M, P⁺)}`` for every pair whose P⁺ adds ``gap``
    vertices to a P^M on one of ``sizes`` vertices, in sweep order."""
    pairs = {}
    for size in sizes:
        for p_m in connected_structures(size):
            grown = [(p_m, p_m.name)]
            for _ in range(gap):
                grown = [
                    (p.add_vertex(near), f"{name}+{''.join(map(str, near))}")
                    for p, name in grown
                    for count in range(1, p.num_vertices + 1)
                    for near in itertools.combinations(
                        range(p.num_vertices), count
                    )
                ]
            seen = set()
            for p_plus, name in grown:
                key = p_plus.canonical_key()
                if key not in seen:
                    seen.add(key)
                    pairs[name] = (p_m, p_plus)
    return pairs


#: The 1-gap pairs; the maximality rows are built from these.
PAIRS = gap_pairs((2, 3, 4), 1)

#: Every pair of the sweep, 1-gap then 2-gap.
ALL_PAIRS = {**PAIRS, **gap_pairs((2, 3), 2)}


def cells():
    for name in ALL_PAIRS:
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
    assert set(ITEM_11) <= set(ALL_PAIRS)


def test_the_2_gap_sweep_has_41_pairs():
    assert len(ALL_PAIRS) - len(PAIRS) == 41


@pytest.mark.parametrize("name, induced, index", cells())
def test_nested_query_equals_the_oracle(name, induced, index):
    p_m, p_plus = ALL_PAIRS[name]
    p, seed = GRAPHS[index]
    graph = erdos_renyi(11, p, seed=seed)
    got = nested_subgraph_query(graph, p_m, [p_plus], induced=induced)
    want = nested_query_matches(graph, p_m, [p_plus], induced=induced)
    assert set(got.assignments()) == want


@pytest.mark.parametrize("name", sorted(ITEM_11))
def test_each_xfailed_pair_shows_item_11s_mechanism(name):
    # Some embedding of P^M into P+ maps a P^M non-edge onto a P+ edge:
    # the edge a VTask's recipe never checks.
    p_m, p_plus = ALL_PAIRS[name]
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


def maximality_sets():
    """``{P^M name: (P^M, [every 1-gap P⁺ of it])}``."""
    sets = {}
    for p_m, p_plus in PAIRS.values():
        sets.setdefault(p_m.name, (p_m, []))[1].append(p_plus)
    return sets


MAXIMALITY = maximality_sets()


@pytest.mark.parametrize("lateral", [True, False], ids=["lateral", "serial"])
@pytest.mark.parametrize(
    "promotion", [True, False], ids=["promotion", "no-promotion"]
)
@pytest.mark.parametrize(
    "index", range(len(GRAPHS)), ids=[f"p{p}" for p, _ in GRAPHS]
)
@pytest.mark.parametrize("name", sorted(MAXIMALITY))
def test_maximality_rows_equal_the_oracle(name, index, promotion, lateral):
    p_m, p_pluses = MAXIMALITY[name]
    p, seed = GRAPHS[index]
    graph = erdos_renyi(11, p, seed=seed)
    constraints = ConstraintSet(
        [p_m, *p_pluses],
        [ContainmentConstraint(p_m, q, induced=True) for q in p_pluses],
        induced=True,
    )
    result = ContigraEngine(
        graph, constraints,
        enable_promotion=promotion, enable_lateral=lateral,
    ).run()
    want = {
        p_m.structure_key(): nested_query_matches(
            graph, p_m, p_pluses, induced=True
        )
    }
    for q in p_pluses:
        want[q.structure_key()] = nested_query_matches(
            graph, q, [], induced=True
        )
    got = {key: set() for key in want}
    for pattern, assignment in result.valid:
        got[pattern.structure_key()].add(assignment)
    assert got == want
    assert len(result.valid) == sum(map(len, want.values()))
    if not promotion:
        assert result.stats.promotions == 0
    elif index > 0:
        # Every row promotes on the two denser graphs (1 705 in all).
        assert result.stats.promotions > 0
