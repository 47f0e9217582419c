"""Focused tests for BridgeRecipe construction and ordering internals."""

import pytest

from repro.apps.nsq import (
    paper_query_tailed_triangles,
    paper_query_triangles,
)
from repro.core import maximality_constraints, nested_query_constraints
from repro.core.vtask import (
    BridgeRecipe,
    ValidationTarget,
    bridge_recipes_for,
    connected_extension_orders,
    alignment_embeddings,
)
from repro.graph import erdos_renyi
from repro.patterns import (
    clique,
    diamond,
    diamond_house,
    house,
    quasi_clique_patterns_up_to,
    triangle,
)


class TestBridgeRecipe:
    def test_anchors_follow_pattern_adjacency(self):
        # triangle (0,1,2 in house) extended to the full house: slots
        # 0..2 hold the triangle, slot 3 binds vertex 3, slot 4 vertex 4
        embedding = (0, 1, 2)
        recipe = BridgeRecipe(house(), embedding, order=(3, 4), induced=False)
        # vertex 3 attaches to 1 (and not 0/2); vertex 4 to 2 and 3
        assert recipe.steps[3][:2] == (3, (1,))
        assert recipe.steps[4][:2] == (4, (2, 3))

    def test_nonneighbors_complement_anchors(self):
        embedding = (0, 1, 2)
        recipe = BridgeRecipe(house(), embedding, order=(3, 4), induced=True)
        for slot in (3, 4):
            _, anchors, nonneighbors, *_ = recipe.steps[slot]
            assert not set(anchors) & set(nonneighbors)
            assert set(anchors) | set(nonneighbors) == set(range(slot))

    def test_unanchored_order_rejected(self):
        # lollipop: triangle 0-1-2 with tail 2-3-4.  Binding the tail
        # tip (4) before its only neighbor (3) leaves it unanchored.
        from repro.patterns import Pattern

        lollipop = Pattern(
            5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]
        )
        with pytest.raises(ValueError):
            BridgeRecipe(lollipop, (0, 1, 2), order=(4, 3), induced=False)

    def test_intermediate_density_recorded(self):
        recipe = BridgeRecipe(house(), (0, 1, 2), order=(3, 4), induced=False)
        assert 0.0 < recipe.intermediate_density <= 1.0


class TestExtensionOrders:
    def test_all_orders_connected(self):
        orders = connected_extension_orders(house(), [0, 1, 2], [3, 4])
        assert orders
        for order in orders:
            bound = {0, 1, 2}
            for v in order:
                assert any(house().has_edge(v, u) for u in bound)
                bound.add(v)

    def test_clique_extension_all_permutations_valid(self):
        orders = connected_extension_orders(clique(5), [0, 1, 2], [3, 4])
        assert len(orders) == 2  # both orders of {3, 4}


class TestOrbitEmbeddings:
    def test_triangle_into_house_roof_only(self):
        reps = alignment_embeddings(
            triangle(), house(), induced=False
        )
        # the house's only triangle is the roof; Aut(house) has order 2
        # and fixes the roof setwise -> few representatives
        assert 1 <= len(reps) <= 3
        for image in reps:
            for u, v in triangle().edges:
                assert house().has_edge(image[u], image[v])

    def test_k4_into_k6_single_orbit(self):
        reps = alignment_embeddings(
            clique(4), clique(6), induced=True
        )
        assert len(reps) == 1

    def test_gap_recorded_and_recipe_count(self):
        g = erdos_renyi(10, 0.4, seed=0)
        target = ValidationTarget(
            triangle(), diamond_house(), g, induced=False
        )
        assert target.gap == 2
        assert all(len(r.steps) == 5 for r in target.recipes)


class TestShippedWorkloadsBridge:
    """A connected P⁺ bridges from every alignment embedding: each one
    has at least one recipe, so a fused VTask can always run."""

    @staticmethod
    def _shipped_constraint_sets():
        # The self-check's successor workloads, and the Table 3 shape.
        for gamma, max_size in ((0.8, 4), (0.6, 6)):
            yield maximality_constraints(
                quasi_clique_patterns_up_to(max_size, gamma, min_size=3),
                induced=True,
            )
        for build in (paper_query_triangles, paper_query_tailed_triangles):
            yield nested_query_constraints(*build())
        yield nested_query_constraints(triangle(), [house()])
        yield nested_query_constraints(diamond(), [diamond_house()])

    def test_every_alignment_embedding_has_a_recipe(self):
        for constraint_set in self._shipped_constraint_sets():
            induced = constraint_set.induced
            for constraint in constraint_set.all_constraints:
                p_m, p_plus = constraint.p_m, constraint.p_plus
                if not constraint.is_successor or not p_plus.is_connected():
                    continue
                embeddings = alignment_embeddings(p_m, p_plus, induced)
                assert embeddings, (p_m, p_plus)
                for embedding in embeddings:
                    assert bridge_recipes_for(p_plus, embedding, induced), (
                        p_m, p_plus, embedding,
                    )
