"""Tests for automorphisms and symmetry-breaking conditions.

The load-bearing property: for every pattern and every set of distinct
data-vertex assignments, *exactly one* automorphic image satisfies the
symmetry-breaking conditions — this is what makes the engine emit each
subgraph exactly once.
"""

import itertools
import math
import random

import pytest
from hypothesis import given, settings

from repro.analysis import library_patterns
from repro.patterns import (
    Pattern,
    automorphisms,
    canonical_assignment,
    canonical_assignment_oracle,
    clique,
    conditions_by_position,
    cycle,
    path,
    plan_for,
    quasi_clique_patterns,
    quasi_clique_patterns_up_to,
    star,
    symmetry_conditions,
    tailed_triangle,
    triangle,
)
from repro.patterns.symmetry import satisfies_conditions

from conftest import connected_pattern_strategy


class TestAutomorphisms:
    def test_triangle_full_symmetry(self):
        assert len(automorphisms(triangle())) == 6

    def test_clique(self):
        assert len(automorphisms(clique(4))) == 24

    def test_path_reflection(self):
        assert len(automorphisms(path(2))) == 2

    def test_tailed_triangle(self):
        # Only the two roof corners (0 and 1) swap.
        assert len(automorphisms(tailed_triangle())) == 2

    def test_cycle(self):
        # Dihedral group: 2n automorphisms.
        assert len(automorphisms(cycle(5))) == 10

    def test_labels_restrict_automorphisms(self):
        labeled = triangle().with_labels([1, 1, 2])
        assert len(automorphisms(labeled)) == 2

    def test_identity_always_present(self):
        for p in (triangle(), path(3), star(3)):
            assert tuple(range(p.num_vertices)) in automorphisms(p)


class TestConditions:
    def test_triangle_conditions_total_order(self):
        assert symmetry_conditions(triangle()) == [(0, 1), (0, 2), (1, 2)]

    def test_asymmetric_pattern_no_conditions(self):
        asymmetric = Pattern(
            6,
            [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5), (1, 3)],
        )
        if len(automorphisms(asymmetric)) == 1:
            assert symmetry_conditions(asymmetric) == []

    def test_satisfies_conditions(self):
        conditions = [(0, 1)]
        assert satisfies_conditions([2, 5], conditions)
        assert not satisfies_conditions([5, 2], conditions)

    def test_conditions_by_position_direction(self):
        # order reverses vertices: condition (0, 1) with order (1, 0):
        # vertex 1 is bound first (position 0), vertex 0 second.
        keyed = conditions_by_position([(0, 1)], order=(1, 0))
        # when binding position 1 (= vertex 0) it must be LESS than pos 0
        assert keyed == {1: [(0, False)]}

    def _assert_exactly_one_representative(self, pattern):
        """Core uniqueness property on concrete assignments."""
        conditions = symmetry_conditions(pattern)
        auts = automorphisms(pattern)
        k = pattern.num_vertices
        assignment = list(range(10, 10 + k))
        images = {
            tuple(assignment[sigma[v]] for v in range(k)) for sigma in auts
        }
        satisfying = [a for a in images if satisfies_conditions(a, conditions)]
        assert len(satisfying) == 1

    def test_exactly_one_representative_library(self):
        for p in (triangle(), clique(4), path(3), star(3), cycle(4),
                  tailed_triangle(), cycle(6), clique(5)):
            self._assert_exactly_one_representative(p)

    @given(connected_pattern_strategy(max_vertices=5))
    @settings(max_examples=60, deadline=None)
    def test_exactly_one_representative_property(self, p):
        self._assert_exactly_one_representative(p)

    @given(connected_pattern_strategy(max_vertices=5))
    @settings(max_examples=40, deadline=None)
    def test_representative_is_reachable_from_any_image(self, p):
        """Every automorphic image class has a satisfying member."""
        conditions = symmetry_conditions(p)
        auts = automorphisms(p)
        k = p.num_vertices
        for base in itertools.islice(
            itertools.permutations(range(20, 20 + k)), 10
        ):
            images = {
                tuple(base[sigma[v]] for v in range(k)) for sigma in auts
            }
            assert sum(
                1 for a in images if satisfies_conditions(a, conditions)
            ) == 1


class TestPlanConditions:
    """The conditions the engine's own plans carry keep exactly one
    assignment per match orbit: k!/|Aut(P)| of the k! permutations of
    distinct ids (more would duplicate matches, fewer lose them)."""

    @pytest.mark.parametrize("induced", [False, True])
    def test_plan_keeps_one_assignment_per_orbit(self, induced):
        shipped = list(library_patterns())
        for group in quasi_clique_patterns_up_to(6, 0.6).values():
            shipped.extend(group)
        assert len(shipped) > 26
        for pattern in shipped:
            k = pattern.num_vertices
            conditions = plan_for(pattern, induced).conditions
            kept = sum(
                1
                for assignment in itertools.permutations(range(k))
                if satisfies_conditions(assignment, conditions)
            )
            expected = math.factorial(k) // len(automorphisms(pattern))
            assert kept == expected, pattern


def _pattern_library():
    """Every shape the engine canonicalises, plus the awkward groups."""
    patterns = [
        triangle(), tailed_triangle(), clique(4), clique(5), path(3),
        star(3), cycle(4), cycle(5), cycle(6),
        triangle().with_labels([1, 1, 2]),
        triangle().with_labels([1, 2, 3]),  # trivial group
        clique(4).with_labels([1, 1, 2, 2]),
        cycle(6).with_labels([1, 2, 1, 2, 1, 2]),
        # Anti-edges are structure: they shrink the group.
        path(3).with_anti_edges([(0, 3)]),
        cycle(5).with_anti_edges([(0, 2)]),
        star(3).with_anti_edges([(1, 2)]),
    ]
    for gamma in (0.5, 0.6, 0.8):
        for size in range(3, 7):
            patterns.extend(quasi_clique_patterns(size, gamma))
    return patterns


class TestCanonicalAssignment:
    """The engine's compiled form against the brute-force oracle."""

    def test_minimal_image(self):
        # triangle: all 6 permutations are automorphic; min is sorted.
        for canonical in (canonical_assignment, canonical_assignment_oracle):
            assert canonical([5, 3, 4], triangle()) == (3, 4, 5)

    def test_respects_structure(self):
        p = tailed_triangle()  # only 0<->1 swap allowed
        for canonical in (canonical_assignment, canonical_assignment_oracle):
            assert canonical([7, 2, 5, 9], p) == (2, 7, 5, 9)

    def test_idempotent(self):
        p = clique(4)
        for canonical in (canonical_assignment, canonical_assignment_oracle):
            once = canonical([4, 2, 8, 6], p)
            assert canonical(once, p) == once

    def test_every_compiled_form_is_exercised(self):
        """The library reaches the trivial, symmetric and trie branches."""
        sizes = {
            (len(automorphisms(p)), p.num_vertices) for p in _pattern_library()
        }
        assert any(order == 1 for order, _ in sizes)
        assert (24, 4) in sizes  # K4: full symmetric group
        assert any(1 < order < 120 for order, n in sizes if n == 5)

    def test_compiled_equals_oracle_on_library(self):
        rng = random.Random(17)
        for p in _pattern_library():
            for _ in range(40):
                a = rng.sample(range(60), p.num_vertices)
                assert canonical_assignment(a, p) == (
                    canonical_assignment_oracle(a, p)
                ), (p, a)

    def test_conditions_hold_iff_fixed_point(self):
        """What lets the engine skip canonicalising ETask matches."""
        rng = random.Random(23)
        for p in _pattern_library():
            conditions = symmetry_conditions(p)
            k = p.num_vertices
            samples = [rng.sample(range(60), k) for _ in range(40)]
            samples.append(sorted(samples[0]))  # satisfies any conditions
            for a in samples:
                assert satisfies_conditions(a, conditions) == (
                    canonical_assignment_oracle(a, p) == tuple(a)
                ), (p, a)

    @given(connected_pattern_strategy(max_vertices=6))
    @settings(max_examples=60, deadline=None)
    def test_compiled_equals_oracle_property(self, p):
        rng = random.Random(p.num_edges)
        for _ in range(10):
            a = rng.sample(range(40), p.num_vertices)
            assert canonical_assignment(a, p) == (
                canonical_assignment_oracle(a, p)
            )
