"""Tests for Match objects (the engine's stream consumers are tested in
``test_mining_engine.py``)."""

import pytest

from repro.mining import Match
from repro.patterns import triangle


class TestMatch:
    def test_accessors(self):
        m = Match(triangle(), [5, 7, 9])
        assert m.vertex_for(1) == 7
        assert m.vertex_set == frozenset({5, 7, 9})
        assert m.key() == m.vertex_set

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Match(triangle(), [1, 2])

    def test_non_injective_rejected(self):
        with pytest.raises(ValueError):
            Match(triangle(), [1, 2, 1])

    def test_equality_and_hash(self):
        a = Match(triangle(), [1, 2, 3])
        b = Match(triangle(), [1, 2, 3])
        c = Match(triangle(), [3, 2, 1])
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_repr_uses_pattern_name(self):
        assert "triangle" in repr(Match(triangle(), [0, 1, 2]))
