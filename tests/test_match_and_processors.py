"""Tests for Match objects and match processors."""

import pytest

from repro.graph import erdos_renyi
from repro.mining import (
    CallbackProcessor,
    CollectProcessor,
    CountProcessor,
    FirstMatchProcessor,
    Match,
    MiningEngine,
)
from repro.patterns import path, triangle


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


class TestProcessors:
    def _matches(self):
        g = erdos_renyi(12, 0.5, seed=0)
        return MiningEngine(g).find_all(triangle())

    def test_count(self):
        p = CountProcessor()
        for m in self._matches():
            p.process(m)
        assert p.result() == len(self._matches())

    def test_collect_unbounded(self):
        p = CollectProcessor()
        matches = self._matches()
        for m in matches:
            assert not p.process(m)
        assert p.result() == matches

    def test_collect_limit(self):
        p = CollectProcessor(limit=2)
        matches = self._matches()
        assert not p.process(matches[0])
        assert p.process(matches[1])  # stop signal at the limit

    def test_first_match(self):
        p = FirstMatchProcessor()
        matches = self._matches()
        assert p.process(matches[0])
        assert p.result() == matches[0]

    def test_callback_stop_propagation(self):
        calls = []

        def cb(match):
            calls.append(match)
            return len(calls) == 2

        p = CallbackProcessor(cb)
        matches = self._matches()
        assert not p.process(matches[0])
        assert p.process(matches[1])
        assert p.calls == 2

    def test_base_processor_abstract(self):
        from repro.mining.processors import Processor

        with pytest.raises(NotImplementedError):
            Processor().process(Match(path(1), [0, 1]))
        with pytest.raises(NotImplementedError):
            Processor().result()
