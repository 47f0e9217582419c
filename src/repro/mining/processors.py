"""Match-processing phase (paper §2.3).

Each explored match is handed to a processor: built-in counting or
collection, or a user-defined callback (how the Peregrine+ baseline
implements constraint checking, §8.2).  A processor's ``process``
returns True to stop the whole exploration early — used for
existence-style queries.

Processors are stream consumers: :meth:`Processor.consume` drains a
match generator (:meth:`repro.mining.engine.MiningEngine.stream`) and
stops pulling — which closes the generator and genuinely halts the
DFS — the moment ``process`` signals a stop.  ``FirstMatchProcessor``
and a bounded ``CollectProcessor`` therefore end exploration instead
of merely ignoring further matches.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional

from .match import Match


class Processor:
    """Interface for match processing."""

    def process(self, match: Match) -> bool:
        """Handle one match; return True to stop exploration."""
        raise NotImplementedError

    def result(self):
        """Final value once exploration completes."""
        raise NotImplementedError

    def consume(self, stream: Iterable[Match]) -> bool:
        """Drain a match stream until it ends or ``process`` stops it.

        Returns True when the stream was stopped early.  Breaking out
        of the loop closes a generator-backed stream, unwinding the
        exploration DFS — early-exit stops the actual work.
        """
        for match in stream:
            if self.process(match):
                return True
        return False


class CountProcessor(Processor):
    """Counts matches, optionally per pattern."""

    def __init__(self) -> None:
        self.total = 0
        self.per_pattern: Dict[str, int] = {}

    def process(self, match: Match) -> bool:
        self.total += 1
        name = match.pattern.name or repr(match.pattern)
        self.per_pattern[name] = self.per_pattern.get(name, 0) + 1
        return False

    def result(self) -> int:
        return self.total


class CollectProcessor(Processor):
    """Collects all matches (bounded to protect against blowups)."""

    def __init__(self, limit: Optional[int] = None) -> None:
        self.matches: List[Match] = []
        self._limit = limit

    def process(self, match: Match) -> bool:
        self.matches.append(match)
        return self._limit is not None and len(self.matches) >= self._limit

    def result(self) -> List[Match]:
        return self.matches


class FirstMatchProcessor(Processor):
    """Stops at the first match (existence query)."""

    def __init__(self) -> None:
        self.match: Optional[Match] = None

    def process(self, match: Match) -> bool:
        self.match = match
        return True

    def result(self) -> Optional[Match]:
        return self.match


class CallbackProcessor(Processor):
    """Wraps a user-defined function ``f(match) -> stop_flag | None``."""

    def __init__(self, callback: Callable[[Match], Optional[bool]]) -> None:
        self._callback = callback
        self.calls = 0

    def process(self, match: Match) -> bool:
        self.calls += 1
        return bool(self._callback(match))

    def result(self) -> int:
        return self.calls
