"""TThinker-style maximal quasi-clique solver with budget simulation.

TThinker [31] extends the Quick algorithm [33]: prune sparse regions
of the graph with degree/core bounds, enumerate candidate quasi-cliques
recursively, buffer *potentially maximal* candidates, and eliminate
non-maximal ones in a post-processing pass.  Its failure modes in the
paper (Table 3) come from that buffering: on MiCo it spilled 208 GB of
exploration tasks to disk (OOS), on Patents/Youtube/Products it
exhausted 64 GB of RAM (OOM).

We cannot run the closed-source original, so this module implements
the algorithmic skeleton faithfully — k-core pruning, set-enumeration
with degree-feasibility bounds, candidate buffering, post-hoc
maximality — and **simulates the budgets** in
:class:`TThinkerAccounting`: every buffered candidate and every live
recursion state is charged as resident memory, every enqueued task
state as cumulative storage, raising
:class:`~repro.errors.MemoryBudgetExceeded` /
:class:`~repro.errors.StorageBudgetExceeded` exactly where the real
system dies.  The byte budgets are TThinker's alone (the Contigra
engine is bounded by wall clock only); the wall-clock deadline is the
shared :class:`repro.exec.context.Budget` check every other engine
uses.  DESIGN.md documents this substitution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Set

from ..errors import MemoryBudgetExceeded, StorageBudgetExceeded
from ..exec.context import Budget
from ..graph.algorithms import k_core
from ..graph.graph import Graph
from ..patterns.quasicliques import quasi_clique_min_degree

# Byte model: a buffered candidate is its vertex array plus container
# overhead; a task state is the current set plus its candidate list.
_CANDIDATE_OVERHEAD = 48
_TASK_OVERHEAD = 64
_BYTES_PER_VERTEX = 8


@dataclass
class TThinkerConfig:
    """Budgets for the simulated TThinker run.

    The defaults are scaled to our synthetic datasets the way 64 GB
    RAM and a few-hundred-GB disk relate to the paper's graphs; the
    benchmark harness overrides them per experiment.
    """

    memory_budget_bytes: int = 32 * 1024 * 1024
    storage_budget_bytes: int = 128 * 1024 * 1024
    time_limit: Optional[float] = None

    def budget(self) -> Budget:
        """The exec-core deadline enforcing this config's time limit.

        ``check_interval=1``: the simulation's recursion states are
        orders of magnitude coarser than ETask descents, so the
        per-call clock read is cheap and keeps sub-millisecond test
        deadlines firing on tiny graphs.
        """
        return Budget(time_limit=self.time_limit, check_interval=1)


@dataclass
class TThinkerAccounting:
    """The simulated RAM and disk of one run, checked against a config.

    The model mirrors how the real system dies in the paper: RAM holds
    the *live* recursion states plus the buffered candidates (hubs with
    huge candidate sets spike live bytes — the Patents/Youtube/Products
    OOMs), while the spilled task buffer accumulates on disk (millions
    of small tasks — the MiCo OOS).  Memory in use is
    ``candidate_bytes + live_bytes``; storage in use is ``task_bytes``.
    """

    candidate_bytes: int = 0
    task_bytes: int = 0
    live_bytes: int = 0
    peak_memory_bytes: int = 0
    candidates_buffered: int = 0
    tasks_created: int = 0

    def charge_candidate(self, size: int, config: TThinkerConfig) -> None:
        self.candidates_buffered += 1
        # One-way: buffered until post-processing.
        self.candidate_bytes += _CANDIDATE_OVERHEAD + _BYTES_PER_VERTEX * size
        self._check_memory(config)

    def enter_task(self, state_size: int, config: TThinkerConfig) -> int:
        """Charge one recursion state; returns its bytes for release."""
        self.tasks_created += 1
        bytes_used = _TASK_OVERHEAD + _BYTES_PER_VERTEX * state_size
        self.task_bytes += bytes_used
        self.live_bytes += bytes_used
        if self.task_bytes > config.storage_budget_bytes:
            raise StorageBudgetExceeded(
                config.storage_budget_bytes, self.task_bytes
            )
        self._check_memory(config)
        return bytes_used

    def exit_task(self, bytes_used: int) -> None:
        self.live_bytes -= bytes_used

    def _check_memory(self, config: TThinkerConfig) -> None:
        """Raise OOM past the budget, else track the peak."""
        used = self.candidate_bytes + self.live_bytes
        if used > config.memory_budget_bytes:
            raise MemoryBudgetExceeded(config.memory_budget_bytes, used)
        self.peak_memory_bytes = max(self.peak_memory_bytes, used)


@dataclass
class TThinkerResult:
    """Outcome of a simulated TThinker run."""

    maximal: Set[FrozenSet[int]] = field(default_factory=set)
    accounting: TThinkerAccounting = field(default_factory=TThinkerAccounting)
    elapsed: float = 0.0
    candidates_examined: int = 0

    @property
    def count(self) -> int:
        return len(self.maximal)


def tthinker_mqc(
    graph: Graph,
    gamma: float,
    max_size: int,
    min_size: int = 3,
    config: Optional[TThinkerConfig] = None,
) -> TThinkerResult:
    """Run the simulated TThinker on an MQC workload.

    Raises ``TimeLimitExceeded`` / ``MemoryBudgetExceeded`` /
    ``StorageBudgetExceeded`` on budget violations (the harness maps
    those to the paper's TLE / OOM / OOS cells).
    """
    if gamma < 0.5:
        raise ValueError(
            "the Quick/TThinker pruning rules assume gamma >= 0.5 "
            "(diameter-2 property of quasi-cliques)"
        )
    config = config or TThinkerConfig()
    budget = config.budget()
    result = TThinkerResult()
    accounting = result.accounting

    # Phase 0 — Quick-style pruning: vertices outside the
    # ceil(gamma (min_size - 1))-core can't join any mined quasi-clique.
    threshold = quasi_clique_min_degree(min_size, gamma)
    alive = k_core(graph, threshold)

    # Phase 1 — recursive candidate enumeration.  Every enumerated
    # quasi-clique is buffered as "potentially maximal" (TThinker only
    # decides maximality in post-processing); every recursion state is
    # charged as a task (the on-disk task buffer of the real system).
    buffered: List[FrozenSet[int]] = []

    def degrees_within(members: Set[int]) -> List[int]:
        return [
            sum(1 for w in graph.neighbors(v) if w in members)
            for v in members
        ]

    def feasible(members: Set[int], candidates: Set[int]) -> bool:
        # A member whose degree cannot reach the requirement even if
        # every remaining candidate attached to it kills the branch.
        size = len(members)
        for v in members:
            inside = sum(1 for w in graph.neighbors(v) if w in members)
            reachable = sum(
                1 for w in graph.neighbors(v) if w in candidates
            )
            possible = False
            for target in range(size, max_size + 1):
                need = quasi_clique_min_degree(target, gamma)
                gain = min(target - size, reachable)
                if inside + gain >= need:
                    possible = True
                    break
            if not possible:
                return False
        return True

    def within_two_hops(w: int, v: int) -> bool:
        return graph.has_edge(w, v) or bool(
            graph.neighbor_set(w) & graph.neighbor_set(v)
        )

    # Members are grown in ascending vertex order (each set enumerated
    # exactly once); candidates are vertices above the newest member
    # within distance 2 of every current member — a necessary condition
    # for any gamma >= 0.5 quasi-clique superset, so nothing is lost.
    def expand(members: Set[int], candidates: Set[int]) -> None:
        budget.check_deadline()
        state_bytes = accounting.enter_task(
            len(members) + len(candidates), config
        )
        try:
            _expand_body(members, candidates)
        finally:
            accounting.exit_task(state_bytes)

    def _expand_body(members: Set[int], candidates: Set[int]) -> None:
        size = len(members)
        if size >= min_size:
            degrees = degrees_within(members)
            if min(degrees) >= quasi_clique_min_degree(size, gamma):
                if graph.is_connected_subset(sorted(members)):
                    buffered.append(frozenset(members))
                    accounting.charge_candidate(size, config)
        if size == max_size:
            return
        for v in sorted(candidates):
            new_members = members | {v}
            new_candidates = {
                w
                for w in candidates
                if w > v and within_two_hops(w, v)
            }
            if feasible(new_members, new_candidates):
                expand(new_members, new_candidates)

    for root in sorted(alive):
        initial = {
            w
            for w in alive
            if w > root and within_two_hops(w, root)
        }
        expand({root}, initial)

    # Phase 2 — post-processing: eliminate candidates contained in a
    # larger buffered candidate.  This is the phase the paper observes
    # dominating TThinker's runtime on the graphs it finishes.
    by_size: dict = {}
    for candidate in buffered:
        by_size.setdefault(len(candidate), set()).add(candidate)
    sizes = sorted(by_size, reverse=True)
    for size_index, size in enumerate(sizes):
        larger_sizes = sizes[:size_index]
        for candidate in by_size[size]:
            budget.check_deadline()
            result.candidates_examined += 1
            contained = any(
                candidate < other
                for bigger in larger_sizes
                for other in by_size[bigger]
            )
            if not contained:
                result.maximal.add(candidate)
    result.elapsed = budget.elapsed()
    return result
