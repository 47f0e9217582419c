"""Lateral dependencies across VTasks (paper §6).

All VTasks spawned by one matching RL-Path validate constraints on the
same subgraph ``S``; if any one matches, ``S`` is invalid and the rest
are pointless.  Contigra therefore imposes lateral dependencies that
serialize the VTasks and cancels the tail as soon as one matches.
Ordering uses the Fig 9 heuristics *inverted* — most-likely-to-match
first — because here a match is the cheap exit, not the expensive one.

The chain is one loop: the first matching VTask ends it, and the
VTasks it never reached are the canceled ones.  Before each VTask the
loop also checks the caller's cancellation token, so a parent
cancellation (deadline, aborted ETask) stops the pending VTasks too.
Either way the skipped VTasks are counted on the caller's stats
(``vtasks_canceled_lateral``, Fig 14), and an observed context gets a
``cancel`` event with ``kind="lateral"`` for the same count.

Serial execution is deliberately not a scalability concern: ETasks
provide the parallelism; serializing a single ETask's validations just
avoids the synchronization a concurrent-VTask design would need.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..exec.context import TaskContext
from ..exec.events import CANCEL
from ..graph.graph import Graph
from ..mining.cache import SetOperationCache
from ..mining.stats import ConstraintStats
from .ordering import order_validation_targets
from .vtask import ValidationTarget


class LateralScheduler:
    """Serial VTask executor with cancellation for one target pattern."""

    def __init__(
        self,
        targets: Sequence[ValidationTarget],
        graph: Graph,
        strategy: str = "heuristic",
        enable_cancellation: bool = True,
    ) -> None:
        self.enable_cancellation = enable_cancellation
        self.targets: List[ValidationTarget] = order_validation_targets(
            list(targets),
            density_of=lambda t: t.p_plus.density,
            strategy=strategy,
            target_patterns=[t.p_plus for t in targets],
            graph=graph,
        )

    def validate(
        self,
        assignment: Sequence[int],
        graph: Graph,
        cache: SetOperationCache,
        stats: ConstraintStats,
        ctx: Optional[TaskContext] = None,
    ) -> Optional[Tuple[ValidationTarget, Tuple[int, ...]]]:
        """Run VTasks serially; return the first containing match found.

        Returns ``(target, completion)`` when some VTask matched (the
        subgraph violates its constraints) or None when every VTask
        exhausted (the subgraph is valid) — or when ``ctx`` was
        cancelled first, which is no verdict: the caller checks the
        token before it trusts a None.  With cancellation enabled,
        a match ends the chain and the remaining VTasks are counted as
        canceled (Fig 14); with it disabled every VTask runs — the
        result is identical, only the work differs, which is exactly
        the ablation the paper plots.
        """
        violation: Optional[Tuple[ValidationTarget, Tuple[int, ...]]] = None
        for index, target in enumerate(self.targets):
            if ctx is not None and ctx.cancelled:
                remaining = len(self.targets) - index
                self._count_canceled(remaining, stats, ctx)
                break
            completion = target.run(assignment, graph, cache, stats, ctx=ctx)
            if completion is not None:
                violation = (target, completion)
                if self.enable_cancellation:
                    remaining = len(self.targets) - index - 1
                    self._count_canceled(remaining, stats, ctx)
                    break
        return violation

    def _count_canceled(
        self,
        remaining: int,
        stats: ConstraintStats,
        ctx: Optional[TaskContext],
    ) -> None:
        if remaining <= 0:
            return
        stats.vtasks_canceled_lateral += remaining
        if ctx is not None and ctx.observed:
            ctx.emit(CANCEL, kind="lateral", count=remaining)

    def __len__(self) -> int:
        return len(self.targets)
