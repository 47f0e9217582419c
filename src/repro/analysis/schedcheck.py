"""Scheduler feasibility checks (CG5xx).

A query can name an execution-core scheduler (``Query.scheduler()``,
``repro mqc --scheduler ...``, ``repro analyze --scheduler ...``).
Most of the constraint machinery is scheduler-agnostic — ETasks,
VTasks, and lateral chains all run within one root's validation — but
two Contigra mechanisms are *engine-global* and a sharded scheduler
cannot honor them across workers:

* the **promotion registry**: a promoted completion found in one shard
  is invisible to the others, so promotion-eligible workloads keep
  per-worker registries (match sets are unaffected, counters diverge);
* the **cancellation token**: process workers receive fresh contexts,
  so a run-level cancel (or a lateral signal raised in another shard)
  never interrupts a worker mid-shard.

These checks surface both before a run, alongside two plain
configuration errors (unknown scheduler name, workloads whose pipeline
ignores the scheduler entirely).  A parallel scheduler given one
worker runs the serial path, so it draws the serial report.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.constraints import ConstraintSet, ContainmentConstraint
from ..exec.scheduler import SCHEDULER_NAMES
from .diagnostics import AnalysisReport, make

#: schedulers that split roots across workers with per-worker state
SHARDED_SCHEDULERS = ("process", "workqueue")

#: schedulers whose workers live in separate processes (no shared token)
PROCESS_SCHEDULERS = ("process",)


def promotable_constraints(
    constraint_set: ConstraintSet,
) -> List[ContainmentConstraint]:
    """Constraints whose containing pattern is itself mined.

    These are exactly the constraints promotion (§5.4) accelerates: a
    VTask completion of ``p_plus`` doubles as a found match of a
    workload pattern and seeds the shared registry.
    """
    mined = {p.structure_key() for p in constraint_set.patterns}
    return [
        c
        for c in constraint_set.all_constraints
        if c.p_plus.structure_key() in mined
    ]


def check_scheduler(
    name: str,
    n_workers: int = 2,
    constraint_set: Optional[ConstraintSet] = None,
    workload: Optional[str] = None,
) -> AnalysisReport:
    """Can ``name`` honor this workload's constraint machinery?

    ``constraint_set`` enables the promotion-eligibility check
    (CG502); ``workload`` names an app whose pipeline may not accept a
    scheduler at all (currently ``"kws"`` → CG505).
    """
    report = AnalysisReport()
    if name not in SCHEDULER_NAMES:
        report.add(
            make(
                "CG501",
                f"unknown scheduler {name!r}; choose from "
                f"{', '.join(SCHEDULER_NAMES)}",
                subject="scheduler",
            )
        )
        return report
    if workload == "kws":
        report.add(
            make(
                "CG505",
                "keyword search runs the §7 state-space pipeline "
                "(skip/eager buckets over its own ETask sweep) and "
                f"does not accept a scheduler; {name!r} is ignored",
                subject="workload",
            )
        )
        return report
    if name == "serial" or n_workers == 1:
        # One worker runs the serial path (``_ParallelScheduler.run``).
        return report
    if name in PROCESS_SCHEDULERS:
        report.add(
            make(
                "CG503",
                "process workers receive fresh task contexts; a "
                "run-level token cancel or a lateral signal in "
                "another shard cannot interrupt them mid-shard "
                "(the workqueue scheduler shares one token)",
                subject="scheduler",
            )
        )
    if constraint_set is not None and name in SHARDED_SCHEDULERS:
        promotable = promotable_constraints(constraint_set)
        if promotable:
            repeat = (
                "they repeat from run to run, as its round-robin "
                "shards are fixed"
                if name == "process"
                else "they also vary from run to run, as stealing "
                "order decides what each worker's registry sees"
            )
            report.add(
                make(
                    "CG502",
                    f"{len(promotable)} promotion-eligible "
                    f"constraint(s) under the sharded {name!r} "
                    "scheduler use per-worker promotion registries; "
                    "promotion/cancellation counters will differ "
                    "from a serial run (valid matches will not); "
                    f"{repeat}",
                    subject="scheduler",
                )
            )
    return report
