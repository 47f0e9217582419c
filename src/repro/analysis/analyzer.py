"""Analyzer entry points: queries, constraint sets, pattern batches.

Everything here is pattern-level and graph-free — the same
precomputation tier the paper reports at 0.1s–2s (§8.1) — so a bad
query is rejected in milliseconds instead of burning a mining run.
"""

from __future__ import annotations

from typing import List, Sequence

from ..core.constraints import ConstraintSet
from ..patterns.pattern import Pattern
from .depgraph import check_dependency_graph
from .diagnostics import AnalysisReport, make
from .lint import lint_pattern, subject_name
from .satisfiability import (
    check_duplicate_constraints,
    check_predecessor_buckets,
    check_query_satisfiability,
)


def analyze_patterns(
    patterns: Sequence[Pattern], induced: bool = False
) -> AnalysisReport:
    """Lint a batch of patterns."""
    report = AnalysisReport()
    for pattern in patterns:
        report.extend(lint_pattern(pattern, induced=induced))
    return report


def analyze_constraint_set(
    constraint_set: ConstraintSet,
) -> AnalysisReport:
    """All passes over an already-constructed constraint set."""
    report = AnalysisReport()
    linted: set = set()
    involved: List[Pattern] = list(constraint_set.patterns)
    for constraint in constraint_set.all_constraints:
        involved.append(constraint.p_plus)
    for pattern in involved:
        key = pattern.structure_key()
        if key in linted:
            continue
        linted.add(key)
        report.extend(
            lint_pattern(pattern, induced=constraint_set.induced)
        )
    report.extend(check_duplicate_constraints(constraint_set))
    report.extend(check_predecessor_buckets(constraint_set))
    report.extend(check_dependency_graph(constraint_set))
    return report


def analyze_query_spec(
    target: Pattern,
    not_within: Sequence[Pattern] = (),
    only_within: Sequence[Pattern] = (),
    induced: bool = False,
) -> AnalysisReport:
    """Analyze a fluent-query spec before any constraint is built.

    Unlike :class:`~repro.core.constraints.ContainmentConstraint`,
    which raises bare ``ValueError`` on a bad pair, this produces the
    full set of coded diagnostics — including problems past the first.
    The constraint-set passes have nothing to add here: a spec's
    duplicates are its own CG105, and its one target with strictly
    larger containing patterns has no dead pattern and no cycle.
    """
    report = AnalysisReport()
    report.extend(lint_pattern(target, induced=induced))
    for containing in list(not_within) + list(only_within):
        report.extend(lint_pattern(containing, induced=induced))
    report.extend(
        check_query_satisfiability(target, not_within, only_within, induced)
    )
    return report


def analyze_kws_workload(
    keywords: Sequence[int], max_size: int
) -> AnalysisReport:
    """Bucket a keyword-search workload exactly as §7 would (CG2xx).

    Uses the paper's keyword-cover state-space classification from
    :mod:`repro.core.statespace` over the full labeled pattern
    workload: SKIP patterns get CG201, EAGER patterns CG203, and an
    all-SKIP workload (a query that statically returns nothing) CG202.
    """
    from ..apps.kws import keyword_patterns
    from ..core.statespace import EAGER, SKIP, classify_all

    patterns = keyword_patterns(list(keywords), max_size)
    buckets = classify_all(patterns, keywords)
    report = AnalysisReport()
    report.merge(analyze_patterns(patterns, induced=True))
    for pattern in buckets[SKIP]:
        report.add(
            make(
                "CG201",
                f"every match of {subject_name(pattern)} contains a "
                "smaller keyword cover; its ETasks are never "
                "scheduled (SKIP bucket)",
                subject=subject_name(pattern),
            )
        )
    for pattern in buckets[EAGER]:
        wildcards = sum(1 for lab in pattern.labels if lab is None)
        report.add(
            make(
                "CG203",
                f"{subject_name(pattern)} lands in the EAGER bucket: "
                f"{wildcards} wildcard label position(s) can complete "
                "a keyword cover depending on data labels",
                subject=subject_name(pattern),
            )
        )
    if patterns and len(buckets[SKIP]) == len(patterns):
        report.add(
            make(
                "CG202",
                f"all {len(patterns)} keyword-search pattern(s) are "
                "in the SKIP bucket; the query cannot return any "
                "minimal cover",
                subject="workload",
            )
        )
    return report
