"""Library-wide self-check: analyze every shipped pattern and workload.

This is the analysis gate CI runs: the pattern library, the canonical
MQC / NSQ / KWS workload constructions, and the query shapes used by
the examples must all analyze with **zero error-severity diagnostics**.
Warnings and infos are expected (e.g. KWS legitimately produces SKIP
buckets — that is the paper's §7 win, not a bug) and do not fail the
gate.
"""

from __future__ import annotations

from typing import Callable, FrozenSet, List

from ..apps.nsq import paper_query_tailed_triangles, paper_query_triangles
from ..core.constraints import maximality_constraints, minimality_constraints
from ..patterns.library import (
    clique,
    cycle,
    diamond,
    diamond_house,
    edge,
    house,
    path,
    star,
    tailed_triangle,
    triangle,
    wheel,
)
from ..patterns.pattern import Pattern
from ..patterns.quasicliques import quasi_clique_patterns_up_to
from .analyzer import (
    AnalysisReport,
    analyze_constraint_set,
    analyze_patterns,
    analyze_query_spec,
)


def library_patterns() -> List[Pattern]:
    """Every named pattern the library ships (parametrics sampled)."""
    patterns: List[Pattern] = [
        edge(),
        triangle(),
        tailed_triangle(),
        diamond(),
        house(),
        diamond_house(),
    ]
    patterns.extend(path(length) for length in (1, 2, 3))
    patterns.extend(cycle(size) for size in (3, 4, 5))
    patterns.extend(clique(size) for size in (2, 3, 4, 5))
    patterns.extend(star(leaves) for leaves in (1, 2, 3, 4))
    patterns.extend(wheel(rim) for rim in (3, 4, 5))
    return patterns


def _kws_cover_predicate(
    keywords: FrozenSet[int],
) -> Callable[[Pattern], bool]:
    def covers(pattern: Pattern) -> bool:
        definite = {lab for lab in pattern.labels if lab is not None}
        return keywords <= definite

    return covers


def selfcheck(max_size: int = 4, gamma: float = 0.8) -> AnalysisReport:
    """Analyze the shipped pattern library and canonical workloads."""
    report = AnalysisReport()

    # 1. Every library pattern lints cleanly.
    report.merge(analyze_patterns(library_patterns(), induced=False))
    report.merge(analyze_patterns(library_patterns(), induced=True))

    # 2. MQC: the full maximality closure (paper §2.2).
    report.merge(
        analyze_constraint_set(
            maximality_constraints(
                quasi_clique_patterns_up_to(max_size, gamma, min_size=3),
                induced=True,
            )
        )
    )

    # 3. NSQ: both paper queries, as the Query builder would run them.
    for build in (paper_query_triangles, paper_query_tailed_triangles):
        p_m, p_plus_list = build()
        report.merge(
            analyze_query_spec(p_m, not_within=p_plus_list, induced=False)
        )

    # 4. KWS-style minimality (predecessor) workload over two keywords.
    keywords = frozenset({0, 1})
    from ..apps.kws import keyword_patterns

    kws_patterns = keyword_patterns(sorted(keywords), 3)
    report.merge(
        analyze_constraint_set(
            minimality_constraints(
                kws_patterns,
                _kws_cover_predicate(keywords),
                induced=True,
            )
        )
    )

    # 5. The quickstart / example query shapes.
    report.merge(
        analyze_query_spec(triangle(), not_within=[house()], induced=False)
    )
    report.merge(
        analyze_query_spec(
            diamond(), not_within=[diamond_house()], induced=False
        )
    )
    return report
