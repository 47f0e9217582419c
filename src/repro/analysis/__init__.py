"""Static query analysis: pre-execution linting and plan verification.

Inspects a containment query (patterns plus constraints) **before**
any exploration and emits typed, coded diagnostics (``CGxxx``).  Four
passes: pattern/DSL lint, constraint satisfiability, dependency-graph
structure, and exploration-plan verification.  Surfaced through the
``repro analyze`` CLI subcommand, ``Query(...).strict()``, and the
library self-check used as the CI analysis gate.

See ``docs/analysis.md`` for the diagnostic-code reference.
"""

from .costmodel import (
    AdmissionDecision,
    PlanEstimate,
    StepEstimate,
    WorkloadEstimate,
    admit_query,
    check_estimate,
    estimate_constraint_set,
    estimate_query_spec,
)
from .analyzer import (
    analyze_constraint_set,
    analyze_kws_workload,
    analyze_patterns,
    analyze_query_spec,
)
from .depgraph import check_dependency_graph
from .diagnostics import (
    CODES,
    ERROR,
    INFO,
    WARNING,
    AnalysisReport,
    Diagnostic,
)
from .lint import lint_pattern, lint_pattern_text
from .plancheck import (
    check_alignment_feasibility,
    check_constraint_alignments,
    check_plans,
)
from .schedcheck import check_scheduler
from .satisfiability import (
    check_duplicate_constraints,
    check_predecessor_buckets,
    check_query_satisfiability,
)
from .selfcheck import library_patterns, selfcheck

__all__ = [
    "AnalysisReport",
    "Diagnostic",
    "CODES",
    "ERROR",
    "WARNING",
    "INFO",
    "analyze_patterns",
    "analyze_query_spec",
    "analyze_constraint_set",
    "analyze_kws_workload",
    "lint_pattern",
    "lint_pattern_text",
    "check_query_satisfiability",
    "check_duplicate_constraints",
    "check_predecessor_buckets",
    "check_dependency_graph",
    "check_plans",
    "check_alignment_feasibility",
    "check_constraint_alignments",
    "check_scheduler",
    "library_patterns",
    "selfcheck",
    "StepEstimate",
    "PlanEstimate",
    "WorkloadEstimate",
    "estimate_constraint_set",
    "estimate_query_spec",
    "check_estimate",
    "AdmissionDecision",
    "admit_query",
]
