"""Static query analysis: pre-execution linting of user input.

Inspects a containment query (patterns plus constraints) **before**
any exploration and emits typed, coded diagnostics (``CGxxx``).  Three
passes: pattern/DSL lint, constraint satisfiability, and
dependency-graph structure.  Every code answers to something a user
can write; facts about the engine's own plans are tests, not codes.
Surfaced through the ``repro analyze`` CLI subcommand,
``Query(...).strict()``, and the library self-check used as the CI
analysis gate.

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
