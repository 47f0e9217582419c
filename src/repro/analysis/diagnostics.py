"""Typed, coded diagnostics for the static query analyzer.

Every problem the analyzer can detect has a stable ``CGxxx`` code, a
kebab-case name, and a fixed severity.  Codes are grouped by family:

* ``CG0xx`` — pattern / DSL lint,
* ``CG1xx`` — constraint satisfiability,
* ``CG2xx`` — virtual state-space bucketing (paper §7),
* ``CG3xx`` — dependency-graph structure (paper §4),
* ``CG5xx`` — execution-core scheduler feasibility,
* ``CG6xx`` — static cost model: projected budgets and configuration.

A code earns its place by answering to input from outside the
program (DSL text, CLI flags, a wire body, a hand-built
``ConstraintSet``) and by saying something no other code says.
Retired codes are never reused (``docs/analysis.md`` lists them).

The full reference table lives in ``docs/analysis.md``; the registry
below is the single source of truth the docs mirror.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

ERROR = "error"
WARNING = "warning"
INFO = "info"

_SEVERITY_RANK: Dict[str, int] = {ERROR: 0, WARNING: 1, INFO: 2}

#: code -> (name, severity, one-line description)
CODES: Dict[str, Tuple[str, str, str]] = {
    "CG001": (
        "disconnected-pattern",
        ERROR,
        "pattern is not connected; no connected matching order exists",
    ),
    "CG002": (
        "unlowered-anti-vertices",
        WARNING,
        "pattern carries anti-vertices; lower them "
        "(repro.apps.antivertex) before querying",
    ),
    "CG003": (
        "redundant-anti-edges-induced",
        INFO,
        "anti-edges add nothing under induced matching "
        "(every non-edge is already enforced)",
    ),
    "CG004": (
        "dsl-parse-error",
        ERROR,
        "pattern DSL text failed to parse",
    ),
    "CG005": (
        "duplicate-dsl-item",
        WARNING,
        "DSL text repeats an edge or anti-edge item",
    ),
    "CG101": (
        "unsatisfiable-constraint",
        ERROR,
        "the constraint excludes every possible match of the target",
    ),
    "CG102": (
        "invalid-constraint-size",
        ERROR,
        "containment constraints need a strictly larger containing "
        "pattern (equal sizes cannot strictly contain)",
    ),
    "CG103": (
        "unrelated-constraint",
        ERROR,
        "the containing pattern does not contain the target; the "
        "constraint can never apply",
    ),
    "CG104": (
        "anti-edge-constraint",
        ERROR,
        "containment constraints do not support anti-edge patterns",
    ),
    "CG105": (
        "duplicate-constraint",
        WARNING,
        "the same containment constraint appears more than once",
    ),
    "CG201": (
        "skip-bucket-pattern",
        WARNING,
        "virtual state-space analysis puts every match of this "
        "pattern in the SKIP bucket (its ETasks never run)",
    ),
    "CG202": (
        "all-skip-workload",
        ERROR,
        "every mined pattern is in the SKIP bucket; the query is "
        "statically empty",
    ),
    "CG203": (
        "eager-bucket-wildcards",
        INFO,
        "wildcard label positions force the EAGER bucket (per-level "
        "runtime checks during exploration)",
    ),
    "CG301": (
        "dead-intermediate-pattern",
        WARNING,
        "pattern carries no constraints and no constraint targets it; "
        "it is mined but plays no role in the constrained workload",
    ),
    "CG302": (
        "dependency-cycle",
        ERROR,
        "cyclic successor/predecessor dependencies: a promotion chain "
        "would cancel its own from-scratch ETask",
    ),
    "CG501": (
        "unknown-scheduler",
        ERROR,
        "the requested execution-core scheduler is not registered",
    ),
    "CG502": (
        "cross-shard-promotion",
        WARNING,
        "promotion-eligible constraints under a sharded scheduler use "
        "per-worker promotion registries; promotion and cancellation "
        "counters diverge from a serial run (valid matches do not)",
    ),
    "CG503": (
        "process-local-cancellation",
        WARNING,
        "cooperative cancellation cannot cross process boundaries: a "
        "run-level token cancel or a lateral signal raised in one "
        "shard never interrupts workers mid-shard",
    ),
    "CG505": (
        "scheduler-ignored-workload",
        WARNING,
        "the workload runs a dedicated pipeline that does not accept "
        "an execution-core scheduler; the request is ignored",
    ),
    "CG601": (
        "projected-time-budget-exceeded",
        ERROR,
        "the static cost model's projected serial wall time exceeds "
        "the time budget, whatever the scheduler",
    ),
    "CG602": (
        "projected-memory-budget-exceeded",
        ERROR,
        "the static cost model projects peak memory above the byte "
        "budget",
    ),
    "CG603": (
        "shard-imbalance",
        WARNING,
        "degree skew projects unbalanced root shards under the "
        "requested sharded scheduler; stragglers will dominate wall "
        "time",
    ),
    "CG604": (
        "estimator-uncalibrated",
        INFO,
        "the graph is outside the cost model's calibrated regime "
        "(tiny, edgeless, or missing the labels the query names); "
        "projections are order-of-magnitude at best, so strict "
        "admission does not refuse on them",
    ),
}


@dataclass(frozen=True)
class Diagnostic:
    """One analyzer finding, identified by a stable ``CGxxx`` code."""

    code: str
    name: str
    severity: str
    subject: str
    message: str
    fragment: str = ""

    def render(self) -> str:
        location = f" [{self.subject}]" if self.subject else ""
        fragment = f" ({self.fragment})" if self.fragment else ""
        return (
            f"{self.code} {self.severity:<7} {self.name}{location}: "
            f"{self.message}{fragment}"
        )

    def to_dict(self) -> Dict[str, str]:
        return {
            "code": self.code,
            "name": self.name,
            "severity": self.severity,
            "subject": self.subject,
            "message": self.message,
            "fragment": self.fragment,
        }


def make(
    code: str, message: str, subject: str = "", fragment: str = ""
) -> Diagnostic:
    """Build a diagnostic from the code registry (severity is fixed)."""
    if code not in CODES:
        raise KeyError(f"unknown diagnostic code {code!r}")
    name, severity, _ = CODES[code]
    return Diagnostic(
        code=code,
        name=name,
        severity=severity,
        subject=subject,
        message=message,
        fragment=fragment,
    )


@dataclass
class AnalysisReport:
    """An ordered collection of diagnostics with severity accounting."""

    diagnostics: List[Diagnostic] = field(default_factory=list)

    def add(self, diagnostic: Diagnostic) -> None:
        self.diagnostics.append(diagnostic)

    def extend(self, diagnostics: Iterable[Diagnostic]) -> None:
        self.diagnostics.extend(diagnostics)

    def merge(self, other: "AnalysisReport") -> None:
        self.diagnostics.extend(other.diagnostics)

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == WARNING]

    @property
    def infos(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == INFO]

    @property
    def has_errors(self) -> bool:
        return any(d.severity == ERROR for d in self.diagnostics)

    @property
    def ok(self) -> bool:
        return not self.has_errors

    def codes(self) -> List[str]:
        return [d.code for d in self.diagnostics]

    def suppress(self, codes: Iterable[str]) -> "AnalysisReport":
        """A new report with the given codes filtered out."""
        dropped = set(codes)
        return AnalysisReport(
            [d for d in self.diagnostics if d.code not in dropped]
        )

    def sorted(self) -> "AnalysisReport":
        """A new report ordered most-severe first, then fully keyed.

        The key covers (severity, code, subject, fragment, message) so
        the order is a pure function of the findings themselves —
        never of dict/set iteration order in the passes that produced
        them.  CI analysis-gate diffs and golden tests rely on this.
        """
        return AnalysisReport(
            sorted(
                self.diagnostics,
                key=lambda d: (
                    _SEVERITY_RANK[d.severity],
                    d.code,
                    d.subject,
                    d.fragment,
                    d.message,
                ),
            )
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "infos": len(self.infos),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }

    def render_text(self) -> str:
        lines = [d.render() for d in self.sorted().diagnostics]
        lines.append(
            f"{len(self.errors)} error(s), {len(self.warnings)} "
            f"warning(s), {len(self.infos)} info(s)"
        )
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.diagnostics)
