"""Pass 1: pattern and DSL lint (family CG0xx).

Structural problems a single pattern can carry, independent of any
constraint: disconnection (no matching order exists), unlowered
anti-vertices, anti-edges that are redundant under induced semantics,
and — for raw DSL text — parse failures and duplicate edge items.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..patterns.dsl import parse_pattern
from ..patterns.pattern import Pattern
from .diagnostics import Diagnostic, make


def subject_name(pattern: Pattern) -> str:
    """The pattern's name; a labelled pattern appends its labels, so
    variants of one structure stay apart: ``s3.0(0,1,*)``."""
    name = pattern.name or f"P{pattern.num_vertices}"
    labels = pattern.labels
    if all(label is None for label in labels):
        return name
    shown = ",".join("*" if label is None else str(label) for label in labels)
    return f"{name}({shown})"


def lint_pattern(
    pattern: Pattern,
    induced: bool = False,
    subject: Optional[str] = None,
) -> List[Diagnostic]:
    """Lint one pattern; ``subject`` overrides the reported name."""
    who = subject if subject is not None else subject_name(pattern)
    diagnostics: List[Diagnostic] = []
    if not pattern.is_connected():
        diagnostics.append(
            make(
                "CG001",
                f"pattern {who} is disconnected; connected matching "
                "orders (and thus ETasks) cannot be built for it",
                subject=who,
            )
        )
    if pattern.has_anti_vertices:
        diagnostics.append(
            make(
                "CG002",
                f"pattern {who} carries anti-vertices "
                f"{sorted(pattern.anti_vertices)}; lower them with "
                "repro.apps.antivertex.lower_anti_vertices before "
                "querying",
                subject=who,
            )
        )
    if induced and pattern.has_anti_edges:
        diagnostics.append(
            make(
                "CG003",
                f"pattern {who} declares anti-edges "
                f"{sorted(pattern.anti_edges)} but the query uses "
                "induced matching, which already enforces every "
                "non-edge",
                subject=who,
            )
        )
    return diagnostics


def _duplicate_items(clause_text: str) -> List[str]:
    """Repeated ``a-b`` items inside one clause body (order-insensitive)."""
    seen: set = set()
    duplicates: List[str] = []
    for item in clause_text.replace(",", " ").split():
        head, sep, tail = item.partition("-")
        if not sep or not head.strip().isdigit() or not tail.strip().isdigit():
            continue
        a, b = int(head), int(tail)
        key = (min(a, b), max(a, b))
        if key in seen:
            duplicates.append(item)
        seen.add(key)
    return duplicates


def lint_pattern_text(
    text: str,
    name: str = "",
    induced: bool = False,
) -> Tuple[Optional[Pattern], List[Diagnostic]]:
    """Parse DSL text and lint the result.

    Returns ``(pattern, diagnostics)``; the pattern is ``None`` when the
    text does not parse (the parse failure becomes a CG004 diagnostic
    carrying the offending fragment from :func:`parse_pattern`).
    """
    subject = name or text.strip()
    diagnostics: List[Diagnostic] = []
    clauses = [clause.strip() for clause in text.split(";")]
    for clause in clauses:
        body = clause
        if clause.startswith("anti-edges"):
            body = clause[len("anti-edges"):]
        elif not clause or not clause[0].isdigit():
            continue
        for item in _duplicate_items(body):
            diagnostics.append(
                make(
                    "CG005",
                    f"item {item!r} repeats an edge already declared "
                    "in the same pattern",
                    subject=subject,
                    fragment=clause,
                )
            )
    try:
        pattern = parse_pattern(text, name=name)
    except ValueError as exc:
        diagnostics.append(
            make("CG004", str(exc), subject=subject, fragment=text.strip())
        )
        return None, diagnostics
    diagnostics.extend(lint_pattern(pattern, induced=induced, subject=subject))
    return pattern, diagnostics
