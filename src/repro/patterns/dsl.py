"""A tiny textual pattern DSL plus DOT export.

Patterns are small and ubiquitous in tests, examples, and interactive
use; writing edge lists as Python tuples gets old.  The DSL accepts::

    "0-1, 1-2, 0-2"                      # a triangle
    "0-1, 1-2, 0-2; labels 0:5 1:5"      # vertex labels (others wildcard)
    "0-1, 1-2, 0-2, 0-3, 1-3; anti 3"    # anti-vertices
    "0-1-2-0"                            # chain syntax: path/cycle sugar

Vertex ids must be non-negative integers; the pattern size is
``max id + 1`` unless a ``vertices N`` clause raises it (isolated
vertices are only expressible that way, and only single-vertex
patterns accept them — the engine needs connected patterns).
"""

from __future__ import annotations

from typing import Dict, List, NoReturn, Optional, Set, Tuple

from .pattern import Pattern, _normalize_edge


def parse_pattern(text: str, name: str = "") -> Pattern:
    """Parse the DSL described in the module docstring.

    Every ``ValueError`` names the 0-based clause index and quotes the
    offending fragment (``clause 1 ('labels 0:x'): ...``) so analyzer
    diagnostics and tracebacks point at source text, not just at a
    symptom.
    """
    edges: Set[Tuple[int, int]] = set()
    anti_edges: Set[Tuple[int, int]] = set()
    labels: Dict[int, int] = {}
    anti: List[int] = []
    explicit_vertices: Optional[int] = None
    vertices_clause: Tuple[int, str] = (0, "")
    mentioned: Set[int] = set()

    clauses = [clause.strip() for clause in text.split(";")]
    if not clauses or not clauses[0]:
        raise ValueError("empty pattern text")

    def fail(index: int, fragment: str, message: str) -> NoReturn:
        raise ValueError(f"clause {index} ({fragment!r}): {message}")

    for chain in clauses[0].split(","):
        chain = chain.strip()
        if not chain:
            continue
        try:
            vertices = [_parse_vertex(part) for part in chain.split("-")]
        except ValueError as exc:
            fail(0, chain, str(exc))
        mentioned.update(vertices)
        if len(vertices) == 1:
            # A lone vertex mention: allowed, contributes no edge.
            continue
        for a, b in zip(vertices, vertices[1:]):
            if a == b:
                fail(0, chain, f"self loop on vertex {a}")
            edges.add((min(a, b), max(a, b)))

    for index, clause in enumerate(clauses[1:], start=1):
        if not clause:
            continue
        keyword, _, rest = clause.partition(" ")
        try:
            if keyword == "labels":
                for item in rest.split():
                    vertex_text, sep, label_text = item.partition(":")
                    if not sep or not label_text.strip().lstrip("-").isdigit():
                        fail(
                            index, item,
                            "label items must look like VERTEX:LABEL",
                        )
                    labels[_parse_vertex(vertex_text)] = int(label_text)
            elif keyword == "anti":
                anti.extend(_parse_vertex(v) for v in rest.split())
            elif keyword == "anti-edges":
                for item in rest.split():
                    a_text, sep, b_text = item.partition("-")
                    if not sep:
                        fail(
                            index, item,
                            "anti-edge items must look like A-B",
                        )
                    anti_edges.add(
                        _normalize_edge(
                            _parse_vertex(a_text), _parse_vertex(b_text)
                        )
                    )
            elif keyword == "vertices":
                if not rest.strip().isdigit():
                    fail(index, clause, "vertices needs an integer count")
                explicit_vertices = int(rest)
                vertices_clause = (index, clause)
            else:
                fail(index, clause, f"unknown clause keyword {keyword!r}")
        except ValueError as exc:
            if str(exc).startswith("clause "):
                raise
            fail(index, clause, str(exc))

    mentioned |= (
        {v for e in edges for v in e}
        | {v for e in anti_edges for v in e}
        | set(labels)
        | set(anti)
    )
    if not mentioned and explicit_vertices is None:
        raise ValueError(
            f"clause 0 ({clauses[0]!r}): pattern mentions no vertices"
        )
    size = max(mentioned, default=-1) + 1
    if explicit_vertices is not None:
        if explicit_vertices < size:
            fail(
                vertices_clause[0],
                vertices_clause[1],
                f"vertices {explicit_vertices} below the highest "
                f"mentioned id {size - 1}",
            )
        size = explicit_vertices

    label_list: Optional[List[Optional[int]]] = None
    if labels:
        label_list = [labels.get(v) for v in range(size)]
    return Pattern(
        size, edges, labels=label_list, anti_vertices=anti,
        anti_edges=anti_edges, name=name,
    )


def _parse_vertex(text: str) -> int:
    text = text.strip()
    if not text.isdigit():
        raise ValueError(f"bad vertex id {text!r}")
    return int(text)


def to_dsl(pattern: Pattern) -> str:
    """Serialize a pattern back into parseable DSL text."""
    parts = [
        ", ".join(f"{u}-{v}" for u, v in sorted(pattern.edges))
        or " , ".join(str(v) for v in pattern.vertices())
    ]
    labeled = [
        (v, pattern.label(v))
        for v in pattern.vertices()
        if pattern.label(v) is not None
    ]
    if labeled:
        parts.append(
            "labels " + " ".join(f"{v}:{lab}" for v, lab in labeled)
        )
    if pattern.anti_vertices:
        parts.append(
            "anti " + " ".join(str(v) for v in sorted(pattern.anti_vertices))
        )
    if pattern.anti_edges:
        parts.append(
            "anti-edges "
            + " ".join(f"{u}-{v}" for u, v in sorted(pattern.anti_edges))
        )
    if pattern.num_vertices - 1 > max(
        (v for e in pattern.edges for v in e), default=-1
    ):
        parts.append(f"vertices {pattern.num_vertices}")
    return "; ".join(parts)


def to_dot(pattern: Pattern, name: str = "pattern") -> str:
    """Graphviz DOT rendering (anti-vertices dashed, labels shown)."""
    lines = [f"graph {name} {{"]
    for v in pattern.vertices():
        attributes = []
        if pattern.label(v) is not None:
            attributes.append(f'label="{v}:{pattern.label(v)}"')
        if v in pattern.anti_vertices:
            attributes.append('style="dashed"')
        rendered = f" [{', '.join(attributes)}]" if attributes else ""
        lines.append(f"  {v}{rendered};")
    for u, v in sorted(pattern.edges):
        lines.append(f"  {u} -- {v};")
    for u, v in sorted(pattern.anti_edges):
        lines.append(f'  {u} -- {v} [style="dotted", label="anti"];')
    lines.append("}")
    return "\n".join(lines)
