"""The docs name only what exists, and what exists is used.

docs/api.md: for every ``## Title — `repro.x` `` section, the leading
identifier of each backticked entry point in the table's first column
must resolve with ``getattr`` on that package.

DESIGN.md: the module map lists every module under ``src/repro`` (bar
``__init__.py``) under its package, and nothing that is not there.

Exports: every name in a ``repro.*`` package's ``__all__`` is named by
another ``src/repro`` module, a benchmark or an example, or is listed
in ``UNCONSUMED_EXPORTS`` with its reason.  Docs do not count: they
describe whatever exists.
"""

import ast
import glob
import importlib
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
API_MD = os.path.join(ROOT, "docs", "api.md")
DESIGN_MD = os.path.join(ROOT, "DESIGN.md")
SRC = os.path.join(ROOT, "src", "repro")
_SECTION = re.compile(r"^## .* — `(repro\.\w+)`\s*$")
_IDENTIFIER = re.compile(r"[A-Za-z_]\w*")
_WORD = re.compile(r"\w+")


def documented_names():
    """``(package, identifier)`` for every entry point api.md lists."""
    package = None
    names = []
    with open(API_MD) as handle:
        for line in handle:
            if line.startswith("## "):
                section = _SECTION.match(line)
                package = section.group(1) if section else None
            elif package and line.startswith("| `"):
                first_cell = line.split(" | ")[0]
                for span in re.findall(r"`([^`]+)`", first_cell):
                    leading = _IDENTIFIER.match(span)
                    if leading:  # `.attr` continues the span before it
                        names.append((package, leading.group()))
    return names


def test_every_documented_entry_point_resolves():
    names = documented_names()
    assert len(names) > 100  # the parser still finds the tables
    missing = [
        f"{package}.{name}"
        for package, name in names
        if not hasattr(importlib.import_module(package), name)
    ]
    assert not missing


def mapped_modules():
    """Paths under ``src/repro`` DESIGN.md's module map names.

    Entries sit at two indents — 2 spaces for top-level files and
    package directories, 4 for a package's files; deeper lines
    continue a description.
    """
    with open(DESIGN_MD) as handle:
        text = handle.read()
    section = text.split("## System inventory (module map)", 1)[1]
    block = section.split("```", 2)[1]
    package = ""
    paths = []
    for line in block.splitlines():
        indent = len(line) - len(line.lstrip(" "))
        names = re.match(r"[\w.]+(?:, [\w.]+)*/?", line.lstrip(" "))
        if indent not in (2, 4) or not names:
            continue
        for name in names.group().split(", "):
            if indent == 2 and name.endswith("/"):
                package = name
            elif indent == 2:
                package = ""
                paths.append(name)
            else:
                paths.append(package + name)
    return paths


def test_design_module_map_matches_the_tree():
    on_disk = sorted(
        os.path.relpath(os.path.join(folder, name), SRC)
        for folder, _, files in os.walk(SRC)
        for name in files
        if name.endswith(".py") and name != "__init__.py"
    )
    mapped = mapped_modules()
    assert len(mapped) == len(set(mapped))
    assert sorted(mapped) == on_disk


#: Exports that no ``src/repro`` module, benchmark or example names,
#: each with why it stays exported:
#:
#: * ``oracle`` — a reference the tests check the engine against;
#: * ``test-helper`` — builds test inputs or records what a run did;
#: * ``return-type`` — the type of what a consumed entry point returns
#:   or raises;
#: * ``io`` — reads, writes or checks a format that leaves the process;
#: * ``vocabulary`` — the named values a consumed type carries.
#:
#: Anything else with no consumer is dead API: delete it, or stop
#: exporting a helper only its own module calls.
UNCONSUMED_EXPORTS = {
    "repro.analysis.ERROR": "vocabulary",
    "repro.analysis.WARNING": "vocabulary",
    "repro.analysis.INFO": "vocabulary",
    "repro.analysis.StepEstimate": "return-type",
    "repro.analysis.PlanEstimate": "return-type",
    "repro.apps.QuasiCliqueResult": "return-type",
    "repro.apps.KeywordSearchResult": "return-type",
    "repro.baselines.all_quasi_cliques": "oracle",
    "repro.baselines.minimal_keyword_covers": "oracle",
    "repro.baselines.nested_query_matches": "oracle",
    "repro.baselines.pattern_matches": "oracle",
    "repro.baselines.match_contained_in": "oracle",
    "repro.baselines.connected_vertex_sets": "oracle",
    "repro.baselines.PostHocResult": "return-type",
    "repro.baselines.TThinkerResult": "return-type",
    "repro.baselines.TThinkerAccounting": "return-type",
    "repro.bench.DatasetSpec": "return-type",
    "repro.bench.DEGRADED": "vocabulary",
    "repro.bench.ExperimentRecord": "io",
    "repro.bench.compare_records": "io",
    "repro.core.DependencyEdge": "return-type",
    "repro.core.DependencyGraph": "return-type",
    "repro.core.SUCCESSOR": "vocabulary",
    "repro.core.PREDECESSOR": "vocabulary",
    "repro.exec.EventLog": "test-helper",
    "repro.exec.EVENTS": "vocabulary",
    "repro.exec.LIFECYCLE_EVENTS": "vocabulary",
    "repro.exec.RESILIENCE_EVENTS": "vocabulary",
    "repro.exec.BUDGET_ERRORS": "vocabulary",
    "repro.exec.FAULT_KINDS": "vocabulary",
    "repro.exec.Fault": "return-type",
    "repro.exec.InjectedFault": "return-type",
    "repro.exec.TransientWorkerError": "return-type",
    "repro.exec.SerialScheduler": "oracle",
    "repro.graph.graph_from_edges": "test-helper",
    "repro.graph.write_edge_list": "io",
    "repro.graph.write_labels": "io",
    "repro.graph.triangle_count": "oracle",
    "repro.obs.Histogram": "return-type",
    "repro.obs.validate_prometheus": "io",
    "repro.patterns.are_isomorphic": "oracle",
    "repro.patterns.to_dsl": "io",
    "repro.patterns.quasi_clique_patterns": "test-helper",
    "repro.serve.DaemonHandle": "return-type",
    "repro.serve.MiningDaemon": "return-type",
}
REASONS = ("oracle", "test-helper", "return-type", "io", "vocabulary")


def _defined_names(tree):
    """Names a module binds at top level (``def``, ``class``, ``=``)."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(
                target.id for target in node.targets
                if isinstance(target, ast.Name)
            )
        elif isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            names.add(node.target.id)
    return names


def _consumer_text(path, source, tree):
    """What in a file can name an export: all of it, except that an
    ``__init__.py``'s imports and ``__all__`` re-export rather than use,
    so only its functions and classes count."""
    if os.path.basename(path) != "__init__.py":
        return source
    return "\n".join(
        ast.get_source_segment(source, node)
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    )


def _python_files(top):
    return glob.glob(os.path.join(top, "**", "*.py"), recursive=True)


def _read(path):
    with open(path) as handle:
        return handle.read()


def unconsumed_exports():
    """``repro.<pkg>.<name>`` for each name in a package's ``__all__``
    that no other ``src/repro`` module, benchmark or example names."""
    # Each file is tokenised once: for an identifier, "some \w+ run of
    # the text equals the name" is the predicate ``\bname\b`` tests.
    defines, words, packages = {}, {}, []
    for path in _python_files(SRC):
        source = _read(path)
        tree = ast.parse(source)
        defines[path] = _defined_names(tree)
        words[path] = set(_WORD.findall(_consumer_text(path, source, tree)))
        if os.path.basename(path) == "__init__.py":
            folder = os.path.relpath(os.path.dirname(path), os.path.dirname(SRC))
            packages.append(folder.replace(os.sep, "."))
    outside_words = {
        word
        for top in ("benchmarks", "examples")
        for path in _python_files(os.path.join(ROOT, top))
        for word in _WORD.findall(_read(path))
    }
    found = []
    for package in sorted(packages):
        for name in importlib.import_module(package).__all__:
            if name.startswith("__"):  # __version__: metadata, not API
                continue
            if name in outside_words or any(
                name in text_words
                for path, text_words in words.items()
                if name not in defines[path]
            ):
                continue
            found.append(f"{package}.{name}")
    return found


def test_every_export_has_a_consumer():
    found = unconsumed_exports()
    assert not [name for name in found if name not in UNCONSUMED_EXPORTS]
    assert not [name for name in UNCONSUMED_EXPORTS if name not in found]
    assert set(UNCONSUMED_EXPORTS.values()) <= set(REASONS)
