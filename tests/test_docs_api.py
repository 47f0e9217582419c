"""The docs name only what exists.

docs/api.md: for every ``## Title — `repro.x` `` section, the leading
identifier of each backticked entry point in the table's first column
must resolve with ``getattr`` on that package.

DESIGN.md: the module map lists every module under ``src/repro`` (bar
``__init__.py``) under its package, and nothing that is not there.
"""

import importlib
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
API_MD = os.path.join(ROOT, "docs", "api.md")
DESIGN_MD = os.path.join(ROOT, "DESIGN.md")
SRC = os.path.join(ROOT, "src", "repro")
_SECTION = re.compile(r"^## .* — `(repro\.\w+)`\s*$")
_IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


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
