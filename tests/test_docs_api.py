"""docs/api.md names only things that import.

For every ``## Title — `repro.x` `` section, the leading identifier of
each backticked entry point in the table's first column must resolve
with ``getattr`` on that package.
"""

import importlib
import os
import re

API_MD = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "docs",
    "api.md",
)
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
