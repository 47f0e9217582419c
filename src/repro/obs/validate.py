"""Validators for the observability export formats.

Used by the CI observability smoke job (and handy interactively):

.. code-block:: console

   $ python -m repro.obs.validate --trace trace.json --metrics metrics.prom

checks that a trace file is well-formed Chrome ``trace_event`` JSON
and that a metrics file parses as Prometheus text exposition format.
Exit status 0 means both files passed; problems are listed one per
line on stderr.

The checks are deliberately schema-level (shape, required keys, value
types, histogram invariants) — they catch the bugs that silently break
downstream viewers (missing ``ph``, string timestamps, non-cumulative
buckets) without pinning the exporters to exact content.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Any, Dict, List, Optional, Sequence

__all__ = ["validate_chrome_trace", "validate_prometheus", "main"]

_CHROME_PHASES = frozenset("BEXiIMCbnePSTFsfNOD")

_METRIC_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})?"
    r"\s+(?P<value>[^\s]+)"
    r"(\s+(?P<ts>-?\d+))?$"
)
_LABEL = re.compile(r'^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"$')
_HELP = re.compile(r"^# HELP ([a-zA-Z_:][a-zA-Z0-9_:]*) (.*)$")
_TYPE = re.compile(
    r"^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) "
    r"(counter|gauge|histogram|summary|untyped)$"
)


def validate_chrome_trace(text: str) -> List[str]:
    """Problems with ``text`` as Chrome trace_event JSON (empty = valid)."""
    problems: List[str] = []
    try:
        data = json.loads(text)
    except ValueError as exc:
        return [f"not valid JSON: {exc}"]
    if isinstance(data, dict):
        events = data.get("traceEvents")
        if not isinstance(events, list):
            return ["object form must carry a 'traceEvents' array"]
    elif isinstance(data, list):
        events = data
    else:
        return ["top level must be an object or an array"]
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        phase = event.get("ph")
        if not isinstance(phase, str) or phase not in _CHROME_PHASES:
            problems.append(f"{where}: bad or missing 'ph' ({phase!r})")
            continue
        if "name" in event and not isinstance(event["name"], str):
            problems.append(f"{where}: 'name' must be a string")
        if phase != "M" and not isinstance(
            event.get("ts"), (int, float)
        ):
            problems.append(f"{where}: bad or missing 'ts'")
        if phase == "X":
            duration = event.get("dur")
            if not isinstance(duration, (int, float)) or duration < 0:
                problems.append(
                    f"{where}: 'X' event needs non-negative 'dur'"
                )
        for key in ("pid", "tid"):
            if key in event and not isinstance(
                event[key], (int, float, str)
            ):
                problems.append(f"{where}: bad {key!r}")
    return problems


def validate_prometheus(text: str) -> List[str]:
    """Problems with ``text`` as Prometheus exposition (empty = valid)."""
    problems: List[str] = []
    typed: Dict[str, str] = {}
    series_seen: Dict[str, bool] = {}
    histograms: Dict[str, Dict[str, float]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line:
            continue
        if line.startswith("#"):
            if line.startswith("# HELP "):
                if not _HELP.match(line):
                    problems.append(f"line {lineno}: malformed HELP")
            elif line.startswith("# TYPE "):
                match = _TYPE.match(line)
                if not match:
                    problems.append(f"line {lineno}: malformed TYPE")
                else:
                    name = match.group(1)
                    if name in series_seen:
                        problems.append(
                            f"line {lineno}: TYPE for {name} after samples"
                        )
                    typed[name] = match.group(2)
            # other comments are legal and ignored
            continue
        match = _METRIC_LINE.match(line)
        if not match:
            problems.append(f"line {lineno}: unparsable sample {line!r}")
            continue
        name = match.group("name")
        value = match.group("value")
        if value not in ("+Inf", "-Inf", "NaN"):
            try:
                float(value)
            except ValueError:
                problems.append(
                    f"line {lineno}: non-numeric value {value!r}"
                )
        labels = match.group("labels")
        bound: Optional[str] = None
        if labels:
            body = labels[1:-1].strip()
            if body:
                for part in _split_labels(body):
                    if not _LABEL.match(part):
                        problems.append(
                            f"line {lineno}: malformed label {part!r}"
                        )
                    elif part.startswith("le="):
                        bound = part[4:-1]
        family = _family_name(name, typed)
        series_seen[family] = True
        if typed.get(family) == "histogram" and name.endswith("_bucket"):
            if bound is None:
                problems.append(
                    f"line {lineno}: histogram bucket without 'le'"
                )
            else:
                histograms.setdefault(family, {})[bound] = float(value)
    for family, buckets in histograms.items():
        if "+Inf" not in buckets:
            problems.append(f"histogram {family}: missing '+Inf' bucket")
        finite = sorted(
            (float(bound), count)
            for bound, count in buckets.items()
            if bound != "+Inf"
        )
        counts = [count for _, count in finite]
        if counts != sorted(counts):
            problems.append(
                f"histogram {family}: bucket counts not cumulative"
            )
        # Samples in the lowest bucket may be zeros (a no-op delta has
        # a frontier of 0), so they do not show that the scale fits.
        if counts:
            zero_like = counts[0] if len(counts) > 1 else 0
            beyond_scale = buckets.get("+Inf", 0) - counts[-1]
            if beyond_scale > 0 and counts[-1] == zero_like:
                problems.append(
                    f"histogram {family}: every non-zero observation "
                    f"fell in '+Inf' (the buckets do not fit the unit "
                    f"observed)"
                )
    for name in typed:
        if name not in series_seen:
            problems.append(f"TYPE declared but no samples for {name}")
    return problems


def _split_labels(body: str) -> List[str]:
    """Split ``k1="v1",k2="v2"`` respecting quoted commas."""
    parts: List[str] = []
    depth_quote = False
    current: List[str] = []
    i = 0
    while i < len(body):
        ch = body[i]
        if ch == '"' and (i == 0 or body[i - 1] != "\\"):
            depth_quote = not depth_quote
            current.append(ch)
        elif ch == "," and not depth_quote:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
        i += 1
    if current:
        parts.append("".join(current).strip())
    return parts


def _family_name(sample_name: str, typed: Dict[str, str]) -> str:
    """Map a sample series name back to its declared metric family."""
    for suffix in ("_bucket", "_sum", "_count"):
        if sample_name.endswith(suffix):
            family = sample_name[: -len(suffix)]
            if typed.get(family) in ("histogram", "summary"):
                return family
    return sample_name


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.validate",
        description="Validate observability export files.",
    )
    parser.add_argument(
        "--trace", help="Chrome trace_event JSON file to validate"
    )
    parser.add_argument(
        "--metrics", help="Prometheus text exposition file to validate"
    )
    options = parser.parse_args(argv)
    if not options.trace and not options.metrics:
        parser.error("nothing to validate: pass --trace and/or --metrics")
    failures = 0
    for label, path, validator in (
        ("trace", options.trace, validate_chrome_trace),
        ("metrics", options.metrics, validate_prometheus),
    ):
        if not path:
            continue
        with open(path, "r", encoding="utf-8") as fh:
            problems = validator(fh.read())
        if problems:
            failures += 1
            for problem in problems:
                print(f"{label} {path}: {problem}", file=sys.stderr)
        else:
            print(f"{label} {path}: OK")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
