"""Compare two ledger result files: ``compare.py A.json B.json``.

A is the baseline, B the candidate; both come from
``run.py --repeat N --out FILE``.  For every (workload, end-to-end
metric) pair the verdict is

* ``regressed``  — B's median is worse than A's by more than the bound
  ``BENCHMARK.json`` fixes for the metric;
* ``unresolved`` — either side has fewer than three runs, so its
  spread is unknown; or either side's run-to-run spread (distance
  between its quartiles over its median) is wider than that bound, so
  a change of the size the bound guards against could hide in the
  noise — unless every run of B reads better than every run of A;
* ``ok``         — otherwise.

A workload with any failed operation on either side is ``regressed``
whatever its timings.  Every ratio is printed with its base.  The exit
status is 1 if anything regressed, 2 if nothing regressed but
something is unresolved, 0 if every pair is ``ok`` — usable as a gate.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))

#: Fewest runs a side needs before its quartiles say anything about its
#: spread (``run.py --repeat 1`` writes q1 = median = q3).
MIN_RUNS = 3


def load(path: str) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def workloads_of(report: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    return {**report.get("library", {}), **report.get("serve", {})}


def spread(stat: Dict[str, Any]) -> float:
    median = abs(stat["median"])
    return (stat["q3"] - stat["q1"]) / median if median else 0.0


def verdict(
    a: Dict[str, Any], b: Dict[str, Any], better: str, bound: float
) -> Tuple[str, float]:
    """(``ok`` / ``regressed`` / ``unresolved``, B's change for the
    worse as a share of A's median; negative = improved)."""
    base = a["median"]
    change = (b["median"] - base) / abs(base) if base else 0.0
    worse = change if better == "lower" else -change
    if worse > bound:
        return "regressed", worse
    if min(len(a["runs"]), len(b["runs"])) < MIN_RUNS:
        return "unresolved", worse
    if max(spread(a), spread(b)) > bound:
        if better == "lower":
            clear = max(b["runs"]) < min(a["runs"])
        else:
            clear = min(b["runs"]) > max(a["runs"])
        if not clear:
            return "unresolved", worse
    return "ok", worse


def compare(
    a: Dict[str, Any], b: Dict[str, Any], contract: Dict[str, Any]
) -> List[Dict[str, Any]]:
    rows: List[Dict[str, Any]] = []
    side_a, side_b = workloads_of(a), workloads_of(b)
    for workload in (w["name"] for w in contract["workloads"]):
        wa, wb = side_a.get(workload), side_b.get(workload)
        if wa is None or wb is None:
            rows.append(
                {"workload": workload, "metric": "-", "verdict": "unresolved",
                 "note": "missing on one side"}
            )
            continue
        failed = wa["failed"] + wb["failed"]
        rows.append(
            {
                "workload": workload,
                "metric": "failed_share",
                "verdict": "regressed" if failed else "ok",
                "note": f"A {wa['failed']}/{wa['attempted']}  "
                f"B {wb['failed']}/{wb['attempted']}",
            }
        )
        for metric in contract["end_to_end"]:
            name = metric["name"]
            sa: Optional[Dict[str, Any]] = wa["metrics"].get(name)
            sb: Optional[Dict[str, Any]] = wb["metrics"].get(name)
            if sa is None or sb is None:
                continue
            outcome, worse = verdict(sa, sb, metric["better"], metric["bound"])
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "verdict": outcome,
                    "note": (
                        f"A {sa['median']:.4f}  B {sb['median']:.4f} "
                        f"{sa['unit']}  worse by {worse:+.3f} of A "
                        f"(bound {metric['bound']:.2f}; spread "
                        f"A {spread(sa):.3f} / B {spread(sb):.3f}; "
                        f"runs {len(sa['runs'])}/{len(sb['runs'])})"
                    ),
                }
            )
    return rows


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 64
    contract = load(os.path.join(ROOT, "BENCHMARK.json"))
    rows = compare(load(argv[0]), load(argv[1]), contract)
    current = None
    for row in rows:
        if row["workload"] != current:
            current = row["workload"]
            print(current)
        print(f"  {row['verdict']:10s} {row['metric']:14s} {row['note']}")
    verdicts = {row["verdict"] for row in rows}
    if "regressed" in verdicts:
        return 1
    return 2 if "unresolved" in verdicts else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
