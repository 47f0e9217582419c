"""Perf ledger: one command, seven workloads.

``python benchmarks/ledger/run.py`` runs every workload in its own
subprocess with tracing off, verifies outputs, and prints every
end-to-end metric by name with its unit.  ``--trace`` is a second,
separate run that records benchmark-side spans and produces the
per-layer numbers.  See README.md beside this file.

With exactly one ``--workload`` the run happens in this process and
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` — the form a
driver consumes.  Metric names, units and regression bounds are read
from ``BENCHMARK.json``; this file defines none of its own.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

import reaper  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
RESULTS = os.path.join(HERE, "results")
DETAIL_PREFIX = "DETAIL "


def load_contract() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, quick: bool
) -> int:
    """Run one workload here; print its metrics and the result line."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from tracing import Tracer, write_chrome
    from workloads import WORKLOADS, WorkloadMeaningError

    contract = load_contract()
    section = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in contract[section]}

    tracer = Tracer(enabled=trace)
    workload = WORKLOADS[name](seed, tracer, quick)
    values: Dict[str, float] = {}
    raw: Dict[str, float] = {}
    try:
        before = workload.gauge.read()
        try:
            workload.setup()
        except WorkloadMeaningError as exc:
            print(f"refusing to report {name}: {exc}", file=sys.stderr)
            return 2
        setup_s = time.perf_counter() - PROCESS_START - workload.gauge.seconds
        setup_slowness = (before + workload.gauge.read()) / 2.0
        workload.window(seconds)
        rss_mb = workload.peak_rss_mb()
        workload.verify()
        lat = workload.latencies
        if not lat:
            # Every operation failed: there is no timing to report, but
            # the result line still goes out, with the failures.
            workload.failures.append("no operation completed")
        elif trace:
            # As read: only the end-to-end timings are adjusted.
            values = workload.layers()
            values["bench.machine_slowness"] = statistics.median(
                workload.slowness
            )
        else:
            # Timings are at the sandbox's quiet speed: each is divided
            # by the machine's slowness read beside it (yardstick.py).
            slowness = statistics.median(workload.slowness)
            raw = {
                "setup_s": setup_s,
                "op_p50_ms": statistics.median(lat) * 1e3,
                "ops_per_s": len(lat) / workload.window_seconds,
                "slowness": slowness,
            }
            values = {
                "setup_s": setup_s / setup_slowness,
                "op_p50_ms": statistics.median(
                    t / s for t, s in zip(lat, workload.slowness)
                ) * 1e3,
                "ops_per_s": len(lat) / workload.quiet_seconds,
                "peak_rss_mb": rss_mb,
            }
    finally:
        workload.close()
        # The program's own helpers (resource trackers of this process,
        # of the daemon, of forked workers) end here, not after us.
        killed = reaper.reap()
        if killed:
            workload.failures.append(f"still running at the end: {killed}")

    if trace:
        os.makedirs(RESULTS, exist_ok=True)
        write_chrome(
            os.path.join(RESULTS, f"trace.{name}.json"),
            tracer.chrome_events(),
        )

    unknown = sorted(set(values) - set(units))
    if unknown:
        raise SystemExit(f"metrics missing from BENCHMARK.json: {unknown}")
    # Every metric of the section is reported by every workload; a
    # layer this workload does not exercise reads 0 (no work, no time).
    metrics = {
        metric: {"value": values.get(metric, 0), "unit": unit}
        for metric, unit in units.items()
    }
    samples = len(workload.latencies)
    print(f"workload {name} seed {seed} ({workload.operation} x{samples})")
    for metric, unit in units.items():
        if metric in values:
            as_read = (
                f"   (as read: {raw[metric]:.4f})" if metric in raw else ""
            )
            print(f"  {metric:42s} {values[metric]:14.4f} {unit}{as_read}")
    if raw:
        print(f"  machine slowness during the window {raw['slowness']:.3f}")
    for failure in workload.failures:
        print(f"  FAILED {failure}")
    detail = {
        "workload": name,
        "seed": seed,
        "operation": workload.operation,
        "samples": samples,
        "reported": sorted(values),
        "as_read": raw,
        "graphs": workload.manifest(),
        "failures": workload.failures,
    }
    print(DETAIL_PREFIX + json.dumps(detail, sort_keys=True))
    failed = len(workload.failures)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": max(workload.attempted, 1),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if failed == 0 else 1


# ----------------------------------------------------------------------
# Every workload, one fresh subprocess each
# ----------------------------------------------------------------------


def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def numpy_version() -> str:
    try:
        import numpy
    except ImportError:
        return "absent"
    return str(numpy.__version__)


def run_child(name: str, args: argparse.Namespace, trace: bool) -> Dict[str, Any]:
    """One workload in a fresh process (own peak RSS, own GraphStore
    and DerivedCache); returns its result line and detail line."""
    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "1" if trace else "0",
    ]
    if args.quick:
        command.append("--quick")
    done = subprocess.run(command, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    out: Dict[str, Any] = {"exit": done.returncode, "detail": {}}
    for line in lines:
        if line.startswith(DETAIL_PREFIX):
            out["detail"] = json.loads(line[len(DETAIL_PREFIX):])
    try:
        out["result"] = json.loads(lines[-1])
    except (IndexError, ValueError):
        out["result"] = None
        out["stderr"] = done.stderr[-2000:]
    return out


def summarize(values: List[float]) -> Dict[str, Any]:
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def run_all(names: List[str], args: argparse.Namespace) -> int:
    contract = load_contract()
    report: Dict[str, Any] = {
        "schema": 1,
        "manifest": {
            "seed": args.seed,
            "seconds": args.seconds,
            "repeat": args.repeat,
            "quick": args.quick,
            "git_sha": git_sha(),
            "python": platform.python_version(),
            "numpy": numpy_version(),
            "nproc": os.cpu_count(),
            "graphs": {},
        },
        "library": {},
        "serve": {},
        "layers": {},
    }
    status = 0
    sections = [("end_to_end", False)] + (
        [("per_layer", True)] if args.trace else []
    )
    for section, trace in sections:
        units = {m["name"]: m["unit"] for m in contract[section]}
        for name in names:
            runs: List[Dict[str, Any]] = []
            for _ in range(1 if trace else args.repeat):
                child = run_child(name, args, trace)
                if child["result"] is None:
                    print(
                        f"{name}: no result (exit {child['exit']})\n"
                        f"{child.get('stderr', '')}",
                        file=sys.stderr,
                    )
                    status = 1
                    continue
                if child["exit"] != 0:
                    status = 1
                runs.append(child)
            if not runs:
                continue
            detail = runs[-1]["detail"]
            reported = detail.get("reported", list(units))
            entry: Dict[str, Any] = {
                "operation": detail.get("operation"),
                "samples": detail.get("samples"),
                "attempted": sum(r["result"]["attempted"] for r in runs),
                "failed": sum(r["result"]["failed"] for r in runs),
                "as_read": [r["detail"].get("as_read") for r in runs],
                "failures": [
                    f for r in runs for f in r["detail"].get("failures", [])
                ],
                "metrics": {
                    metric: dict(
                        summarize(
                            [r["result"]["metrics"][metric]["value"]
                             for r in runs]
                        ),
                        unit=units[metric],
                    )
                    for metric in units
                    if metric in reported
                },
            }
            entry["failed_share"] = entry["failed"] / entry["attempted"]
            report["manifest"]["graphs"].update(detail.get("graphs", {}))
            if trace:
                report["layers"][name] = entry
            elif name.startswith("serve_"):
                report["serve"][name] = entry
            else:
                report["library"][name] = entry
            print_entry(name, section, entry)
    if args.trace:
        merge_traces(names)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return status


def print_entry(name: str, section: str, entry: Dict[str, Any]) -> None:
    print(
        f"{name} [{section}] {entry['operation']} x{entry['samples']} "
        f"failed_share {entry['failed_share']:.4f} "
        f"({entry['failed']}/{entry['attempted']})"
    )
    for metric, stat in entry["metrics"].items():
        spread = ""
        if len(stat["runs"]) > 1 and stat["median"]:
            spread = (
                f"  iqr/median "
                f"{(stat['q3'] - stat['q1']) / abs(stat['median']):.3f} "
                f"over {len(stat['runs'])} runs"
            )
        print(
            f"  {metric:42s} {stat['median']:14.4f} {stat['unit']}{spread}"
        )
    as_read = (entry.get("as_read") or [None])[-1]
    if as_read:
        print(
            "  as read on the last run: "
            + ", ".join(f"{k} {v:.4f}" for k, v in as_read.items())
        )
    for failure in entry["failures"]:
        print(f"  FAILED {failure}")


def merge_traces(names: List[str]) -> None:
    """Fold the per-workload traces into ``results/trace.json``."""
    from tracing import write_chrome

    events: List[Dict[str, Any]] = []
    for pid, name in enumerate(names, start=1):
        path = os.path.join(RESULTS, f"trace.{name}.json")
        if not os.path.exists(path):
            continue
        with open(path, encoding="utf-8") as fh:
            for event in json.load(fh)["traceEvents"]:
                event["pid"] = pid
                events.append(event)
        events.append(
            {"name": "process_name", "ph": "M", "pid": pid,
             "args": {"name": name}}
        )
    write_chrome(os.path.join(RESULTS, "trace.json"), events)


def main(argv: Optional[List[str]] = None) -> int:
    contract = load_contract()
    known = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", action="append", choices=known,
        help="run only this workload (repeatable; default: all seven)",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=float(contract["run_seconds"]),
        help="length of each timed window",
    )
    parser.add_argument(
        "--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
        help="also (with one --workload: instead) run traced and report "
        "the per-layer metrics",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="1 timed iteration / 20 requests, no percentiles worth reading",
    )
    parser.add_argument(
        "--repeat", type=int, default=1,
        help="untraced runs per workload (quartiles go to --out)",
    )
    parser.add_argument("--out", help="write the result file here")
    args = parser.parse_args(argv)
    names = args.workload or known
    reaper.adopt()
    try:
        if len(names) == 1 and args.repeat == 1 and not args.out:
            status = run_workload(
                names[0], args.seed, args.seconds, bool(args.trace),
                args.quick,
            )
            if args.trace:
                merge_traces(names)
            return status
        return run_all(names, args)
    finally:
        # Every path out, the failing ones too, waits for its children.
        reaper.reap()


if __name__ == "__main__":
    sys.exit(main())
