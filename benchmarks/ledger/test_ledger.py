"""Checks on the ledger itself (not in tier-1 ``testpaths``).

Run explicitly::

    PYTHONPATH=src python -m pytest benchmarks/ledger/test_ledger.py -q

Covers the ``BENCHMARK.json`` schema and limits, the result line a
driver consumes, the trace file, and ``compare.py``'s verdicts.  The
workload runs use ``--quick``, so this takes about a minute.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
sys.path.insert(0, HERE)

import compare  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORKLOADS = [
    "mqc_table3", "mqc_dense", "nsq_nested", "kws_minimal", "mqc_sharded",
    "serve_mixed", "serve_churn",
]


@pytest.fixture(scope="module")
def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_ledger(*args):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_contract_schema(contract):
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert contract["paths"] == ["benchmarks/ledger"]
    assert isinstance(contract["run_seconds"], int)
    assert 1 <= contract["run_seconds"] <= 60
    assert [w["name"] for w in contract["workloads"]] == WORKLOADS
    for workload in contract["workloads"]:
        assert set(workload) == {"name", "why"}
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    for metric in contract["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in contract["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    setup = [m for m in contract["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(
        m["bound"] for m in contract["end_to_end"]
    )


def test_names_and_units(contract):
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in contract[key]
    ]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for key in ("end_to_end", "per_layer"):
        for metric in contract[key]:
            assert UNIT.match(metric["unit"]), metric
            assert metric["better"] in ("lower", "higher")


def check_result(result, metrics):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in metrics}
    for metric in metrics:
        entry = result["metrics"][metric["name"]]
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))


@pytest.mark.parametrize("workload", ["mqc_dense", "serve_churn"])
def test_quick_run_reports_every_end_to_end_metric(contract, workload):
    result = run_ledger("--workload", workload, "--quick", "--trace", "0")
    check_result(result, contract["end_to_end"])
    for entry in result["metrics"].values():
        assert entry["value"] > 0


def test_quick_traced_run_writes_a_valid_trace(contract):
    result = run_ledger("--workload", "mqc_dense", "--quick", "--trace", "1")
    check_result(result, contract["per_layer"])
    assert result["metrics"]["graph.index.kernel_share"]["value"] > 0
    trace = os.path.join(HERE, "results", "trace.json")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run(
        [sys.executable, "-m", "repro.obs.validate", "--trace", trace],
        capture_output=True, text=True, env=env,
    )
    assert done.returncode == 0, done.stderr
    with open(trace, encoding="utf-8") as fh:
        events = json.load(fh)["traceEvents"]
    spans = [e for e in events if e["ph"] == "X"]
    assert {"bench.iteration", "mining.etask.explore"} <= {
        e["name"] for e in spans
    }
    ids = {e["args"]["id"] for e in spans}
    assert all(e["args"].get("parent", min(ids)) in ids for e in spans)


def stat(runs, unit="ms"):
    ordered = sorted(runs)
    mid = ordered[len(ordered) // 2]
    return {
        "median": mid, "q1": ordered[len(ordered) // 4],
        "q3": ordered[(3 * len(ordered)) // 4], "runs": runs, "unit": unit,
    }


def test_compare_verdicts():
    steady = stat([100, 101, 102, 103, 104])
    assert compare.verdict(steady, stat([101, 102, 103, 104, 105]),
                           "lower", 0.1)[0] == "ok"
    assert compare.verdict(steady, stat([120, 121, 122, 123, 124]),
                           "lower", 0.1)[0] == "regressed"
    noisy = stat([80, 90, 100, 115, 130])
    assert compare.verdict(noisy, stat([82, 91, 101, 114, 129]),
                           "lower", 0.1)[0] == "unresolved"
    # Wide spread, but every candidate run beats every baseline run.
    assert compare.verdict(noisy, stat([40, 45, 50, 55, 60]),
                           "lower", 0.1)[0] == "ok"
    assert compare.verdict(steady, stat([80, 81, 82, 83, 84]),
                           "higher", 0.1)[0] == "regressed"
    # One run a side has no spread to speak of: unknown, not zero.
    assert compare.verdict(stat([100]), stat([105]),
                           "lower", 0.1)[0] == "unresolved"
    assert compare.verdict(stat([100]), stat([120]),
                           "lower", 0.1)[0] == "regressed"
    assert compare.verdict(stat([100, 101]), stat([90, 91]),
                           "lower", 0.1)[0] == "unresolved"


def test_reaper_waits_for_orphaned_grandchildren():
    # In a process of its own: the reaper waits for *every* child.
    script = (
        "import subprocess, sys, reaper\n"
        "reaper.adopt()\n"
        # The shell exits at once and orphans its sleeper.
        "subprocess.run(['sh', '-c', 'sleep 0.5 & sleep 30 &'])\n"
        "killed = reaper.reap(grace=2.0)\n"
        "sys.exit(0 if len(killed) == 1 and not reaper.children() else 1)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=HERE, capture_output=True,
        text=True, timeout=60,
    )
    assert done.returncode == 0, done.stdout + done.stderr
