"""Candidate-kernel microbenchmarks with a perf-regression gate.

Not a paper figure: this suite guards the `repro.graph.index` kernel
layer itself.  Four experiments run per invocation, each ``auto``
(what a user gets) against ``sets`` (the reference):

* **dense**: pool production (common-neighbor intersection, native
  representation) on a dense seeded G(n, p) — the regime the bitset
  pool tier exists for.  The acceptance floor is a >=2x speedup over
  the legacy frozenset path.
* **labeled**: the same with label restriction, where the kernel
  applies the label inside the intersection (one mask AND) while the
  legacy path filters per-vertex afterwards.
* **mqc end-to-end**: the fig13-style MQC workload on the synthetic
  dblp analog.  ``auto`` must not lose: on sparse graphs it *is* the
  legacy path (graph-level tier of the hybrid, unit-tested as dispatch
  identity in ``tests/test_kernel_equivalence.py``), so A and B run
  the same code and the measurement is calibrated to read ~1.0x:
  rounds are paired (A and B alternate within each round, canceling
  machine drift between them) and summed rather than min-reduced
  (min-of-N on two identical paths reports whichever path got the
  single luckiest scheduler slice — a coin flip that regularly lands
  one side at 0.97x).
* **aux end-to-end**: MQC with auxiliary pruned graphs
  (:mod:`repro.graph.aux`) on a core+periphery graph, where pruning
  removes the periphery from every pattern's exploration.  Aux must
  not lose.

Results go to ``benchmarks/results/kernels_micro.txt`` (human) and
``benchmarks/results/kernels_micro.json`` (machine).  The committed
``kernels_micro_baseline.json`` pins expected speedups; the gate
fails when any measured speedup drops below half its baseline (>2x
regression), which is what the CI kernel-smoke job enforces.
"""

import gc
import json
import os
import random
import time

from repro.apps import maximal_quasi_cliques
from repro.bench import dataset, format_table
from repro.graph import Graph, erdos_renyi
from repro.mining import MiningStats

from _common import RESULTS_DIR, emit, run_once

BASELINE_PATH = os.path.join(
    os.path.dirname(__file__), "kernels_micro_baseline.json"
)

#: Gate: fail when a measured speedup falls below baseline / FACTOR.
REGRESSION_FACTOR = 2.0

SAMPLES = 300
# The pool workloads are millisecond-scale regions, so rounds are
# cheap and min-of-rounds needs enough draws to catch a quiet slice
# on a busy host.
ROUNDS = 9


def _best_of(fn, rounds=ROUNDS):
    return min(fn() for _ in range(rounds))


def _dense_workload():
    """Pool production on G(500, 0.4): native representations.

    The legacy path's product is a frozenset (its filters hash-probe);
    the kernel's product is a bitmask (its filters mask).  Timing each
    path to its own representation is the honest comparison — no path
    pays for a decode its consumers skip.
    """
    graph = erdos_renyi(500, 0.4, seed=42)
    rng = random.Random(1)
    samples = [
        tuple(rng.sample(range(500), rng.choice((2, 2, 3))))
        for _ in range(SAMPLES)
    ]
    index = graph.kernel_index()
    stats = MiningStats()
    for v in graph.vertices():  # warm lazy adjacency forms
        graph.neighbor_set(v)
        index.neighbor_bits(v)

    def time_sets():
        start = time.perf_counter()
        for anchors in samples:
            pool = graph.neighbor_set(anchors[0])
            for v in anchors[1:]:
                pool = pool & graph.neighbor_set(v)
        return time.perf_counter() - start

    def time_auto():
        start = time.perf_counter()
        for anchors in samples:
            index.pool(anchors, None, stats)
        return time.perf_counter() - start

    return {"sets": _best_of(time_sets), "auto": _best_of(time_auto)}


def _labeled_workload():
    """Label-restricted pool production on a labeled G(400, 0.35)."""
    rng = random.Random(7)
    base = erdos_renyi(400, 0.35, seed=7)
    labels = [rng.randrange(4) for _ in base.vertices()]
    graph = Graph(
        [base.neighbors(v) for v in base.vertices()], labels=labels
    )
    samples = [
        (tuple(rng.sample(range(400), 2)), rng.randrange(4))
        for _ in range(SAMPLES)
    ]
    index = graph.kernel_index()
    stats = MiningStats()
    for v in graph.vertices():
        graph.neighbor_set(v)
        index.neighbor_bits(v)

    def time_sets():
        start = time.perf_counter()
        for anchors, label in samples:
            pool = graph.neighbor_set(anchors[0])
            for v in anchors[1:]:
                pool = pool & graph.neighbor_set(v)
            [v for v in pool if graph.label(v) == label]
        return time.perf_counter() - start

    def time_auto():
        start = time.perf_counter()
        for anchors, label in samples:
            index.pool(anchors, label, stats)
        return time.perf_counter() - start

    return {"sets": _best_of(time_sets), "auto": _best_of(time_auto)}


def _paired_run(run_a, run_b, rounds=ROUNDS):
    """Summed paired-interleaved timings: ``(total_a, total_b)``.

    A and B alternate within every round — and the round *order*
    alternates too, so monotonic drift (heap growth, thermal ramp)
    penalizes neither side.  A full collection before each timed run
    keeps one side's garbage from being charged to the other.

    Returns per-round time lists; consumers derive a speedup with
    :func:`_median_ratio`.  With identical (or near-identical) code
    under test, min-of-independent-runs degenerates into comparing
    each side's single luckiest scheduler slice, and summed totals
    inherit every tail stall of whichever side drew it — both
    misreport identity as a few-percent loss.  The median of
    *per-round paired* ratios is centred on 1.0 for identical paths
    (each round's ratio is a symmetric draw) and still converges on
    the true ratio when the paths genuinely differ.
    """
    times = {run_a: [], run_b: []}
    for i in range(rounds):
        pair = (run_a, run_b) if i % 2 == 0 else (run_b, run_a)
        for fn in pair:
            gc.collect()
            start = time.perf_counter()
            fn()
            times[fn].append(time.perf_counter() - start)
    return times[run_a], times[run_b]


def _median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _median_ratio(times_a, times_b):
    """Median of per-round ``a/b`` ratios (see :func:`_paired_run`)."""
    return _median([a / b for a, b in zip(times_a, times_b)])


def _mqc_workload():
    """End-to-end MQC (fig13 shape) on the dblp analog, auto vs sets.

    On this sparse graph ``auto`` dispatches the identical code path
    as ``sets`` (unit-tested dispatch identity), so the paired summed
    measurement should read ~1.0x and guards the dispatch itself.
    """
    graph = dataset("dblp")
    results = {}
    for mode in ("sets", "auto"):  # warm lazy structures + plan caches
        results[mode] = maximal_quasi_cliques(
            graph, 0.7, 5, adjacency=mode
        ).all_sets()
    assert results["auto"] == results["sets"]
    sets_times, auto_times = _paired_run(
        lambda: maximal_quasi_cliques(graph, 0.7, 5, adjacency="sets"),
        lambda: maximal_quasi_cliques(graph, 0.7, 5, adjacency="auto"),
        rounds=7,
    )
    return {
        "sets": _median(sets_times),
        "auto": _median(auto_times),
        "auto_speedup": _median_ratio(sets_times, auto_times),
    }


def _aux_graph():
    """A core+periphery graph: the regime auxiliary pruning exists for.

    A dense 50-vertex core carries every size-4 quasi-clique; 750
    periphery vertices of degree 2 carry none (the size-4 bound is
    internal degree 3), but the unpruned engine still roots ETasks at
    them *and* — the bigger cost — every core vertex drags its ~30
    doomed periphery neighbors into every candidate pool it anchors.
    """
    rng = random.Random(23)
    core_n, total_n = 50, 800
    core = erdos_renyi(core_n, 0.45, seed=23)
    adjacency = [list(core.neighbors(v)) for v in core.vertices()]
    adjacency.extend([] for _ in range(total_n - core_n))
    for v in range(core_n, total_n):
        for u in sorted(rng.sample(range(core_n), 2)):
            adjacency[v].append(u)
            adjacency[u].append(v)
    return Graph(adjacency, name="core-periphery")


def _aux_workload():
    """End-to-end MQC with auxiliary pruned graphs on/off.

    Both sides run the default mode.  The graph's *average* degree is
    periphery-dominated and sparse, so ``auto`` stays on the sets path
    and aux contributes root filtering only (pool-level pruning needs
    a kernel index) — which is what a user of ``--aux`` gets on this
    graph.  ``min_size=4`` keeps the workload in the pruning regime —
    size-3 patterns only require internal degree 2, which the degree-2
    periphery satisfies.
    """
    graph = _aux_graph()
    kwargs = dict(gamma=0.85, max_size=4, min_size=4)
    results = {}
    for aux in (False, True):  # warm indexes, aux artifacts, plans
        results[aux] = maximal_quasi_cliques(
            graph, enable_aux=aux, **kwargs
        ).all_sets()
    assert results[True] == results[False]
    plain_times, aux_times = _paired_run(
        lambda: maximal_quasi_cliques(graph, enable_aux=False, **kwargs),
        lambda: maximal_quasi_cliques(graph, enable_aux=True, **kwargs),
        rounds=7,
    )
    return {
        "plain": _median(plain_times),
        "aux": _median(aux_times),
        "aux_speedup": _median_ratio(plain_times, aux_times),
    }


def run_experiment() -> str:
    dense = _dense_workload()
    labeled = _labeled_workload()
    mqc = _mqc_workload()
    aux = _aux_workload()

    metrics = {}
    for name, times in (("dense", dense), ("labeled", labeled)):
        metrics[f"{name}_auto_speedup"] = round(
            times["sets"] / times["auto"], 3
        )
    metrics["mqc_auto_speedup"] = round(mqc["auto_speedup"], 3)
    metrics["aux_mqc_speedup"] = round(aux["aux_speedup"], 3)

    rows = []
    for name, times in (("dense", dense), ("labeled", labeled)):
        for mode in ("sets", "auto"):
            speedup = times["sets"] / times[mode]
            rows.append(
                (
                    name,
                    mode,
                    f"{times[mode] * 1000:.3f}",
                    f"{speedup:.2f}x",
                )
            )
    rows.append(("mqc", "sets", f"{mqc['sets'] * 1000:.3f}", "1.00x"))
    rows.append(
        ("mqc", "auto", f"{mqc['auto'] * 1000:.3f}", f"{mqc['auto_speedup']:.2f}x")
    )
    rows.append(("aux-mqc", "plain", f"{aux['plain'] * 1000:.3f}", "1.00x"))
    rows.append(
        ("aux-mqc", "aux", f"{aux['aux'] * 1000:.3f}", f"{aux['aux_speedup']:.2f}x")
    )
    table = format_table(
        ["workload", "mode", "best ms", "vs sets"],
        rows,
        title="Candidate-kernel microbenchmarks (best-of-N, seeded)",
    )

    # Acceptance floors for the kernels themselves.
    failures = []
    if metrics["dense_auto_speedup"] < 2.0:
        failures.append(
            f"dense auto speedup {metrics['dense_auto_speedup']}x < 2x"
        )
    if metrics["mqc_auto_speedup"] < 0.90:
        # auto must never lose to sets end-to-end; 10% absorbs timer noise.
        failures.append(
            f"mqc auto speedup {metrics['mqc_auto_speedup']}x < 0.90x"
        )
    if metrics["aux_mqc_speedup"] < 0.90:
        # aux must never lose end-to-end (same noise allowance).
        failures.append(
            f"aux mqc speedup {metrics['aux_mqc_speedup']}x < 0.90x"
        )

    # Regression gate against the committed baseline.
    baseline_note = "no committed baseline (bootstrap run)"
    if os.path.exists(BASELINE_PATH):
        with open(BASELINE_PATH) as handle:
            baseline = json.load(handle)["metrics"]
        for key, floor in baseline.items():
            current = metrics.get(key)
            if current is None:
                failures.append(f"metric {key} missing from this run")
            elif current < floor / REGRESSION_FACTOR:
                failures.append(
                    f"{key}: {current}x is a >{REGRESSION_FACTOR}x "
                    f"regression vs baseline {floor}x"
                )
        baseline_note = (
            f"gate: each speedup must stay above baseline/"
            f"{REGRESSION_FACTOR:g} ({BASELINE_PATH})"
        )

    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "kernels_micro.json"), "w") as handle:
        json.dump({"metrics": metrics}, handle, indent=2, sort_keys=True)
        handle.write("\n")

    assert not failures, "; ".join(failures)
    return table + "\n" + baseline_note


def test_kernels_micro(benchmark):
    table = run_once(benchmark, run_experiment)
    emit("kernels_micro", table)
