"""Scaling ablation: the constraint-checking gap grows with graph size.

The paper's core motivation (§1, Fig 2) is that post-hoc constraint
checking degrades *faster than exploration* as graphs grow.  This
sweep holds the generator family fixed (community graphs, the
quasi-clique-rich case) and scales the vertex count, measuring
Contigra and the post-hoc baseline on the same MQC workload.

Expected shape: the baseline/Contigra time ratio rises with graph size
— the printed trend is the sign of a least-squares slope over
(log vertices, ratio), and reads "flat/noisy" unless that slope clears
the residual scatter (:func:`repro.bench.trend_label`) — and the
baseline's check count grows superlinearly.
"""

from repro.apps import maximal_quasi_cliques
from repro.baselines import posthoc_mqc
from repro.bench import format_table, timed_run, trend_label
from repro.graph import community_graph

from _common import BASELINE_TIME_LIMIT, emit, run_once

GAMMA = 0.8
MAX_SIZE = 5
SCALES = (6, 12, 24, 48, 96)  # number of planted communities of size 8


def run_experiment() -> str:
    rows = []
    sizes = []
    ratios = []
    for communities in SCALES:
        graph = community_graph(
            communities, 8, intra_probability=0.65, inter_edges=2,
            seed=communities, name=f"scale-{communities}",
        )
        ours = timed_run(
            lambda: maximal_quasi_cliques(
                graph, GAMMA, MAX_SIZE, time_limit=BASELINE_TIME_LIMIT * 4
            )
        )
        baseline = timed_run(
            lambda: posthoc_mqc(
                graph, GAMMA, MAX_SIZE, time_limit=BASELINE_TIME_LIMIT
            )
        )
        if ours.ok and baseline.ok:
            ratio = baseline.seconds / max(ours.seconds, 1e-9)
            sizes.append(graph.num_vertices)
            ratios.append(ratio)
            ratio_cell = f"{ratio:.1f}x"
        else:
            ratio_cell = "DNF" if not baseline.ok else "-"
        rows.append(
            (
                graph.num_vertices,
                graph.num_edges,
                ours.cell(),
                baseline.cell(),
                ratio_cell,
                baseline.stats.get("constraint_checks", "-")
                if baseline.ok
                else "-",
            )
        )
    table = format_table(
        ["vertices", "edges", "Contigra(s)", "post-hoc(s)",
         "gap", "post-hoc checks"],
        rows,
        title=(
            f"Scaling sweep: MQC gamma={GAMMA} size<={MAX_SIZE} on growing "
            f"community graphs"
        ),
    )
    return table + (
        f"\npaper: the maximality gap grows with graph size | measured "
        f"trend across completed scales: {trend_label(sizes, ratios)} "
        f"({', '.join(f'{r:.1f}x' for r in ratios)})"
    )


def test_scaling_curve(benchmark):
    table = run_once(benchmark, run_experiment)
    emit("scaling_curve", table)
