"""Command-line interface.

Usage (after ``pip install -e .``)::

    python -m repro mqc --dataset dblp --gamma 0.8 --max-size 5
    python -m repro kws --dataset mico --keywords mf --max-size 5
    python -m repro nsq --dataset amazon --query triangles
    python -m repro quasicliques --dataset dblp --gamma 0.6 --fused
    python -m repro datasets
    python -m repro analyze                      # library self-check
    python -m repro analyze --pattern "0-1, 1-2, 0-2" \
        --not-within "0-1, 1-2, 0-2, 0-3"        # one query
    python -m repro analyze --workload kws --keywords 0,1 --max-size 3
    python -m repro analyze --workload mqc --estimate --dataset dblp \
        --budget-seconds 30                  # CG6xx cost projections
    python -m repro mqc --dataset dblp --time-limit 5 --admission strict

Datasets are the synthetic Table-1 analogs; graphs can also be loaded
from edge-list files with ``--graph path.txt [--labels path.labels]``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from .apps import (
    frequent_and_rare_keywords,
    keyword_search,
    mine_quasi_cliques,
    mine_quasi_cliques_fused,
)
from .apps.mqc import MaximalQuasiCliqueResult, mqc_constraint_set
from .bench import dataset, dataset_keys, spec
from .bench.report import format_table
from .errors import (
    MemoryBudgetExceeded,
    StorageBudgetExceeded,
    TimeLimitExceeded,
)
from .exec.resilience import ON_FAILURE_MODES
from .exec.scheduler import SCHEDULER_NAMES
from .graph.graph import Graph
from .graph.index import ADJACENCY_MODES
from .graph.io import read_edge_list
from .obs import observed_context, publish_process_metrics
from .request import (
    ADMISSION_MODES,
    NSQ_QUERIES,
    REQUEST_FIELDS,
    RequestError,
    RunRecord,
    RunRequest,
    admit,
    run,
)
from .serve.__main__ import add_serve_arguments, run_daemon


def _resolve_store_ref(spec_text: str) -> Optional[Graph]:
    """Resolve ``name``/``name@vN``/``name@latest`` via the graph store.

    Dataset keys materialize (and register) on demand, so
    ``--graph dblp@v1`` works without a prior run.  Returns ``None``
    when the text does not look like a store reference (no ``@`` and
    no matching name), letting the caller fall back to file loading.
    """
    from .graph.store import graph_store

    store = graph_store()
    name = spec_text.partition("@")[0]
    if name in dataset_keys():
        built = dataset(name)
        try:
            store.latest(name)
        except KeyError:
            # The store was reset after the dataset materialized;
            # re-register (idempotent for identical content).
            store.register(built, name)
    try:
        return store.resolve(spec_text).graph
    except KeyError as exc:
        if "@" in spec_text or name in store.names():
            raise SystemExit(f"--graph: {exc.args[0]}")
        return None


def _load_graph(args: argparse.Namespace) -> Graph:
    if args.graph:
        if not os.path.exists(args.graph):
            resolved = _resolve_store_ref(args.graph)
            if resolved is not None:
                return resolved
        return read_edge_list(args.graph, label_path=args.labels)
    if args.dataset:
        return dataset(args.dataset)
    raise SystemExit(
        "pass --dataset <key>, --graph <edge list file>, or "
        "--graph <name[@version]> (see 'repro graphs')"
    )


def _add_graph_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dataset", choices=dataset_keys(), help="synthetic dataset key"
    )
    parser.add_argument(
        "--graph",
        help="edge-list file, or a registered store reference "
             "name[@vN|@latest] (see 'repro graphs')",
    )
    parser.add_argument("--labels", help="label file (with --graph)")
    _add_format_argument(parser)


def _add_time_limit_argument(parser: argparse.ArgumentParser) -> None:
    """``--time-limit``, on the commands that honour it (``mqc``,
    ``nsq`` and ``kws``)."""
    parser.add_argument(
        "--time-limit", type=float, default=None,
        help="abort after this many seconds",
    )


def _add_adjacency_argument(parser: argparse.ArgumentParser) -> None:
    """Candidate-kernel adjacency selection (engine-backed commands)."""
    parser.add_argument(
        "--adjacency", choices=ADJACENCY_MODES, default="auto",
        help="candidate-kernel adjacency mode (default: auto — "
             "kernels where the graph's degree warrants them; 'sets' "
             "is the reference frozenset path)",
    )


def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    """The flags of an engine run (``mqc`` and ``nsq``): everything
    :class:`repro.request.RunRequest` reads, plus the exports."""
    _add_time_limit_argument(parser)
    _add_adjacency_argument(parser)
    parser.add_argument(
        "--aux", action="store_true",
        help="prune each pattern's exploration adjacency to vertices "
             "that can appear in one of its matches (tier-2 kernels; "
             "see docs/performance.md)",
    )
    parser.add_argument(
        "--scheduler", choices=SCHEDULER_NAMES, default="serial",
        help="execution-core scheduler (default: serial)",
    )
    parser.add_argument(
        "--workers", type=int, default=2,
        help="worker count for parallel schedulers (default: 2)",
    )
    parser.add_argument(
        "--retries", type=int, default=0,
        help="re-dispatch shards lost to transient worker failures "
             "up to this many times, with capped exponential backoff "
             "(default: 0 — fail fast)",
    )
    parser.add_argument(
        "--on-failure", choices=ON_FAILURE_MODES, default="raise",
        help="after retries are exhausted: 'raise' the primary "
             "failure (default) or 'degrade' to a partial result "
             "marked incomplete with unprocessed roots listed",
    )
    parser.add_argument(
        "--admission", choices=ADMISSION_MODES, default="off",
        help="static cost-model gate before the run: 'warn' prints "
             "CG6xx projections (vs --time-limit) to stderr and "
             "proceeds; 'strict' refuses projected budget violations "
             "with exit code 2 (default: off)",
    )
    parser.add_argument(
        "--trace", metavar="FILE",
        help="write a Chrome trace_event JSON span trace of the run",
    )
    parser.add_argument(
        "--metrics", metavar="FILE",
        help="write run metrics in Prometheus text exposition format",
    )


def _export_observability(args: argparse.Namespace, tracer, registry) -> dict:
    """Finalize + write requested exports; returns json-extra fields."""
    extra: dict = {}
    if tracer is None:
        return extra
    tracer.finalize()
    publish_process_metrics(registry)
    if args.trace:
        tracer.write_chrome(args.trace)
        extra["trace_file"] = args.trace
        extra["trace_coverage"] = round(tracer.coverage(), 4)
    if args.metrics:
        registry.write_prometheus(args.metrics)
        extra["metrics_file"] = args.metrics
    extra["metrics"] = registry.snapshot()
    return extra


def _report(
    args: argparse.Namespace,
    summary: dict,
    record: RunRecord,
    extra: Optional[dict] = None,
) -> None:
    """Print a run result: short summary as text, full record as json.

    The record's envelope (configuration, counters, graph pin,
    admission) and ``extra`` (observability exports) only make sense
    machine-readable, so they appear under ``--format json`` alone; a
    degraded run is marked in both.
    """
    if args.format == "json":
        full = {**summary, **record.to_dict(), **(extra or {})}
        print(json.dumps(full, indent=2, default=str))
        return
    if getattr(record.result, "incomplete", False):
        print("incomplete: True")
        print(f"unprocessed_roots: {len(record.result.unprocessed_roots)}")
    for key, value in summary.items():
        print(f"{key}: {value}")


def _add_format_argument(
    parser: argparse.ArgumentParser,
    choices: tuple = ("text", "json"),
) -> None:
    """Shared ``--format`` flag (``analyze`` also offers ``explain``)."""
    parser.add_argument(
        "--format", choices=choices, default="text",
        help="output format (default: text)",
    )


def _emit(fmt: str, payload: dict, text: str) -> None:
    """One reporting path for every ``--format``-aware command."""
    if fmt == "json":
        print(json.dumps(payload, indent=2, default=str))
    else:
        print(text)


def _cmd_datasets(_args: argparse.Namespace) -> int:
    rows = []
    for key in dataset_keys():
        s = spec(key)
        g = dataset(key)
        rows.append(
            (key, s.paper_name, g.num_vertices, g.num_edges, g.num_labels)
        )
    print(
        format_table(
            ["key", "stands in for", "V", "E", "labels"],
            rows,
            title="Synthetic dataset analogs (see DESIGN.md)",
        )
    )
    return 0


def _cmd_graphs(args: argparse.Namespace) -> int:
    """List registered graph versions and derived-cache occupancy."""
    from .graph.store import derived_cache, graph_store

    store = graph_store()
    cache = derived_cache()
    entries = store.entries()
    registered = {gv.name for gv in entries}
    unmaterialized = [k for k in dataset_keys() if k not in registered]
    if args.format == "json":
        payload = {
            "graphs": [
                dict(
                    gv.to_dict(),
                    latest=(gv.version == store.latest(gv.name).version),
                    derived_artifacts=cache.artifact_count(gv.version_key),
                )
                for gv in entries
            ],
            "unmaterialized_datasets": unmaterialized,
            "derived_cache": cache.counters(),
        }
        print(json.dumps(payload, indent=2))
        return 0
    rows = []
    for gv in entries:
        latest = store.latest(gv.name).version == gv.version
        rows.append(
            (
                gv.ref + (" *" if latest else ""),
                gv.graph.num_vertices,
                gv.graph.num_edges,
                gv.graph.num_labels,
                gv.version_key,
                cache.artifact_count(gv.version_key),
            )
        )
    if rows:
        print(
            format_table(
                ["ref", "V", "E", "labels", "version key", "artifacts"],
                rows,
                title="Registered graph versions (* = latest)",
            )
        )
    else:
        print("no graphs registered yet")
    if unmaterialized:
        print(
            "datasets not yet materialized: "
            + ", ".join(unmaterialized)
        )
    counters = cache.counters()
    print(
        "derived cache: "
        f"{counters['hits']} hits, {counters['misses']} misses, "
        f"{counters['invalidations']} invalidations"
    )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    """``mqc`` and ``nsq``: flags -> request -> admit -> run -> report.

    Under ``--admission strict`` a projected budget violation aborts
    with exit code 2 before any task is scheduled; the gate and the
    record are the daemon's (:mod:`repro.request`).
    """
    from .analysis import Diagnostic

    request = RunRequest.of(
        {
            "workload": args.command,
            **{k: v for k, v in vars(args).items() if k in REQUEST_FIELDS},
        }
    )
    graph = _load_graph(args)
    decision = admit(request, graph)
    for diagnostic in decision.diagnostics:
        print(
            f"admission: {Diagnostic(**diagnostic).render()}",
            file=sys.stderr,
        )
    if not decision.admitted:
        print(
            "admission: rejected — raise the budget or pass "
            "--admission=warn",
            file=sys.stderr,
        )
        raise SystemExit(2)
    # Unobserved runs must not pay for bus subscriptions.
    ctx, tracer, registry = (
        observed_context(time_limit=args.time_limit)
        if args.trace or args.metrics
        else (None, None, None)
    )
    record = run(
        request, graph, ctx=ctx, admission=decision, metrics=registry
    )
    result = record.result
    if request.workload == "mqc":
        shaped = MaximalQuasiCliqueResult(result)
        summary = {
            "maximal_quasi_cliques": shaped.count,
            "by_size": {
                size: len(group)
                for size, group in sorted(shaped.by_size.items())
            },
            "elapsed_seconds": round(result.elapsed, 3),
            "vtasks": result.stats.vtasks_started,
            "vtasks_canceled": result.stats.vtasks_canceled_lateral,
            "promotions": result.stats.promotions,
            "cache_hit_rate": round(result.stats.cache_hit_rate, 3),
        }
    else:
        summary = {
            "query": args.query,
            "valid_matches": result.count,
            "elapsed_seconds": round(result.elapsed, 3),
            "vtasks": result.stats.vtasks_started,
        }
    _report(
        args, summary, record, _export_observability(args, tracer, registry)
    )
    return 0


def _cmd_quasicliques(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    # Fused mode walks the shared ESU tree directly; the kernel layer
    # applies only to per-pattern ETask exploration.
    record = RunRecord(
        graph, adjacency=None if args.fused else args.adjacency
    )
    if args.fused:
        result = mine_quasi_cliques_fused(
            graph, args.gamma, args.max_size, min_size=args.min_size
        )
    else:
        result = mine_quasi_cliques(
            graph, args.gamma, args.max_size, min_size=args.min_size,
            adjacency=args.adjacency,
        )
    _report(
        args,
        {
            "quasi_cliques": result.count,
            "by_size": {
                size: len(group)
                for size, group in sorted(result.by_size.items())
            },
            "elapsed_seconds": round(result.elapsed, 3),
            "mode": "fused" if args.fused else "per-pattern",
        },
        record.finish(result),
    )
    return 0


def _label_ids(text: str) -> list:
    """``--keywords 0,1`` as label ids (a field error otherwise)."""
    try:
        return [int(k) for k in text.split(",")]
    except ValueError:
        raise RequestError(
            "keywords",
            f"expected comma-separated label ids, got {text!r}",
        ) from None


def _cmd_kws(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    record = RunRecord(graph)
    if args.keywords in ("mf", "lf"):
        most_frequent, less_frequent = frequent_and_rare_keywords(graph)
        keywords = most_frequent if args.keywords == "mf" else less_frequent
    else:
        keywords = _label_ids(args.keywords)
    result = keyword_search(
        graph,
        keywords,
        args.max_size,
        time_limit=args.time_limit,
    )
    _report(
        args,
        {
            "keywords": keywords,
            "minimal_covers": result.count,
            "elapsed_seconds": round(result.elapsed, 3),
            "patterns_total": result.patterns_total,
            "patterns_skipped": result.patterns_skipped,
            "matches_checked": result.stats.matches_checked,
        },
        record.finish(result),
    )
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from .core import explain_workload

    graph = _load_graph(args)
    constraint_set = mqc_constraint_set(
        args.gamma, args.max_size, args.min_size
    )
    text = explain_workload(graph, constraint_set)
    _emit(
        args.format,
        {
            "workload": "mqc",
            "gamma": args.gamma,
            "max_size": args.max_size,
            "min_size": args.min_size,
            "patterns": len(constraint_set.patterns),
            "constraints": len(constraint_set.all_constraints),
            "explain": text,
        },
        text,
    )
    return 0


def _sched_report(
    args: argparse.Namespace, constraint_set=None, workload=None
):
    """CG5xx scheduler-feasibility report for ``analyze --scheduler``."""
    from .analysis import AnalysisReport, check_scheduler

    if args.scheduler is None:
        return AnalysisReport()
    return check_scheduler(
        args.scheduler,
        n_workers=args.workers,
        constraint_set=constraint_set,
        workload=workload,
    )


def _analyze_report(args: argparse.Namespace):
    """Build the AnalysisReport an ``analyze`` invocation asked for."""
    from .analysis import (
        AnalysisReport,
        analyze_constraint_set,
        analyze_kws_workload,
        analyze_query_spec,
        lint_pattern_text,
        selfcheck,
    )

    if args.pattern is not None:
        # Keep only the text-level diagnostics (CG004/CG005) from the
        # DSL pass; analyze_query_spec re-lints the parsed patterns, so
        # anything else would appear twice.
        report = AnalysisReport()
        parse_failed = False

        def parse(text: str, name: str):
            nonlocal parse_failed
            pattern, diagnostics = lint_pattern_text(
                text, name=name, induced=args.induced
            )
            report.extend(
                d for d in diagnostics if d.code in ("CG004", "CG005")
            )
            if pattern is None:
                parse_failed = True
            return pattern

        target = parse(args.pattern, "target")
        not_within = [
            p for p in (
                parse(text, f"not-within[{i}]")
                for i, text in enumerate(args.not_within)
            ) if p is not None
        ]
        only_within = [
            p for p in (
                parse(text, f"only-within[{i}]")
                for i, text in enumerate(args.only_within)
            ) if p is not None
        ]
        if target is not None and not parse_failed:
            report.merge(
                analyze_query_spec(
                    target,
                    not_within=not_within,
                    only_within=only_within,
                    induced=args.induced,
                )
            )
        report.merge(_sched_report(args))
        return report
    if args.workload == "mqc":
        constraint_set = mqc_constraint_set(
            args.gamma, args.max_size, args.min_size
        )
        report = analyze_constraint_set(constraint_set)
        report.merge(_sched_report(args, constraint_set=constraint_set))
        return report
    if args.workload == "kws":
        report = analyze_kws_workload(
            _label_ids(args.keywords), args.max_size
        )
        report.merge(_sched_report(args, workload="kws"))
        return report
    report = selfcheck(max_size=args.max_size, gamma=args.gamma)
    report.merge(_sched_report(args))
    return report


def _cmd_trace(args: argparse.Namespace) -> int:
    """Pretty-print a saved Chrome trace_event file as a span tree."""
    from .obs.validate import validate_chrome_trace

    with open(args.file, "r", encoding="utf-8") as fh:
        text = fh.read()
    problems = validate_chrome_trace(text)
    if problems:
        for problem in problems:
            print(f"{args.file}: {problem}", file=sys.stderr)
        return 1
    data = json.loads(text)
    events = data["traceEvents"] if isinstance(data, dict) else data
    names = {}
    spans_by_tid: dict = {}
    for event in events:
        if event.get("ph") == "M" and event.get("name") == "thread_name":
            names[event.get("tid")] = event.get("args", {}).get("name", "")
        elif event.get("ph") == "X":
            spans_by_tid.setdefault(event.get("tid"), []).append(event)
    if not spans_by_tid:
        print("(no spans)")
        return 0
    scale = {"s": 1e-6, "ms": 1e-3, "us": 1.0}[args.unit]
    for tid in sorted(spans_by_tid, key=str):
        label = names.get(tid) or f"tid-{tid}"
        print(f"[{label}]")
        # Spans nest properly (phase pairs), so a start-ordered stack
        # reconstructs the tree from flat "X" events.
        stack: list = []
        for event in sorted(
            spans_by_tid[tid],
            key=lambda e: (e.get("ts", 0), -e.get("dur", 0)),
        ):
            start = event.get("ts", 0)
            end = start + event.get("dur", 0)
            while stack and start >= stack[-1]:
                stack.pop()
            duration = event.get("dur", 0) * scale
            extras = event.get("args") or {}
            detail = (
                "  (" + ", ".join(
                    f"{k}={v}" for k, v in sorted(
                        extras.items(), key=lambda kv: str(kv[0])
                    )
                ) + ")"
                if extras else ""
            )
            indent = "  " * (len(stack) + 1)
            print(
                f"{indent}{event.get('name')} "
                f"{duration:.3f}{args.unit}{detail}"
            )
            stack.append(end)
    return 0


def _build_estimate(args: argparse.Namespace):
    """The CG6xx cost-model pass for ``analyze --estimate``.

    Returns ``(WorkloadEstimate, AnalysisReport)``.  Requires a graph
    source (``--dataset`` / ``--graph``): the whole point of the
    estimate is to project the plan onto concrete graph statistics.
    """
    from .analysis import (
        check_estimate,
        estimate_constraint_set,
        estimate_query_spec,
        library_patterns,
        lint_pattern_text,
    )
    from .core import ConstraintSet

    if not args.dataset and not args.graph:
        raise SystemExit(
            "--estimate needs a graph to estimate against: pass "
            "--dataset <key> or --graph <edge list file>"
        )
    stats = _load_graph(args).stats_summary()
    if args.pattern is not None:
        def parse(text: str, name: str = ""):
            pattern, _ = lint_pattern_text(
                text, name=name, induced=args.induced
            )
            return pattern

        # Named as in the analyze pass: its plan reads "target".
        target = parse(args.pattern, "target")
        if target is None:
            raise SystemExit(
                "--estimate requires a parseable --pattern "
                "(fix the CG004 diagnostics first)"
            )
        try:
            estimate = estimate_query_spec(
                target,
                not_within=[
                    p for p in map(parse, args.not_within) if p is not None
                ],
                only_within=[
                    p for p in map(parse, args.only_within) if p is not None
                ],
                induced=args.induced,
                stats=stats,
            )
        except ValueError as exc:
            raise SystemExit(f"--estimate: {exc}")
    elif args.workload == "mqc":
        estimate = estimate_constraint_set(
            mqc_constraint_set(args.gamma, args.max_size, args.min_size),
            stats,
        )
    elif args.workload == "kws":
        from .apps.kws import keyword_patterns

        estimate = estimate_constraint_set(
            ConstraintSet(
                keyword_patterns(_label_ids(args.keywords), args.max_size),
                [],
                induced=True,
            ),
            stats,
        )
    else:
        # Self-check mode: estimate the library patterns themselves.
        estimate = estimate_constraint_set(
            ConstraintSet(library_patterns(), []), stats
        )
    report = check_estimate(
        estimate,
        budget_seconds=args.budget_seconds,
        budget_bytes=args.budget_bytes,
        scheduler=args.scheduler,
        n_workers=args.workers,
    )
    return estimate, report


def _render_explain(report, estimate) -> str:
    """Verbose ``--format explain`` rendering: findings + registry docs."""
    from .analysis import CODES

    lines = []
    for diagnostic in report.diagnostics:
        lines.append(diagnostic.render())
        _, _, description = CODES[diagnostic.code]
        lines.append(f"    = {description}")
    lines.append(
        f"{len(report.errors)} error(s), {len(report.warnings)} "
        f"warning(s), {len(report.infos)} info(s)"
    )
    if estimate is not None:
        lines.append("")
        lines.append(f"estimate for {estimate.graph.version}:")
        lines.append(
            f"  total candidates ~{estimate.total_candidates:,.0f} "
            f"(etask {estimate.etask_candidates:,.0f} + vtask "
            f"{estimate.vtask_candidates:,.0f}), matches "
            f"~{estimate.est_matches:,.0f}"
        )
        lines.append(
            f"  projected peak memory "
            f"~{estimate.peak_memory_bytes / 1e6:.1f}MB"
        )
        lines.append(
            f"  projected serial wall time ~{estimate.projected_seconds:.2f}s"
        )
    lines.append("see docs/analysis.md for the diagnostic-code reference")
    return "\n".join(lines)


def _cmd_analyze(args: argparse.Namespace) -> int:
    RunRequest.of({"workers": args.workers})  # the run path's field check
    report = _analyze_report(args)
    estimate = None
    if args.estimate:
        estimate, estimate_report = _build_estimate(args)
        report.merge(estimate_report)
    if args.suppress:
        report = report.suppress(
            code.strip() for code in args.suppress.split(",")
        )
    report = report.sorted()
    fmt = args.format
    payload = report.to_dict()
    if estimate is not None:
        payload["estimate"] = estimate.to_dict()
    if fmt == "explain":
        print(_render_explain(report, estimate))
    else:
        text = report.render_text()
        if estimate is not None:
            text += (
                f"\nestimate: ~{estimate.total_candidates:,.0f} "
                f"candidates, projected serial "
                f"{estimate.projected_seconds:.2f}s"
            )
        _emit(fmt, payload, text)
    return 1 if report.has_errors else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Contigra reproduction: constrained graph mining",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list the synthetic datasets")

    graphs = sub.add_parser(
        "graphs",
        help="list registered graph versions (store refs for --graph)",
    )
    _add_format_argument(graphs)

    mqc = sub.add_parser("mqc", help="maximal quasi-cliques")
    _add_graph_arguments(mqc)
    _add_run_arguments(mqc)
    mqc.add_argument("--gamma", type=float, default=0.8)
    mqc.add_argument("--max-size", type=int, default=5)
    mqc.add_argument("--min-size", type=int, default=3)

    qcs = sub.add_parser("quasicliques", help="unconstrained quasi-cliques")
    _add_graph_arguments(qcs)
    _add_adjacency_argument(qcs)
    qcs.add_argument("--gamma", type=float, default=0.8)
    qcs.add_argument("--max-size", type=int, default=5)
    qcs.add_argument("--min-size", type=int, default=3)
    qcs.add_argument("--fused", action="store_true",
                     help="fusion+promotion mode (paper §5.4)")

    kws = sub.add_parser("kws", help="minimal keyword search")
    _add_graph_arguments(kws)
    _add_time_limit_argument(kws)
    kws.add_argument(
        "--keywords", default="mf",
        help="'mf', 'lf', or comma-separated label ids",
    )
    kws.add_argument("--max-size", type=int, default=5)

    nsq = sub.add_parser("nsq", help="nested subgraph queries")
    _add_graph_arguments(nsq)
    _add_run_arguments(nsq)
    nsq.add_argument(
        "--query", choices=NSQ_QUERIES, default="triangles",
    )

    trace = sub.add_parser(
        "trace", help="pretty-print a saved --trace span file"
    )
    trace.add_argument("file", help="Chrome trace_event JSON file")
    trace.add_argument(
        "--unit", choices=("s", "ms", "us"), default="ms",
        help="duration unit for the tree (default: ms)",
    )

    explain = sub.add_parser(
        "explain", help="describe an MQC workload's plans and schedules"
    )
    _add_graph_arguments(explain)
    explain.add_argument("--gamma", type=float, default=0.8)
    explain.add_argument("--max-size", type=int, default=5)
    explain.add_argument("--min-size", type=int, default=3)

    analyze = sub.add_parser(
        "analyze",
        help="static query analysis (CGxxx diagnostics, no mining)",
        description=(
            "Lint patterns and constraints before any exploration. "
            "With no arguments, runs the library-wide self-check used "
            "as the CI analysis gate. Exits 1 when any error-severity "
            "diagnostic remains after --suppress."
        ),
    )
    _add_format_argument(analyze, choices=("text", "json", "explain"))
    analyze.add_argument(
        "--pattern", help="target pattern DSL text (see repro.patterns.dsl)"
    )
    analyze.add_argument(
        "--not-within", action="append", default=[], metavar="DSL",
        help="forbid containment in this pattern (repeatable)",
    )
    analyze.add_argument(
        "--only-within", action="append", default=[], metavar="DSL",
        help="require containment in this pattern (repeatable)",
    )
    analyze.add_argument(
        "--induced", action="store_true",
        help="vertex-induced matching semantics",
    )
    analyze.add_argument(
        "--workload", choices=("mqc", "kws"),
        help="analyze a whole app workload instead of one query",
    )
    analyze.add_argument("--gamma", type=float, default=0.8)
    analyze.add_argument("--max-size", type=int, default=4)
    analyze.add_argument("--min-size", type=int, default=3)
    analyze.add_argument(
        "--keywords", default="0,1",
        help="comma-separated label ids (with --workload kws)",
    )
    analyze.add_argument(
        "--suppress", metavar="CODES",
        help="comma-separated CGxxx codes to filter out",
    )
    analyze.add_argument(
        "--scheduler", metavar="NAME",
        help="also check whether this execution-core scheduler can "
        "honor the query's constraints (CG5xx diagnostics)",
    )
    analyze.add_argument(
        "--workers", type=int, default=2,
        help="worker count assumed for --scheduler checks",
    )
    analyze.add_argument(
        "--estimate", action="store_true",
        help="run the CG6xx static cost model against a graph "
             "(--dataset/--graph): cardinality, peak memory, and "
             "serial wall-time projections",
    )
    analyze.add_argument(
        "--budget-seconds", type=float, default=None, metavar="S",
        help="with --estimate: flag CG601 when the projected wall "
             "time exceeds this budget",
    )
    analyze.add_argument(
        "--budget-bytes", type=int, default=None, metavar="B",
        help="with --estimate: flag CG602 when the projected peak "
             "memory exceeds this budget",
    )
    analyze.add_argument(
        "--dataset", choices=dataset_keys(),
        help="synthetic dataset key (with --estimate)",
    )
    analyze.add_argument(
        "--graph", help="edge-list file (with --estimate)"
    )
    analyze.add_argument(
        "--labels", help="label file (with --graph)"
    )

    serve = sub.add_parser(
        "serve",
        help="run the long-lived mining daemon (see docs/serving.md)",
        description=(
            "Serve the graph registry and MQC queries over HTTP: "
            "per-tenant token-bucket rate limits, CG6xx admission "
            "control, bounded concurrent runs, and NDJSON match "
            "streaming."
        ),
    )
    add_serve_arguments(serve)

    watch = sub.add_parser(
        "watch",
        help="open a standing query against a running daemon and "
             "stream match deltas (see docs/incremental.md)",
        description=(
            "Subscribe to a registered graph on a running repro "
            "daemon: prints one NDJSON line per delta event "
            "(match_added / match_retracted / delta summaries) as "
            "mutation batches land, until interrupted or the daemon "
            "shuts down."
        ),
    )
    watch.add_argument("graph", help="store name of the graph to watch")
    watch.add_argument("--host", default="127.0.0.1")
    watch.add_argument("--port", type=int, default=8265)
    watch.add_argument(
        "--tenant", default="default", help="tenant to account the "
        "subscription (and its baseline mine) against",
    )
    watch.add_argument(
        "--gamma", type=float, default=0.8, help="quasi-clique density"
    )
    watch.add_argument(
        "--max-size", type=int, default=4, help="largest pattern size"
    )
    watch.add_argument(
        "--min-size", type=int, default=3, help="smallest pattern size"
    )
    watch.add_argument(
        "--scheduler", choices=SCHEDULER_NAMES,
        default="serial", help="scheduler for delta re-exploration",
    )
    watch.add_argument(
        "--workers", type=int, default=2,
        help="workers for parallel schedulers",
    )
    watch.add_argument(
        "--summaries-only", action="store_true",
        help="print only the per-batch delta summary lines, not "
             "individual match_added/match_retracted events",
    )
    return parser


def _cmd_watch(args: argparse.Namespace) -> int:
    from .serve import ServeClient, ServeError

    client = ServeClient(args.host, args.port, timeout=3600.0)
    stream = client.subscribe(
        tenant=args.tenant,
        graph=args.graph,
        gamma=args.gamma,
        max_size=args.max_size,
        min_size=args.min_size,
        scheduler=args.scheduler,
        workers=args.workers,
    )
    try:
        for event in stream:
            if args.summaries_only and event.get("type") in (
                "match_added", "match_retracted"
            ):
                continue
            print(json.dumps(event), flush=True)
            if event.get("type") == "closed":
                break
    except ServeError as exc:
        print(json.dumps(exc.payload), file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        pass
    finally:
        stream.close()
    return 0


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "datasets": _cmd_datasets,
        "graphs": _cmd_graphs,
        "mqc": _cmd_run,
        "quasicliques": _cmd_quasicliques,
        "kws": _cmd_kws,
        "nsq": _cmd_run,
        "trace": _cmd_trace,
        "explain": _cmd_explain,
        "analyze": _cmd_analyze,
        "serve": run_daemon,
        "watch": _cmd_watch,
    }
    try:
        return handlers[args.command](args)
    except RequestError as exc:
        # A flag value argparse's types let through but the request
        # rejects: same one-line exit-2 shape, same text as the
        # daemon's 400.
        parser.error(str(exc))
    except (
        TimeLimitExceeded, MemoryBudgetExceeded, StorageBudgetExceeded
    ) as exc:
        # A run that outgrew its budget (``--on-failure degrade`` turns
        # this into a partial record instead): one line, the daemon's
        # ``error`` text.
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Downstream consumer (e.g. ``| head``) closed the pipe; exit
        # quietly like a well-behaved Unix filter.  Redirect stdout to
        # devnull so the interpreter's flush-at-exit doesn't re-raise.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
