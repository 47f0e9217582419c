"""``python -m repro.serve`` — serve, or run the CI smoke check.

``--smoke`` boots a daemon on an ephemeral port, registers a small
graph, streams one MQC and one NSQ query through the full intake path
(rate limit → admission → queue → worker slot → NDJSON), sends the MQC
query again with ``stream: false`` and asserts the aggregated match
list equals the streamed one in order, opens a standing
query, applies one mutation batch and asserts the delta stream
delivers the resulting ``match_added`` + ``delta`` events, scrapes
``/metrics``, shuts down cleanly, and prints a JSON report.  A nonzero
exit code means some stage of that round trip broke — this is the CI
``serve-smoke`` job's entry point.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional

from ..bench import dataset, dataset_keys
from ..request import ADMISSION_MODES
from .client import ServeClient
from .config import ServeConfig
from .daemon import serve_in_thread


def _smoke() -> int:
    config = ServeConfig(max_concurrent=2, admission="warn", port=0)
    handle = serve_in_thread(config)
    report: Dict[str, Any] = {"port": handle.port}
    try:
        client = ServeClient(handle.host, handle.port, timeout=120.0)
        report["health"] = client.health()
        # A bundled synthetic dataset, registered through the HTTP
        # registry like any client graph would be.
        client.register_graph("smoke", dataset="dblp")
        mqc = dict(
            tenant="smoke-ci", graph="smoke", gamma=0.8, max_size=4,
            time_limit=120.0,
        )
        events: List[Dict[str, Any]] = list(client.stream_query(**mqc))
        report["events"] = len(events)
        report["accepted"] = bool(
            events and events[0].get("type") == "accepted"
        )
        summary = events[-1] if events else {}
        report["summary"] = summary
        matches = [e for e in events if e.get("type") == "match"]
        report["streamed_matches"] = len(matches)
        # The same query aggregated: the same matches, in the same order.
        aggregated = client.query(**mqc)["matches"]
        report["aggregate_ok"] = [
            (e["pattern"], e["vertices"]) for e in aggregated
        ] == [(e["pattern"], e["vertices"]) for e in matches]
        nsq_events = list(
            client.stream_query(
                tenant="smoke-ci",
                graph="smoke",
                workload="nsq",
                query="tailed-triangles",
                time_limit=120.0,
            )
        )
        nsq_summary = nsq_events[-1] if nsq_events else {}
        report["nsq_summary"] = nsq_summary
        nsq_matches = [e for e in nsq_events if e.get("type") == "match"]
        # Standing query round trip: subscribe, mutate (a disjoint
        # triangle appended to the graph — a guaranteed new maximal
        # quasi-clique), and assert the delta stream delivers it.
        registered = client.graphs()
        n = next(
            g["num_vertices"] for g in registered if g["name"] == "smoke"
        )
        stream = client.subscribe(
            tenant="smoke-ci", graph="smoke", gamma=0.8, max_size=4
        )
        subscribed = next(stream)
        report["subscribed"] = subscribed.get("type") == "subscribed"
        report["baseline_matches"] = subscribed.get("matches")
        client.mutate_graph(
            "smoke",
            add_vertices=3,
            add_edges=[[n, n + 1], [n, n + 2], [n + 1, n + 2]],
        )
        delta_events: List[Dict[str, Any]] = []
        for event in stream:
            delta_events.append(event)
            if event.get("type") == "delta":
                break
        stream.close()
        delta = delta_events[-1] if delta_events else {}
        report["delta"] = delta
        delta_added = [
            e for e in delta_events if e.get("type") == "match_added"
        ]
        new_triangle = sorted([n, n + 1, n + 2])
        report["delta_ok"] = (
            report["subscribed"]
            and delta.get("type") == "delta"
            and delta.get("mode") == "delta"
            and any(
                sorted(e.get("vertices", [])) == new_triangle
                for e in delta_added
            )
            and delta.get("frontier") == 3
        )
        metrics = client.metrics()
        report["metrics_ok"] = (
            'repro_serve_queries_total{tenant="smoke-ci"} 3' in metrics
            and 'repro_serve_subscriptions_total{tenant="smoke-ci"} 1'
            in metrics
            and "repro_incremental_frontier_size" in metrics
        )
        ok = (
            report["accepted"]
            and summary.get("status") == "ok"
            and len(matches) > 0
            and summary.get("matches") == len(matches)
            and report["aggregate_ok"]
            and nsq_summary.get("status") == "ok"
            and nsq_summary.get("matches") == len(nsq_matches) > 0
            and report["delta_ok"]
            and report["metrics_ok"]
        )
        report["ok"] = ok
        return 0 if ok else 1
    except Exception as exc:  # noqa: BLE001 — smoke reports any failure
        report["ok"] = False
        report["error"] = f"{type(exc).__name__}: {exc}"
        return 1
    finally:
        handle.stop()
        print(json.dumps(report, indent=2, default=str))


def add_serve_arguments(parser: argparse.ArgumentParser) -> None:
    """The daemon's flags, shared by ``repro serve`` and
    ``python -m repro.serve``."""
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8265)
    parser.add_argument(
        "--max-concurrent", type=int, default=2,
        help="worker slots executing queries concurrently",
    )
    parser.add_argument(
        "--admission", choices=ADMISSION_MODES, default="strict",
        help="CG6xx admission gate mode (strict rejects projected "
             "TLE/OOM before scheduling)",
    )
    parser.add_argument(
        "--tenant-config", default=None, metavar="FILE",
        help="JSON tenant policy file (rates, priorities, budgets; "
             "see docs/serving.md)",
    )
    parser.add_argument(
        "--preload", action="append", default=[], metavar="DATASET",
        choices=dataset_keys(),
        help="register this synthetic dataset at startup (repeatable)",
    )


def run_daemon(args: argparse.Namespace) -> int:
    """Serve until interrupted or ``POST /shutdown``; the first stdout
    line is the ``{"serving": "host:port", ...}`` JSON launchers parse."""
    for key in args.preload:
        dataset(key)  # registers in the process-global graph store
    options = dict(
        host=args.host,
        port=args.port,
        max_concurrent=args.max_concurrent,
        admission=args.admission,
    )
    config = (
        ServeConfig.from_file(args.tenant_config, **options)
        if args.tenant_config
        else ServeConfig(**options)
    )
    handle = serve_in_thread(config)
    print(
        json.dumps(
            {
                "serving": f"{handle.host}:{handle.port}",
                "admission": config.admission,
                "max_concurrent": config.max_concurrent,
                "preloaded": list(args.preload),
            }
        ),
        flush=True,
    )
    try:
        handle.thread.join()
    except KeyboardInterrupt:
        handle.stop()
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Run the mining daemon (or its CI smoke check).",
    )
    add_serve_arguments(parser)
    parser.add_argument(
        "--smoke", action="store_true",
        help="boot ephemeral daemon, run one streamed query, exit",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        return _smoke()
    return run_daemon(args)


if __name__ == "__main__":
    sys.exit(main())
