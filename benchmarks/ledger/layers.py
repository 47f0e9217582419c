"""Per-layer drivers for the traced run.

No file under ``src/`` is instrumented: every number here comes from
outside the program, in one of two ways.

* **Counts** are read from the program's public result objects
  (``ConstraintStats.as_dict()``, ``RunScope.deltas()``, daemon
  summaries and ``/metrics``).  On serial paths they repeat exactly.
* **Times** come from drivers that call a layer's public functions on a
  seeded sample of the workload's own inputs, each under a span named
  after the layer.  ``*.est_share`` is calls × time-per-call over the
  workload's wall time — an estimate, stated as such, with the
  remainder reported as ``bench.unattributed_share``.

A metric a workload does not compute is reported as 0 by ``run.py``:
the layer does no work there.
"""

from __future__ import annotations

import pickle
import random
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.analysis.costmodel import estimate_constraint_set
from repro.core.constraints import ConstraintSet, maximality_constraints
from repro.core.runtime import ContigraEngine, ContigraJob
from repro.core.vtask import ValidationTarget
from repro.exec.scheduler import make_scheduler
from repro.graph.graph import Graph
from repro.graph.index import GraphIndex
from repro.graph.shm import (
    acquire_graph,
    attach_graph,
    publish_graph,
    release_graph,
    unpublish_graph,
)
from repro.graph.stats import GraphStats
from repro.graph.store import (
    DerivedCache,
    GraphStore,
    graph_fingerprint,
)
from repro.mining.cache import SetOperationCache
from repro.mining.candidates import raw_intersection
from repro.mining.etask import run_single_pattern
from repro.mining.incremental import (
    StandingQuery,
    SubscriptionRegistry,
    delta_frontier,
    expand_frontier,
    scratch_index,
)
from repro.mining.stats import ConstraintStats
from repro.mining.subsets import count_connected_sets
from repro.obs import observed_context
from repro.patterns.plan import plan_for
from repro.patterns.quasicliques import quasi_clique_patterns_up_to

from daemon import prometheus_value, shm_segments

SAMPLE = 2000
SAMPLE_SEED = 20240427


def clock(fn: Callable[[], Any]) -> Tuple[float, Any]:
    started = time.perf_counter()
    out = fn()
    return time.perf_counter() - started, out


def sample(items: Sequence[Any], k: int = SAMPLE) -> List[Any]:
    if len(items) <= k:
        return list(items)
    return random.Random(SAMPLE_SEED).sample(list(items), k)


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def tail_latencies(w: Any) -> Dict[str, float]:
    """The window's slower operations.  Not end-to-end metrics: an 8 s
    window holds ~65 queries / ~40 mutations, too few for a tail steady
    enough to carry a regression bound."""
    return {
        "serve.client.op_p75_ms": statistics.quantiles(w.latencies, n=4)[2]
        * 1e3,
        "serve.client.op_p90_ms": statistics.quantiles(w.latencies, n=10)[8]
        * 1e3,
    }


class Boundary:
    """Counts and times calls across one layer boundary by standing in
    for the layer's entry function while active.

    The program exposes no per-layer clock, and a layer's cost depends
    on the state its caller hands it (a VTask fused with its ETask's
    cache is far cheaper than one run cold), so busy time is taken
    where the work happens: one untimed, serial iteration of the traced
    run executes under these shims.  Nothing is recorded per call
    beyond two clock reads and two additions.
    """

    def __init__(self, owner: Any, name: str) -> None:
        self.owner = owner
        self.name = name
        self.calls = 0
        self.seconds = 0.0
        real = getattr(owner, name)
        self._real = real
        timer = time.perf_counter

        def shim(*args: Any, **kwargs: Any) -> Any:
            started = timer()
            try:
                return real(*args, **kwargs)
            finally:
                self.seconds += timer() - started
                self.calls += 1

        self._shim = shim

    def __enter__(self) -> "Boundary":
        setattr(self.owner, self.name, self._shim)
        return self

    def __exit__(self, *exc: Any) -> None:
        setattr(self.owner, self.name, self._real)


def instrumented_iteration(w: Any) -> Dict[str, Any]:
    """One serial iteration under boundary shims (engine workloads)."""
    import repro.core.runtime as runtime

    canonical = Boundary(runtime, "canonical_assignment")
    vtask_run = Boundary(ValidationTarget, "run")
    vtask_all = Boundary(ValidationTarget, "enumerate_completions")
    with canonical, vtask_run, vtask_all:
        wall, _ = w.timed("instrumented", **w.serial_options)
    return {
        "wall": wall,
        "canonical": canonical,
        "vtask_calls": vtask_run.calls + vtask_all.calls,
        "vtask_seconds": vtask_run.seconds + vtask_all.seconds,
    }


# ----------------------------------------------------------------------
# Workload → engine pieces
# ----------------------------------------------------------------------


def build_plans(w: Any) -> ConstraintSet:
    constraints = w.constraint_set()
    for pattern in constraints.patterns:
        plan_for(pattern, induced=constraints.induced)
    return constraints


def cold_builds(w: Any) -> Dict[str, float]:
    """First-time construction costs; must run before the warm-up,
    while the plan memo, alignment tables and indexes are still cold."""
    out: Dict[str, float] = {}
    if w.constraint_set() is None:
        return out
    with w.tracer.span("patterns.plan.build"):
        seconds, constraints = clock(lambda: build_plans(w))
    out["patterns.plan.build_ms"] = seconds * 1e3
    with w.tracer.span("core.runtime.engine_build"):
        seconds, _ = clock(
            lambda: [
                ContigraEngine(g, constraints) for g in w.graphs.values()
            ]
        )
    out["core.runtime.engine_build_ms"] = seconds * 1e3
    if w.wants_kernels:
        with w.tracer.span("graph.index.build"):
            seconds, _ = clock(
                lambda: [materialized_index(g) for g in w.graphs.values()]
            )
        out["graph.index.build_ms"] = seconds * 1e3
    return out


def materialized_index(graph: Graph) -> GraphIndex:
    """A cold ``auto`` index with every lazy bitset built."""
    index = GraphIndex(graph, mode="auto")
    for v in graph.vertices():
        index.neighbor_bits(v)
    return index


# ----------------------------------------------------------------------
# Batch workloads
# ----------------------------------------------------------------------


def batch_layers(w: Any) -> Dict[str, float]:
    wall = statistics.median(w.latencies)
    out: Dict[str, float] = dict(w.cold)

    # Tracing overhead: the same iteration with the recorder off.
    w.tracer.enabled = False
    plain, _ = w.timed("untraced")
    w.tracer.enabled = True
    out["bench.trace_overhead_ratio"] = wall / plain

    counters: Dict[str, float] = {}
    for per_graph in w.counter_runs[-1].values():
        for key, value in per_graph.items():
            counters[key] = counters.get(key, 0) + value

    constraints = w.constraint_set()
    if constraints is None:
        out.update(kws_layers(w, wall, counters))
    else:
        out.update(engine_layers(w, wall, counters, constraints))
    return out


def kws_layers(
    w: Any, wall: float, counters: Dict[str, float]
) -> Dict[str, float]:
    with w.tracer.span("mining.subsets.explore"):
        explore, _ = clock(
            lambda: [
                count_connected_sets(g, w.max_size)
                for g in w.graphs.values()
            ]
        )
    share = explore / wall
    return {
        "mining.subsets.explore_s": explore,
        "mining.subsets.est_share": share,
        "apps.kws.checks": counters["matches_checked"],
        "apps.kws.skip_ratio": 1.0 - ratio(
            counters["matches_checked"], counters["matches_found"]
        ),
        "bench.unattributed_share": 1.0 - share,
    }


def engine_layers(
    w: Any, wall: float, counters: Dict[str, float],
    constraints: ConstraintSet,
) -> Dict[str, float]:
    out: Dict[str, float] = {}
    induced = constraints.induced
    # -- counts from the run's own counters -------------------------------
    out["graph.index.kernel_share"] = ratio(
        counters["bitset_intersections"] + counters["galloping_intersections"],
        counters["set_intersections"],
    )
    out["mining.cache.hit_ratio"] = ratio(
        counters["cache_hits"],
        counters["cache_hits"] + counters["cache_misses"],
    )
    out["core.vtask.started"] = counters["vtasks_started"]
    out["core.vtask.cancel_ratio"] = ratio(
        counters["vtasks_canceled_lateral"],
        counters["vtasks_started"] + counters["vtasks_canceled_lateral"],
    )
    out["core.vtask.bridge_steps"] = counters["bridge_steps"]
    out["core.runtime.promotions"] = counters["promotions"]
    out["core.runtime.etasks_canceled"] = counters["etasks_canceled"]
    out["core.runtime.matches_checked"] = counters["matches_checked"]

    # -- mining.etask: exploration alone, no constraints ------------------
    found: Dict[Tuple[str, Any], List[Tuple[int, ...]]] = {}
    extensions = 0
    with w.tracer.span("mining.etask.explore"):
        started = time.perf_counter()
        for key, graph in w.graphs.items():
            for pattern in constraints.patterns:
                bucket = found.setdefault((key, pattern.structure_key()), [])
                stats = run_single_pattern(
                    graph,
                    plan_for(pattern, induced=induced),
                    lambda m, bucket=bucket: bucket.append(m.assignment),
                )
                extensions += stats.extensions_attempted
        explore = time.perf_counter() - started
    out["mining.etask.explore_s"] = explore
    out["mining.etask.extensions"] = extensions
    out["mining.etask.extensions_per_s"] = extensions / explore
    # Shares are of one serial run's time: the instrumented iteration.
    seen = w.instrumented
    out["mining.etask.est_share"] = explore / seen["wall"]
    out["core.runtime.validate_share"] = 1.0 - explore / seen["wall"]

    # -- busy time at the layer boundaries (instrumented iteration) -------
    canonical = seen["canonical"]
    out["patterns.symmetry.canonical_us"] = (
        ratio(canonical.seconds, canonical.calls) * 1e6
    )
    out["patterns.symmetry.est_share"] = canonical.seconds / seen["wall"]
    out["core.vtask.run_us"] = (
        ratio(seen["vtask_seconds"], seen["vtask_calls"]) * 1e6
    )
    out["core.vtask.est_share"] = seen["vtask_seconds"] / seen["wall"]

    # -- mining.candidates / mining.cache on the sets path ----------------
    anchors = [
        (key, assignment[:2])
        for (key, _), matches in found.items()
        for assignment in sample(matches, 200)
    ]
    anchors = sample(anchors)
    stats = ConstraintStats()
    with w.tracer.span("mining.candidates.compute", calls=len(anchors)):
        seconds, pools = clock(
            lambda: [
                raw_intersection(
                    w.graphs[key], pair, SetOperationCache(stats=stats), stats
                )
                for key, pair in anchors
            ]
        )
    out["mining.candidates.compute_us"] = ratio(seconds, len(anchors)) * 1e6
    cache = SetOperationCache(stats=stats)
    keys = [frozenset(pair) for _, pair in anchors]
    with w.tracer.span("mining.cache.lookup", calls=len(keys)):
        seconds, _ = clock(
            lambda: [
                (cache.lookup(k), cache.store(k, pool))
                for k, pool in zip(keys, pools)
            ]
        )
    out["mining.cache.lookup_us"] = ratio(seconds, len(keys)) * 1e6

    # -- graph.index.pool on the kernel path ------------------------------
    if w.wants_kernels:
        triples = [
            (key, assignment)
            for (key, _), matches in found.items()
            for assignment in sample(matches, 200)
            if len(assignment) >= 3
        ]
        triples = sample(triples)
        indexes = {k: g.kernel_index("auto") for k, g in w.graphs.items()}
        with w.tracer.span("graph.index.pool", calls=len(triples)):
            seconds, _ = clock(
                lambda: [
                    indexes[key].refine(
                        indexes[key].pool(a[:2], None), a[2:3]
                    )
                    for key, a in triples
                ]
            )
        out["graph.index.pool_us"] = ratio(seconds, len(triples)) * 1e6

    # -- analysis.costmodel ----------------------------------------------
    estimated = 0.0
    with w.tracer.span("analysis.costmodel.estimate"):
        started = time.perf_counter()
        for graph in w.graphs.values():
            estimate = estimate_constraint_set(
                constraints, GraphStats.from_graph(graph)
            )
            estimated += estimate.total_candidates
        out["analysis.costmodel.estimate_ms"] = (
            time.perf_counter() - started
        ) * 1e3
    out["analysis.costmodel.error_ratio"] = ratio(
        estimated, counters["extensions_attempted"]
    )

    out["bench.unattributed_share"] = 1.0 - (
        out["mining.etask.est_share"]
        + out["patterns.symmetry.est_share"]
        + out["core.vtask.est_share"]
    )

    # -- whole-run comparisons the workload asks for ----------------------
    if "sets" in w.comparisons:
        out["graph.index.sets_wall_ratio"] = w.oracle_seconds / wall
    if "aux" in w.comparisons:
        seconds, _ = w.timed("aux", enable_aux=True)
        out["graph.aux.wall_ratio"] = seconds / wall
    if "observed" in w.comparisons:
        seconds, _ = w.timed("observed", ctx=observed_context()[0])
        out["obs.trace_overhead_ratio"] = seconds / wall
    if "serial_scheduler" in w.comparisons:
        seconds, _ = clock(lambda: serial_scheduler_run(w, constraints))
        out["exec.scheduler.serial_overhead_ratio"] = seconds / wall
    if "schedulers" in w.comparisons:
        out.update(scheduler_layers(w, wall, constraints))
    return out


def serial_scheduler_run(w: Any, constraints: ConstraintSet) -> None:
    with w.tracer.span("exec.scheduler.serial", op="serial-scheduler"):
        for graph in w.graphs.values():
            ContigraEngine(graph, constraints).run_with(
                make_scheduler("serial")
            )


class IdleJob(ContigraJob):
    """A job whose shards hold no root of the graph: a process run over
    it costs spawn + ship + merge and nothing else."""

    def all_roots(self) -> List[int]:
        return [-1, -2]


def timed_attach(name: str, fingerprint: str, segment: str) -> float:
    """Worker side: seconds to attach one published segment."""
    started = time.perf_counter()
    attach_graph(name, fingerprint, segment)
    return time.perf_counter() - started


def scheduler_layers(
    w: Any, wall: float, constraints: ConstraintSet
) -> Dict[str, float]:
    out: Dict[str, float] = {}
    (graph,) = w.graphs.values()
    before = shm_segments()

    with w.tracer.span("exec.scheduler.serial", op="serial"):
        serial, result = clock(lambda: w.mine("youtube", graph, scheduler=None))
    serial_extensions = result.stats.extensions_attempted
    out["exec.scheduler.process_speedup"] = serial / wall
    with w.tracer.span("exec.scheduler.workqueue", op="workqueue"):
        seconds, _ = clock(
            lambda: w.mine("youtube", graph, scheduler="workqueue")
        )
    out["exec.scheduler.workqueue_ratio"] = seconds / serial

    engine = ContigraEngine(graph, constraints)
    with w.tracer.span("exec.scheduler.dispatch", op="dispatch"):
        seconds, _ = clock(
            lambda: make_scheduler("process", n_workers=2).run(IdleJob(engine))
        )
    out["exec.scheduler.dispatch_ms"] = seconds * 1e3

    job = ContigraJob(engine)
    roots = job.all_roots()
    shard_seconds: List[float] = []
    shard_extensions = 0
    for i in range(2):
        with w.tracer.span("exec.scheduler.shard", op=f"shard-{i}"):
            seconds, shard = clock(lambda: job.run_shard(roots[i::2]))
        shard_seconds.append(seconds)
        shard_extensions += shard.stats.extensions_attempted
    out["exec.scheduler.shard_imbalance"] = max(shard_seconds) / (
        sum(shard_seconds) / len(shard_seconds)
    )
    out["exec.scheduler.duplicated_work_ratio"] = (
        shard_extensions / serial_extensions
    )

    # Shards ship while the run holds its shared-memory lease, so the
    # payload is measured under one.
    lease = acquire_graph(graph)
    try:
        out["exec.scheduler.payload_bytes"] = len(
            pickle.dumps(job.shard_payload(roots[0::2]))
        )
    finally:
        release_graph(lease)

    with w.tracer.span("graph.shm.publish"):
        seconds, segment = clock(lambda: publish_graph(graph))
    out["graph.shm.publish_ms"] = seconds * 1e3
    try:
        with w.tracer.span("graph.shm.attach"):
            with ProcessPoolExecutor(max_workers=1) as pool:
                attach = pool.submit(
                    timed_attach, graph.name, graph.fingerprint, segment
                ).result()
        out["graph.shm.attach_ms"] = attach * 1e3
    finally:
        unpublish_graph(graph.fingerprint)
    out["graph.shm.leaked_segments"] = len(shm_segments() - before)
    return out


# ----------------------------------------------------------------------
# Serve workloads
# ----------------------------------------------------------------------


def derived_hit_ratio(requests: Sequence[Any]) -> float:
    hits = misses = 0
    for request in requests:
        scope = request.summary.get("run", {}).get("derived_cache", {})
        hits += scope.get("hits", 0)
        misses += scope.get("misses", 0)
    return ratio(hits, hits + misses)


def serve_mixed_layers(w: Any) -> Dict[str, float]:
    from workloads import MQC_CLASSES, Request, issue
    from repro.apps.mqc import build_mqc_engine
    from repro.bench.datasets import dataset

    out = tail_latencies(w)
    ok = [r for r in w.requests if not r.error]
    streamed = [r for r in ok if r.spec["stream"]]
    aggregate = [r for r in ok if not r.spec["stream"]]
    run_ms = [r.summary["elapsed_seconds"] * 1e3 for r in ok]
    out["serve.daemon.intake_ms"] = statistics.median(
        (r.accepted - r.sent) * 1e3 for r in streamed
    )
    out["serve.daemon.run_ms"] = statistics.median(run_ms)
    out["serve.daemon.wait_ms"] = statistics.median(
        (r.done - r.accepted) * 1e3 - r.summary["elapsed_seconds"] * 1e3
        for r in streamed
    )
    out["serve.daemon.overhead_share"] = 1.0 - ratio(
        sum(run_ms), sum(r.latency * 1e3 for r in ok)
    )
    out["serve.daemon.stream_vs_aggregate_ratio"] = ratio(
        statistics.median(r.latency for r in streamed),
        statistics.median(r.latency for r in aggregate),
    )
    out["serve.client.first_match_p50_ms"] = statistics.median(
        (r.first_match - r.sent) * 1e3
        for r in streamed
        if r.first_match is not None
    )
    out["graph.store.derived_hit_ratio"] = derived_hit_ratio(ok)

    client = w.daemon.client()
    with w.tracer.span("serve.daemon.idle_rtt"):
        rtts = [clock(client.health)[0] for _ in range(50)]
    out["serve.daemon.idle_rtt_ms"] = statistics.median(rtts) * 1e3

    # One client alone against the same query run in this process: the
    # mix's most frequent class on its most frequent graph.
    _, gamma, max_size = MQC_CLASSES[0]
    spec = {
        "graph": "dblp", "gamma": gamma, "max_size": max_size,
        "stream": True,
    }
    alone: List[float] = []
    for i in range(20):
        request = Request(spec, "analyst")
        with w.tracer.span("serve.client.request", op=f"alone-{i}"):
            issue(client, request)
        if request.error:
            w.failures.append(f"single-client request failed: {request.error}")
        alone.append(request.latency)
    graph = dataset("dblp")
    with w.tracer.span("apps.mqc.inprocess"):
        local = [
            clock(
                lambda: build_mqc_engine(graph, gamma, max_size).run()
            )[0]
            for _ in range(10)
        ]
    out["serve.daemon.inprocess_ratio"] = statistics.median(
        alone
    ) / statistics.median(local)

    # What the daemon rebuilds on every request, timed here.
    def constraints() -> ConstraintSet:
        return maximality_constraints(
            quasi_clique_patterns_up_to(max_size, gamma, min_size=3),
            induced=True,
        )

    with w.tracer.span("patterns.plan.build"):
        out["patterns.plan.build_ms"] = statistics.median(
            clock(constraints)[0] for _ in range(20)
        ) * 1e3
    built = constraints()
    with w.tracer.span("analysis.costmodel.estimate"):
        out["analysis.costmodel.estimate_ms"] = statistics.median(
            clock(
                lambda: estimate_constraint_set(built, graph.stats_summary())
            )[0]
            for _ in range(20)
        ) * 1e3
    with w.tracer.span("core.runtime.engine_build"):
        out["core.runtime.engine_build_ms"] = statistics.median(
            clock(lambda: ContigraEngine(graph, built))[0] for _ in range(20)
        ) * 1e3

    text = client.metrics()
    refused = prometheus_value(
        text, "repro_serve_rate_limited_total"
    ) + prometheus_value(text, "repro_serve_admission_rejected_total")
    out["serve.daemon.refused_share"] = ratio(
        refused, prometheus_value(text, "repro_serve_queries_total")
    )
    return out


def serve_churn_layers(w: Any) -> Dict[str, float]:
    out = tail_latencies(w)
    n = w.initial.num_vertices
    out["mining.incremental.region_share"] = statistics.median(
        d["root_region"] / n for d in w.deltas
    )
    out["mining.incremental.scratch_fallbacks"] = sum(
        1 for d in w.deltas if d["mode"] == "scratch"
    )
    ok = [q for q in w.queries if not q.error]
    out["graph.store.derived_hit_ratio"] = derived_hit_ratio(ok)
    out["serve.client.query_p50_ms"] = (
        statistics.median(q.latency for q in ok) * 1e3
    )
    out["serve.daemon.run_ms"] = statistics.median(
        q.summary["elapsed_seconds"] * 1e3 for q in ok
    )

    # The same batches absorbed in this process: first by a bare store
    # (no listeners), then by a store with the standing query attached.
    query = StandingQuery.mqc(w.GAMMA, w.MAX_SIZE)
    radius = query.radius

    bare = GraphStore(cache=DerivedCache())
    bare.register(w.initial, "churn")
    apply_s: List[float] = []
    plan_s: List[float] = []
    with w.tracer.span("graph.store.apply_batch", calls=len(w.batches)):
        for batch in w.batches:
            old = bare.latest("churn").graph
            seconds, version = clock(lambda: bare.apply_batch("churn", batch))
            apply_s.append(seconds)
            started = time.perf_counter()
            region = expand_frontier(
                delta_frontier(batch, old.num_vertices), radius,
                old, version.graph,
            )
            expand_frontier(region, radius, old, version.graph)
            plan_s.append(time.perf_counter() - started)
    out["graph.store.apply_batch_ms"] = statistics.median(apply_s) * 1e3
    out["mining.incremental.plan_ms"] = statistics.median(plan_s) * 1e3
    final = bare.latest("churn").graph
    with w.tracer.span("graph.store.fingerprint"):
        seconds, _ = clock(
            lambda: graph_fingerprint(final.adjacency_rows(), final.labels)
        )
    out["graph.store.fingerprint_ms"] = seconds * 1e3

    cache = DerivedCache()
    store = GraphStore(cache=cache)
    store.register(w.initial, "churn")
    registry = SubscriptionRegistry(store=store, cache=cache)
    registry.attach()
    updates: List[Any] = []
    registry.subscribe("churn", query, sink=updates.append)
    with w.tracer.span("mining.incremental.delta", calls=len(w.batches)):
        for batch in w.batches:
            store.apply_batch("churn", batch)
    registry.detach()
    delta = statistics.median(u.elapsed for u in updates)
    out["mining.incremental.delta_ms"] = delta * 1e3
    out["graph.store.invalidations"] = cache.counters()["invalidations"]
    with w.tracer.span("mining.incremental.scratch"):
        seconds, _ = clock(lambda: scratch_index(final, query))
    out["mining.incremental.scratch_ratio"] = seconds / delta
    return out
