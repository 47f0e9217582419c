"""The seven ledger workloads.

Each workload owns its inputs, one untimed warm-up, a timed window of
whole operations, and a verification phase that runs after the window
and is excluded from every timing.  The workload seed drives only
*generated* inputs: the vertex numbering of the dense graph and which
edges a churn batch touches (arrangement only, never the amount of
work, so runs with different seeds stay comparable), and the
``serve_mixed`` request draw (the issue's seeded mix).  The program
under test receives inputs, never the seed.

Why each workload exists is recorded in ``BENCHMARK.json`` and in the
README's layer → metric → workload table.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import resource
import threading
import time
import traceback
from typing import (
    Any, Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple,
)

from repro.apps.kws import frequent_and_rare_keywords, keyword_search
from repro.apps.mqc import build_mqc_engine, maximal_quasi_cliques
from repro.apps.nsq import nested_subgraph_query, paper_query_tailed_triangles
from repro.baselines.peregrine_plus import posthoc_kws
from repro.bench.datasets import dataset
from repro.core.constraints import (
    ConstraintSet,
    maximality_constraints,
    nested_query_constraints,
)
from repro.graph.builder import GraphBuilder
from repro.graph.generators import community_graph
from repro.graph.graph import Graph
from repro.graph.index import auto_selects_kernels
from repro.graph.store import MutationBatch, apply_mutation
from repro.patterns.quasicliques import quasi_clique_patterns_up_to
from repro.serve.client import ServeClient, ServeError

from daemon import Daemon, shm_segments
from tracing import Tracer
from yardstick import Yardstick

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_DIR = os.path.join(HERE, "expected")

#: Fewest timed operations a batch workload measures, however short
#: ``--seconds`` is: a median needs three samples to shed one outlier.
#: The issue's floor of 5 does not fit the driver's budget of 158 runs
#: in 3420 s (README, "The driver's contract").
MIN_ITERATIONS = 3

MatchSet = FrozenSet[Tuple[int, ...]]


class WorkloadMeaningError(RuntimeError):
    """A workload's inputs no longer exercise what its name promises."""


def digest(matches: Iterable[Tuple[Any, ...]]) -> str:
    text = "\n".join(repr(m) for m in sorted(matches))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def engine_matches(valid: Iterable[Tuple[Any, Tuple[int, ...]]]) -> MatchSet:
    """A ContigraResult's matches as plain integer tuples."""
    return frozenset(
        (p.num_vertices, p.num_edges) + tuple(a) for p, a in valid
    )


def relabelled(graph: Graph, seed: int, name: str) -> Graph:
    """``graph`` with its vertices renumbered by a seeded permutation.

    An isomorphic copy: the match count and the exploration work are
    the same for every seed; only the arrangement changes.
    """
    order = list(graph.vertices())
    random.Random(seed).shuffle(order)
    builder = GraphBuilder(name=name)
    for v in graph.vertices():
        builder.add_vertex(v)
    for u, v in graph.edges():
        builder.add_edge(order[u], order[v])
    return builder.build()


def graph_facts(graph: Graph) -> Dict[str, Any]:
    n, m = graph.num_vertices, graph.num_edges
    return {
        "n": n,
        "m": m,
        "avg_degree": round(2.0 * m / n, 3) if n else 0.0,
        "auto_selects_kernels": auto_selects_kernels(graph),
    }


class Workload:
    """Common shape: setup → window → verify → close."""

    name = ""
    #: Name of the operation the end-to-end latencies describe.
    operation = ""

    def __init__(self, seed: int, tracer: Tracer, quick: bool) -> None:
        self.seed = seed
        self.tracer = tracer
        self.quick = quick
        self.latencies: List[float] = []
        #: The machine's slowness beside each latency (``yardstick``).
        self.slowness: List[float] = []
        self.gauge = Yardstick()
        #: Seconds of the window spent on operations, as read and at
        #: the machine's quiet speed.
        self.window_seconds = 0.0
        self.quiet_seconds = 0.0
        self.attempted = 0
        self.failures: List[str] = []

    def setup(self) -> None:
        raise NotImplementedError

    #: Fewest stretches a window measures, however short ``--seconds``.
    min_stretches = 1

    def stretch(self) -> List[float]:
        """Run the next stretch of the timed window — a few seconds of
        whole operations — and return their latencies."""
        raise NotImplementedError

    def window(self, seconds: float) -> None:
        """Stretches of operations with a yardstick reading between
        them, taken while nothing else runs; each stretch is booked at
        the mean of the readings either side of it."""
        floor = 1 if self.quick else self.min_stretches
        started = time.perf_counter()
        before = self.gauge.read()
        for done in itertools.count(1):
            stretch_started = time.perf_counter()
            latencies = self.stretch()
            elapsed = time.perf_counter() - stretch_started
            after = self.gauge.read()
            slowness = (before + after) / 2.0
            before = after
            self.latencies.extend(latencies)
            self.slowness.extend([slowness] * len(latencies))
            self.window_seconds += elapsed
            self.quiet_seconds += elapsed / slowness
            if done >= floor and (
                self.quick or time.perf_counter() - started >= seconds
            ):
                break

    def verify(self) -> None:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        raise NotImplementedError

    def manifest(self) -> Dict[str, Any]:
        raise NotImplementedError

    def layers(self) -> Dict[str, float]:
        """Per-layer metrics; only the traced run calls this."""
        raise NotImplementedError

    def close(self) -> None:
        """Stop everything the workload started."""

    # -- expected results ------------------------------------------------

    def observed(self) -> Dict[str, Any]:
        """What ``expected/<name>.json`` pins down, as measured.  The
        seed only arranges the inputs, so the same values hold for
        every seed."""
        raise NotImplementedError

    def check_expected(self) -> None:
        path = os.path.join(EXPECTED_DIR, f"{self.name}.json")
        with open(path, encoding="utf-8") as fh:
            expected = json.load(fh)
        for key, got in self.observed().items():
            self.attempted += 1
            if expected.get(key) != got:
                self.failures.append(
                    f"expected/{self.name}.json {key}: want "
                    f"{expected.get(key)!r}, got {got!r}"
                )


# ----------------------------------------------------------------------
# Batch workloads (library calls, one process)
# ----------------------------------------------------------------------


class BatchWorkload(Workload):
    """One operation = the application run over each graph in turn."""

    operation = "iteration"
    #: True → every graph must engage the kernel layer under ``auto``;
    #: False → none may; None → not part of the workload's meaning.
    wants_kernels: Optional[bool] = None
    #: Serial runs repeat their counters exactly.
    serial = True
    #: Options that make :meth:`mine` run serially in this process.
    serial_options: Dict[str, Any] = {}
    #: Whole-run comparisons the traced run makes on this workload, one
    #: extra iteration each (see ``layers.engine_layers``).
    comparisons: Tuple[str, ...] = ()

    def __init__(self, seed: int, tracer: Tracer, quick: bool) -> None:
        super().__init__(seed, tracer, quick)
        self.graphs: Dict[str, Graph] = {}
        self.last: Dict[str, Any] = {}
        self.counter_runs: List[Dict[str, Dict[str, float]]] = []
        self.oracle_seconds = 0.0
        #: First-build costs, measured before the warm-up (traced run).
        self.cold: Dict[str, float] = {}

    # -- per-workload hooks ----------------------------------------------

    def build_graphs(self) -> Dict[str, Graph]:
        raise NotImplementedError

    def mine(self, key: str, graph: Graph, **options: Any) -> Any:
        """The application call in its default configuration;
        ``options`` override engine knobs for layer comparisons."""
        raise NotImplementedError

    def matches_of(self, result: Any) -> MatchSet:
        raise NotImplementedError

    def constraint_set(self) -> Optional[ConstraintSet]:
        """The engine workload's constraints (None: not engine-based)."""
        return None

    def counters_of(self, result: Any) -> Dict[str, float]:
        return dict(result.stats.as_dict())

    def oracle(self, key: str, graph: Graph) -> Optional[MatchSet]:
        """Match set from the reference path (None = digest only)."""
        return self.matches_of(
            self.mine(
                key, graph, adjacency="sets", enable_aux=False,
                **self.serial_options,
            )
        )

    # -- phases ------------------------------------------------------------

    def iterate(self, op: str, **options: Any) -> Dict[str, Any]:
        results: Dict[str, Any] = {}
        with self.tracer.span("bench.iteration", op=op):
            for key, graph in self.graphs.items():
                with self.tracer.span(f"apps.{self.name}.run", graph=key):
                    results[key] = self.mine(key, graph, **options)
        return results

    def timed(self, op: str, **options: Any) -> Tuple[float, Dict[str, Any]]:
        started = time.perf_counter()
        results = self.iterate(op, **options)
        return time.perf_counter() - started, results

    def setup(self) -> None:
        with self.tracer.span("bench.setup", op="setup"):
            with self.tracer.span("graph.build"):
                self.graphs = self.build_graphs()
            if self.wants_kernels is not None:
                for key, graph in self.graphs.items():
                    if auto_selects_kernels(graph) != self.wants_kernels:
                        raise WorkloadMeaningError(
                            f"{self.name}: graph {key!r} has "
                            f"auto_selects_kernels="
                            f"{auto_selects_kernels(graph)}, the workload "
                            f"needs {self.wants_kernels}"
                        )
            if not self.tracer.enabled:
                self.iterate("warmup")
                return
            import layers  # only the traced run pays for its imports

            self.cold = layers.cold_builds(self)
            self.iterate("warmup")
            # After the warm-up: its wall is the denominator of every
            # ``*.est_share`` and must be a warm one.
            if self.constraint_set() is not None:
                self.instrumented = layers.instrumented_iteration(self)

    min_stretches = MIN_ITERATIONS

    def stretch(self) -> List[float]:
        elapsed, self.last = self.timed(f"iter-{len(self.latencies)}")
        self.counter_runs.append(
            {k: self.counters_of(r) for k, r in self.last.items()}
        )
        self.attempted += 1
        return [elapsed]

    def verify(self) -> None:
        started = time.perf_counter()
        for key, graph in self.graphs.items():
            self.attempted += 1
            with self.tracer.span("bench.oracle", op="verify", graph=key):
                want = self.oracle(key, graph)
            if want is not None and want != self.matches_of(self.last[key]):
                self.failures.append(
                    f"{key}: match set differs from the sets oracle"
                )
        self.oracle_seconds = time.perf_counter() - started
        if self.serial:
            self.attempted += 1
            if any(run != self.counter_runs[0] for run in self.counter_runs):
                self.failures.append("counters differ between iterations")
        self.check_expected()

    def observed(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        for key, result in self.last.items():
            matches = self.matches_of(result)
            out[f"{key}.matches"] = len(matches)
            out[f"{key}.digest"] = digest(matches)
            if self.serial:
                counters = self.counters_of(result)
                out[f"{key}.extensions_attempted"] = counters[
                    "extensions_attempted"
                ]
        return out

    def peak_rss_mb(self) -> float:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return (own + child) / 1024.0

    def manifest(self) -> Dict[str, Any]:
        return {k: graph_facts(g) for k, g in self.graphs.items()}

    def layers(self) -> Dict[str, float]:
        import layers

        return layers.batch_layers(self)


class MqcWorkload(BatchWorkload):
    gamma = 0.6
    max_size = 6
    scheduler: Optional[str] = None

    def mine(self, key: str, graph: Graph, **options: Any) -> Any:
        options.setdefault("scheduler", self.scheduler)
        return maximal_quasi_cliques(
            graph, self.gamma, self.max_size, n_workers=2, **options
        )

    def matches_of(self, result: Any) -> MatchSet:
        return engine_matches(result.raw.valid)

    def constraint_set(self) -> Optional[ConstraintSet]:
        return maximality_constraints(
            quasi_clique_patterns_up_to(self.max_size, self.gamma),
            induced=True,
        )


class MqcTable3(MqcWorkload):
    name = "mqc_table3"
    wants_kernels = False
    comparisons = ("sets", "aux", "observed", "serial_scheduler")

    def build_graphs(self) -> Dict[str, Graph]:
        return {"mico": dataset("mico"), "patents": dataset("patents")}


class MqcDense(MqcWorkload):
    name = "mqc_dense"
    gamma = 0.8
    max_size = 4
    wants_kernels = True
    comparisons = ("sets", "aux")

    def build_graphs(self) -> Dict[str, Graph]:
        # The structure is fixed (generator seed 5); the workload seed
        # renumbers it, so every seed mines an isomorphic graph.
        base = community_graph(
            8, 36, intra_probability=0.55, inter_edges=4, seed=5
        )
        return {"dense": relabelled(base, self.seed, "dense")}

    def observed(self) -> Dict[str, Any]:
        # The seed's numbering changes the digest and nothing else.
        return {
            k: v for k, v in super().observed().items()
            if not k.endswith(".digest")
        }


class MqcSharded(MqcWorkload):
    name = "mqc_sharded"
    scheduler = "process"
    serial = False
    serial_options = {"scheduler": None}
    comparisons = ("schedulers",)

    def __init__(self, seed: int, tracer: Tracer, quick: bool) -> None:
        super().__init__(seed, tracer, quick)
        self._shm_before = shm_segments()

    def build_graphs(self) -> Dict[str, Graph]:
        return {"youtube": dataset("youtube")}

    def verify(self) -> None:
        super().verify()
        self.attempted += 1
        leaked = sorted(shm_segments() - self._shm_before)
        if leaked:
            self.failures.append(f"leaked shm segments: {leaked}")


class NsqNested(BatchWorkload):
    name = "nsq_nested"
    comparisons = ("sets",)

    def __init__(self, seed: int, tracer: Tracer, quick: bool) -> None:
        super().__init__(seed, tracer, quick)
        self.p_m, self.p_plus = paper_query_tailed_triangles()

    def build_graphs(self) -> Dict[str, Graph]:
        return {"youtube": dataset("youtube"), "patents": dataset("patents")}

    def mine(self, key: str, graph: Graph, **options: Any) -> Any:
        return nested_subgraph_query(graph, self.p_m, self.p_plus, **options)

    def matches_of(self, result: Any) -> MatchSet:
        return engine_matches(result.valid)

    def constraint_set(self) -> Optional[ConstraintSet]:
        return nested_query_constraints(
            self.p_m, list(self.p_plus), induced=False
        )


class KwsMinimal(BatchWorkload):
    name = "kws_minimal"
    max_size = 5

    def build_graphs(self) -> Dict[str, Graph]:
        return {"patents": dataset("patents"), "mico": dataset("mico")}

    def keywords(self, graph: Graph) -> List[int]:
        return frequent_and_rare_keywords(graph, 3)[0]

    def mine(self, key: str, graph: Graph, **options: Any) -> Any:
        return keyword_search(
            graph, self.keywords(graph), self.max_size,
            collect_workload_stats=False, **options,
        )

    def matches_of(self, result: Any) -> MatchSet:
        return frozenset(tuple(sorted(s)) for s in result.minimal)

    def oracle(self, key: str, graph: Graph) -> Optional[MatchSet]:
        # The post-hoc baseline takes ~6x a KWS run on patents; there
        # the committed digest (generated from it once) stands in.
        if key != "mico":
            return None
        found = posthoc_kws(graph, self.keywords(graph), self.max_size)
        return frozenset(tuple(sorted(s)) for s in found.valid)


# ----------------------------------------------------------------------
# Serve workloads (daemon child process, closed-loop clients)
# ----------------------------------------------------------------------

#: The three MQC classes of the ``serve_mixed`` mix, as (weight, γ,
#: max_size).  They differ by size, not by γ: at size ≤ 4 every γ in
#: (2/3, 1] asks for the same minimum degrees (⌈γ(k-1)⌉ is 2 at k=3 and
#: 3 at k=4), so γ ∈ {0.7, 0.8, 0.9} would be one class sent under
#: three names.  Size ≤ 3 is the cheap class (10 ms of mining on
#: ``dblp``: a request is almost all intake and framing), size ≤ 5 the
#: dear one (114 ms against 63 ms at size ≤ 4).
MQC_CLASSES = ((6, 0.8, 4), (3, 0.8, 3), (1, 0.8, 5))


def request_mix(rng: random.Random) -> Iterator[Dict[str, Any]]:
    """An endless repeat-heavy mix drawn from one seeded generator:
    class 60/30/10, graph 80/20 dblp/mico, 70% streamed."""
    weights = [weight for weight, _, _ in MQC_CLASSES]
    while True:
        _, gamma, max_size = rng.choices(MQC_CLASSES, weights)[0]
        yield {
            "graph": "dblp" if rng.random() < 0.8 else "mico",
            "stream": rng.random() < 0.7,
            "gamma": gamma,
            "max_size": max_size,
        }


def reference_matches(
    graph: Graph, gamma: float, max_size: int
) -> FrozenSet[Tuple[Any, ...]]:
    """What the daemon should answer, mined here on the oracle path
    and shaped like :func:`wire_match`."""
    engine = build_mqc_engine(
        graph, gamma, max_size, adjacency="sets", enable_aux=False
    )
    return frozenset(
        (p.name or f"P{p.num_vertices}",) + tuple(a)
        for p, a in engine.run().valid
    )


class Request:
    """One closed-loop request and what came back."""

    __slots__ = (
        "spec", "tenant", "sent", "accepted", "first_match", "done",
        "matches", "summary", "error",
    )

    def __init__(self, spec: Dict[str, Any], tenant: str) -> None:
        self.spec = spec
        self.tenant = tenant
        self.sent = 0.0
        self.accepted: Optional[float] = None
        self.first_match: Optional[float] = None
        self.done = 0.0
        self.matches: List[Tuple[Any, ...]] = []
        self.summary: Dict[str, Any] = {}
        self.error: Optional[str] = None

    @property
    def latency(self) -> float:
        return self.done - self.sent


def wire_match(event: Dict[str, Any]) -> Tuple[Any, ...]:
    return (event["pattern"],) + tuple(event["vertices"])


def issue(client: ServeClient, request: Request) -> None:
    """Send one query and wait for its terminal event."""
    spec = request.spec
    params = dict(
        tenant=request.tenant, graph=spec["graph"], gamma=spec["gamma"],
        max_size=spec["max_size"],
    )
    request.sent = time.perf_counter()
    try:
        if spec["stream"]:
            for event in client.stream_query(**params):
                kind = event.get("type")
                if kind == "match":
                    if request.first_match is None:
                        request.first_match = time.perf_counter()
                    request.matches.append(wire_match(event))
                elif kind == "accepted":
                    request.accepted = time.perf_counter()
                else:
                    request.summary = event
        else:
            body = client.query(**params)
            request.matches = [wire_match(e) for e in body["matches"]]
            request.summary = body["summary"]
    except (ServeError, OSError) as exc:
        request.error = f"{type(exc).__name__}: {exc}"
    request.done = time.perf_counter()
    if request.error is None and request.summary.get("type") != "summary":
        request.error = f"terminal event {request.summary.get('type')!r}"


class ServeWorkload(Workload):
    def __init__(self, seed: int, tracer: Tracer, quick: bool) -> None:
        super().__init__(seed, tracer, quick)
        self.daemon: Optional[Daemon] = None

    def start_daemon(self) -> Daemon:
        with self.tracer.span("serve.daemon.boot"):
            self.daemon = Daemon()
        return self.daemon

    def peak_rss_mb(self) -> float:
        assert self.daemon is not None
        return self.daemon.peak_rss_mb()

    def close(self) -> None:
        if self.daemon is not None:
            self.attempted += 1
            self.failures.extend(self.daemon.stop())
            self.daemon = None


class ServeMixed(ServeWorkload):
    name = "serve_mixed"
    operation = "query"
    TENANTS = ("analyst", "batch")
    WARMUP_PER_CLIENT = 10
    #: The clients pause this often for a yardstick reading.  Shorter
    #: follows the machine's speed more closely; each pause also idles
    #: the first client to finish for about half a request.
    STRETCH_SECONDS = 2.0

    def __init__(self, seed: int, tracer: Tracer, quick: bool) -> None:
        super().__init__(seed, tracer, quick)
        self.requests: List[Request] = []
        # Both clients draw from the one stream, each when it is ready
        # for its next request.
        self.mix = request_mix(random.Random(seed))
        self.mix_lock = threading.Lock()

    def setup(self) -> None:
        with self.tracer.span("bench.setup", op="setup"):
            client = self.start_daemon().client()
            with self.tracer.span("graph.store.register"):
                client.register_graph("dblp", dataset="dblp")
                client.register_graph("mico", dataset="mico")
            warm = self.run_clients(count=self.WARMUP_PER_CLIENT)
            self.failures.extend(
                f"warm-up request failed: {r.error}" for r in warm if r.error
            )

    def run_clients(
        self, count: Optional[int] = None, seconds: float = 0.0
    ) -> List[Request]:
        """Two closed-loop clients, each sending its next request only
        after the previous reply; stop by ``count`` each or deadline."""
        assert self.daemon is not None
        done: List[List[Request]] = [[], []]
        deadline = time.perf_counter() + seconds

        def loop(index: int) -> None:
            client = self.daemon.client()  # type: ignore[union-attr]
            tenant = self.TENANTS[index]
            while (
                len(done[index]) < count
                if count is not None
                else time.perf_counter() < deadline
            ):
                with self.mix_lock:
                    request = Request(next(self.mix), tenant)
                op = f"{tenant}-{len(done[index])}"
                with self.tracer.span("serve.client.request", op=op):
                    # A client thread that dies takes its requests out
                    # of ``attempted``; whatever goes wrong is recorded
                    # on the request and counted as a failure.
                    try:
                        issue(client, request)
                    except Exception as exc:
                        traceback.print_exc()
                        request.error = f"{type(exc).__name__}: {exc}"
                done[index].append(request)

        threads = [
            threading.Thread(target=loop, args=(i,)) for i in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return done[0] + done[1]

    def stretch(self) -> List[float]:
        if self.quick:
            requests = self.run_clients(count=10)
        else:
            requests = self.run_clients(seconds=self.STRETCH_SECONDS)
        self.requests.extend(requests)
        self.attempted += len(requests)
        return [r.latency for r in requests if not r.error]

    def verify(self) -> None:
        reference = {
            (g, gamma, max_size): reference_matches(
                dataset(g), gamma, max_size
            )
            for g in ("dblp", "mico")
            for _, gamma, max_size in MQC_CLASSES
        }
        for request in self.requests:
            if request.error:
                self.failures.append(f"request failed: {request.error}")
                continue
            spec = request.spec
            key = (spec["graph"], spec["gamma"], spec["max_size"])
            if request.summary.get("matches") != len(request.matches):
                self.failures.append(
                    f"{key}: summary.matches != matches received"
                )
            elif frozenset(request.matches) != reference[key]:
                self.failures.append(
                    f"{key}: matches differ from the in-process run"
                )
        self.reference_sizes = {
            f"{g}@{gamma}/{max_size}": len(found)
            for (g, gamma, max_size), found in reference.items()
        }
        self.check_expected()

    def observed(self) -> Dict[str, Any]:
        return dict(self.reference_sizes)

    def manifest(self) -> Dict[str, Any]:
        return {k: graph_facts(dataset(k)) for k in ("dblp", "mico")}

    def layers(self) -> Dict[str, float]:
        import layers

        return layers.serve_mixed_layers(self)


class ServeChurn(ServeWorkload):
    name = "serve_churn"
    operation = "mutation"
    GAMMA = 0.8
    MAX_SIZE = 4
    WARMUP_MUTATIONS = 10
    QUERY_EVERY = 4

    def __init__(self, seed: int, tracer: Tracer, quick: bool) -> None:
        super().__init__(seed, tracer, quick)
        self.rng = random.Random(seed)
        self.graph = community_graph(
            80, 12, intra_probability=0.5, inter_edges=1, seed=3,
            name="churn",
        )
        self.initial = self.graph
        self.batches: List[MutationBatch] = []
        self.deltas: List[Dict[str, Any]] = []
        #: ``match_added`` / ``match_retracted`` lines, in arrival order.
        self.changes: List[Tuple[str, Tuple[Any, ...]]] = []
        self.queries: List[Request] = []
        self.sent = 0
        self.subscribed: Dict[str, Any] = {}
        self.stream: Any = None

    def next_batch(self) -> MutationBatch:
        """3 adds + 3 removes (≤ 1% of the edges) on the current graph."""
        graph, rng = self.graph, self.rng
        edges = sorted(graph.edges())
        removes = rng.sample(edges, k=3)
        adds: List[Tuple[int, int]] = []
        while len(adds) < 3:
            u = rng.randrange(graph.num_vertices)
            v = rng.randrange(graph.num_vertices)
            pair = (min(u, v), max(u, v))
            if u != v and not graph.has_edge(u, v) and pair not in adds:
                adds.append(pair)
        return MutationBatch.of(add_edges=adds, remove_edges=removes)

    def setup(self) -> None:
        with self.tracer.span("bench.setup", op="setup"):
            self.client = self.start_daemon().client()
            with self.tracer.span("graph.store.register"):
                self.client.register_graph(
                    "churn", edges=sorted(self.graph.edges()),
                    num_vertices=self.graph.num_vertices,
                )
            with self.tracer.span("mining.incremental.subscribe"):
                self.stream = self.client.subscribe(
                    tenant="analyst", graph="churn", gamma=self.GAMMA,
                    max_size=self.MAX_SIZE,
                )
                self.subscribed = next(self.stream)
            for i in range(self.WARMUP_MUTATIONS):
                self.mutate(f"warmup-{i}")
                if (i + 1) % self.QUERY_EVERY == 0:
                    self.query(f"warmup-query-{i}")

    def mutate(self, op: str) -> Optional[float]:
        """Post one batch, wait for its ``delta`` line; the latency."""
        batch = self.next_batch()
        sent = time.perf_counter()
        with self.tracer.span("serve.client.mutation", op=op):
            try:
                self.client.mutate_graph(
                    "churn",
                    add_edges=[list(e) for e in batch.add_edges],
                    remove_edges=[list(e) for e in batch.remove_edges],
                )
                for event in self.stream:
                    kind = event.get("type")
                    if kind in ("match_added", "match_retracted"):
                        self.changes.append((kind, wire_match(event)))
                    elif kind == "delta":
                        self.deltas.append(event)
                        break
                    else:
                        raise OSError(f"stream ended with {kind!r}")
                else:
                    raise OSError("stream ended without a delta line")
            except (ServeError, OSError) as exc:
                self.failures.append(f"mutation failed: {exc}")
                return None
        latency = time.perf_counter() - sent
        self.graph = apply_mutation(self.graph, batch)
        self.batches.append(batch)
        return latency

    def query(self, op: str) -> Request:
        request = Request(
            {
                "graph": "churn@latest", "gamma": self.GAMMA,
                "max_size": self.MAX_SIZE, "stream": False,
            },
            "batch",
        )
        with self.tracer.span("serve.client.request", op=op):
            issue(self.client, request)
        return request

    def stretch(self) -> List[float]:
        """Twice over: ``QUERY_EVERY`` mutations, then one query."""
        latencies: List[Optional[float]] = []
        for _ in range(2):
            for _ in range(self.QUERY_EVERY):
                self.sent += 1
                latencies.append(self.mutate(f"mutation-{self.sent}"))
            self.queries.append(self.query(f"query-{self.sent}"))
        self.attempted += len(latencies) + 2
        return [t for t in latencies if t is not None]

    def verify(self) -> None:
        for request in self.queries:
            if request.error:
                self.failures.append(f"query failed: {request.error}")
            elif request.summary.get("matches") != len(request.matches):
                self.failures.append("summary.matches != matches received")
        baseline = reference_matches(self.initial, self.GAMMA, self.MAX_SIZE)
        final = reference_matches(self.graph, self.GAMMA, self.MAX_SIZE)
        self.attempted += 3
        if self.subscribed.get("matches") != len(baseline):
            self.failures.append(
                "subscription baseline count differs from a scratch mine"
            )
        replayed = set(baseline)
        for kind, match in self.changes:
            if kind == "match_added":
                replayed.add(match)
            else:
                replayed.discard(match)
        if replayed != final:
            self.failures.append(
                "baseline + deltas differs from a scratch re-mine of the "
                "final version"
            )
        last = self.query("verify-query")
        if last.error or frozenset(last.matches) != final:
            self.failures.append(
                "query on the final version differs from a scratch re-mine"
            )
        self.final_matches = len(final)
        self.baseline_matches = len(baseline)
        self.check_expected()

    def observed(self) -> Dict[str, Any]:
        return {"baseline.matches": self.baseline_matches}

    def manifest(self) -> Dict[str, Any]:
        return {"churn": graph_facts(self.initial)}

    def close(self) -> None:
        if self.stream is not None:
            self.stream.close()
            self.stream = None
        super().close()

    def layers(self) -> Dict[str, float]:
        import layers

        return layers.serve_churn_layers(self)


WORKLOADS = {
    cls.name: cls
    for cls in (
        MqcTable3, MqcDense, NsqNested, KwsMinimal, MqcSharded,
        ServeMixed, ServeChurn,
    )
}
