"""The mining daemon: a long-lived asyncio server over ``repro.exec``.

One process serves many tenants and many queries:

* **Graph registry** — ``GET/POST /graphs`` and
  ``POST /graphs/{name}/mutate`` wrap the process-global
  :class:`~repro.graph.store.GraphStore` (``name@vN`` addressing,
  :class:`~repro.graph.store.MutationBatch` mutations).  Because the
  registry *is* the graph store, the process scheduler's shared-memory
  publication applies to every served graph automatically.
* **Query intake** — ``POST /query`` passes a per-tenant token-bucket
  rate limit (429 + retry-after on refusal), then the CG6xx admission
  gate (:func:`repro.analysis.admit_query`; 422 with diagnostic codes on
  strict rejection), then enters a priority queue ordered by tenant
  priority.
* **Run multiplexing** — ``max_concurrent`` worker slots pull from the
  queue and dispatch runs onto the existing engine/schedulers inside a
  thread pool, keeping the event loop free.  Every run owns a
  :class:`~repro.exec.context.TaskContext` whose cancellation token is
  cancelled when the client disconnects mid-stream — the engine's
  cooperative checks then end the run early, so no worker is orphaned.
* **Streaming** — with ``"stream": true`` matches are delivered as
  newline-delimited JSON as they validate (the engine-session
  ``match_sink`` hook), followed by one terminal ``summary`` line
  carrying per-run counter deltas (:class:`~repro.obs.RunScope`).
  Each stream has one :class:`Outbox`: the first match leaves at once,
  whatever validates meanwhile rides the next batch (one loop wake-up
  and one socket write per batch), and the lines and order are as ever.
* **/metrics** — the Prometheus exposition :mod:`repro.obs` renders,
  extended with per-tenant intake counters and queue-depth gauges.

The HTTP layer is a deliberately small hand-rolled HTTP/1.1
implementation (stdlib only, ``Connection: close`` per request) — the
daemon serves trusted lab traffic, not the open internet.
"""

from __future__ import annotations

import asyncio
import json
import logging
import threading
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Container, Dict, List, Optional, Set, Tuple

from ..analysis import AdmissionDecision
from ..errors import ReproError
from ..exec.context import TaskContext
from ..graph.graph import Graph
from ..graph.store import (
    GraphStore,
    GraphVersion,
    MutationBatch,
    graph_store,
)
from ..mining.incremental import (
    DeltaUpdate,
    StandingQuery,
    SubscriptionRegistry,
)
from ..obs import Gauge, MetricsRegistry
from ..patterns.pattern import Pattern
from ..request import RequestError, RunRecord, RunRequest, admit
from ..request import run as run_request
from .config import ServeConfig, TenantConfig
from .ratelimit import TokenBucket

logger = logging.getLogger(__name__)

#: The run fields a request body may set; ``RunRequest`` has more
#: (``adjacency`` / ``aux`` / ``retries`` / ``on_failure``), which the
#: wire refuses until they come with their own oracle tests.
_WIRE_FIELDS = (
    "workload", "query", "gamma", "max_size", "min_size", "scheduler",
    "workers", "time_limit", "admission",
)
#: The daemon's own body fields; any other key is a 400.
_DAEMON_FIELDS = ("tenant", "graph", "cost", "stream")
_QUERY_TERMINALS = ("summary", "error", "cancelled")

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class QueryError(Exception):
    """An intake failure that maps to one HTTP error response."""

    def __init__(self, status: int, payload: Dict[str, Any]) -> None:
        super().__init__(str(payload.get("error", "query error")))
        self.status = status
        self.payload = payload


class Outbox:
    """One stream's events, carried from any thread onto the loop in
    batches: only the :meth:`post` that finds the list empty schedules a
    delivery, which swaps the list out onto :attr:`batches`, so whatever
    is posted meanwhile rides along.  A ``streamed`` client reads each
    batch as it arrives, so that post also hands the loop the GIL.
    Create it on the loop's thread.
    """

    def __init__(
        self, loop: asyncio.AbstractEventLoop, streamed: bool
    ) -> None:
        self._loop = loop
        self._hand_off = streamed
        self._loop_thread = threading.get_ident()
        self._lock = threading.Lock()
        self._pending: List[Dict[str, Any]] = []
        self.batches: "asyncio.Queue[List[Dict[str, Any]]]" = asyncio.Queue()

    def post(self, *events: Dict[str, Any]) -> None:
        with self._lock:
            first = not self._pending
            self._pending.extend(events)
        if first:
            self._loop.call_soon_threadsafe(self._deliver)
            if self._hand_off and threading.get_ident() != self._loop_thread:
                # Else a mining thread keeps the GIL a switch interval.
                # An aggregated reply is read only at its end, so it
                # skips the sleep's ~50 µs of timer slack per delivery.
                time.sleep(0)

    def _deliver(self) -> None:
        with self._lock:
            batch, self._pending = self._pending, []
        self.batches.put_nowait(batch)


@dataclass(eq=False)
class QueryRun:
    """One admitted query travelling queue → worker slot → client."""

    query_id: str
    tenant: str
    priority: int
    request: RunRequest
    admission: AdmissionDecision
    graph: Graph
    ctx: TaskContext
    #: Match events, then exactly one terminal summary/error event.
    outbox: Outbox


def _json_body(body: bytes) -> Dict[str, Any]:
    if not body:
        return {}
    try:
        parsed = json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise QueryError(400, {"error": f"bad JSON body: {exc}"})
    if not isinstance(parsed, dict):
        raise QueryError(400, {"error": "JSON body must be an object"})
    return parsed


def _encode(payload: Dict[str, Any]) -> bytes:
    return json.dumps(payload, default=str).encode("utf-8")


class MiningDaemon:
    """The serving process: registry + intake + run multiplexing.

    Lifecycle: :meth:`start` binds the socket and spawns the worker
    slots; :meth:`drain` stops intake and waits for queued/active runs
    to finish; :meth:`stop` tears everything down.  All coroutines must
    run on one event loop (use :func:`serve_in_thread` to own that
    loop on a background thread).
    """

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        store: Optional[GraphStore] = None,
    ) -> None:
        self.config = config or ServeConfig()
        self.store = store if store is not None else graph_store()
        self.registry = MetricsRegistry()
        #: Standing queries: delta passes run on the mutating thread
        #: (the executor slot applying the batch) and publish into the
        #: per-stream outboxes via their sinks.
        self.subscriptions = SubscriptionRegistry(
            store=self.store,
            cache=self.store._derived_cache(),
            metrics=self.registry,
        )
        self._sub_outboxes: Dict[str, Outbox] = {}
        self._buckets: Dict[str, TokenBucket] = {}
        self._pending: "asyncio.PriorityQueue[Tuple[int, int, QueryRun]]"
        self.shutdown_event: asyncio.Event
        self._seq = 0
        self._active: Set[str] = set()
        self._workers: List["asyncio.Task[None]"] = []
        self._server: Optional[asyncio.AbstractServer] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._draining = False
        self._started_at = time.monotonic()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind the socket and spawn the worker slots."""
        self._loop = asyncio.get_event_loop()
        self._pending = asyncio.PriorityQueue()
        self.shutdown_event = asyncio.Event()
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.max_concurrent,
            thread_name_prefix="repro-serve-run",
        )
        self._workers = [
            self._loop.create_task(self._worker_loop())
            for _ in range(self.config.max_concurrent)
        ]
        self.subscriptions.attach(self.store)
        self._server = await asyncio.start_server(
            self._handle_client, host=self.config.host, port=self.config.port
        )
        self._started_at = time.monotonic()
        logger.info("repro.serve listening on %s:%d", self.host, self.port)

    @property
    def host(self) -> str:
        return self.config.host

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` ephemeral binds)."""
        if self._server is None or not self._server.sockets:
            return self.config.port
        return int(self._server.sockets[0].getsockname()[1])

    async def drain(self, poll_seconds: float = 0.02) -> None:
        """Stop accepting queries; wait for queued + active runs."""
        self._draining = True
        while not self._pending.empty() or self._active:
            await asyncio.sleep(poll_seconds)

    async def stop(self) -> None:
        """Tear down workers, socket, and the run executor."""
        self.subscriptions.detach()
        # Wake every long-lived subscription stream with a terminal
        # sentinel *before* closing the server: on Python 3.12+
        # ``wait_closed`` waits for active connection handlers, and a
        # delta stream would otherwise hold shutdown open forever.
        for outbox in list(self._sub_outboxes.values()):
            outbox.post({"type": "closed", "reason": "daemon shutdown"})
        # ... and wait for the pumps to flush it: the stop coroutine is
        # the loop's last work, so without this the sentinel write
        # races loop close and clients see a dead socket instead of an
        # orderly goodbye.  Each stream handler pops its outbox on exit.
        deadline = time.monotonic() + 5.0
        while self._sub_outboxes and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        for worker in self._workers:
            worker.cancel()
        for worker in self._workers:
            try:
                await worker
            except asyncio.CancelledError:
                pass
        self._workers = []
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------

    async def _handle_client(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            request = await self._read_request(reader)
            if request is not None:
                method, target, body = request
                await self._dispatch(method, target, body, reader, writer)
        except QueryError as exc:
            await self._send_json(writer, exc.status, exc.payload)
        except (
            ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError
        ):
            pass
        except Exception:
            logger.exception("request handling failed")
            try:
                await self._send_json(
                    writer, 500, {"error": "internal server error"}
                )
            except Exception:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, bytes]]:
        line = await reader.readline()
        if not line:
            return None
        parts = line.decode("latin-1").split()
        if len(parts) < 2:
            raise QueryError(400, {"error": "malformed request line"})
        method, target = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            key, _, value = raw.decode("latin-1").partition(":")
            headers[key.strip().lower()] = value.strip()
        length_text = headers.get("content-length", "0") or "0"
        try:
            length = int(length_text)
        except ValueError:
            raise QueryError(400, {"error": "bad Content-Length"})
        body = await reader.readexactly(length) if length > 0 else b""
        return method, target, body

    def _head(
        self,
        status: int,
        content_type: str,
        length: Optional[int] = None,
    ) -> bytes:
        reason = _REASONS.get(status, "Unknown")
        lines = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {content_type}",
            "Connection: close",
        ]
        if length is not None:
            lines.append(f"Content-Length: {length}")
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")

    async def _send(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: bytes,
        content_type: str,
    ) -> None:
        writer.write(self._head(status, content_type, len(body)) + body)
        await writer.drain()

    async def _send_json(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Dict[str, Any],
    ) -> None:
        await self._send(
            writer, status, _encode(payload) + b"\n", "application/json"
        )

    async def _dispatch(
        self,
        method: str,
        target: str,
        body: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        path = target.split("?", 1)[0]
        if path == "/health" and method == "GET":
            await self._send_json(writer, 200, self._health())
            return
        if path == "/metrics" and method == "GET":
            await self._send(
                writer, 200, self._render_metrics().encode("utf-8"),
                "text/plain; version=0.0.4; charset=utf-8",
            )
            return
        if path == "/graphs" and method == "GET":
            await self._send_json(writer, 200, self._list_graphs())
            return
        if path == "/graphs" and method == "POST":
            await self._send_json(
                writer, 200, self._register_graph(_json_body(body))
            )
            return
        if (
            path.startswith("/graphs/")
            and path.endswith("/mutate")
            and method == "POST"
        ):
            name = path[len("/graphs/"):-len("/mutate")]
            await self._send_json(
                writer, 200, await self._mutate_graph(name, _json_body(body))
            )
            return
        if path == "/subscriptions" and method == "GET":
            await self._send_json(writer, 200, self._list_subscriptions())
            return
        if path == "/subscriptions" and method == "POST":
            await self._handle_subscribe(_json_body(body), reader, writer)
            return
        if path.startswith("/subscriptions/") and method == "DELETE":
            sub_id = path[len("/subscriptions/"):]
            await self._send_json(writer, 200, self._unsubscribe(sub_id))
            return
        if path == "/queue" and method == "GET":
            await self._send_json(writer, 200, self._queue_state())
            return
        if path == "/query" and method == "POST":
            await self._handle_query(_json_body(body), reader, writer)
            return
        if path == "/shutdown" and method == "POST":
            self.shutdown_event.set()
            await self._send_json(writer, 200, {"status": "draining"})
            return
        if path in (
            "/health", "/metrics", "/graphs", "/queue", "/query",
            "/subscriptions", "/shutdown",
        ) or path.startswith("/subscriptions/"):
            raise QueryError(405, {"error": f"{method} not allowed on {path}"})
        raise QueryError(404, {"error": f"unknown endpoint {path}"})

    # ------------------------------------------------------------------
    # Registry + introspection endpoints
    # ------------------------------------------------------------------

    def _health(self) -> Dict[str, Any]:
        return {
            "status": "draining" if self._draining else "ok",
            "uptime_seconds": round(
                time.monotonic() - self._started_at, 3
            ),
            "active_runs": len(self._active),
            "queued": self._pending.qsize(),
            "subscriptions": len(self.subscriptions),
            "max_concurrent": self.config.max_concurrent,
            "admission": self.config.admission,
        }

    def _queue_state(self) -> Dict[str, Any]:
        return {
            "depth": self._pending.qsize(),
            "active": len(self._active),
            "draining": self._draining,
        }

    def _list_graphs(self) -> Dict[str, Any]:
        return {
            "graphs": [
                dict(
                    gv.to_dict(),
                    latest=(
                        gv.version == self.store.latest(gv.name).version
                    ),
                )
                for gv in self.store.entries()
            ]
        }

    def _register_graph(self, body: Dict[str, Any]) -> Dict[str, Any]:
        name = body.get("name")
        if not isinstance(name, str) or not name:
            raise QueryError(400, {"error": "graph registration needs a name"})
        dataset_key = body.get("dataset")
        edges = body.get("edges")
        if (dataset_key is None) == (edges is None):
            raise QueryError(
                400,
                {"error": "pass exactly one of 'dataset' or 'edges'"},
            )
        if dataset_key is not None:
            from ..bench import dataset, dataset_keys

            if dataset_key not in dataset_keys():
                raise QueryError(
                    400, {"error": f"unknown dataset {dataset_key!r}"}
                )
            graph = dataset(dataset_key)
        else:
            from ..graph.builder import GraphBuilder

            if not isinstance(edges, list):
                raise QueryError(400, {"error": "'edges' must be a list"})
            builder = GraphBuilder(name=name)
            try:
                for vertex in range(int(body.get("num_vertices", 0))):
                    builder.add_vertex(vertex)
                for pair in edges:
                    u, v = pair
                    builder.add_edge(int(u), int(v))
                for vertex, label in dict(body.get("labels", {})).items():
                    builder.set_label(int(vertex), int(label))
            except (TypeError, ValueError) as exc:
                raise QueryError(400, {"error": f"bad edge payload: {exc}"})
            graph = builder.build()
        version = self.store.register(graph, name)
        return {"registered": version.to_dict()}

    async def _mutate_graph(
        self, name: str, body: Dict[str, Any]
    ) -> Dict[str, Any]:
        allowed = {"add_edges", "remove_edges", "set_labels", "add_vertices"}
        unknown = set(body) - allowed
        if unknown:
            raise QueryError(
                400, {"error": f"unknown mutation keys {sorted(unknown)}"}
            )
        # The parsed JSON feeds MutationBatch.of directly: its
        # field-level coercion is the validation layer, and whatever it
        # rejects (string counts, fractional floats, ragged pairs)
        # surfaces as a 400 naming the offending field — never a 500
        # from deep inside apply_mutation.
        try:
            batch = MutationBatch.of(
                add_edges=body.get("add_edges", ()),
                remove_edges=body.get("remove_edges", ()),
                set_labels=body.get("set_labels", ()),
                add_vertices=body.get("add_vertices", 0),
            )
        except (TypeError, ValueError) as exc:
            raise QueryError(400, {"error": f"bad mutation payload: {exc}"})
        # apply_batch runs on the executor: with standing queries
        # attached it triggers their delta re-mines synchronously, and
        # that work must not stall the event loop.
        assert self._loop is not None and self._executor is not None
        try:
            version = await self._loop.run_in_executor(
                self._executor,
                lambda: self.store.apply_batch(name, batch),
            )
        except KeyError as exc:
            raise QueryError(404, {"error": str(exc.args[0])})
        except ValueError as exc:
            raise QueryError(400, {"error": str(exc)})
        return {"mutated": version.to_dict()}

    # ------------------------------------------------------------------
    # Standing queries (subscriptions + delta streams)
    # ------------------------------------------------------------------

    def _list_subscriptions(self) -> Dict[str, Any]:
        return {
            "subscriptions": [
                sub.to_dict() for sub in self.subscriptions.subscriptions()
            ]
        }

    def _unsubscribe(self, sub_id: str) -> Dict[str, Any]:
        if not self.subscriptions.unsubscribe(sub_id):
            raise QueryError(
                404, {"error": f"unknown subscription {sub_id!r}"}
            )
        # If a stream is attached, end it; its pump unregisters the
        # outbox on the way out.
        outbox = self._sub_outboxes.get(sub_id)
        if outbox is not None:
            outbox.post({"type": "closed", "reason": "unsubscribed"})
        return {"unsubscribed": sub_id}

    def _delta_events(
        self, sub_id: str, tenant: str, update: DeltaUpdate
    ) -> List[Dict[str, Any]]:
        """NDJSON lines for one delta pass: adds, retractions, summary."""
        lines: List[Dict[str, Any]] = [
            {
                "type": kind,
                "subscription": sub_id,
                "pattern": pattern.name or f"P{pattern.num_vertices}",
                "vertices": list(assignment),
            }
            for kind, matches in (
                ("match_added", update.added),
                ("match_retracted", update.retracted),
            )
            for pattern, assignment in matches
        ]
        lines.append(update.to_dict())
        self.registry.counter(
            "repro_serve_delta_events_total",
            labels={"tenant": tenant},
            help_text="Delta-stream events delivered, by tenant",
        ).inc(float(len(lines)))
        return lines

    async def _handle_subscribe(
        self,
        body: Dict[str, Any],
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """``POST /subscriptions``: open a standing query, stream deltas.

        The response is a long-lived NDJSON stream: one ``subscribed``
        line (subscription id + baseline match count), then
        ``match_added`` / ``match_retracted`` / ``delta`` lines after
        every mutation batch on the subscribed graph, until the client
        disconnects (which tears the subscription down — same
        disconnect-watcher the query stream uses) or the daemon shuts
        down (terminal ``closed`` line).
        """
        assert self._loop is not None and self._executor is not None
        workload = body.get("workload", "mqc")
        if workload != "mqc":
            # Delta equivalence is proven for MQC only (ROADMAP, Parked).
            raise QueryError(
                400,
                {
                    "error": "workload: a standing query must be 'mqc', "
                    f"got {workload!r}",
                    "field": "workload",
                },
            )
        # A standing query follows the graph's head, whatever version
        # the reference pinned.
        tenant, request, version, decision, _ = self._intake(
            body,
            "repro_serve_subscriptions_total",
            "Subscription requests received, by tenant",
            lambda ref: self.store.latest(ref.partition("@")[0]),
        )
        name = version.name
        query = StandingQuery(
            constraint_set=request.constraint_set(),
            scheduler=request.scheduler,
            n_workers=request.workers,
            time_limit=request.time_limit,
        )
        loop = self._loop
        outbox = Outbox(loop, streamed=True)

        def sink(update: DeltaUpdate) -> None:
            # Runs on the mutating thread (executor slot): one delta
            # pass is one batch of NDJSON lines.
            outbox.post(
                *self._delta_events(update.subscription, tenant.name, update)
            )

        try:
            # The baseline mine happens off-loop like any other run.
            sub = await loop.run_in_executor(
                self._executor,
                lambda: self.subscriptions.subscribe(
                    name, query, sink=sink, tenant=tenant.name
                ),
            )
        except KeyError as exc:
            raise QueryError(404, {"error": str(exc.args[0])})
        self._sub_outboxes[sub.id] = outbox
        active = self.registry.gauge(
            "repro_serve_active_subscriptions",
            help_text="Standing queries with a live delta stream",
        )
        active.inc()
        try:
            writer.write(self._head(200, "application/x-ndjson"))
            writer.write(
                _encode(
                    {
                        "type": "subscribed",
                        "subscription": sub.id,
                        "tenant": tenant.name,
                        "graph": name,
                        "matches": sub.matches,
                        "radius": query.radius,
                        "admission": decision.to_dict(),
                    }
                )
                + b"\n"
            )
            await writer.drain()
            # A vanished client needs no action here: the subscription
            # dies with the connection in the ``finally`` below.
            await self._pump(outbox, reader, writer, ("closed",))
        finally:
            self._sub_outboxes.pop(sub.id, None)
            self.subscriptions.unsubscribe(sub.id)
            active.dec()

    def _render_metrics(self) -> str:
        from ..graph.aux import publish_aux_graph_metrics
        from ..graph.shm import publish_shared_graph_metrics
        from ..graph.store import publish_derived_cache_metrics

        publish_derived_cache_metrics(self.registry)
        publish_shared_graph_metrics(self.registry)
        publish_aux_graph_metrics(self.registry)
        self.registry.gauge(
            "repro_serve_uptime_seconds",
            help_text="Daemon uptime",
        ).set(time.monotonic() - self._started_at)
        self.registry.gauge(
            "repro_serve_active_runs",
            help_text="Runs currently executing in worker slots",
        ).set(float(len(self._active)))
        self.registry.gauge(
            "repro_serve_queue_depth",
            help_text="Admitted queries waiting for a worker slot",
        ).set(float(self._pending.qsize()))
        return self.registry.to_prometheus()

    # ------------------------------------------------------------------
    # Query intake
    # ------------------------------------------------------------------

    def _bucket_for(self, tenant: TenantConfig) -> TokenBucket:
        bucket = self._buckets.get(tenant.name)
        if bucket is None:
            bucket = TokenBucket(tenant.rate, tenant.burst)
            self._buckets[tenant.name] = bucket
        return bucket

    def _acquire_tokens(self, tenant: TenantConfig, cost: float) -> None:
        """Charge ``cost`` tokens or raise the right intake error.

        A temporary deficit is a 429 with the bucket's retry-after; a
        cost above the tenant's burst capacity can *never* be granted
        (the bucket reports ``retry_after=inf``), so it is a 400 — a
        429 would send a well-behaved client into an endless retry
        loop.
        """
        granted, retry_after = self._bucket_for(tenant).try_acquire(cost)
        if granted:
            return
        if retry_after == float("inf"):
            raise QueryError(
                400,
                {
                    "error": (
                        f"cost {cost:g} exceeds tenant burst capacity "
                        f"{self._bucket_for(tenant).burst}; "
                        "this request can never be granted"
                    ),
                    "tenant": tenant.name,
                },
            )
        self._tenant_counter(
            "repro_serve_rate_limited_total",
            tenant.name,
            "Queries refused by the tenant token bucket",
        )
        raise QueryError(
            429,
            {
                "error": "rate limited",
                "tenant": tenant.name,
                "retry_after_seconds": round(retry_after, 4),
            },
        )

    def _tenant_counter(self, name: str, tenant: str, help_text: str) -> None:
        self.registry.counter(
            name, labels={"tenant": tenant}, help_text=help_text
        ).inc()

    def _parse_query(
        self, body: Dict[str, Any]
    ) -> Tuple[TenantConfig, RunRequest, str, float, bool]:
        """Validate one request body, before any token is spent.

        Tenant, ``graph``, ``cost`` and ``stream`` are the daemon's own;
        the run fields go to :meth:`RunRequest.of`, whose field error
        becomes a 400 carrying the field name.  A key that is neither
        is such an error too, not silently dropped.
        """
        tenant_name = body.get("tenant", "default")
        if not isinstance(tenant_name, str) or not tenant_name:
            raise QueryError(400, {"error": "'tenant' must be a string"})
        tenant = self.config.for_tenant(tenant_name)
        graph_ref = body.get("graph")
        if not isinstance(graph_ref, str) or not graph_ref:
            raise QueryError(
                400, {"error": "'graph' must be a store reference"}
            )
        try:
            cost = float(body.get("cost", 1.0))
        except (TypeError, ValueError):
            raise QueryError(400, {"error": "'cost' must be a number"})
        if cost <= 0:
            raise QueryError(400, {"error": "'cost' must be positive"})
        stream = body.get("stream", True)
        try:
            for key in body:
                if key not in _WIRE_FIELDS and key not in _DAEMON_FIELDS:
                    raise RequestError(str(key), "unknown field")
            if not isinstance(stream, bool):
                raise RequestError(
                    "stream",
                    "expected true or false, "
                    f"got {type(stream).__name__} {stream!r}",
                )
            request = RunRequest.of(
                {
                    "admission": self.config.admission,
                    "time_limit": tenant.budget_seconds,
                    **{k: body[k] for k in _WIRE_FIELDS if k in body},
                }
            )
        except RequestError as exc:
            raise QueryError(400, {"error": str(exc), "field": exc.field})
        return tenant, request, graph_ref, cost, stream

    def _intake(
        self,
        body: Dict[str, Any],
        counter: str,
        help_text: str,
        resolve: Callable[[str], GraphVersion],
    ) -> Tuple[
        TenantConfig, RunRequest, GraphVersion, AdmissionDecision, bool
    ]:
        """The intake queries and subscriptions share, in this order:
        parse (400), count, drain check (503), tokens (429), graph
        (404), CG6xx gate (422)."""
        tenant, request, graph_ref, cost, stream = self._parse_query(body)
        self._tenant_counter(counter, tenant.name, help_text)
        if self._draining:
            raise QueryError(
                503, {"error": "daemon is draining", "tenant": tenant.name}
            )
        self._acquire_tokens(tenant, cost)
        try:
            version = resolve(graph_ref)
        except KeyError as exc:
            raise QueryError(404, {"error": str(exc.args[0])})
        decision = admit(
            request, version.graph, budget_bytes=tenant.budget_bytes
        )
        if not decision.admitted:
            self._tenant_counter(
                "repro_serve_admission_rejected_total",
                tenant.name,
                "Queries rejected by the CG6xx admission gate",
            )
            raise QueryError(
                422,
                {
                    "error": "admission rejected",
                    "tenant": tenant.name,
                    "admission": decision.to_dict(),
                },
            )
        return tenant, request, version, decision, stream

    def _queue_gauge(self, tenant: str) -> Gauge:
        return self.registry.gauge(
            "repro_serve_queue_depth",
            labels={"tenant": tenant},
            help_text="Admitted queries waiting for a worker slot",
        )

    async def _handle_query(
        self,
        body: Dict[str, Any],
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        assert self._loop is not None
        tenant, request, version, decision, stream = self._intake(
            body,
            "repro_serve_queries_total",
            "Queries whose body parsed, by tenant (every later intake "
            "outcome; a body refused with 400 at parse is not counted)",
            self.store.resolve,
        )
        self._seq += 1
        run = QueryRun(
            query_id=uuid.uuid4().hex[:12],
            tenant=tenant.name,
            priority=tenant.priority,
            request=request,
            admission=decision,
            graph=version.graph,
            ctx=TaskContext.create(time_limit=request.time_limit),
            outbox=Outbox(self._loop, streamed=stream),
        )
        self._pending.put_nowait((-run.priority, self._seq, run))
        self._queue_gauge(tenant.name).inc()
        accepted: Dict[str, Any] = {
            "type": "accepted",
            "query_id": run.query_id,
            "tenant": tenant.name,
            "priority": run.priority,
            "admission": decision.to_dict(),
        }
        # Streamed: NDJSON lines as events arrive.  Aggregated: the same
        # events gathered into one JSON object once the run ends.
        matches: Optional[List[Dict[str, Any]]] = None if stream else []
        terminal: Optional[Dict[str, Any]] = None
        try:
            if stream:
                writer.write(self._head(200, "application/x-ndjson"))
                writer.write(_encode(accepted) + b"\n")
                await writer.drain()
            terminal = await self._pump(
                run.outbox, reader, writer, _QUERY_TERMINALS, collect=matches
            )
        finally:
            # Any way out short of a terminal event (a vanished client, a
            # failed write, a cancelled task): no slot mines for nobody.
            if terminal is None:
                run.ctx.cancel("client disconnected")
        if matches is not None and terminal is not None:
            await self._send_json(
                writer,
                200,
                {
                    **accepted,
                    "type": "result",
                    "matches": matches,
                    "summary": terminal,
                },
            )

    async def _pump(
        self,
        outbox: Outbox,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        terminals: Container[str],
        collect: Optional[List[Dict[str, Any]]] = None,
    ) -> Optional[Dict[str, Any]]:
        """Forward ``outbox`` batches until an event whose type is in
        ``terminals``, watching for client disconnect (EOF on ``reader``).

        Each batch is NDJSON lines in one write and one drain, or — with
        ``collect`` — gathered (terminal excluded) for an aggregate
        response.  Returns the terminal event, or None when the client
        vanished.
        """
        watcher = asyncio.ensure_future(reader.read(1))
        try:
            while True:
                getter = asyncio.ensure_future(outbox.batches.get())
                done, _ = await asyncio.wait(
                    {getter, watcher},
                    return_when=asyncio.FIRST_COMPLETED,
                )
                if getter not in done:
                    # EOF (or stray bytes) from the client: it is gone.
                    getter.cancel()
                    return None
                batch = getter.result()
                terminal = next(
                    (e for e in batch if e.get("type") in terminals), None
                )
                if terminal is not None:
                    del batch[batch.index(terminal) + 1:]
                if collect is None:
                    try:
                        writer.write(
                            b"".join(_encode(e) + b"\n" for e in batch)
                        )
                        await writer.drain()
                    except (ConnectionResetError, BrokenPipeError):
                        return None
                else:
                    collect.extend(e for e in batch if e is not terminal)
                if terminal is not None:
                    return terminal
        finally:
            if not watcher.done():
                watcher.cancel()

    # ------------------------------------------------------------------
    # Worker slots
    # ------------------------------------------------------------------

    async def _worker_loop(self) -> None:
        assert self._loop is not None
        while True:
            _, _, run = await self._pending.get()
            self._queue_gauge(run.tenant).dec()
            if run.ctx.cancelled:
                event = {
                    "type": "cancelled",
                    "query_id": run.query_id,
                    "reason": run.ctx.token.reason or "cancelled",
                }
                run.outbox.post(event)
                continue
            self._active.add(run.query_id)
            try:
                assert self._executor is not None
                await self._loop.run_in_executor(
                    self._executor, self._execute, run
                )
            except Exception as exc:  # defensive: _execute catches
                logger.exception("query %s failed", run.query_id)
                event = {
                    "type": "error",
                    "query_id": run.query_id,
                    "error": str(exc),
                }
                run.outbox.post(event)
            finally:
                self._active.discard(run.query_id)

    def _execute(self, run: QueryRun) -> Dict[str, Any]:
        """Run one query on the executor thread; returns the terminal
        event (which is also posted to the run's outbox)."""
        request = run.request
        delivered = 0

        def sink(pattern: Pattern, assignment: Tuple[int, ...]) -> None:
            nonlocal delivered
            delivered += 1
            run.outbox.post(
                {
                    "type": "match",
                    "query_id": run.query_id,
                    "pattern": pattern.name or f"P{pattern.num_vertices}",
                    "vertices": list(assignment),
                }
            )

        # The record is made here, not inside ``run()``, so a run that
        # raises still reports its deltas and graph pin.
        record = RunRecord(run.graph, request, run.admission)
        started = time.monotonic()
        status = "ok"
        error: Optional[str] = None
        try:
            run_request(
                request, run.graph, ctx=run.ctx, match_sink=sink,
                metrics=self.registry, record=record,
            )
        except ReproError as exc:
            status = "error"
            error = f"{type(exc).__name__}: {exc}"
        except Exception as exc:
            logger.exception("query %s crashed", run.query_id)
            status = "error"
            error = f"{type(exc).__name__}: {exc}"
        if run.ctx.cancelled:
            status = "cancelled"
        terminal: Dict[str, Any] = {
            **record.to_dict(),
            "type": {"ok": "summary", "cancelled": "cancelled"}.get(
                status, "error"
            ),
            "query_id": run.query_id,
            "status": status,
            "matches": delivered,
            "elapsed_seconds": round(time.monotonic() - started, 4),
            "run": record.deltas(),
        }
        if error is not None:
            terminal["error"] = error
        if run.ctx.token.reason:
            terminal["reason"] = run.ctx.token.reason
        run.outbox.post(terminal)
        return terminal


# ----------------------------------------------------------------------
# Thread-hosted serving (tests, CLI)
# ----------------------------------------------------------------------


class DaemonHandle:
    """A daemon running its event loop on a background thread."""

    def __init__(
        self,
        daemon: MiningDaemon,
        loop: asyncio.AbstractEventLoop,
        thread: threading.Thread,
    ) -> None:
        self.daemon = daemon
        self.loop = loop
        self.thread = thread

    @property
    def host(self) -> str:
        return self.daemon.host

    @property
    def port(self) -> int:
        return self.daemon.port

    def stop(self, timeout: float = 30.0) -> None:
        """Request drain + shutdown and wait for the loop thread."""
        if self.thread.is_alive():
            self.loop.call_soon_threadsafe(
                self.daemon.shutdown_event.set
            )
        self.thread.join(timeout)
        if self.thread.is_alive():
            raise RuntimeError("daemon thread did not stop in time")


def serve_in_thread(config: Optional[ServeConfig] = None) -> DaemonHandle:
    """Start a daemon on a dedicated event-loop thread.

    Returns once the socket is bound; the caller talks to
    ``handle.host:handle.port`` and finishes with ``handle.stop()``
    (drain, then teardown).  Startup failures re-raise here.
    """
    daemon = MiningDaemon(config)
    ready = threading.Event()
    boot: Dict[str, Any] = {}

    def runner() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        boot["loop"] = loop
        try:
            loop.run_until_complete(daemon.start())
        except Exception as exc:  # surface bind errors to the caller
            boot["error"] = exc
            ready.set()
            loop.close()
            return
        ready.set()
        try:
            loop.run_until_complete(daemon.shutdown_event.wait())
            loop.run_until_complete(daemon.drain())
            loop.run_until_complete(daemon.stop())
        finally:
            loop.close()

    thread = threading.Thread(
        target=runner, name="repro-serve-loop", daemon=True
    )
    thread.start()
    if not ready.wait(30.0):
        raise RuntimeError("daemon failed to start in time")
    if "error" in boot:
        raise boot["error"]
    return DaemonHandle(daemon, boot["loop"], thread)
