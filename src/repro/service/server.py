"""The asyncio query server: one shared Session, many concurrent clients.

    python -m repro serve --port 7411 --pool 4

Architecture (the concurrency story the paper's avalanche-free guarantee
makes *predictable*: every request is a statically bounded number of flat
SQL queries, so per-request cost cannot degenerate under load):

* one :class:`~repro.api.session.Session` per database — plan cache, stats
  and engine policy shared by every connection (both are lock-guarded);
* one asyncio connection handler per client, reading length-prefixed JSON
  frames (:mod:`repro.service.protocol`);
* execution offloads to worker threads via :func:`asyncio.to_thread`, each
  request holding a *leased* read-only connection from the database's pool
  — sqlite3 releases the GIL inside its C-level steps, so one request's
  SQLite evaluation overlaps another's Python-side decode;
* graceful shutdown: the listener closes first, in-flight handlers drain.

The event loop itself never touches SQLite: it parses frames, leases
connections and serialises results, all bounded work.

Fault-tolerant serving (protocol v1.1):

* **admission control** — at most ``max_pending`` execute requests may be
  in flight (running on a lease or queued for one); the next one is shed
  *immediately* with an ``Overloaded`` error frame instead of growing an
  unbounded queue.  Prepares/explains/stats/pings are not shed: they are
  cheap, and health checks must keep answering exactly when the server is
  saturated.
* **per-request deadlines** — an execute carrying ``deadline_ms`` waits at
  most that long for its result; past it, the server answers a
  ``DeadlineExceeded`` error frame.  The worker thread cannot be
  interrupted mid-SQLite-step, but its lease is reclaimed by the parking
  callback when it finishes, so a straggler costs one pool slot, not a
  wedged server.  ``default_deadline_ms`` applies when the request names
  none.
* **graceful drain** — :meth:`QueryServer.stop` first closes the listener
  (new connects are refused by the OS), then waits up to ``drain_grace``
  seconds for requests already *read off a socket* to answer, and only
  then cancels the (now idle) connection handlers.
* **ping + request ids** — ``{"op": "ping"}`` answers inline on the event
  loop; any request's ``id`` is echoed in its response (success or error),
  which clients use to detect desynced connections.
"""

from __future__ import annotations

import asyncio
import sqlite3
import threading
import time
from typing import TYPE_CHECKING

from repro.errors import (
    DeadlineExceededError,
    OverloadedError,
    ServiceError,
)
from repro.pipeline.shredder import validate_collection, validate_engine
from repro.service.protocol import (
    PROTOCOL_VERSION,
    error_payload,
    frame_length,
    pack_frame,
    split_frame,
)
from repro.service.registry import QueryRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.session import Session

__all__ = ["QueryServer", "ServerHandle", "serve_in_background"]

#: Read-connection leases a server holds by default (concurrent requests
#: beyond this queue on the lease, not on SQLite).
DEFAULT_SERVICE_POOL = 4

#: Default admission bound: in-flight executes beyond ``pool × this`` are
#: shed with an ``Overloaded`` frame (queueing a little absorbs bursts;
#: queueing a lot just converts overload into timeouts).
PENDING_PER_LEASE = 8

#: How long :meth:`QueryServer.stop` waits for in-flight requests to
#: answer before cancelling their connection handlers.
DEFAULT_DRAIN_GRACE = 10.0


class QueryServer:
    """A query service bound to one session and one query catalogue."""

    def __init__(
        self,
        session: "Session",
        registry: QueryRegistry,
        pool_size: int = DEFAULT_SERVICE_POOL,
        shard_label: str | None = None,
        max_pending: int | None = None,
        default_deadline_ms: float | None = None,
        metrics: object = None,
    ) -> None:
        if pool_size < 1:
            raise ServiceError(f"pool size must be ≥1, got {pool_size}")
        self.session = session
        self.registry = registry
        self.pool_size = pool_size
        #: Which slice of a sharded deployment this server holds (e.g.
        #: ``"1/4"`` or ``"full/4"``); surfaced by the stats op so a
        #: fan-out client can sanity-check its wiring.  None = unsharded.
        self.shard_label = shard_label
        #: Admission bound: executes in flight beyond this are shed with
        #: an ``Overloaded`` error frame.
        self.max_pending = (
            pool_size * PENDING_PER_LEASE if max_pending is None else max_pending
        )
        if self.max_pending < 1:
            raise ServiceError(
                f"max_pending must be ≥1, got {self.max_pending}"
            )
        #: Server-side deadline applied to executes that name none.
        self.default_deadline_ms = default_deadline_ms
        self._server: asyncio.AbstractServer | None = None
        self._leases: asyncio.Queue | None = None
        self._handlers: set[asyncio.Task] = set()
        self._stopped = False
        self._draining = False
        #: Execute requests admitted but not yet answered (event-loop
        #: thread only), and the gauge/flag pair the drain logic waits on.
        self._pending = 0
        self._dispatching = 0
        self._drained: asyncio.Event | None = None
        #: Request counters, mutated only on the event-loop thread.
        self.request_counts: dict[str, int] = {}
        self.error_count = 0
        self.connections_served = 0
        self.shed_count = 0
        self.deadline_count = 0
        #: The server's :class:`repro.obs.MetricsRegistry` — always on
        #: (registry mutation is a couple of lock-guarded adds per
        #: request; rendering only happens when something scrapes).  The
        #: session mirrors its stats into the same registry, so one
        #: exposition covers wire-level and engine-level counters.
        from repro.obs import MetricsRegistry

        self.metrics: MetricsRegistry = (
            metrics if metrics is not None else MetricsRegistry()
        )
        if self.session.metrics is None:
            self.session.attach_metrics(self.metrics)
        self._m_requests = self.metrics.counter(
            "requests_total", "Wire requests served, by op", labels=("op",)
        )
        self._m_request_ms = self.metrics.histogram(
            "request_latency_ms",
            "Wire request service time (dispatch to response), milliseconds",
            labels=("op",),
        )
        self._m_errors = self.metrics.counter(
            "request_errors_total", "Requests answered with an error frame"
        )
        self._m_shed = self.metrics.counter(
            "requests_shed_total",
            "Executes/inserts refused at the admission limit",
        )
        self._m_deadline = self.metrics.counter(
            "deadline_exceeded_total",
            "Executes answered with a DeadlineExceeded frame",
        )
        self._m_connections = self.metrics.counter(
            "connections_total", "Client connections accepted"
        )
        self.metrics.gauge(
            "pending_requests",
            "Executes/inserts admitted and not yet answered",
            callback=lambda: self._pending,
        )
        self.metrics.gauge(
            "admission_limit",
            "Admission bound (requests beyond this are shed)",
            callback=lambda: self.max_pending,
        )
        self.metrics.gauge(
            "lease_pool_size", "Leased read connections this server holds",
            callback=lambda: self.pool_size,
        )
        self.metrics.gauge(
            "leases_free",
            "Read-connection leases currently parked (0 = saturated)",
            callback=lambda: (
                self._leases.qsize() if self._leases is not None else 0
            ),
        )

    # ------------------------------------------------------------- lifecycle

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Bind and listen; returns the actual (host, port) — port 0 picks
        a free one (the test/bench path)."""
        self._stopped = False  # a stopped server may be started again
        self._draining = False
        self._pending = 0
        self._dispatching = 0
        self._drained = asyncio.Event()
        self._drained.set()
        # One dedicated reader connection per lease: each request runs on
        # a connection no other request can touch, so concurrent SQLite
        # steps never contend on one connection's serialisation mutex.
        connections = self.session.db.dedicated_read_connections(self.pool_size)
        self._leases = asyncio.Queue()
        for connection in connections:
            self._leases.put_nowait(connection)
        try:
            self._server = await asyncio.start_server(self._handle, host, port)
        except BaseException:
            # e.g. the port is taken: don't leak the readers just opened.
            self._leases = None
            for connection in connections:
                self.session.db.release_dedicated_reader(connection)
            raise
        bound = self._server.sockets[0].getsockname()
        return bound[0], bound[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            raise ServiceError("server not started; call start() first")
        async with self._server:
            await self._server.serve_forever()

    async def stop(self, drain_grace: float = DEFAULT_DRAIN_GRACE) -> None:
        """Graceful shutdown: refuse new work, drain in-flight, retire.

        Ordering: (1) close the listener so new connects are refused at
        the OS level; (2) wait up to ``drain_grace`` seconds for requests
        already read off a socket to finish and *answer* — an in-flight
        query completes normally; (3) cancel the remaining handlers, all
        of which are now idle between requests (or stragglers past the
        grace); (4) retire the connection leases.
        """
        self._stopped = True
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._dispatching > 0 and self._drained is not None:
            try:
                await asyncio.wait_for(self._drained.wait(), drain_grace)
            except asyncio.TimeoutError:
                pass  # stragglers get cancelled below
        for task in list(self._handlers):
            task.cancel()
        if self._handlers:
            await asyncio.gather(*self._handlers, return_exceptions=True)
        self._handlers.clear()
        # Retire every lease.  Idle leases are parked already; leases held
        # by in-flight thread work arrive when the worker finishes (its
        # done callback sees _stopped and releases, so waiting here is
        # bounded by the slowest running query, capped at 10s).
        if self._leases is not None:
            loop = asyncio.get_running_loop()
            deadline = loop.time() + 10.0
            retired = 0
            while retired < self.pool_size:
                remaining = deadline - loop.time()
                if remaining <= 0:
                    break
                try:
                    lease = await asyncio.wait_for(
                        self._leases.get(), timeout=remaining
                    )
                except asyncio.TimeoutError:
                    break
                if lease is not None:  # None = retired by _park_lease
                    self.session.db.release_dedicated_reader(lease)
                retired += 1

    # ------------------------------------------------------------ connection

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
            task.add_done_callback(self._handlers.discard)
        self.connections_served += 1
        self._m_connections.inc()
        try:
            while True:
                if self._draining:
                    break  # shutting down: no further requests on this link
                try:
                    prefix = await reader.readexactly(4)
                except (asyncio.IncompleteReadError, ConnectionResetError):
                    break  # client hung up between requests
                try:
                    length = frame_length(prefix)
                except ServiceError as error:
                    # A rejected/corrupt length prefix desyncs the stream —
                    # the body was never read, so the next read would parse
                    # payload bytes as a length.  Answer and hang up.
                    writer.write(pack_frame(error_payload(error)))
                    self.error_count += 1
                    self._m_errors.inc()
                    try:
                        await writer.drain()
                    except ConnectionResetError:
                        pass
                    break
                try:
                    body = await reader.readexactly(length)
                except asyncio.IncompleteReadError:
                    break
                # From the moment a full request is off the wire until its
                # response is flushed, this connection counts as
                # *dispatching* — graceful drain waits for exactly this.
                self._dispatching += 1
                if self._drained is not None:
                    self._drained.clear()
                try:
                    request_id: object = None
                    try:
                        request = split_frame(body)
                        request_id = request.get("id")
                        response, closing = await self._dispatch(request)
                    except Exception as error:  # noqa: BLE001 — answer in-frame
                        response, closing = (
                            error_payload(error, request_id),
                            False,
                        )
                        self.error_count += 1
                        self._m_errors.inc()
                    if request_id is not None:
                        response.setdefault("id", request_id)
                    try:
                        # Serialising a big result set is real CPU time —
                        # keep it off the loop so other connections stay
                        # served.  (An insert response's "rows" is a count,
                        # not a list — hence the sized check.)
                        rows = response.get("rows")
                        if isinstance(rows, (list, tuple)) and len(rows) > 256:
                            frame = await asyncio.to_thread(pack_frame, response)
                        else:
                            frame = pack_frame(response)
                    except ServiceError as error:
                        # e.g. a result set larger than the frame limit: the
                        # client still deserves a structured answer.
                        frame = pack_frame(error_payload(error, request_id))
                        self.error_count += 1
                        self._m_errors.inc()
                    writer.write(frame)
                    try:
                        await writer.drain()
                    except ConnectionResetError:
                        break
                finally:
                    self._dispatching -= 1
                    if self._dispatching == 0 and self._drained is not None:
                        self._drained.set()
                if closing:
                    break
        except asyncio.CancelledError:
            pass  # server shutdown: drop the connection quietly
        finally:
            writer.close()
            try:
                # A shutdown cancellation can re-raise here (first await
                # after cancel); swallow it so the task ends cleanly and
                # the streams machinery never logs a phantom exception.
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
                pass

    # -------------------------------------------------------------- dispatch

    async def _dispatch(self, request: dict) -> tuple[dict, bool]:
        op = request.get("op")
        started = time.perf_counter()
        trace_id = request.get("trace_id")
        if trace_id is not None and (
            not isinstance(trace_id, str) or len(trace_id) > 64
        ):
            raise ServiceError(
                "'trace_id' must be a string of at most 64 characters"
            )
        if op == "close":
            self._count("close", started)
            return {"ok": True, "closing": True}, True
        if op == "ping":
            # Answered inline on the event loop — no lease, no compile —
            # so liveness probes keep working while every lease is busy.
            response = {
                "ok": True,
                "pong": True,
                "shard": self.shard_label,
                "protocol": PROTOCOL_VERSION,
                "draining": self._draining,
            }
        elif op == "prepare":
            response = await self._prepare(request)
        elif op == "register":
            response = await self._register(request)
        elif op == "execute":
            response = await self._execute(request)
        elif op == "insert":
            response = await self._insert(request)
        elif op == "explain":
            response = await self._explain(request)
        elif op == "stats":
            response = self._stats()
        elif op == "metrics":
            # Prometheus text exposition in-band (protocol v1.3): fleet
            # tooling scrapes through the query port; gauge callbacks
            # read event-loop state, so render right here on the loop.
            from repro.obs import render_prometheus

            response = {"ok": True, "exposition": render_prometheus(self.metrics)}
        else:
            raise ServiceError(
                f"unknown op {op!r}; one of: prepare, register, execute, "
                f"insert, explain, stats, metrics, ping, close"
            )
        self._count(op, started)
        if trace_id is not None:
            response.setdefault("trace_id", trace_id)
        return response, False

    def _count(self, op: str, started: float) -> None:
        self.request_counts[op] = self.request_counts.get(op, 0) + 1
        millis = (time.perf_counter() - started) * 1000.0
        key = f"{op}_millis"
        self.request_counts[key] = round(
            self.request_counts.get(key, 0.0) + millis, 3
        )
        self._m_requests.labels(op=op).inc()
        self._m_request_ms.labels(op=op).observe(millis)

    def _entry(self, request: dict):
        name = request.get("query")
        if not isinstance(name, str):
            raise ServiceError("requests need a 'query' field naming the query")
        return self.registry.lookup(name)

    async def _prepare(self, request: dict) -> dict:
        entry = self._entry(request)
        prepared = entry.prepared(self.session)
        # Compilation can be slow the first time — keep it off the loop.
        compiled = await asyncio.to_thread(lambda: prepared.compiled)
        return {
            "ok": True,
            "query": entry.name,
            "statements": compiled.query_count,
            "params": {
                name: str(declared) for name, declared in compiled.param_specs
            },
            "engine": self.session.resolve_engine(),
            "description": entry.description,
        }

    async def _register(self, request: dict) -> dict:
        """The protocol v1.4 dynamic-registration op.

        Decodes the shipped λNRC term (:mod:`repro.nrc.serialize`) and
        adds it to the catalogue.  Registration is *convergent*: a
        structurally identical term already registered under the name is
        a no-op answering ``"registered": false`` — fan-out clients
        register on every shard and retry on failure, so re-delivery
        must not churn the catalogue (replacing an entry is harmless but
        would defeat the plan cache's compile-once accounting).
        """
        from repro.nrc.ast import term_fingerprint
        from repro.nrc.serialize import SerializationError, term_from_json

        name = request.get("query")
        if not isinstance(name, str) or not name:
            raise ServiceError(
                "register requests need a 'query' field naming the query"
            )
        payload = request.get("term")
        try:
            term = term_from_json(payload)
        except SerializationError as error:
            raise ServiceError(f"bad 'term' payload: {error}") from error
        description = request.get("description") or ""
        if not isinstance(description, str):
            raise ServiceError("'description' must be a string")
        fingerprint = term_fingerprint(term)
        registered = True
        if name in self.registry:
            existing = self.registry.lookup(name)
            if term_fingerprint(existing.term) == fingerprint:
                registered = False
        if registered:
            self.registry.register(name, term, description=description)
        return {
            "ok": True,
            "query": name,
            "registered": registered,
            "fingerprint": fingerprint,
        }

    async def _execute(self, request: dict) -> dict:
        # Admission control *before* any work: past the bound, shed
        # immediately — an error frame now beats a timeout later.
        if self._pending >= self.max_pending:
            self.shed_count += 1
            self._m_shed.inc()
            raise OverloadedError(
                f"server at admission limit ({self.max_pending} requests "
                f"in flight); retry with backoff or divert"
            )
        self._pending += 1
        try:
            return await self._execute_admitted(request)
        finally:
            self._pending -= 1

    async def _execute_admitted(self, request: dict) -> dict:
        admitted = time.perf_counter()
        entry = self._entry(request)
        params = request.get("params") or {}
        if not isinstance(params, dict):
            raise ServiceError("'params' must be an object of name → value")
        # Default to the batched engine: each request then runs whole on its
        # leased connection, and concurrency comes from overlapping
        # *requests* rather than fanning one request across the pool.
        engine = request.get("engine") or "batched"
        collection = request.get("collection", "bag")
        deadline_ms = request.get("deadline_ms", self.default_deadline_ms)
        if deadline_ms is not None and (
            not isinstance(deadline_ms, (int, float)) or deadline_ms <= 0
        ):
            raise ServiceError(
                f"'deadline_ms' must be a positive number, got {deadline_ms!r}"
            )
        # Reject bad names here, not on the worker thread: a request naming
        # an unknown engine must not wait for (and then probe) a lease.
        validate_engine(engine, extra=("auto",))
        validate_collection(collection)
        prepared = entry.prepared(self.session)
        assert self._leases is not None, "server not started"
        lease = await self._leases.get()
        # The lease is parked by the *work task's* completion callback, not
        # by this coroutine's finally: if the handler is cancelled
        # mid-request the worker thread keeps running, and the connection
        # must stay out of the queue (and unclosed) until it finishes.
        work = asyncio.get_running_loop().create_task(
            asyncio.to_thread(
                prepared.run,
                engine=engine,
                collection=collection,
                params=params,
                connection=lease,
            )
        )
        work.add_done_callback(lambda task: self._park_lease(lease, task))
        shielded = asyncio.shield(work)
        if deadline_ms is None:
            result = await shielded
        else:
            try:
                result = await asyncio.wait_for(shielded, deadline_ms / 1000.0)
            except asyncio.TimeoutError:
                # The worker thread runs on (SQLite steps are not
                # interruptible); its done callback reclaims the lease.
                self.deadline_count += 1
                self._m_deadline.inc()
                raise DeadlineExceededError(
                    f"server-side deadline of {deadline_ms:.0f}ms exceeded "
                    f"executing {entry.name!r}"
                ) from None
        stats = result.stats
        return {
            "ok": True,
            "query": entry.name,
            "rows": result.to_dicts(),
            "engine": result.engine,
            # Wall time from admission to result, lease wait included —
            # what a tracing fan-out client attributes to this shard.
            "server_millis": round(
                (time.perf_counter() - admitted) * 1000.0, 3
            ),
            "stats": {
                "queries": stats.queries,
                "rows_fetched": stats.rows_fetched,
                "millis": round(stats.total_millis, 3),
            },
        }

    async def _insert(self, request: dict) -> dict:
        """The protocol v1.2 write op.

        Inserts share the execute admission bound (they contend for the
        same store), run off-loop like executes, and honour the request's
        idempotency key: a key the store has journalled already answers
        ``"applied": false`` without touching a row, which is what makes
        the clients' at-least-once retry delivery exactly-once in effect.
        No deadline applies — an abandoned write would leave the client
        unsure whether it landed; the key exists precisely so the client
        re-sends instead of guessing.
        """
        if self._pending >= self.max_pending:
            self.shed_count += 1
            self._m_shed.inc()
            raise OverloadedError(
                f"server at admission limit ({self.max_pending} requests "
                f"in flight); retry with backoff or divert"
            )
        table = request.get("table")
        if not isinstance(table, str):
            raise ServiceError("insert requests need a 'table' field")
        rows = request.get("rows")
        if not isinstance(rows, list) or not all(
            isinstance(row, dict) for row in rows
        ):
            raise ServiceError("'rows' must be an array of row objects")
        key = request.get("idempotency_key")
        if key is not None and not isinstance(key, str):
            raise ServiceError(
                f"'idempotency_key' must be a string, got {key!r}"
            )
        self._pending += 1
        try:
            applied = await asyncio.to_thread(
                self.session.insert, table, rows, idempotency_key=key
            )
        finally:
            self._pending -= 1
        return {
            "ok": True,
            "table": table,
            "rows": len(rows),
            "applied": applied,
        }

    async def _explain(self, request: dict) -> dict:
        entry = self._entry(request)
        prepared = entry.prepared(self.session)
        text = await asyncio.to_thread(prepared.explain)
        return {"ok": True, "query": entry.name, "text": text}

    def _park_lease(self, lease, task: "asyncio.Task") -> None:
        """Return a lease to the queue once its worker actually finished.

        Runs as the work task's done callback (on the event loop).  A
        failed run may mean the lease itself died (e.g. the store was
        disposed under us) — never park a dead connection; after stop(),
        retire instead of parking.
        """
        failed = task.cancelled()
        if not failed:
            failed = task.exception() is not None  # also marks it retrieved
        if self._stopped or self._leases is None:
            self.session.db.release_dedicated_reader(lease)
            if self._leases is not None:
                # Tombstone so stop()'s drain still counts this lease.
                self._leases.put_nowait(None)
            return
        if failed:
            try:
                lease.execute("SELECT 1").fetchone()
            except sqlite3.Error:
                self.session.db.release_dedicated_reader(lease)
                try:
                    lease = self.session.db.dedicated_read_connections(1)[0]
                except Exception:  # noqa: BLE001 — store gone entirely
                    return  # a later start() builds fresh leases
        self._leases.put_nowait(lease)

    def _stats(self) -> dict:
        payload = {
            "ok": True,
            "queries": self.registry.names(),
            "server": {
                "protocol": PROTOCOL_VERSION,
                "pool_size": self.pool_size,
                "shard": self.shard_label,
                "connections_served": self.connections_served,
                "errors": self.error_count,
                "requests": dict(self.request_counts),
                "max_pending": self.max_pending,
                "pending": self._pending,
                "shed": self.shed_count,
                "deadline_exceeded": self.deadline_count,
                "draining": self._draining,
            },
            "session": self.session.stats_snapshot(),
        }
        cache = self.session.pipeline.cache
        if cache is not None:
            payload["plan_cache"] = cache.stats()
        return payload


# --------------------------------------------------------------------------
# In-process background serving (tests, benchmarks, bench --smoke).


class ServerHandle:
    """A server running on a dedicated event-loop thread.

    ``host``/``port`` are live once the constructor returns; ``stop()``
    shuts the server down and joins the thread.  Context manager.
    """

    def __init__(self, server: QueryServer, host: str, port: int) -> None:
        self.server = server
        self.host = host
        self.port = port
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None

    def stop(self) -> None:
        if self._loop is None or self._thread is None:
            return
        future = asyncio.run_coroutine_threadsafe(self.server.stop(), self._loop)
        try:
            future.result(timeout=10)
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=10)
            self._loop = None
            self._thread = None

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def serve_in_background(
    session: "Session",
    registry: QueryRegistry,
    host: str = "127.0.0.1",
    port: int = 0,
    pool_size: int = DEFAULT_SERVICE_POOL,
    shard_label: str | None = None,
    max_pending: int | None = None,
    default_deadline_ms: float | None = None,
    metrics: object = None,
) -> ServerHandle:
    """Start a :class:`QueryServer` on its own thread; returns its handle.

    The canonical in-process setup used by the tests, the throughput
    benchmark and ``python -m repro bench --smoke``: server and clients in
    one process, real sockets in between.  A sharded deployment starts
    one of these per shard (plus one for the full-copy fallback) and puts
    a :class:`~repro.shard.client.ShardedServiceClient` in front.
    """
    server = QueryServer(
        session,
        registry,
        pool_size=pool_size,
        shard_label=shard_label,
        max_pending=max_pending,
        default_deadline_ms=default_deadline_ms,
        metrics=metrics,
    )
    started: "threading.Event" = threading.Event()
    box: dict = {}

    def run() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        box["loop"] = loop
        try:
            box["address"] = loop.run_until_complete(server.start(host, port))
        except Exception as error:  # noqa: BLE001 — surface via started event
            box["error"] = error
            started.set()
            loop.close()
            return
        started.set()
        try:
            loop.run_forever()
        finally:
            # Drain pending callbacks/tasks so sockets close cleanly.
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            loop.close()

    thread = threading.Thread(target=run, name="repro-query-server", daemon=True)
    thread.start()
    if not started.wait(timeout=30):
        raise ServiceError("query server failed to start within 30s")
    if "error" in box:
        raise ServiceError(f"query server failed to start: {box['error']}")
    bound_host, bound_port = box["address"]
    handle = ServerHandle(server, bound_host, bound_port)
    handle._loop = box["loop"]
    handle._thread = thread
    return handle
