"""Horizontally partitioned execution: ``ShardedDatabase`` + ``ShardedSession``.

A :class:`ShardedDatabase` splits one :class:`~repro.backend.database.
Database` into ``n`` partition shards (per the placement policy) while
keeping the original store as the *designated full-copy shard* — the
fallback target for queries the shardability analysis rejects.

A :class:`ShardedSession` fronts one :class:`~repro.api.session.Session`
per shard (plus one for the fallback store) behind the familiar façade
surface::

    from repro.shard import Placement, sharded, connect_sharded

    placement = Placement.of({"departments": sharded(key="name")})
    session = connect_sharded(db, placement=placement, shards=4)
    result = session.run(Q4)          # fanout: ⊎ of per-shard answers
    result.route                      # "fanout", shards (0, 1, 2, 3)
    session.run(dept_staff, params={"dept": "Sales"}).route  # "routed:2"

Execution modes come from :func:`~repro.shard.analysis.analyse`:

* **fanout** — the same compiled plan (one compile, shared through the
  plan cache: every shard has the same schema and options) runs on every
  shard, on one worker thread each; the per-shard SQLite stores are
  independent, so evaluation overlaps for real, beyond what one shared
  store's read pool can give.  The stitched nested values bag-union by
  concatenation *in shard order*, and per-shard
  :class:`~repro.backend.executor.ExecutionStats` merge in shard order
  after every worker joins — deterministic under any scheduling.
* **routed / single** — one shard executes (the routing-key owner, or
  shard 0 for replicated-only queries).
* **fallback** — the full-copy shard executes; the run's stats carry an
  explicit ``sharded_fallbacks`` marker so fallbacks are observable, not
  silent.

``collection="set"`` runs shards under bag semantics and deduplicates
hereditarily once, after the union (set-union is global — per-shard dedup
alone would under-collapse across shards).  ``collection="list"`` needs
the full store's deterministic row order, so fanout/routed plans for it
divert to the full-copy shard.
"""

from __future__ import annotations

import sqlite3
import threading
import uuid
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Iterable, Mapping, Optional

from repro.api.results import Result
from repro.api.session import Session
from repro.backend.database import Database
from repro.backend.executor import ExecutionStats
from repro.errors import BackendError, ShardingError
from repro.nrc import ast
from repro.nrc.schema import Schema
from repro.shard.analysis import (
    RouteDecision,
    ShardPlan,
    analyse,
    plan_route,
)
from repro.shard.placement import Placement
from repro.sql.codegen import SqlOptions

#: Which :class:`ExecutionStats` field marks a run of each route mode.
#: ``failover`` (a route diverted around a known-down shard) marks
#: ``failover_reroutes``; a *reactive* retry after a mid-run shard failure
#: marks ``failover_retries`` instead (set explicitly in ``run``).
STATS_MARKERS = {
    "fanout": "sharded_fanouts",
    "routed": "sharded_routed",
    "single": "sharded_singles",
    "fallback": "sharded_fallbacks",
    "failover": "failover_reroutes",
}

#: What a dying in-process shard store raises mid-run: the sqlite layer
#: (connection closed/corrupt), the backend wrapper, or the OS (store file
#: ripped out from under the mmap).  Anything else — a genuine query error
#: — would fail identically on the fallback, so it propagates.
SHARD_FAILURES = (sqlite3.Error, BackendError, OSError)

__all__ = [
    "ShardedDatabase",
    "ShardedSession",
    "ShardedPrepared",
    "ShardedResult",
    "ProcessShardedSession",
    "ProcessShardedPrepared",
    "connect_sharded",
]


class ShardedDatabase:
    """``n`` partition stores plus the designated full-copy shard.

    The original ``database`` *is* the full-copy shard: partition shards
    are loaded from it once (copy-on-partition), after which every
    mutation goes through :meth:`insert`, which routes each row to its
    owning shard — and to the full copy, which must stay a superset view
    of the union of partitions.
    """

    def __init__(
        self,
        database: Database,
        placement: Placement,
        shard_count: int,
    ) -> None:
        if shard_count < 1:
            raise ShardingError(
                f"shard count must be ≥1, got {shard_count}"
            )
        placement.validate(database.schema)
        self.schema: Schema = database.schema
        self.placement = placement
        self.shard_count = shard_count
        self.full = database
        self.shards: list[Database] = database.partition_all(
            placement.owner_fn(shard_count), shard_count
        )
        #: The idempotency key of the most recent :meth:`insert` (minted
        #: when the caller passed none) — what a caller re-sends after a
        #: partial failure to converge without double-applying.
        self.last_insert_key: str | None = None

    def insert(
        self,
        table: str,
        rows: Iterable[Mapping[str, object]],
        idempotency_key: str | None = None,
    ) -> bool:
        """Insert rows, routing each to its owning shard.

        A sharded table's rows land on exactly the shards that own them —
        a shard that receives no rows is **not** touched at all.
        Replicated tables insert everywhere.

        The full-copy shard receives the rows *first*: its insert
        validates the whole batch against the schema (and row grouping
        validates the routing column before that), so a bad batch raises
        before any partition shard is touched — a failed insert never
        leaves a partition holding rows the full copy lacks.

        ``idempotency_key`` dedups re-deliveries; every constituent store
        journals the key independently, so a *partially* delivered batch
        (e.g. a crash between the full copy and a partition) converges on
        redelivery — stores that applied it skip, the rest catch up.
        Returns ``False`` iff the full copy had already applied the key.

        A key is **minted** when the caller passes none, exactly like the
        wire clients (:meth:`~repro.service.client.ServiceClient.insert`,
        :meth:`~repro.shard.client.ShardedServiceClient.insert`): every
        sharded write journals through the same exactly-once path, so an
        in-process batch that raises part-way (say, after the full copy
        but before a partition) and is re-sent whole with
        ``last_insert_key`` cannot double-apply anywhere.
        """
        if idempotency_key is None:
            idempotency_key = uuid.uuid4().hex
        self.last_insert_key = idempotency_key
        materialised = [dict(row) for row in rows]
        column = self.placement.routing_column(table)
        groups: dict[int, list[dict]] = {}
        if column is not None:
            owner = self.placement.owner_fn(self.shard_count)
            for row in materialised:
                groups.setdefault(owner(table, row), []).append(row)
        applied = self.full.insert(
            table, materialised, idempotency_key=idempotency_key
        )
        if column is None:
            for shard in self.shards:
                shard.insert(table, materialised, idempotency_key=idempotency_key)
        else:
            for index in sorted(groups):
                self.shards[index].insert(
                    table, groups[index], idempotency_key=idempotency_key
                )
        return applied

    def total_rows(self) -> int:
        return self.full.total_rows()

    def row_counts(self, table: str) -> list[int]:
        """Per-shard row counts of ``table`` (diagnostics, balance checks)."""
        return [shard.row_count(table) for shard in self.shards]

    def dispose(self) -> None:
        for shard in self.shards:
            shard._dispose_connection()
        self.full._dispose_connection()


class ShardedResult(Result):
    """A :class:`~repro.api.results.Result` plus the route that produced it.

    ``route`` is ``"fanout"``, ``"routed:<shard>"``, ``"single:<shard>"``,
    ``"fallback"`` or ``"failover:<original route>"`` (a fault diverted the
    run to the full-copy shard); ``shards`` lists the partition shards
    that executed (empty for fallback/failover — the full-copy shard is
    not a partition).
    """

    __slots__ = ("route", "shards", "reason")

    def __init__(
        self,
        value: Any,
        stats: ExecutionStats,
        engine: str,
        route: str,
        shards: tuple[int, ...],
        reason: str = "",
    ) -> None:
        super().__init__(value=value, stats=stats, engine=engine)
        self.route = route
        self.shards = shards
        self.reason = reason


class ShardedPrepared:
    """A query bound to a sharded session: compiled once, analysed once,
    runnable many times (re-routing per call when the pin is a host
    parameter)."""

    def __init__(self, session: "ShardedSession", term: ast.Term) -> None:
        self._session = session
        self._term = term
        self._compiled = None
        self._plan: Optional[ShardPlan] = None
        #: Per-shard Prepared handles, created lazily under the lock: the
        #: fan-out pool resolves slots from several threads at once.
        self._prepared: list = [None] * session.shard_count
        self._prepared_lock = threading.Lock()

    def term(self) -> ast.Term:
        return self._term

    @property
    def compiled(self):
        if self._compiled is None:
            self._compiled = self._session._compile(self._term)
        return self._compiled

    @property
    def plan(self) -> ShardPlan:
        """The shardability verdict (fanout/routed/single/fallback)."""
        if self._plan is None:
            self._plan = analyse(
                self.compiled.normal_form, self._session.placement
            )
        return self._plan

    @property
    def query_count(self) -> int:
        return self.compiled.query_count

    @property
    def sql_by_path(self) -> list[tuple[str, str]]:
        return self.compiled.sql_by_path

    def explain(self) -> str:
        plan = self.plan
        header = [
            f"shards         : {self._session.shard_count} "
            f"(+ full-copy fallback)",
            f"shard plan     : {plan.mode} — {plan.reason}",
        ]
        return "\n".join(header) + "\n" + self._shard_prepared(0).explain()

    def _shard_prepared(self, index: int):
        prepared = self._prepared[index]
        if prepared is None:
            with self._prepared_lock:
                prepared = self._prepared[index]
                if prepared is None:
                    prepared = self._session.sessions[index].prepare(
                        self._term
                    )
                    self._prepared[index] = prepared
        return prepared

    # ------------------------------------------------------------------ run

    def run(
        self,
        engine: str | None = None,
        collection: str = "bag",
        params: Mapping[str, object] | None = None,
        **kwargs: Any,
    ) -> ShardedResult:
        session = self._session
        decision = plan_route(
            self.plan,
            session.shard_count,
            params=dict(params) if params else None,
            collection=collection,
            down_shards=session.down_shards(),
        )
        per_shard = decision.per_shard_collection
        retried = False
        try:
            value, merged, resolved_engine = self._run_decision(
                decision, engine, per_shard, params, kwargs
            )
        except SHARD_FAILURES as error:
            if not decision.shards:
                raise  # the full-copy shard itself failed: nothing stands in
            # Reactive failover: a partition died mid-run.  Partial fan-out
            # results cannot be patched (the dead shard's slice is simply
            # missing), so discard everything and re-run the *whole* query
            # on the full-copy fallback, which holds a superset of every
            # partition.  The culprit is marked down so subsequent runs
            # divert proactively (``failover_reroutes``).
            failed = getattr(error, "_repro_shard", None)
            if failed is not None:
                session.mark_shard_down(failed)
            retried = True
            decision = RouteDecision(
                "failover",
                f"failover:{decision.route}",
                (),
                per_shard,
                f"shard {'?' if failed is None else failed} failed mid-run "
                f"({type(error).__name__}); retried on the full-copy fallback",
            )
            value, merged, resolved_engine = self._run_decision(
                decision, engine, per_shard, params, kwargs
            )
        if retried:
            merged.failover_retries = 1
        else:
            setattr(merged, STATS_MARKERS[decision.mode], 1)

        if collection == "set":
            from repro.values import dedup_nested

            value = dedup_nested(value)
        session._record_run(decision.shards, decision.mode, merged)
        return ShardedResult(
            value=value,
            stats=merged,
            engine=resolved_engine,
            route=decision.route,
            shards=decision.shards,
            reason=decision.reason,
        )

    def _run_decision(
        self,
        decision: RouteDecision,
        engine: str | None,
        per_shard: str,
        params: Mapping[str, object] | None,
        kwargs: dict,
    ) -> tuple[list, ExecutionStats, str]:
        """Execute one resolved route; shard failures carry the culprit's
        index as ``error._repro_shard`` so ``run`` can mark it down."""
        session = self._session

        def runner(index: int):
            try:
                return self._shard_prepared(index).run(
                    engine=engine,
                    collection=per_shard,
                    params=params,
                    **kwargs,
                )
            except SHARD_FAILURES as error:
                error._repro_shard = index
                raise

        if decision.mode == "fanout":
            if session.shard_count == 1:
                results = [runner(0)]
            else:
                results = list(session._pool.map(runner, decision.shards))
            value: list = []
            for result in results:
                value.extend(result.value)
            merged = ExecutionStats()
            for result in results:
                merged.merge(result.stats)
            return value, merged, results[0].engine
        if decision.mode in ("fallback", "failover"):
            result = session._fallback_prepared(self._term).run(
                engine=engine, collection=per_shard, params=params, **kwargs
            )
        else:  # routed / single: exactly one partition shard
            result = runner(decision.shards[0])
        merged = ExecutionStats()
        merged.merge(result.stats)
        return result.value, merged, result.engine


class ShardedSession:
    """The fan-out façade: one :class:`Session` per shard, one plan.

    All shard sessions share one plan cache (``cache=True`` → the
    process-wide cache): their schemas and options are identical, so a
    query compiles once and every shard reuses the plan.  Stats:

    * ``session.stats`` accumulates the *merged* stats of every sharded
      run (deterministic shard order), plus compile-side cache counters;
    * ``session.shard_runs`` / ``session.fallback_runs`` count executions
      per partition shard and on the full-copy shard — the counters the
      routing tests assert exactly.
    """

    def __init__(
        self,
        database: "ShardedDatabase | Database | None" = None,
        *,
        schema: Schema | None = None,
        tables: Mapping[str, Iterable[Mapping[str, object]]] | None = None,
        placement: Placement | None = None,
        shards: int | None = None,
        options: SqlOptions | None = None,
        engine: str = "auto",
        cache: object = True,
        validate: bool = False,
    ) -> None:
        if isinstance(database, ShardedDatabase):
            if placement is not None and placement != database.placement:
                raise ShardingError(
                    "pass the placement either to ShardedDatabase or to "
                    "the session, not two different ones"
                )
            if shards is not None and shards != database.shard_count:
                raise ShardingError(
                    f"shards={shards} conflicts with the ShardedDatabase's "
                    f"{database.shard_count} shards"
                )
            sharded_db = database
            if tables:
                for name, rows in tables.items():
                    sharded_db.insert(name, rows)  # routed per placement
        else:
            if placement is None:
                raise ShardingError(
                    "a sharded session needs a placement "
                    "(Placement.of({table: sharded(key=...)}))"
                )
            if database is None:
                if schema is None:
                    raise ShardingError(
                        "connect_sharded() needs a Database, a "
                        "ShardedDatabase or a Schema"
                    )
                database = Database(schema, tables)
            elif tables:
                for name, rows in tables.items():
                    database.insert(name, rows)
            sharded_db = ShardedDatabase(
                database, placement, 2 if shards is None else shards
            )
        self.db = sharded_db
        self.schema = sharded_db.schema
        self.placement = sharded_db.placement
        self.shard_count = sharded_db.shard_count
        self.engine = engine
        self.sessions = [
            Session(
                shard,
                options=options,
                engine=engine,
                cache=cache,
                validate=validate,
            )
            for shard in sharded_db.shards
        ]
        self.fallback_session = Session(
            sharded_db.full,
            options=options,
            engine=engine,
            cache=cache,
            validate=validate,
        )
        self.stats = ExecutionStats()
        self._stats_lock = threading.Lock()
        self.shard_runs = [0] * self.shard_count
        self.fallback_runs = 0
        #: Partition shards presumed dead: routes divert around them
        #: (``failover_reroutes``) until :meth:`mark_shard_up` /
        #: :meth:`check_health` clears them.
        self._down: set[int] = set()
        self._closed = False
        self._pool = ThreadPoolExecutor(
            max_workers=self.shard_count,
            thread_name_prefix="repro-shard",
        )

    # ------------------------------------------------------------- building

    def prepare(self, source: object) -> ShardedPrepared:
        from repro.api.fluent import to_term

        if isinstance(source, ShardedPrepared):
            if source._session is self:
                return source
            return ShardedPrepared(self, source.term())
        return ShardedPrepared(self, to_term(source))

    def query(self, source: object) -> ShardedPrepared:
        return self.prepare(source)

    def run(self, source: object, **kwargs: Any) -> ShardedResult:
        return self.prepare(source).run(**kwargs)

    def plan_for(self, source: object) -> ShardPlan:
        """The shardability verdict for ``source`` under this placement."""
        return self.prepare(source).plan

    # ------------------------------------------------------------ internals

    def _compile(self, term: ast.Term):
        # Compile through shard 0's pipeline (all shards share the plan
        # cache) and fold the cache counters into the sharded stats too.
        local = ExecutionStats()
        compiled = self.sessions[0].pipeline.compile(term, stats=local)
        self.sessions[0]._merge_stats(local)
        with self._stats_lock:
            self.stats.merge(local)
        return compiled

    def _fallback_prepared(self, term: ast.Term):
        return self.fallback_session.prepare(term)

    def _record_run(
        self, shard_indexes: tuple[int, ...], mode: str, merged: ExecutionStats
    ) -> None:
        with self._stats_lock:
            self.stats.merge(merged)
            for index in shard_indexes:
                self.shard_runs[index] += 1
            if mode in ("fallback", "failover"):
                self.fallback_runs += 1

    # ------------------------------------------------------------- liveness

    def mark_shard_down(self, index: int) -> None:
        """Divert routes around partition shard ``index`` until it is
        marked up again (set automatically by a reactive failover)."""
        if not 0 <= index < self.shard_count:
            raise ShardingError(
                f"shard index {index} out of range for {self.shard_count} shards"
            )
        with self._stats_lock:
            self._down.add(index)

    def mark_shard_up(self, index: int) -> None:
        with self._stats_lock:
            self._down.discard(index)

    def down_shards(self) -> frozenset:
        """The partition shards currently presumed dead."""
        with self._stats_lock:
            return frozenset(self._down)

    def check_health(self) -> dict[int, bool]:
        """Probe every partition store and refresh the liveness set.

        A shard that answers a trivial read is marked up (recovery path
        for shards downed by a reactive failover); one that raises stays
        or becomes down.
        """
        verdicts: dict[int, bool] = {}
        for index, shard in enumerate(self.db.shards):
            try:
                shard.total_rows()
            except SHARD_FAILURES:
                verdicts[index] = False
                self.mark_shard_down(index)
            else:
                verdicts[index] = True
                self.mark_shard_up(index)
        return verdicts

    # -------------------------------------------------------------- surface

    def run_counts(self) -> dict[str, object]:
        """A consistent snapshot of the per-shard execution counters."""
        with self._stats_lock:
            return {
                "per_shard": list(self.shard_runs),
                "fallback": self.fallback_runs,
            }

    def stats_snapshot(self) -> dict[str, object]:
        """Point-in-time counters (never torn mid-merge), including the
        per-mode sharding markers."""
        with self._stats_lock:
            return {
                "queries": self.stats.queries,
                "rows_fetched": self.stats.rows_fetched,
                "cache_hits": self.stats.cache_hits,
                "cache_misses": self.stats.cache_misses,
                "millis": round(self.stats.total_millis, 3),
                "fanouts": self.stats.sharded_fanouts,
                "routed": self.stats.sharded_routed,
                "singles": self.stats.sharded_singles,
                "fallbacks": self.stats.sharded_fallbacks,
                "failover_reroutes": self.stats.failover_reroutes,
                "failover_retries": self.stats.failover_retries,
                "down_shards": sorted(self._down),
            }

    def insert(
        self,
        table: str,
        rows: Iterable[Mapping[str, object]],
        idempotency_key: str | None = None,
    ) -> bool:
        """Insert rows (routed per the placement; see
        :meth:`ShardedDatabase.insert`)."""
        return self.db.insert(table, rows, idempotency_key=idempotency_key)

    def close(self) -> None:
        """Shut the fan-out pool and every per-shard session.

        Idempotent: sharded sessions get closed from ``finally`` blocks,
        context-manager exits *and* explicit teardown paths, often more
        than once — a second close is a no-op, never an exception."""
        if self._closed:
            return
        self._closed = True
        self._pool.shutdown(wait=True)
        for session in self.sessions:
            session.close()
        self.fallback_session.close()

    def __enter__(self) -> "ShardedSession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ShardedSession shards={self.shard_count} "
            f"sharded_tables={self.placement.sharded_tables}>"
        )


class ProcessShardedPrepared:
    """A named query bound to a :class:`ProcessShardedSession` — the
    process-group analogue of :class:`ShardedPrepared`: preparing warms
    the plan cache on *every* server (and the local analysis cache), so
    repeated runs measure execution, not compilation."""

    def __init__(self, session: "ProcessShardedSession", name: str) -> None:
        self._session = session
        self.name = name

    def term(self) -> ast.Term:
        return self._session.client.registry.lookup(self.name).term

    @property
    def plan(self) -> ShardPlan:
        return self._session.client.plan_for(self.name)

    def run(self, **kwargs: Any) -> ShardedResult:
        return self._session.run(self.name, **kwargs)


class ProcessShardedSession:
    """The fan-out façade over a **process group**: one ``serve --shard
    i/n`` subprocess per partition (plus the full-copy fallback server),
    spawned, supervised and owned by this session.

    Same surface as :class:`ShardedSession` — ``prepare`` / ``run`` /
    ``plan_for`` / ``insert`` / ``run_counts`` / ``stats_snapshot`` /
    ``check_health`` / ``close`` — but execution crosses process
    boundaries: each shard evaluates on its own interpreter and its own
    SQLite store, so a fan-out overlaps *for real* on a multi-core host
    (no GIL, no shared page cache).  Routing is identical; the client
    carries the same placement and catalogue the servers were deployed
    with, and only names + parameter values travel on the wire.

    The data substrate is the seeded deterministic organisation instance
    (``serve --scale N --rows R``): every server regenerates its own
    partition under ``placement`` (forwarded as ``--placement``), so the
    session takes **no** database/tables — pass those to the thread-backed
    :class:`ShardedSession` instead (``connect_sharded(processes=False)``).

    Ad-hoc queries (anything that is not already a catalogue name) are
    shipped to every server via the protocol v1.4 ``register`` op under a
    fingerprint-derived name, then run like any named query.

    ``close()`` tears the whole group down deterministically — client
    sockets first, then the supervisor loop, then a graceful drain of
    every child — and is idempotent and tolerant of already-dead children.
    """

    def __init__(
        self,
        shards: int = 2,
        *,
        placement: Placement | None = None,
        registry: object = None,
        schema: Schema | None = None,
        replication: int | None = None,
        pool: int = 1,
        scale: int = 0,
        rows: int = 20,
        data_dir: object = None,
        log_dir: object = None,
        base_port: int = 0,
        supervise: bool = True,
        client_options: Optional[dict] = None,
        supervisor_options: Optional[dict] = None,
    ) -> None:
        from repro.data.organisation import (
            ORGANISATION_SCHEMA,
            organisation_placement,
        )
        from repro.service.registry import paper_registry
        from repro.shard.supervisor import SupervisedDeployment

        if placement is None:
            placement = organisation_placement()
        if registry is None:
            registry = paper_registry()
        if schema is None:
            schema = ORGANISATION_SCHEMA
        self.placement = placement
        self.schema = schema
        self.shard_count = shards
        self.deployment = SupervisedDeployment(
            shards,
            placement=placement,
            registry=registry,
            schema=schema,
            replication=replication,
            pool=pool,
            scale=scale,
            rows=rows,
            data_dir=data_dir,
            log_dir=log_dir,
            base_port=base_port,
            supervise=supervise,
            client_options=client_options,
            supervisor_options=supervisor_options,
        )
        self.client = self.deployment.client
        self._closed = False

    # ------------------------------------------------------------- building

    def _resolve(self, source: object) -> str:
        """The catalogue name for ``source``: names pass through, anything
        else lowers to a term and registers fleet-wide under a
        fingerprint-derived name (idempotent — re-resolving the same term
        re-registers structurally identically, which every server answers
        ``registered: false``)."""
        registry = self.client.registry
        if isinstance(source, str):
            if source in registry:
                return source
            raise ShardingError(
                f"unknown query {source!r}: register it first "
                f"(session.register(name, term)) or pass a term"
            )
        if isinstance(source, (ShardedPrepared, ProcessShardedPrepared)):
            if isinstance(source, ProcessShardedPrepared):
                return source.name
            source = source.term()
        from repro.api.fluent import to_term
        from repro.nrc.ast import term_fingerprint

        term = to_term(source)
        name = f"adhoc_{term_fingerprint(term)[:12]}"
        if name not in registry:
            self.client.register(name, term, description="ad-hoc query")
        return name

    def register(
        self, name: str, source: object, description: str = ""
    ) -> dict:
        """Register ``source`` under ``name`` on every server + locally."""
        return self.client.register(name, source, description=description)

    def prepare(self, source: object) -> ProcessShardedPrepared:
        name = self._resolve(source)
        self.client.prepare(name)  # warm every server's plan cache
        self.client.plan_for(name)  # …and the local analysis cache
        return ProcessShardedPrepared(self, name)

    def query(self, source: object) -> ProcessShardedPrepared:
        return self.prepare(source)

    def plan_for(self, source: object) -> ShardPlan:
        """The shardability verdict for ``source`` under this placement."""
        return self.client.plan_for(self._resolve(source))

    # ------------------------------------------------------------------ run

    def run(
        self,
        source: object,
        *,
        engine: str | None = None,
        collection: str = "bag",
        params: Mapping[str, object] | None = None,
        deadline_ms: float | None = None,
    ) -> ShardedResult:
        name = self._resolve(source)
        response = self.client.execute_full(
            name,
            params,
            engine,
            collection,
            deadline_ms=deadline_ms,
        )
        route = response["route"]
        mode = route.split(":", 1)[0]
        wire = response.get("stats") or {}
        stats = ExecutionStats()
        stats.queries = int(wire.get("queries", 0))
        stats.rows_fetched = int(wire.get("rows_fetched", 0))
        # total_millis derives from folded aggregates — fold the servers'
        # summed wall time in whole (no per-query samples on the wire).
        stats.folded_millis = float(wire.get("millis", 0.0))
        stats.folded_samples = stats.queries
        stats.failover_retries = int(wire.get("failover_retries", 0))
        stats.failover_reroutes = int(wire.get("failover_reroutes", 0))
        marker = STATS_MARKERS.get(mode)
        if marker is not None and not stats.failover_retries:
            setattr(stats, marker, 1)
        return ShardedResult(
            value=response["rows"],
            stats=stats,
            engine=response.get("engine", ""),
            route=route,
            shards=tuple(response.get("shards") or ()),
        )

    # -------------------------------------------------------------- surface

    def insert(
        self,
        table: str,
        rows: Iterable[Mapping[str, object]],
        idempotency_key: str | None = None,
    ) -> dict:
        """Insert over the wire (write-all replicas of each owning shard;
        see :meth:`~repro.shard.client.ShardedServiceClient.insert`)."""
        return self.client.insert(table, rows, idempotency_key=idempotency_key)

    def check_health(self, deadline_ms: float | None = 1000.0) -> dict:
        return self.client.check_health(deadline_ms=deadline_ms)

    def run_counts(self) -> dict[str, object]:
        """Per-shard execute counters, shaped like
        :meth:`ShardedSession.run_counts` so routing assertions port
        across transports unchanged."""
        return {
            "per_shard": list(self.client.shard_requests),
            "fallback": self.client.fallback_requests,
        }

    def stats_snapshot(self) -> dict:
        return self.client.stats_snapshot()

    def close(self, drain_grace: float = 10.0) -> None:
        """Tear the owned process group down: client sockets, supervisor
        loop, then a graceful drain of every child.  Idempotent, and a
        child that already crashed (or was killed by a test) is skipped,
        not waited on."""
        if self._closed:
            return
        self._closed = True
        self.deployment.close(drain_grace=drain_grace)

    def __enter__(self) -> "ProcessShardedSession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ProcessShardedSession shards={self.shard_count} "
            f"sharded_tables={self.placement.sharded_tables}>"
        )


def connect_sharded(
    database: "ShardedDatabase | Database | None" = None,
    *,
    schema: Schema | None = None,
    tables: Mapping[str, Iterable[Mapping[str, object]]] | None = None,
    placement: Placement | None = None,
    shards: int | None = None,
    options: SqlOptions | None = None,
    engine: str = "auto",
    cache: object = True,
    validate: bool = False,
    processes: bool | None = None,
    **process_options: Any,
) -> "ShardedSession | ProcessShardedSession":
    """Open a sharded session — the sharded front door.

    Two substrates behind one call:

    * ``processes=False`` (and the default whenever a ``database`` /
      ``tables`` / ``schema`` is passed): the in-process
      :class:`ShardedSession` — one thread per shard over partitioned
      SQLite stores.  Zero startup cost, but fan-out shares one
      interpreter, so 4 shards ≈ 1 shard on CPU-bound queries.
    * ``processes=True`` (and the default when *no* data source is
      passed): a :class:`ProcessShardedSession` — the session spawns and
      owns one ``serve --shard i/n`` subprocess per partition plus the
      full-copy fallback, fans out over the wire, and tears the group
      down on ``close()``.  Each shard gets its own interpreter and
      store, so fan-out scales with cores.  The data substrate is the
      seeded deterministic instance (``scale=N, rows=R`` forwarded to
      every server), regenerated per process under ``placement``.

    Extra keyword arguments (``scale``, ``rows``, ``registry``, ``pool``,
    ``replication``, ``data_dir``, ``log_dir``, ``base_port``,
    ``supervise``, ``client_options``, ``supervisor_options``) configure
    the process group and are rejected for the thread substrate.

    >>> session = connect_sharded(db, placement=placement, shards=4)
    >>> session.run(Q4).route
    'fanout'
    >>> cluster = connect_sharded(placement=placement, shards=4,
    ...                           processes=True, scale=64)
    >>> cluster.run("Q4").route
    'fanout'
    """
    if processes is None:
        processes = database is None and tables is None and schema is None
    if processes:
        if database is not None or tables is not None:
            raise ShardingError(
                "a process-group session regenerates its own deterministic "
                "data in each server (scale=/rows=); pass processes=False "
                "to shard an existing Database or tables in-process"
            )
        return ProcessShardedSession(
            2 if shards is None else shards,
            placement=placement,
            schema=schema,
            **process_options,
        )
    if process_options:
        unexpected = ", ".join(sorted(process_options))
        raise ShardingError(
            f"unexpected arguments for an in-process sharded session: "
            f"{unexpected} (they configure the process group; pass "
            f"processes=True)"
        )
    return ShardedSession(
        database,
        schema=schema,
        tables=tables,
        placement=placement,
        shards=shards,
        options=options,
        engine=engine,
        cache=cache,
        validate=validate,
    )
