"""SQL execution: run compiled shredded queries, count round trips, and
batch whole packages through one connection.

Two execution engines serve a compiled shredded package:

* :func:`execute_compiled` — the per-path engine: one call per shredded
  query, streaming rows in ``fetchmany`` batches and decoding each into
  ⟨index, value⟩ pairs.
* :func:`execute_package_batched` — the batched engine (the §8 "one pass"
  reading taken to the executor): all shredded queries of a package run
  back-to-back on the single shared SQLite connection, rows are decoded by
  precompiled tuple-level decoders (no per-row column dict), and results
  come back *pre-grouped by outer index* so one-pass stitching consumes
  them directly.  Before executing it creates (and reuses across runs)
  SQLite indexes on the base-table columns the generated SQL sorts and
  joins on.

Both run a package's statements in order on one connection — the writer,
or a reader the caller leased — spawn no threads and issue no DDL beyond
the advisory indexes.

:class:`ExecutionStats` counts queries and rows (the intro's N+1 "query
avalanche" metric is #queries issued), records per-query wall time, and
carries the plan cache's hit/miss counters.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from repro.backend.database import Database
from repro.sql.ast import (
    BinOp,
    Col,
    NotExists,
    NotOp,
    RowNumber,
    SelectCore,
    Statement,
    SubqueryRef,
    TableRef,
)
from repro.sql.codegen import CompiledSql

__all__ = [
    "ExecutionStats",
    "bind_params",
    "execute_compiled",
    "execute_package_batched",
    "ensure_compiled_indexes",
    "DEFAULT_FETCH_BATCH",
]

#: Rows fetched per cursor round trip (satellite: stream, don't fetchall).
DEFAULT_FETCH_BATCH = int(os.environ.get("REPRO_FETCH_BATCH", "1024"))


@dataclass
class ExecutionStats:
    """Counts queries, rows and time moved between database and host.

    ``per_query_millis[i]`` is the wall time (execute + decode) of the
    ``i``-th recorded query.  ``cache_hits`` / ``cache_misses`` count plan
    cache consultations made by the pipeline that carried these stats.

    Per-run stats keep the full per-query lists (tests and explain depend
    on exact samples).  *Session-lifetime* stats, which accumulate
    forever on a server, call :meth:`compact` after each merge: the
    oldest samples beyond a cap are folded into ``folded_rows`` /
    ``folded_millis`` / ``folded_samples`` aggregates, so ``queries``,
    ``rows_fetched`` and :attr:`total_millis` stay exact while memory
    stays bounded (distribution shape lives in the metrics registry's
    histograms, not here).
    """

    queries: int = 0
    rows_fetched: int = 0
    per_query_rows: list[int] = field(default_factory=list)
    per_query_millis: list[float] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    indexes_created: int = 0
    #: Sharded-execution markers (see :mod:`repro.shard`): how many runs
    #: fanned out across every shard, were routed to a single shard by a
    #: bound routing key, ran on one shard because they touch only
    #: replicated tables, or fell back to the designated full-copy shard
    #: because the shardability analysis rejected them.
    sharded_fanouts: int = 0
    sharded_routed: int = 0
    sharded_singles: int = 0
    sharded_fallbacks: int = 0
    #: Fault-tolerance markers: runs *planned* around a known-down shard
    #: (the router diverted to the full-copy fallback before touching the
    #: dead endpoint) vs. runs *retried* on the fallback after a shard
    #: failed mid-execution.
    failover_reroutes: int = 0
    failover_retries: int = 0
    #: Fired-rule trace: optimizer rule flag → number of compiles carried
    #: by these stats whose plan that rule rewrote (cache hits included —
    #: the rule shaped the plan the compile used).
    rules_fired: dict = field(default_factory=dict)
    #: Aggregates of per-query samples folded out by :meth:`compact` —
    #: zero on per-run stats, where the lists stay intact.
    folded_rows: int = 0
    folded_millis: float = 0.0
    folded_samples: int = 0

    def record(self, rows: int, millis: float = 0.0) -> None:
        self.queries += 1
        self.rows_fetched += rows
        self.per_query_rows.append(rows)
        self.per_query_millis.append(millis)

    def record_cache(self, hit: bool) -> None:
        if hit:
            self.cache_hits += 1
        else:
            self.cache_misses += 1

    def merge(self, other: "ExecutionStats") -> None:
        """Fold another stats object into this one (order-preserving):
        aggregates stats across separate runs or carriers."""
        self.queries += other.queries
        self.rows_fetched += other.rows_fetched
        self.per_query_rows.extend(other.per_query_rows)
        self.per_query_millis.extend(other.per_query_millis)
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.indexes_created += other.indexes_created
        self.sharded_fanouts += other.sharded_fanouts
        self.sharded_routed += other.sharded_routed
        self.sharded_singles += other.sharded_singles
        self.sharded_fallbacks += other.sharded_fallbacks
        self.failover_reroutes += other.failover_reroutes
        self.failover_retries += other.failover_retries
        for rule, count in other.rules_fired.items():
            self.rules_fired[rule] = self.rules_fired.get(rule, 0) + count
        self.folded_rows += other.folded_rows
        self.folded_millis += other.folded_millis
        self.folded_samples += other.folded_samples

    def compact(self, cap: int) -> int:
        """Fold the oldest per-query samples so at most ``cap`` remain.

        Aggregate counters (``queries``, ``rows_fetched``,
        :attr:`total_millis`) are unchanged; only the sample *lists*
        shrink.  Returns the number of samples folded this call.
        """
        excess = len(self.per_query_millis) - cap
        if excess <= 0:
            return 0
        self.folded_rows += sum(self.per_query_rows[:excess])
        self.folded_millis += sum(self.per_query_millis[:excess])
        self.folded_samples += excess
        del self.per_query_rows[:excess]
        del self.per_query_millis[:excess]
        return excess

    @property
    def total_millis(self) -> float:
        """Total recorded query wall time (execute + decode), including
        samples folded out by :meth:`compact`."""
        return self.folded_millis + sum(self.per_query_millis)


def bind_params(compiled: CompiledSql, params) -> dict[str, object]:
    """The bind dict for one statement: exactly the host parameters its SQL
    names (sqlite3 rejects superfluous named parameters), with missing
    ones reported up front."""
    if not compiled.params:
        return {}
    supplied = params or {}
    missing = [name for name in compiled.params if name not in supplied]
    if missing:
        from repro.errors import BackendError

        raise BackendError(
            "unbound host parameter(s): "
            + ", ".join(f":{name}" for name in missing)
            + " — pass run(params={...})"
        )
    return {name: supplied[name] for name in compiled.params}


def execute_compiled(
    db: Database,
    compiled: CompiledSql,
    stats: ExecutionStats | None = None,
    batch_size: int | None = None,
    params=None,
    connection=None,
    tracer=None,
) -> list[tuple[object, object]]:
    """Run one compiled shredded query and decode its ⟨index, value⟩ pairs.

    Rows stream from SQLite in ``batch_size`` chunks (default
    ``REPRO_FETCH_BATCH``, 1024) instead of one monolithic ``fetchall``,
    bounding peak raw-row memory; decoding happens per chunk.  ``params``
    supplies host-parameter values (bound per statement); ``connection``
    routes execution to a specific (leased) connection.  ``tracer`` (a
    :class:`repro.obs.Tracer`) receives a ``statement`` span with
    ``sql``/``decode`` children.
    """
    batch = DEFAULT_FETCH_BATCH if batch_size is None else batch_size
    started = time.perf_counter()
    decode_seconds = 0.0
    pairs: list[tuple[object, object]] = []
    for chunk in db.execute_sql_chunks(
        compiled.sql,
        params=bind_params(compiled, params),
        batch_size=batch,
        connection=connection,
    ):
        decode_started = time.perf_counter()
        pairs.extend(compiled.decode_rows(chunk))
        decode_seconds += time.perf_counter() - decode_started
    millis = (time.perf_counter() - started) * 1000.0
    if stats is not None:
        stats.record(len(pairs), millis)
    if tracer is not None:
        _record_statement_span(
            tracer, len(pairs), millis, decode_seconds * 1000.0
        )
    return pairs


def _record_statement_span(
    tracer, rows: int, millis: float, decode_millis: float, **attributes
) -> None:
    """Attach one executed statement's span (with ``sql``/``decode``
    children) at the tracer's current position."""
    span = tracer.record("statement", millis, rows=rows, **attributes)
    span.record("sql", max(millis - decode_millis, 0.0))
    span.record("decode", decode_millis)


def _run_one_grouped(
    db: Database,
    compiled: CompiledSql,
    batch: int,
    connection=None,
    params=None,
) -> tuple[dict, int, float, float]:
    """Execute one compiled query, pre-grouping by outer index.

    Returns ``(grouped, rows, millis, decode_millis)``; ``decode_millis``
    is the share of ``millis`` spent in Python-side row decoding.
    """
    started = time.perf_counter()
    decode_outer, decode_item = compiled.key_decoders()
    grouped: dict = {}
    rows = 0
    decode_seconds = 0.0
    for chunk in db.execute_sql_chunks(
        compiled.sql,
        params=bind_params(compiled, params),
        batch_size=batch,
        connection=connection,
    ):
        rows += len(chunk)
        decode_started = time.perf_counter()
        for raw in chunk:
            outer = decode_outer(raw)
            bucket = grouped.get(outer)
            if bucket is None:
                grouped[outer] = [decode_item(raw)]
            else:
                bucket.append(decode_item(raw))
        decode_seconds += time.perf_counter() - decode_started
    millis = (time.perf_counter() - started) * 1000.0
    return grouped, rows, millis, decode_seconds * 1000.0


def execute_package_batched(
    db: Database,
    sql_package,
    stats: ExecutionStats | None = None,
    create_indexes: bool = True,
    batch_size: int | None = None,
    params=None,
    connection=None,
    tracer=None,
):
    """Run all shredded queries of a package in one pass.

    Returns the package with each bag annotation replaced by the query's
    results *pre-grouped by outer index*: ``{outer: [item, …]}`` with
    encounter order preserved — exactly the shape compiled one-pass
    stitching (:func:`repro.shred.stitch.stitch_grouped`) consumes, so no
    intermediate pair list or regrouping dict is ever materialised.  Index
    keys are the bare ``(tag, dyn)`` tuples of
    :meth:`~repro.sql.codegen.CompiledSql.key_decoders`.

    Statements run in package order on one connection.  Setup — advisory
    indexes and ANALYZE — happens on the writer connection before any
    statement runs.

    ``params`` supplies host-parameter values (each statement binds the
    subset it names).  ``connection`` routes the statements to a specific
    connection — the service layer leases one reader per request so
    concurrent requests never contend on the writer connection.

    ``tracer`` (a :class:`repro.obs.Tracer`) receives one ``statement``
    span per member with ``sql``/``decode`` children.
    """
    from repro.shred.packages import annotations, pmap

    batch = DEFAULT_FETCH_BATCH if batch_size is None else batch_size
    if create_indexes:
        created = _ensure_package_indexes(db, sql_package)
        db.refresh_statistics()
        if stats is not None:
            stats.indexes_created += created

    # pmap's traversal order differs from annotations() (element before
    # annotation), so route results by member identity, not position.
    by_member = {}
    for position, (_path, compiled) in enumerate(annotations(sql_package)):
        grouped, rows, millis, decode_millis = _run_one_grouped(
            db, compiled, batch, connection=connection, params=params
        )
        if stats is not None:
            stats.record(rows, millis)
        if tracer is not None:
            _record_statement_span(
                tracer, rows, millis, decode_millis, index=position
            )
        by_member[id(compiled)] = grouped
    return pmap(lambda compiled: by_member[id(compiled)], sql_package)


# --------------------------------------------------------------------------
# Index advisement: mine the generated SQL for sort/join columns.


def ensure_compiled_indexes(db: Database, compiled: CompiledSql) -> int:
    """Create the SQLite indexes a compiled statement benefits from.

    Two families of hints are mined from the SQL AST:

    * the ``ROW_NUMBER() OVER (ORDER BY …)`` column lists, per base table —
      the sort that realises ``index`` (§7) and dominates flat-scheme cost;
    * columns compared by ``=`` in WHERE clauses — the join columns of the
      amalgamated comprehensions.

    The hint set is memoised on the compiled statement and the indexes are
    ``CREATE INDEX IF NOT EXISTS`` remembered by the :class:`Database`, so
    repeat runs of a cached plan skip the AST walk and fall straight
    through to O(1) ensured-index hits.  Returns the number of indexes
    actually created.
    """
    hints = compiled.index_hints
    if hints is None:
        hints = tuple(sorted(_index_hints(compiled.statement)))
        compiled.index_hints = hints
    created = 0
    for table, columns in hints:
        if db.ensure_index(table, columns):
            created += 1
    return created


def _ensure_package_indexes(db: Database, sql_package) -> int:
    from repro.shred.packages import annotations

    created = 0
    for _path, compiled in annotations(sql_package):
        created += ensure_compiled_indexes(db, compiled)
    return created


def _index_hints(statement: Statement) -> set[tuple[str, tuple[str, ...]]]:
    """(table, columns) pairs worth indexing, mined from the statement."""
    hints: set[tuple[str, tuple[str, ...]]] = set()

    def visit_core(core: SelectCore) -> None:
        alias_to_table = {
            item.alias: item.table
            for item in core.from_items
            if isinstance(item, TableRef)
        }
        for item in core.from_items:
            if isinstance(item, SubqueryRef):
                visit_core(item.select)

        def visit_expr(expr) -> None:
            if isinstance(expr, BinOp):
                if expr.op == "=":
                    for side in (expr.left, expr.right):
                        if (
                            isinstance(side, Col)
                            and side.alias in alias_to_table
                        ):
                            hints.add(
                                (alias_to_table[side.alias], (side.name,))
                            )
                visit_expr(expr.left)
                visit_expr(expr.right)
            elif isinstance(expr, NotOp):
                visit_expr(expr.operand)
            elif isinstance(expr, NotExists):
                visit_core(expr.select)
            elif isinstance(expr, RowNumber):
                per_alias: dict[str, list[str]] = {}
                for col in expr.order_by:
                    if isinstance(col, Col) and col.alias in alias_to_table:
                        columns = per_alias.setdefault(col.alias, [])
                        if col.name not in columns:
                            columns.append(col.name)
                for alias, columns in per_alias.items():
                    hints.add((alias_to_table[alias], tuple(columns)))

        if core.where is not None:
            visit_expr(core.where)
        for item in core.items:
            visit_expr(item.expr)

    for _name, cte in statement.ctes:
        visit_core(cte)
    for select in statement.selects:
        visit_core(select)
    return hints
