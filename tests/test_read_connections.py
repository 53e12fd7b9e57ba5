"""Dedicated read-only connections: the readers the service leases, one
per request, over both memory and durable stores."""

from __future__ import annotations

import sqlite3

import pytest

from repro.backend.database import Database
from repro.backend.executor import ExecutionStats
from repro.data.organisation import ORGANISATION_SCHEMA, figure3_database
from repro.errors import BackendError


@pytest.fixture(params=["memory", "durable"])
def store(request, tmp_path) -> Database:
    """The Fig. 3 instance as a memory store or as a durable (WAL) file."""
    if request.param == "memory":
        return figure3_database()
    source = figure3_database()
    tables = {
        table.name: source.raw_rows(table.name)
        for table in source.schema.tables
    }
    return Database(ORGANISATION_SCHEMA, tables, path=tmp_path / "store.sqlite")


def test_readers_share_the_store(store):
    rows = store.execute_sql('SELECT COUNT(*) FROM "employees"')
    (reader,) = store.dedicated_read_connections(1)
    assert reader is not store.connection()
    assert reader.execute('SELECT COUNT(*) FROM "employees"').fetchall() == rows


def test_readers_are_distinct_and_query_only(store):
    first, second = store.dedicated_read_connections(2)
    assert first is not second
    for reader in (first, second):
        with pytest.raises(sqlite3.OperationalError):
            reader.execute('DELETE FROM "employees"')


def test_readers_reject_non_positive_counts(store):
    with pytest.raises(BackendError):
        store.dedicated_read_connections(0)


def test_readers_see_later_inserts(store):
    (reader,) = store.dedicated_read_connections(1)
    before = reader.execute('SELECT COUNT(*) FROM "tasks"').fetchone()[0]
    store.insert("tasks", [{"id": 999, "employee": "Alice", "task": "audit"}])
    after = reader.execute('SELECT COUNT(*) FROM "tasks"').fetchone()[0]
    assert after == before + 1


def test_disposed_connection_closes_readers(store):
    readers = store.dedicated_read_connections(2)
    store._dispose_connection()
    for reader in readers:
        with pytest.raises(sqlite3.ProgrammingError):
            reader.execute("SELECT 1")
    # A rebuilt connection serves fresh readers over fresh state.
    (reader,) = store.dedicated_read_connections(1)
    assert reader.execute('SELECT COUNT(*) FROM "employees"').fetchone()[0] > 0


def test_execution_stats_merge_preserves_series():
    left = ExecutionStats()
    left.record(3, 1.5)
    left.record_cache(True)
    right = ExecutionStats()
    right.record(7, 2.5)
    right.indexes_created = 2
    left.merge(right)
    assert left.queries == 2
    assert left.rows_fetched == 10
    assert left.per_query_rows == [3, 7]
    assert left.per_query_millis == [1.5, 2.5]
    assert left.cache_hits == 1
    assert left.indexes_created == 2
