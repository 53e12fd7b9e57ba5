"""Sharing one Session across threads: the service-layer contract.

The hammer tests drive a single session (and its plan cache) from many
threads at once and then check the *exact* bookkeeping — lost updates in
``session.stats`` or the cache counters would show up as short counts.
"""

from __future__ import annotations

import threading

import pytest

from repro.api import connect, param
from repro.data.organisation import figure3_database
from repro.data.queries import NESTED_QUERIES
from repro.pipeline.plan_cache import PlanCache
from repro.values import bag_equal

THREADS = 8
RUNS_PER_THREAD = 12
QUERY_NAMES = ["Q1", "Q2", "Q3", "Q4", "Q5", "Q6"]


def _hammer(worker, thread_count: int = THREADS) -> list:
    failures: list = []

    def wrapped(index: int) -> None:
        try:
            worker(index)
        except Exception as error:  # noqa: BLE001 — collect, don't die
            failures.append((index, repr(error)))

    threads = [
        threading.Thread(target=wrapped, args=(i,)) for i in range(thread_count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    return failures


class TestConcurrentSession:
    def test_stats_accumulation_is_exact(self):
        session = connect(figure3_database(), cache=PlanCache())
        expected = {
            name: session.run(NESTED_QUERIES[name]).value for name in QUERY_NAMES
        }
        baseline_queries = session.stats.queries
        per_run_queries = {
            name: session.prepare(NESTED_QUERIES[name]).query_count
            for name in QUERY_NAMES
        }

        def worker(index: int) -> None:
            for i in range(RUNS_PER_THREAD):
                name = QUERY_NAMES[(index + i) % len(QUERY_NAMES)]
                result = session.prepare(NESTED_QUERIES[name]).run(
                    engine="batched"
                )
                assert bag_equal(result.value, expected[name]), name

        failures = _hammer(worker)
        assert not failures, failures

        total_runs = THREADS * RUNS_PER_THREAD
        ran_queries = sum(
            per_run_queries[QUERY_NAMES[(index + i) % len(QUERY_NAMES)]]
            for index in range(THREADS)
            for i in range(RUNS_PER_THREAD)
        )
        # No lost updates: every run's flat-query count landed exactly once.
        assert session.stats.queries - baseline_queries == ran_queries
        assert len(session.stats.per_query_millis) == session.stats.queries
        # Every prepare consulted the cache exactly once; the shapes were
        # all compiled before the hammer, so every consult was a hit.
        assert session.stats.cache_hits >= total_runs

    def test_plan_cache_counters_are_exact_under_contention(self):
        cache = PlanCache()
        session = connect(figure3_database(), cache=cache)
        term = NESTED_QUERIES["Q4"]

        def worker(index: int) -> None:
            for _ in range(RUNS_PER_THREAD):
                session.prepare(term).run(engine="batched")

        failures = _hammer(worker)
        assert not failures, failures
        total = THREADS * RUNS_PER_THREAD
        stats = cache.stats()
        # Every prepare consulted the cache; at least one miss compiled the
        # plan (two threads may race the first cold compile — both then
        # store the same plan, which is benign), and hits+misses is exact.
        assert stats["hits"] + stats["misses"] == total
        assert 1 <= stats["misses"] <= THREADS
        assert stats["entries"] == 1

    def test_parameterised_rebinding_under_contention(self):
        session = connect(figure3_database(), cache=PlanCache())
        lo = param("lo", "int")
        shape = (
            session.table("employees", alias="e")
            .where(lambda e: e.salary > lo)
            .select("name", "salary")
        )
        term = shape.term()
        thresholds = [0, 900, 20000, 50000, 60000, 100000]
        expected = {
            t: {
                row["name"]
                for row in session.db.rows("employees")
                if row["salary"] > t
            }
            for t in thresholds
        }

        def worker(index: int) -> None:
            for i in range(RUNS_PER_THREAD):
                threshold = thresholds[(index + i) % len(thresholds)]
                rows = session.prepare(term).run(params={"lo": threshold})
                names = {row["name"] for row in rows}
                assert names == expected[threshold], threshold

        failures = _hammer(worker)
        assert not failures, failures
        # One shape → at most a handful of raced cold compiles, then hits.
        assert session.stats.cache_misses <= THREADS
        assert session.stats.cache_hits >= THREADS * RUNS_PER_THREAD - THREADS


class TestConcurrentOptimizedRuns:
    def test_overlapping_runs_issue_no_ddl(self):
        # Running a compiled plan issues no DDL beyond the advisory indexes
        # of its first run: overlapping optimised runs leave the schema
        # exactly as the first run left it.
        from repro.api import SqlOptions

        session = connect(
            figure3_database(),
            options=SqlOptions(optimize=True, opt_prune=False),
            cache=PlanCache(),
        )
        expected = session.run(NESTED_QUERIES["Q1"]).value
        schema_sql = "SELECT type, name FROM sqlite_master ORDER BY name"
        schema_before = session.db.execute_sql(schema_sql)

        def worker(index: int) -> None:
            for _ in range(RUNS_PER_THREAD):
                result = session.prepare(NESTED_QUERIES["Q1"]).run(
                    engine="batched"
                )
                assert bag_equal(result.value, expected)

        failures = _hammer(worker)
        assert not failures, failures
        assert session.db.execute_sql(schema_sql) == schema_before


class TestConcurrentDatabaseSetup:
    def test_index_advisement_races_cleanly(self):
        # Fresh database: every thread triggers ensure_index/ANALYZE on
        # first run; the setup lock must serialise the DDL without
        # deadlocking or double-creating.
        session = connect(figure3_database(), cache=PlanCache())
        expected = session.run(NESTED_QUERIES["Q6"]).value
        fresh = connect(figure3_database(), cache=PlanCache())

        def worker(index: int) -> None:
            result = fresh.prepare(NESTED_QUERIES["Q6"]).run(engine="batched")
            assert bag_equal(result.value, expected)

        failures = _hammer(worker)
        assert not failures, failures


@pytest.mark.parametrize("shim", ["shred_run", "shred_sql"])
def test_deprecated_shims_warn_at_the_call_site(shim, db, schema):
    """The deprecated one-shot helpers emit DeprecationWarning pointing at
    the *caller* (stacklevel=2), so downstreams see their own file named."""
    import warnings

    from repro.data.queries import Q1
    from repro.pipeline import shredder

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if shim == "shred_run":
            shredder.shred_run(Q1, db)
        else:
            shredder.shred_sql(Q1, schema)
    deprecations = [
        w for w in caught if issubclass(w.category, DeprecationWarning)
    ]
    assert len(deprecations) == 1
    assert shim in str(deprecations[0].message)
    assert "repro.api" in str(deprecations[0].message)
    # stacklevel=2 → the warning is attributed to this test file, not the shim.
    assert deprecations[0].filename == __file__
