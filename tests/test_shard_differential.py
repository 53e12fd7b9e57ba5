"""The sharding conformance suite: differential testing against a single
session.

The claim under test is semantic: for *any* query, a sharded deployment
(2/3/4 shards, in-process `ShardedSession` **and** over-the-wire
`ShardedServiceClient` against per-shard servers) produces a result that
is **equal as a nested multiset** to single-session execution — whichever
route the shardability analysis picked (fanout, routed, single-shard or
full-copy fallback).  Merging per-shard answers is a bag-union over
nested multisets, so this is exactly the paper's §2.1 equivalence.

Three layers:

* the paper queries Q1–Q6 on every engine × every shard count (both
  transports) — deterministic, exhaustive;
* the two parameterised registry queries (``staff_above(:min_salary)``,
  ``dept_staff(:dept)``), including the routed-point-lookup guarantee:
  a bound routing key hits **exactly one shard**, asserted via per-shard
  request counters on both transports;
* the headline hypothesis property: random queries from
  :mod:`tests.strategies` (host parameters and union shapes included,
  with generated bindings) are value-equal across every shard count on
  both transports, with the engine drawn per example.

CI runs the property under the fixed ``repro-ci`` hypothesis profile
(see ``tests/conftest.py``): generation stays randomised, but any
failing example prints its ``@reproduce_failure`` blob so the failure
replays locally exactly.  ``REPRO_SHARD_EXAMPLES`` scales the example
count.
"""

from __future__ import annotations

import itertools
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import connect
from repro.data.organisation import (
    ORGANISATION_SCHEMA,
    figure3_database,
    organisation_placement,
)
from repro.data.queries import NESTED_QUERIES
from repro.service import paper_registry, serve_in_background
from repro.shard import (
    ShardedDatabase,
    ShardedServiceClient,
    connect_sharded,
    shard_for,
)
from repro.values import assert_bag_equal, bag_equal

from .strategies import queries_with_bindings

PLACEMENT = organisation_placement()
SHARD_COUNTS = (2, 3, 4)
ENGINES = ("per-path", "batched")
DEPTS = ("Product", "Quality", "Research", "Sales")

#: One shared catalogue: every in-process server (all shard counts, all
#: shards, all fallbacks) serves it, so the property test can register a
#: random query once and execute it across every cluster.
REGISTRY = paper_registry()

_COUNTER = itertools.count()
_SESSIONS: dict = {}
_CLUSTERS: dict = {}

_settings = settings(
    max_examples=int(os.environ.get("REPRO_SHARD_EXAMPLES", "15")),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _single():
    if "single" not in _SESSIONS:
        _SESSIONS["single"] = connect(figure3_database())
    return _SESSIONS["single"]


def _session(shards: int):
    if shards not in _SESSIONS:
        _SESSIONS[shards] = connect_sharded(
            figure3_database(), placement=PLACEMENT, shards=shards
        )
    return _SESSIONS[shards]


def _cluster(shards: int) -> ShardedServiceClient:
    """A lazily started in-process wire deployment: ``shards`` partition
    servers + one full-copy fallback server, one fan-out client."""
    if shards not in _CLUSTERS:
        sdb = ShardedDatabase(figure3_database(), PLACEMENT, shards)
        handles = [
            serve_in_background(
                connect(db), REGISTRY, pool_size=1,
                shard_label=f"{index}/{shards}",
            )
            for index, db in enumerate(sdb.shards)
        ]
        fallback = serve_in_background(
            connect(sdb.full), REGISTRY, pool_size=1,
            shard_label=f"full/{shards}",
        )
        client = ShardedServiceClient(
            [(handle.host, handle.port) for handle in handles],
            (fallback.host, fallback.port),
            placement=PLACEMENT,
            registry=REGISTRY,
            schema=ORGANISATION_SCHEMA,
        )
        _CLUSTERS[shards] = {"handles": handles + [fallback], "client": client}
    return _CLUSTERS[shards]["client"]


@pytest.fixture(scope="module", autouse=True)
def _teardown():
    yield
    for cluster in _CLUSTERS.values():
        cluster["client"].close()
        for handle in cluster["handles"]:
            handle.stop()
    _CLUSTERS.clear()
    for key in list(_SESSIONS):
        _SESSIONS.pop(key).close()


# --------------------------------------------------------------------------
# Q1–Q6, every engine, every shard count, both transports.


class TestPaperQueries:
    @pytest.mark.parametrize("name", sorted(NESTED_QUERIES))
    def test_in_process(self, name):
        expected = _single().run(NESTED_QUERIES[name]).value
        for shards in SHARD_COUNTS:
            session = _session(shards)
            for engine in ENGINES:
                result = session.run(NESTED_QUERIES[name], engine=engine)
                assert_bag_equal(
                    result.value,
                    expected,
                    f"{name} @ {shards} shards, {engine} ({result.route})",
                )

    @pytest.mark.parametrize("name", sorted(NESTED_QUERIES))
    def test_over_the_wire(self, name):
        expected = _single().run(NESTED_QUERIES[name]).value
        for shards in SHARD_COUNTS:
            client = _cluster(shards)
            for engine in ENGINES:
                response = client.execute_full(name, engine=engine)
                assert_bag_equal(
                    response["rows"],
                    expected,
                    f"{name} @ {shards} shards, {engine} "
                    f"({response['route']})",
                )

    def test_set_semantics_agree(self):
        # Global set-union must dedup across shards, not only within them.
        for name in ("Q3", "Q4"):
            expected = _single().run(
                NESTED_QUERIES[name], collection="set"
            ).value
            for shards in SHARD_COUNTS:
                result = _session(shards).run(
                    NESTED_QUERIES[name], collection="set"
                )
                assert bag_equal(result.value, expected), (name, shards)
                rows = _cluster(shards).execute(name, collection="set")
                assert bag_equal(rows, expected), (name, shards, "wire")


# --------------------------------------------------------------------------
# The parameterised registry queries.


class TestParameterisedQueries:
    def test_staff_above_rebinding(self):
        term = REGISTRY.lookup("staff_above").term
        for threshold in (0, 900, 50_000, 2_000_000):
            params = {"min_salary": threshold}
            expected = _single().run(term, params=params).value
            for shards in SHARD_COUNTS:
                result = _session(shards).run(term, params=params)
                assert result.route == "single:0"  # employees replicate
                assert_bag_equal(result.value, expected, str(threshold))
                rows = _cluster(shards).execute("staff_above", params=params)
                assert_bag_equal(rows, expected, f"wire {threshold}")

    def test_dept_staff_routes_to_exactly_one_shard_in_process(self):
        term = REGISTRY.lookup("dept_staff").term
        for shards in SHARD_COUNTS:
            session = _session(shards)
            for dept in DEPTS:
                params = {"dept": dept}
                expected = _single().run(term, params=params).value
                before = session.run_counts()["per_shard"]
                result = session.run(term, params=params)
                after = session.run_counts()["per_shard"]
                owner = shard_for(dept, shards)
                assert result.route == f"routed:{owner}"
                deltas = [b - a for a, b in zip(before, after)]
                assert sum(deltas) == 1 and deltas[owner] == 1, deltas
                assert_bag_equal(result.value, expected, dept)

    def test_dept_staff_routes_to_exactly_one_shard_over_the_wire(self):
        term = REGISTRY.lookup("dept_staff").term
        for shards in SHARD_COUNTS:
            client = _cluster(shards)
            for dept in DEPTS:
                params = {"dept": dept}
                expected = _single().run(term, params=params).value
                owner = shard_for(dept, shards)
                servers_before = [
                    shard["server"]["requests"].get("execute", 0)
                    for shard in client.stats()["shards"]
                ]
                response = client.execute_full("dept_staff", params=params)
                servers_after = [
                    shard["server"]["requests"].get("execute", 0)
                    for shard in client.stats()["shards"]
                ]
                assert response["route"] == f"routed:{owner}"
                deltas = [
                    b - a for a, b in zip(servers_before, servers_after)
                ]
                assert sum(deltas) == 1 and deltas[owner] == 1, deltas
                assert_bag_equal(response["rows"], expected, dept)


# --------------------------------------------------------------------------
# The headline property: random queries, random bindings, every shard
# count, both transports.


@given(data=st.data())
@_settings
def test_random_queries_differential(data):
    query, bindings = data.draw(queries_with_bindings())
    engine = data.draw(st.sampled_from(ENGINES))
    expected = _single().run(query, params=bindings).value

    for shards in SHARD_COUNTS:
        result = _session(shards).run(query, params=bindings, engine=engine)
        assert bag_equal(result.value, expected), (
            f"in-process {shards} shards via {result.route} ({engine})"
        )

    name = f"rq_{next(_COUNTER)}"
    REGISTRY.register(name, query)
    for shards in SHARD_COUNTS:
        response = _cluster(shards).execute_full(
            name, params=bindings or None, engine=engine
        )
        assert bag_equal(response["rows"], expected), (
            f"wire {shards} shards via {response['route']} ({engine})"
        )
