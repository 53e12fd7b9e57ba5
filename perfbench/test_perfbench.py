"""Tests of the benchmark's own parts: the hand-written reference, the
canonical comparison, the seeded inputs and the span arithmetic.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import gc
import threading

import pytest

from adhoc import term_pool
from hostspeed import REFERENCE_MS, Kernel, corrected
from oracle import Checker, OrgState, TABLES, canonical
from repro.api import connect
from repro.data.generator import scaled_database
from repro.nrc import ast
from repro.nrc.semantics import evaluate
from repro.service.registry import paper_registry
from tracing import Recorder, Span, check_self_times, covered_ms, self_ms
from workloads import (
    ADHOC_BLOCK,
    ADHOC_REPEATS,
    WARM_MIX,
    AdhocCompile,
    InprocWarm,
    ShardedWire,
)


@pytest.fixture(scope="module")
def small_db():
    return scaled_database(5, seed=11, scale_rows=6)


def _bindings(db):
    depts = [row["name"] for row in db.rows("departments")]
    return {
        "dept_staff": [{"dept": depts[0]}, {"dept": depts[-1]}, {"dept": "nowhere"}],
        "staff_above": [{"min_salary": 0}, {"min_salary": 40_000}, {"min_salary": 10**9}],
    }


def test_reference_matches_the_interpreter_on_every_registry_query(small_db):
    registry = paper_registry()
    state = OrgState({t: small_db.rows(t) for t in TABLES})
    bindings = _bindings(small_db)
    for name in registry.names():
        term = registry.lookup(name).term
        for params in bindings.get(name, [None]):
            bound = ast.substitute_params(term, params) if params else term
            assert canonical(state.answer(name, params)) == canonical(evaluate(bound, small_db)), name


def test_reference_follows_inserted_rows(small_db):
    registry = paper_registry()
    dept = small_db.rows("departments")[0]["name"]
    employee = {"id": 9001, "dept": dept, "name": "newcomer", "salary": 500}
    task = {"id": 9001, "employee": "newcomer", "task": "abstract"}
    tables = {t: list(small_db.rows(t)) for t in TABLES}
    grown = scaled_database(5, seed=11, scale_rows=6)
    grown.insert("employees", [employee])
    grown.insert("tasks", [task])
    state = OrgState(tables)
    state.insert("employees", [employee])
    state.insert("tasks", [task])
    for name in ("Q1", "Q3", "Q5", "Q6"):
        expected = evaluate(registry.lookup(name).term, grown)
        assert canonical(state.answer(name, None)) == canonical(expected), name


def test_canonical_ignores_bag_order_but_not_values():
    left = [{"a": 1, "b": [True, False]}, {"a": 2, "b": []}]
    right = [{"b": [], "a": 2}, {"b": [False, True], "a": 1}]
    assert canonical(left) == canonical(right)
    assert canonical([1, 1, 2]) != canonical([1, 2, 2])
    assert canonical([True]) != canonical([1])
    assert canonical(["1"]) != canonical([1])
    assert canonical([{"a": "x,y"}]) != canonical([{"a": "x"}, {"a": "y"}])


def test_checker_flags_a_wrong_result_and_accepts_a_reordered_one():
    checker = Checker(lambda key: [{"n": 1}, {"n": 2}])
    assert checker.check("q", 0, [{"n": 2}, {"n": 1}])
    assert checker.check("q", 0, [{"n": 2}, {"n": 1}])  # the text fast path
    assert not checker.check("q", 0, [{"n": 2}])
    assert not checker.check("q", 0, [{"n": 2}, {"n": 1}, {"n": 1}])


def test_adhoc_pool_is_distinct_and_every_term_runs_correctly(small_db):
    session = connect(small_db, cache=False)
    depts = [row["name"] for row in small_db.rows("departments")]
    pool = term_pool(3, 48, session, depts)
    fingerprints = {ast.term_fingerprint(term) for _source, term in pool}
    assert len(fingerprints) == len(pool)
    for source, term in pool:
        assert canonical(session.run(source).value) == canonical(evaluate(term, small_db))


def test_op_streams_repeat_per_seed_and_keep_the_mix():
    def first(workload, n):
        ops = workload.ops()
        return [(op.kind, op.name, op.params, op.rows, op.key) for op in
                (next(ops) for _ in range(n))]

    warm_a, warm_b = InprocWarm(5), InprocWarm(5)
    for w in (warm_a, warm_b):
        w.depts = ["D1", "D2", "D3"]
    names = [name for _k, name, *_rest in first(warm_a, 100)]
    assert first(warm_a, 100) == first(warm_b, 100)
    assert {n: names.count(n) for n in WARM_MIX} == {n: 2 * c for n, c in WARM_MIX.items()}

    wire_a, wire_b = ShardedWire(5), ShardedWire(5)
    for w in (wire_a, wire_b):
        w.depts = ["D1", "D2"]
        w.base = {"employees": [{"name": "e1"}]}
    ops = first(wire_a, 500)
    assert ops == first(wire_b, 500)
    assert sum(kind == "insert" for kind, *_rest in ops) == 50

    streams = [AdhocCompile(5)._ops() for _ in range(2)]
    terms = [[next(stream).name for _ in range(ADHOC_BLOCK * 10)] for stream in streams]
    assert terms[0] == terms[1]
    assert len(set(terms[0])) == (ADHOC_BLOCK - ADHOC_REPEATS) * 10


def _span(recorder, name, start, end, parent=None):
    span = Span(len(recorder.spans), name, start, None if parent is None else parent.id,
                0, 0, {})
    span.end = end
    recorder.spans.append(span)
    return span


def test_self_time_is_duration_minus_covered_child_time():
    recorder = Recorder()
    root = _span(recorder, "op", 0.0, 0.010)
    a = _span(recorder, "a", 0.001, 0.004, root)
    _span(recorder, "b", 0.003, 0.006, root)
    _span(recorder, "a.1", 0.001, 0.002, a)
    kids = recorder.children()
    assert covered_ms(kids[root.id]) == pytest.approx(5.0)
    assert self_ms(root, kids[root.id]) == pytest.approx(5.0)
    assert self_ms(a, kids[a.id]) == pytest.approx(2.0)
    assert check_self_times(recorder) == []
    _span(recorder, "c", 0.0, 0.009, root)  # overlaps a and b: self times now exceed op
    assert check_self_times(recorder)


def test_worker_thread_spans_sit_in_a_lane_under_the_callers_span():
    recorder = Recorder()
    with recorder.span("op"):
        with recorder.span("execute") as execute:

            def work():
                with recorder.span("sql"):
                    pass

            workers = [threading.Thread(target=work) for _ in range(2)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=10)
            assert not any(worker.is_alive() for worker in workers)
    lanes = [s for s in recorder.spans if s.name == "lane"]
    assert lanes and all(lane.parent == execute.id for lane in lanes)
    assert all(recorder.spans[s.parent].name == "lane" for s in recorder.spans if s.name == "sql")
    assert check_self_times(recorder) == []


def test_bindings_draw_from_existing_rows():
    warm = InprocWarm(1)
    warm.depts = ["D1"]
    ops = warm.ops()
    seen = [next(ops) for _ in range(200)]
    assert all(op.params == {"dept": "D1"} for op in seen if op.name == "dept_staff")
    assert all(40_000 <= op.params["min_salary"] < 60_000
               for op in seen if op.name == "staff_above")


def test_host_speed_correction_cancels_a_slowdown_that_hits_ops_and_kernel_alike():
    assert corrected([2.0] * 10, [REFERENCE_MS] * 10) == pytest.approx([2.0] * 10)
    # The host runs at half speed for the second half of the run.
    ops = [2.0] * 100 + [4.0] * 100
    kernel = [REFERENCE_MS] * 100 + [2 * REFERENCE_MS] * 100
    fixed = corrected(ops, kernel, window=5)
    assert fixed[:95] == pytest.approx([2.0] * 95)
    assert fixed[105:] == pytest.approx([2.0] * 95)
    # A faster program on the same host reads faster.
    assert corrected([1.0] * 10, [2 * REFERENCE_MS] * 10) == pytest.approx([0.5] * 10)
    with pytest.raises(ValueError):
        corrected([1.0], [])


def test_kernel_times_its_work_and_restores_the_collector():
    kernel = Kernel()
    try:
        assert kernel.time_ms() > 0.0
        assert gc.isenabled()
        gc.disable()
        try:
            kernel.time_ms()
            assert not gc.isenabled()
        finally:
            gc.enable()
    finally:
        kernel.close()
