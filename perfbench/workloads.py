"""The three workloads: seeded inputs, set-up, one operation, its reference.

Every input derives from the seed: the data (except ``sharded_wire``,
whose servers regenerate the fixed seed-0 instance because ``repro serve``
takes no data seed), the operation sequence, the query bindings, the
ad-hoc terms and the inserted rows.  An operation stream is an endless
sequence of shuffled blocks with an exact query mix per block, so every
run of one seed performs the same operations, and any run long enough to
cover a few blocks sees the stated mix.
"""

from __future__ import annotations

import random

from oracle import Checker, OrgState, TABLES

#: ``inproc_warm`` mix per block of 50.  Sorted by warm latency the
#: queries fall into bands (≈0.2 ms Q2/dept_staff, ≈1.5 ms staff_above,
#: ≈3 ms Q4, ≈6.5 ms Q6, 15-27 ms Q3/Q5/Q1); the counts put the median in
#: the middle of Q4's band and p99 in the middle of Q1's, not on a step
#: between two bands.
WARM_MIX = {"Q2": 7, "dept_staff": 7, "staff_above": 4, "Q4": 14,
            "Q6": 10, "Q3": 4, "Q5": 3, "Q1": 1}

#: ``sharded_wire`` reads per block of 50 (the same banding over the
#: wire: dept_staff/Q2 ≈1.5 ms, staff_above ≈3 ms, Q4/Q6 ≈5 ms, Q3/Q5/Q1
#: 20-32 ms), plus 5 inserts: one op in ten is a write.
WIRE_MIX = {"dept_staff": 8, "Q2": 7, "staff_above": 5, "Q4": 11,
            "Q6": 9, "Q3": 2, "Q5": 2, "Q1": 1}
WIRE_WRITES = {"employees": 3, "tasks": 2}

#: ``adhoc_compile``: distinct terms in the pool, ahead of the 256-entry
#: plan cache and the 512-entry normal-form memo, so a term seen again
#: after a whole cycle of the pool has been evicted from both.
POOL_SIZE = 1024
#: Per block of 20 ops, 5 repeat a term from the last ``REPEAT_WINDOW``
#: fresh terms exactly (plan-cache hits); 15 take the next pool term.
ADHOC_BLOCK, ADHOC_REPEATS, REPEAT_WINDOW = 20, 5, 32
#: Set-up runs this many ops first, so both caches are full when timing starts.
ADHOC_WARMUP = 800

#: staff_above thresholds: each selects 40-60% of the employees.
SALARY_BINDINGS = tuple(range(40_000, 60_000, 1_250))

WARM_SCALE, WARM_ROWS = 64, 20
ADHOC_SCALE, ADHOC_ROWS = 4, 5
SHARDS = 2
PLACEMENT_SPEC = "departments=name,employees=dept;aligned=departments+employees"


def _blocks(rng: random.Random, mix: dict):
    block = [name for name, count in mix.items() for _ in range(count)]
    while True:
        rng.shuffle(block)
        yield from block


def _bind(rng: random.Random, name: str, depts: list[str]):
    if name == "dept_staff":
        return {"dept": rng.choice(depts)}
    if name == "staff_above":
        return {"min_salary": rng.choice(SALARY_BINDINGS)}
    return None


def _key(name: str, params) -> tuple:
    return (name, tuple(sorted((params or {}).items())))


class Op:
    __slots__ = ("index", "kind", "name", "params", "rows", "key", "version")

    def __init__(self, index, kind, name, params=None, rows=None, key=None, version=0):
        self.index = index
        self.kind = kind  # "read", "insert" or "adhoc"
        self.name = name
        self.params = params
        self.rows = rows
        self.key = key
        self.version = version  # inserts that precede this op


class Workload:
    """Shared shape: ``setup`` (timed as set-up), ``ops`` (the seeded op
    stream), ``run`` (one timed op) and ``check`` (untimed reference check)."""

    name = ""
    closed_loop = True
    spawn_s = 0.0  # time to construct a process group, where there is one

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.session = None

    def params(self) -> dict:
        raise NotImplementedError

    def prepare_inputs(self) -> None:
        """Inputs built before set-up is timed (none by default)."""

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None

    def child_pids(self) -> list[int]:
        return []


class InprocWarm(Workload):
    name = "inproc_warm"

    def params(self) -> dict:
        return {"scale": WARM_SCALE, "rows_per_dept": WARM_ROWS, "mix_per_50": WARM_MIX,
                "engine": "auto", "options": "SqlOptions()"}

    def setup(self) -> None:
        from repro.api import connect
        from repro.data.generator import scaled_database
        from repro.service.registry import paper_registry

        db = scaled_database(WARM_SCALE, seed=self.seed, scale_rows=WARM_ROWS)
        self.session = connect(db)
        registry = paper_registry()
        self.terms = {name: registry.lookup(name).term for name in WARM_MIX}
        self.depts = [row["name"] for row in db.rows("departments")]
        warm = random.Random(self.seed)
        for name, term in self.terms.items():
            self.session.compile(term)
            self.session.run(term, params=_bind(warm, name, self.depts))

    def reference(self) -> None:
        state = OrgState({t: self.session.db.rows(t) for t in TABLES})
        self.checker = Checker(lambda key: state.answer(key[0], dict(key[1])))

    def ops(self):
        rng = random.Random(self.seed * 7919 + 1)
        for index, name in enumerate(_blocks(rng, WARM_MIX)):
            yield Op(index, "read", name, _bind(rng, name, self.depts))

    def run(self, op: Op):
        return self.session.run(self.terms[op.name], params=op.params).value

    def check(self, op: Op, result) -> bool:
        key = _key(op.name, op.params)
        return self.checker.check(key, key, result)


class AdhocCompile(Workload):
    name = "adhoc_compile"

    def params(self) -> dict:
        return {"scale": ADHOC_SCALE, "rows_per_dept": ADHOC_ROWS, "pool_size": POOL_SIZE,
                "plan_cache_entries": 256, "repeat_share": ADHOC_REPEATS / ADHOC_BLOCK,
                "repeat_window": REPEAT_WINDOW, "warmup_ops": ADHOC_WARMUP,
                "engine": "auto", "options": "SqlOptions()"}

    def setup(self) -> None:
        from adhoc import term_pool
        from repro.api import connect
        from repro.data.generator import scaled_database

        self.db = scaled_database(ADHOC_SCALE, seed=self.seed, scale_rows=ADHOC_ROWS)
        self.session = connect(self.db)
        depts = [row["name"] for row in self.db.rows("departments")]
        self.pool = term_pool(self.seed, POOL_SIZE, self.session, depts)
        self._stream = self._ops()
        for _ in range(ADHOC_WARMUP):
            self.run(next(self._stream))

    def reference(self) -> None:
        from repro.nrc.semantics import evaluate

        self.checker = Checker(lambda index: evaluate(self.pool[index][1], self.db))

    def _ops(self):
        rng = random.Random(self.seed * 7919 + 2)
        fresh, recent, index = 0, [], 0
        block = [True] * ADHOC_REPEATS + [False] * (ADHOC_BLOCK - ADHOC_REPEATS)
        while True:
            rng.shuffle(block)
            for repeat in block:
                if repeat and recent:
                    term = rng.choice(recent)
                else:
                    term = fresh % POOL_SIZE
                    fresh += 1
                    recent = (recent + [term])[-REPEAT_WINDOW:]
                yield Op(index, "adhoc", term)
                index += 1

    def ops(self):
        return self._stream

    def run(self, op: Op):
        return self.session.run(self.pool[op.name][0]).value

    def check(self, op: Op, result) -> bool:
        return self.checker.check(op.name, op.name, result)


class ShardedWire(Workload):
    name = "sharded_wire"
    closed_loop = False

    def params(self) -> dict:
        return {"shards": SHARDS, "processes": True, "scale": WARM_SCALE,
                "rows_per_dept": WARM_ROWS, "data_seed": 0, "placement": PLACEMENT_SPEC,
                "read_mix_per_50": WIRE_MIX, "writes_per_50": WIRE_WRITES,
                "engine": "server default", "options": "SqlOptions()"}

    def prepare_inputs(self) -> None:
        """The base data the servers regenerate, for the reference and the
        op stream (not part of set-up: the servers build their own)."""
        from repro.data.generator import scaled_database

        base = scaled_database(WARM_SCALE, seed=0, scale_rows=WARM_ROWS)
        self.base = {t: base.rows(t) for t in TABLES}
        self.depts = [row["name"] for row in self.base["departments"]]

    def setup(self) -> None:
        import time

        from repro.api import connect_sharded
        from repro.service.registry import paper_registry
        from repro.shard import Placement

        started = time.perf_counter()
        self.session = connect_sharded(
            processes=True, shards=SHARDS, scale=WARM_SCALE, rows=WARM_ROWS,
            placement=Placement.from_spec(PLACEMENT_SPEC),
        )
        self.spawn_s = time.perf_counter() - started
        warm = random.Random(self.seed)
        for name in paper_registry().names():
            self.session.prepare(name)
            self.session.run(name, params=_bind(warm, name, self.depts))

    def reference(self) -> None:
        self.state = OrgState(self.base)
        self.applied = 0  # inserts folded into self.state
        self.checker = Checker(self._expected)

    def _expected(self, key):
        name, params, version = key
        if version != self.applied:
            raise RuntimeError("reference state out of step with the op stream")
        return self.state.answer(name, dict(params))

    def ops(self):
        rng = random.Random(self.seed * 7919 + 3)
        mix = dict(WIRE_MIX, **{f"insert:{t}": n for t, n in WIRE_WRITES.items()})
        staff = [row["name"] for row in self.base["employees"]]
        version = 0
        for index, name in enumerate(_blocks(rng, mix)):
            if not name.startswith("insert:"):
                yield Op(index, "read", name, _bind(rng, name, self.depts), version=version)
                continue
            table = name.split(":", 1)[1]
            row_id = 1_000_000 + index
            if table == "employees":
                row = {"id": row_id, "dept": rng.choice(self.depts),
                       "name": f"bench{self.seed}x{index}",
                       "salary": rng.choice((rng.randrange(100, 999),
                                             rng.randrange(1_000, 100_000)))}
                staff.append(row["name"])
            else:
                row = {"id": row_id, "employee": rng.choice(staff),
                       "task": rng.choice(("abstract", "build", "call", "report"))}
            yield Op(index, "insert", table, rows=[row],
                     key=f"perfbench-{self.seed}-{index}", version=version)
            version += 1

    def run(self, op: Op):
        if op.kind == "insert":
            return self.session.insert(op.name, op.rows, idempotency_key=op.key)
        return self.session.run(op.name, params=op.params).value

    def check(self, op: Op, result) -> bool:
        """Checks must be made in op order: inserts advance the reference."""
        if op.kind == "insert":
            if op.version != self.applied:
                raise RuntimeError("reference state out of step with the op stream")
            self.state.insert(op.name, op.rows)
            self.applied += 1
            return bool(result.get("applied")) and result.get("rows") == len(op.rows)
        key = _key(op.name, op.params)
        return self.checker.check(key, key + (op.version,), result)

    def child_pids(self) -> list[int]:
        if self.session is None:
            return []
        return [p.process.pid for p in self.session.deployment.supervisor.processes
                if p.process is not None]


WORKLOADS = {w.name: w for w in (InprocWarm, AdhocCompile, ShardedWire)}

__all__ = ["WORKLOADS", "Op"]
