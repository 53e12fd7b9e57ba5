"""A seeded pool of structurally distinct λNRC terms for ``adhoc_compile``.

Terms come from a dozen shapes over the organisation schema: flat and
nested comprehensions built with :mod:`repro.nrc.builders`, the §3
higher-order combinators of :mod:`repro.data.queries` and
:mod:`repro.nrc.stdlib` (which normalisation must β-reduce away), and
fluent :class:`repro.api.fluent.Query` chains.  Each shape takes seeded
constants and field choices, so every term has its own structural
fingerprint and therefore its own plan-cache entry.
"""

from __future__ import annotations

import random

from repro.data import queries as paper
from repro.data.generator import TASK_NAMES
from repro.nrc import ast
from repro.nrc import builders as b
from repro.nrc import stdlib

EMPLOYEE_FIELDS = ("name", "salary", "dept")


def _salary(rng: random.Random) -> int:
    return rng.randrange(500, 100_000)


def _fields(rng: random.Random, row: ast.Term, names=EMPLOYEE_FIELDS) -> ast.Term:
    chosen = rng.sample(names, rng.randint(1, len(names)))
    return b.record(**{name: row[name] for name in sorted(chosen)})


def _flat_filter(rng, session, depts):
    k = _salary(rng)
    cmp = rng.choice((b.gt, b.lt, b.ge))
    return b.for_(
        "e", b.table("employees"),
        lambda e: b.where(cmp(e["salary"], b.const(k)), b.ret(_fields(rng, e))),
    )


def _dept_staff(rng, session, depts):
    k = _salary(rng)
    return b.for_(
        "d", b.table("departments"),
        lambda d: b.ret(b.record(
            dept=d["name"],
            staff=b.for_(
                "e", b.table("employees"),
                lambda e: b.where(
                    b.and_(b.eq(e["dept"], d["name"]), b.gt(e["salary"], b.const(k))),
                    b.ret(_fields(rng, e, ("name", "salary"))),
                ),
            ),
        )),
    )


def _three_level(rng, session, depts):
    task = rng.choice(TASK_NAMES)
    k = _salary(rng)
    return b.for_(
        "d", b.table("departments"),
        lambda d: b.ret(b.record(
            name=d["name"],
            people=b.for_(
                "e", b.table("employees"),
                lambda e: b.where(
                    b.and_(b.eq(e["dept"], d["name"]), b.lt(e["salary"], b.const(k))),
                    b.ret(b.record(
                        name=e["name"],
                        tasks=b.for_(
                            "t", b.table("tasks"),
                            lambda t: b.where(
                                b.and_(b.eq(t["employee"], e["name"]),
                                       b.ne(t["task"], b.const(task))),
                                b.ret(t["task"]),
                            ),
                        ),
                    )),
                ),
            ),
        )),
    )


def _union(rng, session, depts):
    k1, k2 = _salary(rng), _salary(rng)
    task = rng.choice(TASK_NAMES)
    rich = b.for_(
        "e", b.table("employees"),
        lambda e: b.where(b.gt(e["salary"], b.const(k1)), b.ret(b.record(who=e["name"]))),
    )
    doers = b.for_(
        "t", b.table("tasks"),
        lambda t: b.where(b.eq(t["task"], b.const(task)), b.ret(b.record(who=t["employee"]))),
    )
    poor = b.for_(
        "e", b.table("employees"),
        lambda e: b.where(b.lt(e["salary"], b.const(k2)), b.ret(b.record(who=e["name"]))),
    )
    return b.union(rich, doers, poor) if rng.random() < 0.5 else b.union(rich, doers)


def _semi_join(rng, session, depts):
    k = _salary(rng)
    probe = b.exists if rng.random() < 0.5 else b.is_empty
    return b.for_(
        "d", b.table("departments"),
        lambda d: b.where(
            probe(b.for_(
                "e", b.table("employees"),
                lambda e: b.where(
                    b.and_(b.eq(e["dept"], d["name"]), b.gt(e["salary"], b.const(k))),
                    b.ret(b.record()),
                ),
            )),
            b.ret(b.record(dept=d["name"], contacts=paper.contacts_of_dept(d))),
        ),
    )


def _outliers(rng, session, depts):
    low, high = rng.randrange(500, 5_000), rng.randrange(50_000, 2_000_000)
    predicate = b.lam("o", lambda o: b.or_(b.lt(o["salary"], b.const(low)),
                                           b.gt(o["salary"], b.const(high))))
    return b.for_(
        "x", paper.q_org(),
        lambda x: b.ret(b.record(
            department=x["name"],
            people=paper.get_tasks(
                stdlib.filter_(predicate, x["employees"]),
                b.lam("y", lambda y: y["tasks"]),
            ),
        )),
    )


def _all_do(rng, session, depts):
    task = rng.choice(TASK_NAMES)
    quantifier = stdlib.all_ if rng.random() < 0.5 else stdlib.any_
    return b.for_(
        "d", paper.q_org(),
        lambda d: b.where(
            quantifier(d["employees"], b.lam(
                "x", lambda x: stdlib.contains(x["tasks"], b.const(task)))),
            b.ret(b.record(dept=d["name"])),
        ),
    )


def _by_task(rng, session, depts):
    task = rng.choice(TASK_NAMES)
    return b.for_(
        "t", b.table("tasks"),
        lambda t: b.where(
            b.eq(t["task"], b.const(task)),
            b.ret(b.record(a=t["task"], b=paper.employees_by_task(t))),
        ),
    )


def _clients(rng, session, depts):
    dept = rng.choice(depts)
    wanted = rng.random() < 0.5
    return b.for_(
        "d", b.table("departments"),
        lambda d: b.where(
            b.ne(d["name"], b.const(dept)),
            b.ret(b.record(
                dept=d["name"],
                clients=stdlib.filter_(
                    b.lam("c", lambda c: b.eq(c["client"], b.const(wanted))),
                    paper.contacts_of_dept(d),
                ),
            )),
        ),
    )


def _fluent_flat(rng, session, depts):
    k = _salary(rng)
    columns = sorted(rng.sample(EMPLOYEE_FIELDS, rng.randint(1, 3)))
    return session.table("employees").where(lambda e: e.salary > k).select(*columns)


def _fluent_nested(rng, session, depts):
    k = _salary(rng)
    task = rng.choice(TASK_NAMES)

    def staff(d):
        return (
            session.table("employees")
            .where(lambda e: (e.dept == d.name) & (e.salary < k))
            .select("name")
            .nest(tasks=lambda e: session.table("tasks")
                  .where(lambda t: (t.employee == e.name) & (t.task != task))
                  .select(lambda t: t.task))
        )

    return session.table("departments").select("name").nest(staff=staff)


def _fluent_semi(rng, session, depts):
    task = rng.choice(TASK_NAMES)
    return (
        session.table("employees")
        .where(lambda e: session.table("tasks")
               .where(lambda t: (t.employee == e.name) & (t.task == task)).exists())
        .select("name", "dept")
    )


def _report_part(rng):
    task = rng.choice(TASK_NAMES)
    k = _salary(rng)
    low, high = rng.randrange(500, 5_000), rng.randrange(50_000, 2_000_000)
    wanted = rng.random() < 0.5
    predicate = b.lam("o", lambda o: b.or_(b.lt(o["salary"], b.const(low)),
                                           b.gt(o["salary"], b.const(high))))
    return b.for_(
        "x", paper.q_org(),
        lambda x: b.ret(b.record(
            department=x["name"],
            outliers=paper.get_tasks(
                stdlib.filter_(predicate, x["employees"]),
                b.lam("y", lambda y: y["tasks"]),
            ),
            staff=b.for_(
                "e", b.table("employees"),
                lambda e: b.where(
                    b.and_(b.eq(e["dept"], x["name"]), b.lt(e["salary"], b.const(k))),
                    b.ret(b.record(
                        name=e["name"],
                        tasks=b.for_(
                            "t", b.table("tasks"),
                            lambda t: b.where(
                                b.and_(b.eq(t["employee"], e["name"]),
                                       b.ne(t["task"], b.const(task))),
                                b.ret(t["task"]),
                            ),
                        ),
                    )),
                ),
            ),
            clients=stdlib.filter_(
                b.lam("c", lambda c: b.eq(c["client"], b.const(wanted))),
                paper.contacts_of_dept(x),
            ),
        )),
    )


def _report(rng, session, depts):
    """Two department reports, each with three nested parts, in one union:
    the heaviest shape, about 8x the median op cold."""
    return b.union(_report_part(rng), _report_part(rng))


SHAPES = (
    _flat_filter, _dept_staff, _three_level, _union, _semi_join, _outliers,
    _all_do, _by_task, _clients, _fluent_flat, _fluent_nested, _fluent_semi,
)


def term_pool(seed: int, size: int, session, depts: list[str]) -> list:
    """``size`` (source, term) pairs with pairwise distinct fingerprints, in
    a seeded order.  Fluent sources stay :class:`Query` objects, so each run
    lowers them again the way a fluent caller's code does.

    Every shape comes once per round, so pools cost alike, and ``_report``
    once every other round: 1 term in 25, about 3% of the ops, so the p99
    falls inside the band of these heavy compiles, above every other op
    even when a garbage collection hits it.  Without them the p99 sits on
    the step between the ops a generation-1 collection hits (about 1 op
    in 100, each ~7 ms slower) and the rest, and moves by 10-20% between
    runs of one seed."""
    rng = random.Random(seed)
    pool, seen, shapes, rounds = [], set(), [], 0
    while len(pool) < size:
        if not shapes:
            shapes = list(SHAPES) + [_report] * (rounds % 2)
            rng.shuffle(shapes)
            rounds += 1
        source = shapes.pop()(rng, session, depts)
        term = source if isinstance(source, ast.Term) else source.term()
        fingerprint = ast.term_fingerprint(term)
        if fingerprint not in seen:
            seen.add(fingerprint)
            pool.append((source, term))
    return pool
