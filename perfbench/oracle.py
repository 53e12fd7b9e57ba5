"""Independent reference results for every query the benchmark times.

The registry queries (Q1-Q6, ``dept_staff``, ``staff_above``) are answered
by hand-written Python over plain row dicts: at bench scale the λNRC
reference interpreter takes seconds per query (minutes for Q5), far too
slow to check thousands of timed results.  ``test_perfbench.py`` checks
these functions against :func:`repro.nrc.semantics.evaluate` on a small
seeded instance.  Ad-hoc terms are checked against ``evaluate`` directly.

Nothing here calls the compiler, the SQL backend or the stitcher, so a
defect in any of them cannot hide in the reference.
"""

from __future__ import annotations

import json
from collections import defaultdict, namedtuple

TABLES = ("departments", "employees", "tasks", "contacts")


def canonical(value) -> str:
    """A canonical text for a nested value: record fields in label order,
    bag elements in sorted order, scalars as JSON.  Two values have the
    same text exactly when they are equal as nested multisets."""
    if isinstance(value, dict):
        return "{" + ",".join(
            json.dumps(label) + ":" + canonical(value[label]) for label in sorted(value)
        ) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(sorted(canonical(element) for element in value)) + "]"
    if isinstance(value, (bool, int, str)):
        return json.dumps(value)
    raise TypeError(f"unexpected value in a query result: {value!r}")


ROW_TYPES = {
    "departments": namedtuple("Department", "id name"),
    "employees": namedtuple("Employee", "id dept name salary"),
    "tasks": namedtuple("Task", "id employee task"),
    "contacts": namedtuple("Contact", "id dept name client"),
}


class OrgState:
    """The organisation tables, plus rows inserted later.

    Rows are named tuples: immutable, so inserted rows never alias the
    dicts handed to the system.
    """

    def __init__(self, tables: dict[str, list[dict]]) -> None:
        self.tables = {name: [] for name in TABLES}
        for name in TABLES:
            self.insert(name, tables[name])

    def insert(self, table: str, rows: list[dict]) -> None:
        row_type = ROW_TYPES[table]
        self.tables[table].extend(row_type(**row) for row in rows)

    def _indexes(self):
        by_dept = defaultdict(list)
        for e in self.tables["employees"]:
            by_dept[e.dept].append(e)
        tasks_of = defaultdict(list)
        for t in self.tables["tasks"]:
            tasks_of[t.employee].append(t.task)
        contacts_of = defaultdict(list)
        for c in self.tables["contacts"]:
            contacts_of[c.dept].append(c)
        return by_dept, tasks_of, contacts_of

    # -- the registry queries -------------------------------------------

    def q1(self) -> list:
        by_dept, tasks_of, contacts_of = self._indexes()
        return [
            {
                "name": d.name,
                "employees": [
                    {"name": e.name, "salary": e.salary, "tasks": list(tasks_of[e.name])}
                    for e in by_dept[d.name]
                ],
                "contacts": [{"name": c.name, "client": c.client} for c in contacts_of[d.name]],
            }
            for d in self.tables["departments"]
        ]

    def q2(self) -> list:
        return [
            {"dept": d["name"]}
            for d in self.q1()
            if all("abstract" in e["tasks"] for e in d["employees"])
        ]

    def q3(self) -> list:
        _by_dept, tasks_of, _contacts = self._indexes()
        return [{"name": e.name, "tasks": list(tasks_of[e.name])} for e in self.tables["employees"]]

    def q4(self) -> list:
        by_dept, _tasks, _contacts = self._indexes()
        return [
            {"dept": d.name, "employees": [e.name for e in by_dept[d.name]]}
            for d in self.tables["departments"]
        ]

    def q5(self) -> list:
        employees_named = defaultdict(list)
        for e in self.tables["employees"]:
            employees_named[e.name].append(e)
        departments_named = defaultdict(list)
        for d in self.tables["departments"]:
            departments_named[d.name].append(d)
        return [
            {
                "a": t.task,
                "b": [
                    {"b": e.name, "c": d.name}
                    for e in employees_named[t.employee]
                    for d in departments_named[e.dept]
                ],
            }
            for t in self.tables["tasks"]
        ]

    def q6(self) -> list:
        by_dept, tasks_of, contacts_of = self._indexes()
        return [
            {
                "department": d.name,
                "people": [
                    {"name": e.name, "tasks": list(tasks_of[e.name])}
                    for e in by_dept[d.name]
                    if e.salary > 1000000 or e.salary < 1000
                ]
                + [{"name": c.name, "tasks": ["buy"]} for c in contacts_of[d.name] if c.client],
            }
            for d in self.tables["departments"]
        ]

    def dept_staff(self, dept: str) -> list:
        by_dept, _tasks, _contacts = self._indexes()
        return [
            {"department": d.name, "staff": [{"name": e.name} for e in by_dept[d.name]]}
            for d in self.tables["departments"]
            if d.name == dept
        ]

    def staff_above(self, min_salary: int) -> list:
        return [
            {"name": e.name, "salary": e.salary}
            for e in self.tables["employees"]
            if e.salary > min_salary
        ]

    def answer(self, query: str, params: dict | None) -> list:
        """The reference result of registry query ``query``."""
        if query == "dept_staff":
            return self.dept_staff(params["dept"])
        if query == "staff_above":
            return self.staff_above(params["min_salary"])
        return getattr(self, query.lower())()


class Checker:
    """Checks results against a reference, outside any timed region.

    ``expected(key)`` computes the reference for a key.  A result for a
    key already verified is first compared as its JSON text with the
    verified result's (the system is deterministic, so equal order is the
    common case); only when that differs does the order-insensitive
    comparison run.  The checker keeps only strings, one per ``slot``:
    objects the collector does not track, so checking adds no collector
    pauses to the timed ops that follow.
    """

    def __init__(self, expected) -> None:
        self._expected = expected
        self._verified: dict = {}  # slot → (key, JSON text of a verified result)
        self._canonical: dict = {}  # slot → (key, canonical text of the expected value)

    def check(self, slot, key, result) -> bool:
        text = json.dumps(result)
        seen = self._verified.get(slot)
        if seen is not None and seen[0] == key and seen[1] == text:
            return True
        cached = self._canonical.get(slot)
        if cached is None or cached[0] != key:
            cached = (key, canonical(self._expected(key)))
            self._canonical[slot] = cached
        if canonical(result) != cached[1]:
            return False
        self._verified[slot] = (key, text)
        return True
