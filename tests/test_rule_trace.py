"""Tests for the optimizer's fired-rule trace.

``CompiledSql.fired_rules`` records which ``opt_*`` rules actually changed
each statement; ``CompiledQuery.fired_rules`` aggregates them per
package; ``Prepared.explain()`` and
``ExecutionStats.rules_fired`` surface them.  The trace also *documents* a
fact the optimizer docstring only claims: ``opt_pushdown`` and
``opt_flatten`` are inert on the flat scheme's own output (every generated
outer CTE computes a ROW_NUMBER, which both rules refuse to touch).
"""

from __future__ import annotations

import pytest

from repro.api import connect
from repro.backend.executor import ExecutionStats
from repro.data.organisation import figure3_database
from repro.data.queries import FLAT_QUERIES, NESTED_QUERIES
from repro.pipeline.shredder import ShreddingPipeline
from repro.sql.codegen import SqlOptions

from repro.data.organisation import ORGANISATION_SCHEMA as SCHEMA

ALL_QUERIES = {**FLAT_QUERIES, **NESTED_QUERIES}


class TestFiredRuleTrace:
    def test_optimizer_off_traces_nothing(self):
        compiled = ShreddingPipeline(SCHEMA, SqlOptions()).compile(
            NESTED_QUERIES["Q6"]
        )
        assert compiled.fired_rules == ()

    def test_q6_fires_dedup_and_prune(self):
        compiled = ShreddingPipeline(
            SCHEMA, SqlOptions(optimize=True)
        ).compile(NESTED_QUERIES["Q6"])
        assert "opt_dedup" in compiled.fired_rules
        assert "opt_prune" in compiled.fired_rules

    def test_trace_order_follows_rule_order(self):
        from repro.sql.optimizer import statement_rule_names

        order = [flag for flag, _ in statement_rule_names]
        for name, query in ALL_QUERIES.items():
            compiled = ShreddingPipeline(
                SCHEMA, SqlOptions(optimize=True)
            ).compile(query)
            fired = list(compiled.fired_rules)
            assert fired == sorted(fired, key=order.index), name

    @pytest.mark.parametrize("name", sorted(ALL_QUERIES))
    def test_pushdown_and_flatten_inert_on_pipeline_output(self, name):
        """The documented inertness, now machine-checked: every outer
        CTE/subquery the flat scheme generates carries a ROW_NUMBER, so
        the guarded pushdown and flattening rules never fire on it."""
        compiled = ShreddingPipeline(
            SCHEMA, SqlOptions(optimize=True)
        ).compile(ALL_QUERIES[name])
        assert "opt_pushdown" not in compiled.fired_rules
        assert "opt_flatten" not in compiled.fired_rules

    def test_pushdown_fires_on_hand_built_statement(self):
        """…but the rules are not dead code: a numbering-free hand-built
        statement does get its predicate pushed."""
        from repro.sql.ast import (
            BinOp,
            Col,
            CteRef,
            Lit,
            SelectCore,
            SelectItem,
            Statement,
            TableRef,
        )
        from repro.sql.optimizer import optimize_statement

        cte = SelectCore(
            (SelectItem(Col("d", "name"), "name"),),
            (TableRef("departments", "d"),),
            None,
        )
        main = SelectCore(
            (SelectItem(Col("c", "name"), "name"),),
            (CteRef("q1", "c"),),
            BinOp("=", Col("c", "name"), Lit("Sales")),
        )
        statement = Statement((("q1", cte),), (main,), ("name",), ())
        trace: list[str] = []
        optimize_statement(statement, SqlOptions(optimize=True), trace=trace)
        assert "opt_pushdown" in trace


class TestExplainAndStats:
    def test_explain_shows_fired_rules(self):
        with connect(figure3_database(), options=SqlOptions(optimize=True)) as s:
            report = s.explain(NESTED_QUERIES["Q6"])
        assert "rules fired" in report
        assert "opt_dedup" in report

    def test_explain_shows_inert_optimizer(self):
        # Flat single-statement queries give the optimizer nothing to do.
        flat = FLAT_QUERIES["QF2"]
        with connect(figure3_database(), options=SqlOptions(optimize=True)) as s:
            compiled = s.compile(flat)
            report = s.explain(flat)
        assert compiled.fired_rules == ()
        assert "none (all inert)" in report

    def test_explain_omits_rules_when_optimizer_off(self):
        with connect(figure3_database()) as s:
            report = s.explain(NESTED_QUERIES["Q6"])
        assert "rules fired" not in report

    def test_session_stats_accumulate_rules(self):
        with connect(
            figure3_database(), options=SqlOptions(optimize=True), cache=False
        ) as s:
            s.prepare(NESTED_QUERIES["Q6"]).compiled
            once = dict(s.stats.rules_fired)
            s.prepare(NESTED_QUERIES["Q6"]).compiled
            twice = dict(s.stats.rules_fired)
        assert once.get("opt_dedup", 0) >= 1
        assert twice["opt_dedup"] == 2 * once["opt_dedup"]

    def test_cache_hits_still_record_rules(self):
        from repro.pipeline.plan_cache import PlanCache

        with connect(
            figure3_database(),
            options=SqlOptions(optimize=True),
            cache=PlanCache(),
        ) as s:
            s.prepare(NESTED_QUERIES["Q6"]).compiled
            s.prepare(NESTED_QUERIES["Q6"]).compiled
            assert s.stats.cache_hits >= 1
            assert s.stats.rules_fired.get("opt_dedup", 0) >= 2

    def test_stats_merge_sums_rule_counts(self):
        left = ExecutionStats()
        left.rules_fired = {"opt_fold": 1, "opt_prune": 2}
        right = ExecutionStats()
        right.rules_fired = {"opt_fold": 2}
        left.merge(right)
        assert left.rules_fired == {"opt_fold": 3, "opt_prune": 2}
