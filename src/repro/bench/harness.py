"""Benchmark harness (§8): systems registry, timed runs, scale sweeps.

The paper measures "total time to translate a nested query to SQL, evaluate
the resulting SQL queries, and stitch the results together" — so a *run*
here is compile + execute + stitch, end to end, against an already-loaded
database (data generation and loading are excluded, like the paper's).

Times are medians over ``repeats`` runs (paper: medians of 5).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable

from repro.backend.database import Database
from repro.baselines.looplifting import LoopLiftingPipeline
from repro.baselines.naive import AvalanchePipeline
from repro.data.generator import scaled_database
from repro.data.queries import FLAT_QUERIES, NESTED_QUERIES, QF_SQL
from repro.nrc.ast import Term
from repro.pipeline.flat import compile_flat_query
from repro.pipeline.plan_cache import PlanCache
from repro.pipeline.shredder import ShreddingPipeline
from repro.sql.codegen import SqlOptions

__all__ = [
    "SYSTEMS",
    "BenchConfig",
    "CellResult",
    "run_system",
    "time_run",
    "median_millis",
    "sweep",
    "default_scales",
]

Runner = Callable[[Term, Database], object]


def median_millis(fn: Callable[[], object], repeats: int | None = None) -> float:
    """Median wall time of ``fn()`` over ``max(3, repeats)`` runs, in ms.

    The single-callable timing helper the bar benchmarks
    (``benchmarks/test_plan_cache.py`` / ``test_sql_optimizer.py`` /
    ``test_shard_scaling.py``) share — one place to change the timing
    methodology.  ``repeats`` defaults to ``REPRO_BENCH_REPEATS`` (5).
    """
    if repeats is None:
        repeats = int(os.environ.get("REPRO_BENCH_REPEATS", "5"))
    samples = []
    for _ in range(max(3, repeats)):
        started = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - started) * 1000.0)
    samples.sort()
    return samples[len(samples) // 2]


def _run_shredding(query: Term, db: Database) -> object:
    return ShreddingPipeline(db.schema).run(query, db)


class _CachedShreddingRunner:
    """A stateful shredding system: plan cache + batched executor.

    One :class:`PlanCache` lives for the runner's lifetime (pipelines are
    reused per schema fingerprint), so the first run of a (query, options)
    cell compiles cold and every repeat — including the same query at a
    larger scale — is a cache hit followed by the batched execution path
    with reusable advisory indexes.

    Two registered instances share this class: ``shredding_cached`` (plan
    cache + batched engine) and ``shredding_opt`` (plan cache + the
    logical SQL optimizer + the batched engine).

    ``sweep`` instantiates a fresh runner per sweep (:meth:`fresh`), so
    cold-compile cells stay reproducible regardless of what ran earlier in
    the process, and gives it an isolated database per scale
    (``mutates_database``): the advisory indexes + ANALYZE it leaves on a
    connection must never flatter the uncached baselines' cells.
    """

    #: The runner creates indexes/statistics on the database it runs
    #: against; sweeps must not share that database with baseline systems.
    mutates_database = True

    def __init__(
        self, options: SqlOptions | None = None, engine: str = "batched"
    ) -> None:
        self.cache = PlanCache()
        self.options = options
        self.engine = engine
        self._pipelines: dict[str, ShreddingPipeline] = {}

    def fresh(self) -> "_CachedShreddingRunner":
        return type(self)(self.options, self.engine)

    def __call__(self, query: Term, db: Database) -> object:
        pipeline = self._pipelines.get(db.schema.fingerprint())
        if pipeline is None:
            pipeline = ShreddingPipeline(
                db.schema, self.options, cache=self.cache
            )
            self._pipelines[db.schema.fingerprint()] = pipeline
        return pipeline.run(query, db, engine=self.engine)


_run_shredding_cached = _CachedShreddingRunner()

#: ``shredding_opt``: the full performance stack — plan cache, the logical
#: SQL optimizer (projection pruning, pushdown, folding, CTE dedup) and the
#: batched executor.
_run_shredding_opt = _CachedShreddingRunner(
    options=SqlOptions(optimize=True), engine="batched"
)


def _run_shredding_natural(query: Term, db: Database) -> object:
    options = SqlOptions(scheme="natural")
    return ShreddingPipeline(db.schema, options).run(query, db)


def _run_shredding_inline(query: Term, db: Database) -> object:
    options = SqlOptions(inline_with=True)
    return ShreddingPipeline(db.schema, options).run(query, db)


def _run_shredding_keys(query: Term, db: Database) -> object:
    options = SqlOptions(order_by_keys=True)
    return ShreddingPipeline(db.schema, options).run(query, db)


def _run_shredding_dedup_cte(query: Term, db: Database) -> object:
    options = SqlOptions(dedup_cte=True)
    return ShreddingPipeline(db.schema, options).run(query, db)


def _run_shredding_ordered(query: Term, db: Database) -> object:
    options = SqlOptions(ordered=True)
    return ShreddingPipeline(db.schema, options).compile(query).run(
        db, collection="list"
    )


def _run_looplifting(query: Term, db: Database) -> object:
    return LoopLiftingPipeline(db.schema).run(query, db)


def _run_looplifting_batched(query: Term, db: Database) -> object:
    return LoopLiftingPipeline(db.schema).run(query, db, engine="batched")


def _run_default_flat(query: Term, db: Database) -> object:
    compiled = compile_flat_query(query, db.schema)
    return compiled.decode_rows(db.execute_sql(compiled.sql))


def _run_avalanche(query: Term, db: Database) -> object:
    return AvalanchePipeline(db.schema).run(query, db)


#: The systems of Figs. 10-11 plus the extra baselines/ablations.
SYSTEMS: dict[str, Runner] = {
    "shredding": _run_shredding,
    "shredding_cached": _run_shredding_cached,
    "shredding_opt": _run_shredding_opt,
    "loop-lifting": _run_looplifting,
    "loop-lifting-batched": _run_looplifting_batched,
    "default": _run_default_flat,
    "avalanche": _run_avalanche,
    "shredding-natural": _run_shredding_natural,
    "shredding-inline-with": _run_shredding_inline,
    "shredding-key-rownum": _run_shredding_keys,
    "shredding-dedup-cte": _run_shredding_dedup_cte,
    "shredding-ordered": _run_shredding_ordered,
}


@dataclass
class BenchConfig:
    """Sweep configuration (env-overridable; see EXPERIMENTS.md)."""

    max_departments: int = int(os.environ.get("REPRO_BENCH_MAX_DEPTS", "64"))
    min_departments: int = int(os.environ.get("REPRO_BENCH_MIN_DEPTS", "4"))
    employees_per_dept: int = int(os.environ.get("REPRO_BENCH_ROWS", "20"))
    repeats: int = int(os.environ.get("REPRO_BENCH_REPEATS", "3"))
    #: Per-cell time budget (ms); slower cells abandon larger scales,
    #: mirroring the paper's "did not finish within 1 minute" cut-off.
    cell_budget_ms: float = float(
        os.environ.get("REPRO_BENCH_BUDGET_MS", "15000")
    )
    seed: int = int(os.environ.get("REPRO_BENCH_SEED", "0"))


@dataclass
class CellResult:
    query: str
    system: str
    departments: int
    millis: float | None  # None = skipped/over budget
    note: str = ""


def default_scales(config: BenchConfig) -> list[int]:
    """Departments 4, 8, …, max (powers of two, §8)."""
    scales = []
    n = config.min_departments
    while n <= config.max_departments:
        scales.append(n)
        n *= 2
    return scales


def time_run(runner: Runner, query: Term, db: Database, repeats: int) -> float:
    """Median wall-clock milliseconds of compile+execute+stitch."""
    samples = []
    for _ in range(max(1, repeats)):
        started = time.perf_counter()
        runner(query, db)
        samples.append((time.perf_counter() - started) * 1000.0)
    samples.sort()
    return samples[len(samples) // 2]


ALL_BENCH_QUERIES = {**FLAT_QUERIES, **NESTED_QUERIES}


def run_system(
    system: str,
    query_name: str,
    db: Database,
    repeats: int = 3,
    runner: Runner | None = None,
) -> float:
    """Time one (system, query) cell on a prepared database.

    A stateful system whose registered runner has a ``fresh()`` factory
    (the cached engine) is re-instantiated per call so timings don't
    depend on what ran earlier in the process; pass ``runner`` explicitly
    to keep state across cells (as ``sweep`` does).  Note that such a
    system may leave advisory indexes/statistics on ``db`` — don't time
    baseline systems on the same database afterwards (``sweep`` isolates
    them automatically).
    """
    query = ALL_BENCH_QUERIES[query_name]
    if runner is None:
        if system == "default-raw-sql":
            sql = QF_SQL[query_name]
            runner = lambda _q, database: database.execute_sql(sql)  # noqa: E731
        else:
            runner = SYSTEMS[system]
            if hasattr(runner, "fresh"):
                runner = runner.fresh()
    return time_run(runner, query, db, repeats)


def sweep(
    query_names: list[str],
    systems: list[str],
    config: BenchConfig | None = None,
) -> list[CellResult]:
    """The Fig. 10/11 sweep: every query × system × scale.

    Databases are generated once per scale and shared; a system that blows
    its budget at some scale is skipped at larger scales for that query.
    Stateful systems get special handling so cells stay comparable:

    * a system whose runner declares ``mutates_database`` (the cached and
      optimized engines create advisory indexes + statistics) runs
      against its own identically-generated database per scale — one
      *per system*, so the uncached baselines are never measured on a
      connection a stateful system touched, and no two stateful systems
      warm each other's indexes or planner statistics;
    * a runner with a ``fresh()`` factory is re-instantiated per sweep, so
      cold-compile cells don't depend on what ran earlier in the process.
    """
    config = config or BenchConfig()
    results: list[CellResult] = []
    over_budget: set[tuple[str, str]] = set()
    sweep_runners: dict[str, Runner] = {
        system: SYSTEMS[system].fresh()
        for system in systems
        if hasattr(SYSTEMS.get(system), "fresh")
    }
    for departments in default_scales(config):
        db = scaled_database(
            departments, seed=config.seed, scale_rows=config.employees_per_dept
        )
        db.connection()  # materialise SQLite outside the timed region
        mutating_dbs: dict[str, Database] = {}
        for query_name in query_names:
            for system in systems:
                if (query_name, system) in over_budget:
                    results.append(
                        CellResult(
                            query_name, system, departments, None, "over budget"
                        )
                    )
                    continue
                runner = sweep_runners.get(system)
                cell_db = db
                if getattr(
                    runner if runner is not None else SYSTEMS.get(system),
                    "mutates_database",
                    False,
                ):
                    if system not in mutating_dbs:
                        mutating_dbs[system] = scaled_database(
                            departments,
                            seed=config.seed,
                            scale_rows=config.employees_per_dept,
                        )
                        mutating_dbs[system].connection()
                    cell_db = mutating_dbs[system]
                millis = run_system(
                    system,
                    query_name,
                    cell_db,
                    repeats=config.repeats,
                    runner=runner,
                )
                results.append(
                    CellResult(query_name, system, departments, millis)
                )
                if millis > config.cell_budget_ms:
                    over_budget.add((query_name, system))
    return results
