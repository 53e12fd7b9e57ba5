"""Regenerate the paper's experimental figures/tables from the command line.

    python -m repro.bench.figures --figure 10        # flat queries
    python -m repro.bench.figures --figure 11        # nested queries
    python -m repro.bench.figures --figure A         # App. A blowup table
    python -m repro.bench.figures --figure counts    # query-avalanche counts
    python -m repro.bench.figures --figure ablations # §8 optimisation ablations
    python -m repro.bench.figures --all

Scales/repeats come from REPRO_BENCH_* environment variables (see
EXPERIMENTS.md).  Expect minutes for the full sweeps at larger scales.
"""

from __future__ import annotations

import argparse
import sys

from repro.backend.executor import ExecutionStats
from repro.bench.harness import BenchConfig, default_scales, sweep
from repro.bench.reporting import format_speedups, format_tables

__all__ = ["figure10", "figure11", "figure_appendix_a", "figure_counts", "main"]

FLAT = ["QF1", "QF2", "QF3", "QF4", "QF5", "QF6"]
NESTED = ["Q1", "Q2", "Q3", "Q4", "Q5", "Q6"]


def figure10(config: BenchConfig | None = None) -> str:
    """Fig. 10: QF1-QF6 × {default, shredding, loop-lifting} × scale
    (plus the cached and optimized batched shredding engines for
    comparison)."""
    results = sweep(
        FLAT,
        [
            "default",
            "shredding",
            "shredding_cached",
            "shredding_opt",
            "loop-lifting",
        ],
        config,
    )
    return format_tables(results, "Figure 10 — flat queries")


def figure11(config: BenchConfig | None = None) -> str:
    """Fig. 11: Q1-Q6 × {shredding, shredding_cached, shredding_opt,
    loop-lifting, loop-lifting-batched} × scale.

    ``shredding_cached`` (plan cache + batched executor) and
    ``shredding_opt`` (plan cache + logical SQL optimizer + batched
    executor) ride along so each engine generation is always
    compared against the uncached baseline; ``loop-lifting-batched`` uses
    the same batched decode style so the baseline ablation compares
    engines, not decode styles.
    """
    results = sweep(
        NESTED,
        [
            "shredding",
            "shredding_cached",
            "shredding_opt",
            "loop-lifting",
            "loop-lifting-batched",
        ],
        config,
    )
    return (
        format_tables(results, "Figure 11 — nested queries")
        + "\n\n"
        + format_speedups(results, "loop-lifting", "shredding")
        + "\n\n"
        + format_speedups(results, "shredding", "shredding_cached")
        + "\n\n"
        + format_speedups(results, "shredding", "shredding_opt")
    )


def figure_appendix_a() -> str:
    """App. A: simulated vs natural tuple counts for R ∪ S."""
    from repro.baselines import vandenbussche as V

    lines = [
        "== Appendix A — Van den Bussche simulation blowup ==",
        f"{'n':>4} {'adom':>6} {'simulated':>10} {'natural':>8} {'ratio':>7}",
    ]
    for n in (2, 4, 8, 16, 32):
        r = V.NestedRelation(tuple((i, (i,)) for i in range(n)))
        s = V.NestedRelation(tuple((i, (i * 2,)) for i in range(n)))
        r1, s1 = V.flat_rep(r, "id"), V.flat_rep(s, "id")
        adom = V.active_domain(r1, s1)
        simulated = V.vdb_union(r1, s1).tuple_count
        natural = V.natural_tuple_count(r, s)
        lines.append(
            f"{n:>4} {len(adom):>6} {simulated:>10} {natural:>8} "
            f"{simulated / natural:>6.1f}x"
        )
    r, s = V.paper_example()
    t = V.vdb_union(*V.paper_flat_reps())
    lines.append(
        f"\npaper example: |T1| = {len(t.outer)} (paper: 72), natural = "
        f"{V.natural_tuple_count(r, s)} (paper: 9); "
        f"R∪S = {t.tuple_count} vs S∪R = "
        f"{V.vdb_union(*reversed(V.paper_flat_reps())).tuple_count} tuples"
    )
    return "\n".join(lines)


def figure_counts(config: BenchConfig | None = None) -> str:
    """§1: queries issued — shredding (constant) vs the N+1 avalanche."""
    from repro.baselines.naive import AvalanchePipeline
    from repro.data.generator import scaled_database
    from repro.data.queries import NESTED_QUERIES
    from repro.pipeline.shredder import ShreddingPipeline

    config = config or BenchConfig()
    lines = [
        "== Query counts — shredding vs N+1 avalanche ==",
        f"{'query':>6} {'#depts':>7} {'shredding':>10} {'avalanche':>10}",
    ]
    for query_name in ("Q1", "Q4", "Q6"):
        query = NESTED_QUERIES[query_name]
        for departments in default_scales(config):
            db = scaled_database(
                departments,
                seed=config.seed,
                scale_rows=config.employees_per_dept,
            )
            shred_stats = ExecutionStats()
            ShreddingPipeline(db.schema).compile(query).run(
                db, stats=shred_stats
            )
            naive_stats = ExecutionStats()
            AvalanchePipeline(db.schema).compile(query).run(
                db, stats=naive_stats
            )
            lines.append(
                f"{query_name:>6} {departments:>7} "
                f"{shred_stats.queries:>10} {naive_stats.queries:>10}"
            )
    return "\n".join(lines)


def figure_ablations(config: BenchConfig | None = None) -> str:
    """§8 optimisations + §6 indexing schemes, on the nested queries."""
    systems = [
        "shredding",
        "shredding-inline-with",
        "shredding-key-rownum",
        "shredding-natural",
    ]
    results = sweep(["Q1", "Q3", "Q6"], systems, config)
    return format_tables(results, "Ablations — §8 optimisations / §6 schemes")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--figure",
        choices=["10", "11", "A", "counts", "ablations"],
        default=None,
    )
    parser.add_argument("--all", action="store_true")
    args = parser.parse_args(argv)

    outputs = []
    wanted = (
        ["10", "11", "A", "counts", "ablations"]
        if args.all or args.figure is None
        else [args.figure]
    )
    for figure in wanted:
        if figure == "10":
            outputs.append(figure10())
        elif figure == "11":
            outputs.append(figure11())
        elif figure == "A":
            outputs.append(figure_appendix_a())
        elif figure == "counts":
            outputs.append(figure_counts())
        elif figure == "ablations":
            outputs.append(figure_ablations())
    print("\n\n".join(outputs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
