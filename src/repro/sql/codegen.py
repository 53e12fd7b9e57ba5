"""SQL code generation (§7): shredded / let-inserted queries → SQL:1999.

Two schemes:

* **flat** (default): the let-inserted form, with ``index`` realised as
  ``ROW_NUMBER() OVER (ORDER BY …)`` and the let-bound outer query as a CTE
  (or an inlined FROM-subquery under the §8 "inline WITH" optimisation);
* **natural** (§6.1): plain SQL — all where-clauses amalgamated, dynamic
  indexes are the key columns of every generator in scope, padded with
  NULLs to a per-query width (the cost the paper attributes to natural
  indexes: wider rows, more data movement).

Determinism note (§7): the paper orders ``row_number`` by all columns of
all tables referenced from the current subquery, listing the outer query's
stored index (``z.i2``) *before* the inner generators' columns; with the
assumed unique ``id`` keys any position works.  We place ``z.idx`` *last*
so the ordering stays consistent with the child query's CTE (which
recomputes the same prefix join without an idx column) even for keyless
tables containing fully duplicate rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.errors import SqlGenerationError
from repro.flatten.flatten import (
    FlatColumn,
    KIND_BASE,
    KIND_INDEX_DYN,
    KIND_INDEX_TAG,
    flatten_type,
)
from repro.flatten.unflatten import unflatten_value
from repro.letins.ast import (
    IndexPrim,
    LetComp,
    LetIndex,
    LetQuery,
    OuterSubquery,
    ZIndex,
    ZProj,
)
from repro.letins.translate import let_insert
from repro.normalise.normal_form import (
    BaseExpr,
    ConstNF,
    EmptyNF,
    Generator,
    NormQuery,
    ParamNF,
    PrimNF,
    TRUE_NF,
    VarField,
)
from repro.nrc.schema import Schema
from repro.nrc.types import RecordType, Type
from repro.shred.shred_types import INDEX, inner_shred
from repro.shred.shredded_ast import (
    IN,
    IndexRef,
    ShredComp,
    ShredQuery,
    SRecord,
)
from repro.sql.ast import (
    BinOp,
    Col,
    CteRef,
    Lit,
    NotExists,
    NotOp,
    Placeholder,
    RowNumber,
    SelectCore,
    SelectItem,
    SqlExpr,
    Statement,
    SubqueryRef,
    TableRef,
    placeholder_names,
)
from repro.sql.render import render_statement

__all__ = ["SqlOptions", "CompiledSql", "compile_shredded"]


@dataclass(frozen=True)
class SqlOptions:
    """Code-generation knobs: the §8 optimisations, the §6 schemes, the §9
    extensions, and the logical optimizer (:mod:`repro.sql.optimizer`).

    ``optimize`` master-switches the optimizer; the ``opt_*`` flags gate
    individual rules (only consulted when ``optimize`` is on).  All of them
    participate in the plan-cache key automatically — the whole (frozen,
    hashable) options value is a key component — so optimised and
    unoptimised plans never collide in a cache.
    """

    scheme: str = "flat"  # "flat" or "natural"
    inline_with: bool = False  # §8: inline WITH clauses as subqueries
    order_by_keys: bool = False  # §8: use keys for row numbering
    dedup_cte: bool = False  # extension: share identical outer CTEs
    ordered: bool = False  # §9 list semantics: deterministic row order
    pretty: bool = True
    optimize: bool = False  # run the logical optimizer over the SQL AST
    opt_fold: bool = True  # constant folding + dead-branch elimination
    opt_flatten: bool = True  # trivial-subquery flattening
    opt_dedup: bool = True  # within-statement CTE deduplication
    opt_pushdown: bool = True  # predicate pushdown into CTEs/subqueries
    opt_prune: bool = True  # CTE projection pruning
    #: Stage verification (:mod:`repro.check`): ``True``/``False`` force it,
    #: ``None`` (default) defers to ``REPRO_VERIFY`` / pytest-or-CI
    #: detection (see :func:`repro.check.verifier.verification_enabled`).
    verify: bool | None = None

    def __post_init__(self) -> None:
        if self.scheme not in ("flat", "natural"):
            raise SqlGenerationError(f"unknown SQL scheme {self.scheme!r}")
        if self.ordered and self.scheme != "flat":
            raise SqlGenerationError(
                "ordered (list-semantics) output requires the flat scheme"
            )
        if self.verify not in (None, True, False):
            raise SqlGenerationError(
                f"verify must be True, False or None, got {self.verify!r}"
            )


@dataclass
class CompiledSql:
    """One shredded query compiled to SQL, with decode metadata.

    ``cache_key`` carries the plan-cache key the statement was compiled
    under (None for uncached compiles); the precompiled tuple decoders are
    memoised per instance, so a cached plan decodes every subsequent run
    through the same closures.
    """

    statement: Statement
    sql: str
    row_type: RecordType  # ⟨item: F, outer: Index⟩
    width_fn: Callable[[tuple[str, ...]], int] | int
    natural: bool
    columns: tuple[str, ...] = field(default=())
    #: Host-parameter names this statement binds at execution time (sorted).
    params: tuple[str, ...] = field(default=())
    #: Optimizer rules that actually rewrote this statement, in application
    #: order (the fired-rule trace; empty when the optimizer is off or
    #: every rule was a no-op).
    fired_rules: tuple[str, ...] = field(default=(), compare=False)
    cache_key: object = field(default=None, compare=False)
    _decoders: tuple | None = field(
        default=None, repr=False, compare=False
    )
    _key_decoders: tuple | None = field(
        default=None, repr=False, compare=False
    )
    #: (table, columns) index hints mined from the statement — memoised by
    #: the batched executor so repeat runs of a cached plan skip the AST walk.
    index_hints: tuple | None = field(default=None, repr=False, compare=False)

    def decoders(self) -> tuple[Callable, Callable]:
        """(outer, item) tuple-level decoders, compiled once per plan.

        Each decoder maps one raw SQL tuple straight to its value by
        column *position* — no intermediate name→cell dict per row (the
        batched engine's fast path).  Matches :func:`unflatten_value` on
        every row (the slow reference path, kept for the property tests).
        """
        if self._decoders is None:
            self._decoders = self._build_decoders(as_keys=False)
        return self._decoders

    def key_decoders(self) -> tuple[Callable, Callable]:
        """Like :meth:`decoders`, but index leaves decode to plain tuples
        ``(tag, dyn)`` instead of :class:`FlatIndex`/:class:`NaturalIndex`
        objects.

        Index values never reach stitched output — they only ever serve as
        grouping/lookup keys joining a parent's item rows to a child's
        outer rows — so the batched engine trades the index objects for
        raw tuples: no per-row dataclass construction, cheaper hashing.
        Both sides of every join decode through the same scheme, keeping
        keys consistent across nesting levels.
        """
        if self._key_decoders is None:
            self._key_decoders = self._build_decoders(as_keys=True)
        return self._key_decoders

    def _build_decoders(self, as_keys: bool) -> tuple[Callable, Callable]:
        positions = {name: i for i, name in enumerate(self.columns)}
        outer_fn = _compile_decoder(
            INDEX, ("outer",), positions, self.width_fn, self.natural, as_keys
        )
        item_fn = _compile_decoder(
            self.row_type.field_type("item"),
            ("item",),
            positions,
            self.width_fn,
            self.natural,
            as_keys,
        )
        return (outer_fn, item_fn)

    def decode_rows(
        self, raw_rows: Sequence[Sequence[object]]
    ) -> list[tuple[object, object]]:
        """Raw SQL tuples → ⟨index, value⟩ pairs (unflattening, App. E).

        The literal App. E reading — one name→cell dict and one
        :func:`unflatten_value` type walk per row.  The per-path engine
        uses it; the batched engine's precompiled :meth:`decoders` are
        property-tested against it.
        """
        pairs = []
        for raw in raw_rows:
            cells = dict(zip(self.columns, raw))
            row = unflatten_value(
                self.row_type, cells, self.width_fn, natural=self.natural
            )
            pairs.append((row["outer"], row["item"]))
        return pairs

    def decode_rows_fast(
        self, raw_rows: Sequence[Sequence[object]]
    ) -> list[tuple[object, object]]:
        """:meth:`decode_rows` through the precompiled tuple decoders."""
        decode_outer, decode_item = self.decoders()
        return [(decode_outer(raw), decode_item(raw)) for raw in raw_rows]


def _compile_decoder(
    f: Type,
    path: tuple[str, ...],
    positions: dict[str, int],
    width_fn: Callable[[tuple[str, ...]], int] | int,
    natural: bool,
    as_keys: bool = False,
) -> Callable:
    """Compile flat type ``f`` at ``path`` to a raw-tuple → value closure.

    The closure tree mirrors :func:`unflatten_value` exactly, but resolves
    every column to its tuple position at compile time.  With ``as_keys``,
    index leaves decode to bare ``(tag, dyn)`` tuples (see
    :meth:`CompiledSql.key_decoders`).
    """
    from repro.nrc.types import BOOL, BaseType
    from repro.shred.indexes import FlatIndex, NaturalIndex
    from repro.shred.shred_types import IndexType

    if isinstance(f, IndexType):
        tag_pos = positions[FlatColumn(path, KIND_INDEX_TAG).name]
        width = width_fn if isinstance(width_fn, int) else width_fn(path)
        dyn_pos = tuple(
            positions[FlatColumn(path, KIND_INDEX_DYN, dyn_position=i).name]
            for i in range(1, width + 1)
        )
        if natural:
            if as_keys:
                return lambda raw, _tag=tag_pos, _dyns=dyn_pos: (
                    raw[_tag],
                    tuple(raw[pos] for pos in _dyns if raw[pos] is not None),
                )

            def decode_natural(
                raw: tuple,
                _tag: int = tag_pos,
                _dyns: tuple = dyn_pos,
            ) -> NaturalIndex:
                return NaturalIndex(
                    str(raw[_tag]),
                    tuple(
                        raw[pos] for pos in _dyns if raw[pos] is not None
                    ),
                )

            return decode_natural
        if len(dyn_pos) != 1:
            raise SqlGenerationError(
                "flat indexes have exactly one dynamic column"
            )
        if as_keys:
            return lambda raw, _tag=tag_pos, _dyn=dyn_pos[0]: (
                raw[_tag],
                raw[_dyn],
            )

        def decode_flat(
            raw: tuple, _tag: int = tag_pos, _dyn: int = dyn_pos[0]
        ) -> FlatIndex:
            return FlatIndex(str(raw[_tag]), int(raw[_dyn]))

        return decode_flat
    if isinstance(f, BaseType):
        pos = positions[FlatColumn(path, KIND_BASE, base=f).name]
        if f == BOOL:
            return lambda raw, _pos=pos: bool(raw[_pos])
        return lambda raw, _pos=pos: raw[_pos]
    if isinstance(f, RecordType):
        subdecoders = tuple(
            (
                label,
                _compile_decoder(
                    ftype, path + (label,), positions, width_fn, natural, as_keys
                ),
            )
            for label, ftype in f.fields
        )

        def decode_record(raw: tuple, _subs: tuple = subdecoders) -> dict:
            return {label: decode(raw) for label, decode in _subs}

        return decode_record
    raise SqlGenerationError(f"cannot compile a decoder for type {f}")


def compile_shredded(
    shredded: ShredQuery,
    element_type: Type,
    schema: Schema,
    options: SqlOptions = SqlOptions(),
    cache_key: object = None,
    tracer=None,
) -> CompiledSql:
    """Compile one shredded query whose bag element type is ``element_type``.

    ``cache_key`` (threaded down from the plan cache, when one is active)
    is recorded on the compiled statement for provenance/debugging.
    ``tracer`` (a :class:`repro.obs.Tracer`) receives an ``optimize``
    span with one child per attempted rule.
    """
    item_type = inner_shred(element_type)
    row_type = RecordType((("item", item_type), ("outer", INDEX)))
    if options.scheme == "natural":
        compiled = _compile_natural(shredded, row_type, schema, options)
    else:
        compiled = _compile_flat(let_insert(shredded), row_type, schema, options)
    from repro.check.verifier import verification_enabled

    verify = verification_enabled(options)
    if options.optimize:
        from repro.sql.optimizer import optimize_statement

        trace: list[str] = []
        timings: list[tuple[str, float, bool]] | None = (
            [] if tracer is not None else None
        )
        on_rewrite = None
        if verify:
            from repro.check.verifier import rewrite_hook

            on_rewrite = rewrite_hook(schema)
        optimized = optimize_statement(
            compiled.statement,
            options,
            trace=trace,
            on_rewrite=on_rewrite,
            timings=timings,
        )
        if tracer is not None and timings is not None:
            span = tracer.record(
                "optimize", sum(m for _r, m, _f in timings)
            )
            for rule, millis, fired in timings:
                span.record(rule, millis, fired=fired)
        if optimized != compiled.statement:
            compiled.statement = optimized
            compiled.sql = render_statement(optimized, options.pretty)
        compiled.fired_rules = tuple(trace)
    compiled.params = placeholder_names(compiled.statement)
    compiled.cache_key = cache_key
    if verify:
        from repro.check.verifier import verify_compiled_sql

        verify_compiled_sql(compiled, schema)
    return compiled


# --------------------------------------------------------------------------
# Shared expression rendering.


class _ExprContext:
    """Rendering context: how to resolve z-projections."""

    def __init__(self, schema: Schema, z_alias: str | None = None) -> None:
        self.schema = schema
        self.z_alias = z_alias


_OPS = {
    "=": "=",
    "<>": "<>",
    "<": "<",
    "<=": "<=",
    ">": ">",
    ">=": ">=",
    "+": "+",
    "-": "-",
    "*": "*",
    "div": "/",
    "mod": "%",
    "and": "AND",
    "or": "OR",
    "^": "||",
}


def _expr(e: BaseExpr, ctx: _ExprContext) -> SqlExpr:
    if isinstance(e, VarField):
        return Col(e.var, e.label)
    if isinstance(e, ConstNF):
        return Lit(e.value)
    if isinstance(e, ParamNF):
        return Placeholder(e.name)
    if isinstance(e, ZProj):
        if ctx.z_alias is None:
            raise SqlGenerationError("z-projection outside a let body")
        return Col(ctx.z_alias, _z_column(e.position, e.label))
    if isinstance(e, PrimNF):
        if e.op == "not":
            return NotOp(_expr(e.args[0], ctx))
        sql_op = _OPS.get(e.op)
        if sql_op is None or len(e.args) != 2:
            raise SqlGenerationError(f"no SQL spelling for primitive {e.op!r}")
        return BinOp(sql_op, _expr(e.args[0], ctx), _expr(e.args[1], ctx))
    if isinstance(e, EmptyNF):
        return _empty_probe(e.query, ctx)
    raise SqlGenerationError(f"cannot render base term {e!r}")


def _empty_probe(query: NormQuery, ctx: _ExprContext) -> SqlExpr:
    """empty L → a conjunction of NOT EXISTS probes, one per comprehension."""
    from repro.shred.shredded_ast import empty_probe_parts

    probes: list[SqlExpr] = [
        NotExists(_exists_core(generators, conditions, ctx))
        for generators, conditions in empty_probe_parts(query)
    ]
    if not probes:
        return Lit(True)  # empty(∅) is vacuously true
    return _conj_sql(probes)


def _exists_core(
    generators: tuple[Generator, ...],
    conditions: list[BaseExpr],
    ctx: _ExprContext,
) -> SelectCore:
    where = _where_sql(conditions, ctx)
    return SelectCore(
        items=(),
        from_items=tuple(TableRef(g.table, g.var) for g in generators),
        where=where,
    )


def _where_sql(
    conditions: list[BaseExpr], ctx: _ExprContext
) -> SqlExpr | None:
    exprs = [_expr(c, ctx) for c in conditions if c != TRUE_NF]
    if not exprs:
        return None
    return _conj_sql(exprs)


def _conj_sql(exprs: list[SqlExpr]) -> SqlExpr:
    result = exprs[0]
    for e in exprs[1:]:
        result = BinOp("AND", result, e)
    return result


def _z_column(position: int, label: str) -> str:
    """The exposed column name for expand(y_position, t).label."""
    return f"c{position}_{label}"


# --------------------------------------------------------------------------
# Flat scheme (let-inserted, ROW_NUMBER).


def _order_columns(
    table: str, schema: Schema, options: SqlOptions
) -> tuple[str, ...]:
    """Columns used to order a generator's rows deterministically."""
    table_schema = schema.table(table)
    if options.order_by_keys and table_schema.has_declared_key:
        return table_schema.key_columns
    return tuple(sorted(table_schema.column_names))


def _compile_flat(
    let_query: LetQuery,
    row_type: RecordType,
    schema: Schema,
    options: SqlOptions,
) -> CompiledSql:
    flat_columns = flatten_type(row_type, 1)
    names = tuple(c.name for c in flat_columns)
    ctes: list[tuple[str, SelectCore]] = []
    cte_by_body: dict[str, str] = {}  # rendered core → shared CTE name
    selects: list[SelectCore] = []

    for k, comp in enumerate(let_query.comps, start=1):
        z_alias = f"z{k}"
        ctx = _ExprContext(schema, z_alias if comp.outer else None)

        from_items: list = []
        if comp.outer is not None:
            outer_core = _outer_select(comp.outer, schema, options)
            if options.inline_with:
                from_items.append(SubqueryRef(outer_core, z_alias))
            else:
                from_items.append(
                    CteRef(
                        _cte_name(outer_core, ctes, cte_by_body, options),
                        z_alias,
                    )
                )
        from_items.extend(TableRef(g.table, g.var) for g in comp.generators)

        where = _where_sql([comp.where], ctx)
        inner_order = _inner_order(comp, z_alias, schema, options)

        items: list[SelectItem] = []
        for column in flat_columns:
            items.append(
                SelectItem(
                    _flat_column_expr(column, comp, ctx, inner_order),
                    column.name,
                )
            )
        if options.ordered:
            # §9 list semantics: branch position + per-branch row order,
            # appended after the data columns so decoding can ignore them.
            items.append(SelectItem(Lit(k), "__branch"))
            items.append(SelectItem(RowNumber(inner_order), "__ord"))
        selects.append(
            SelectCore(tuple(items), tuple(from_items), where)
        )

    if not selects:
        empty = _empty_select(names)
        if options.ordered:
            empty = SelectCore(
                empty.items
                + (SelectItem(Lit(0), "__branch"), SelectItem(Lit(0), "__ord")),
                empty.from_items,
                empty.where,
            )
        selects.append(empty)

    order_by = ("__branch", "__ord") if options.ordered else ()
    statement = Statement(tuple(ctes), tuple(selects), names, order_by)
    return CompiledSql(
        statement=statement,
        sql=render_statement(statement, options.pretty),
        row_type=row_type,
        width_fn=1,
        natural=False,
        columns=names,
    )


def _cte_name(
    outer_core: SelectCore,
    ctes: list[tuple[str, SelectCore]],
    cte_by_body: dict[str, str],
    options: SqlOptions,
) -> str:
    """Register an outer query as a CTE, sharing identical ones when the
    ``dedup_cte`` extension is on (sibling branches over the same prefix
    produce byte-identical outer queries, cf. q′2's two copies of q)."""
    if options.dedup_cte:
        from repro.sql.render import render_select

        body = render_select(outer_core)
        existing = cte_by_body.get(body)
        if existing is not None:
            return existing
        name = f"q{len(ctes) + 1}"
        cte_by_body[body] = name
        ctes.append((name, outer_core))
        return name
    name = f"q{len(ctes) + 1}"
    ctes.append((name, outer_core))
    return name


def _empty_select(names: tuple[str, ...]) -> SelectCore:
    """∅: a query with no comprehensions — SELECT NULL … WHERE 0."""
    return SelectCore(
        tuple(SelectItem(Lit(None), name) for name in names),
        (),
        Lit(False),
    )


def _outer_select(
    outer: OuterSubquery, schema: Schema, options: SqlOptions
) -> SelectCore:
    """q = for (Ḡout where Xout) return ⟨expand(ȳ), index⟩."""
    ctx = _ExprContext(schema)
    items: list[SelectItem] = []
    order: list[SqlExpr] = []
    for position, g in enumerate(outer.generators, start=1):
        for column, _ in schema.table(g.table).columns:
            items.append(
                SelectItem(Col(g.var, column), _z_column(position, column))
            )
        for column in _order_columns(g.table, schema, options):
            order.append(Col(g.var, column))
    items.append(SelectItem(RowNumber(tuple(order)), "idx"))
    return SelectCore(
        tuple(items),
        tuple(TableRef(g.table, g.var) for g in outer.generators),
        _where_sql([outer.where], ctx),
    )


def _inner_order(
    comp: LetComp, z_alias: str, schema: Schema, options: SqlOptions
) -> tuple[SqlExpr, ...]:
    """ORDER BY for the main subquery's ROW_NUMBER: the z-exposed columns,
    then the inner generators' columns, then z.idx (tie-break; see module
    docstring)."""
    order: list[SqlExpr] = []
    if comp.outer is not None:
        for position, g in enumerate(comp.outer.generators, start=1):
            for column in _order_columns(g.table, schema, options):
                order.append(Col(z_alias, _z_column(position, column)))
    for g in comp.generators:
        for column in _order_columns(g.table, schema, options):
            order.append(Col(g.var, column))
    if comp.outer is not None:
        order.append(Col(z_alias, "idx"))
    return tuple(order)


def _flat_column_expr(
    column: FlatColumn, comp: LetComp, ctx: _ExprContext, inner_order: tuple[SqlExpr, ...]
) -> SqlExpr:
    if column.path[0] == "outer":
        if column.kind == KIND_INDEX_TAG:
            return Lit(comp.body_outer.tag)
        if column.kind == KIND_INDEX_DYN:
            return _dyn_expr(comp.body_outer, ctx, inner_order)
        raise SqlGenerationError(f"unexpected outer column {column!r}")
    term = _descend(comp.body_value, column.path[1:])
    if column.kind == KIND_BASE:
        if not isinstance(term, BaseExpr):
            raise SqlGenerationError(f"expected base term at {column.path}")
        return _expr(term, ctx)
    if not isinstance(term, LetIndex):
        raise SqlGenerationError(f"expected an index at {column.path}")
    if column.kind == KIND_INDEX_TAG:
        return Lit(term.tag)
    return _dyn_expr(term, ctx, inner_order)


def _dyn_expr(
    index: LetIndex, ctx: _ExprContext, inner_order: tuple[SqlExpr, ...]
) -> SqlExpr:
    if isinstance(index.dyn, IndexPrim):
        return RowNumber(inner_order)
    if isinstance(index.dyn, ZIndex):
        if ctx.z_alias is None:
            raise SqlGenerationError("z.2 outside a let body")
        return Col(ctx.z_alias, "idx")
    if isinstance(index.dyn, int):
        return Lit(index.dyn)
    raise SqlGenerationError(f"bad dynamic index {index.dyn!r}")


def _descend(term: object, labels: tuple[str, ...]) -> object:
    current = term
    for label in labels:
        if not isinstance(current, SRecord):
            raise SqlGenerationError(
                f"cannot descend into non-record term at label {label!r}"
            )
        current = current.field(label)
    return current


# --------------------------------------------------------------------------
# Natural scheme (§6.1): plain SQL, key-based indexes, NULL padding.


def _key_arity(generators: tuple[Generator, ...], schema: Schema) -> int:
    return sum(
        len(schema.table(g.table).key_columns) for g in generators
    )


def _compile_natural(
    shredded: ShredQuery,
    row_type: RecordType,
    schema: Schema,
    options: SqlOptions,
) -> CompiledSql:
    outer_width = 1
    inner_width = 1
    for comp in shredded.comps:
        outer_generators = tuple(
            g for block in comp.blocks[:-1] for g in block.generators
        )
        outer_width = max(outer_width, _key_arity(outer_generators, schema))
        inner_width = max(
            inner_width, _key_arity(comp.all_generators, schema)
        )

    def width_fn(path: tuple[str, ...]) -> int:
        return outer_width if path == ("outer",) else inner_width

    flat_columns = flatten_type(row_type, width_fn)
    names = tuple(c.name for c in flat_columns)
    selects: list[SelectCore] = []
    ctx = _ExprContext(schema)

    for comp in shredded.comps:
        generators = comp.all_generators
        conditions = [block.where for block in comp.blocks]
        outer_generators = tuple(
            g for block in comp.blocks[:-1] for g in block.generators
        )
        outer_keys = _key_exprs(outer_generators, schema, outer_width)
        inner_keys = _key_exprs(generators, schema, inner_width)

        items: list[SelectItem] = []
        for column in flat_columns:
            items.append(
                SelectItem(
                    _natural_column_expr(
                        column, comp, ctx, outer_keys, inner_keys
                    ),
                    column.name,
                )
            )
        selects.append(
            SelectCore(
                tuple(items),
                tuple(TableRef(g.table, g.var) for g in generators),
                _where_sql(conditions, ctx),
            )
        )

    if not selects:
        selects.append(_empty_select(names))

    statement = Statement((), tuple(selects), names)
    return CompiledSql(
        statement=statement,
        sql=render_statement(statement, options.pretty),
        row_type=row_type,
        width_fn=width_fn,
        natural=True,
        columns=names,
    )


def _key_exprs(
    generators: tuple[Generator, ...], schema: Schema, width: int
) -> tuple[SqlExpr, ...]:
    exprs: list[SqlExpr] = []
    for g in generators:
        for column in schema.table(g.table).key_columns:
            exprs.append(Col(g.var, column))
    while len(exprs) < width:
        exprs.append(Lit(None))
    return tuple(exprs)


def _natural_column_expr(
    column: FlatColumn,
    comp: ShredComp,
    ctx: _ExprContext,
    outer_keys: tuple[SqlExpr, ...],
    inner_keys: tuple[SqlExpr, ...],
) -> SqlExpr:
    if column.path[0] == "outer":
        if column.kind == KIND_INDEX_TAG:
            return Lit(comp.outer.tag)
        if column.kind == KIND_INDEX_DYN:
            return outer_keys[column.dyn_position - 1]
        raise SqlGenerationError(f"unexpected outer column {column!r}")
    term = _descend(comp.inner, column.path[1:])
    if column.kind == KIND_BASE:
        if not isinstance(term, BaseExpr) or isinstance(term, IndexRef):
            raise SqlGenerationError(f"expected base term at {column.path}")
        return _expr(term, ctx)
    if not isinstance(term, IndexRef) or term.kind != IN:
        raise SqlGenerationError(f"expected a·in at {column.path}")
    if column.kind == KIND_INDEX_TAG:
        return Lit(term.tag)
    return inner_keys[column.dyn_position - 1]
