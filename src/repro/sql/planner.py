"""Compile-once SQL planner: AST → :class:`PreparedStatement`.

This is the layer H-Store (and therefore S-Store) leans on for its core
performance premise: a stored procedure's SQL is planned **once** and the
resulting plan is executed many times with fresh parameters.  Planning does
all name resolution, expression compilation (to *generated Python code*,
see :mod:`repro.sql.compile`), and — critically — access-path and
join-algorithm selection up front, so the execution hot path is a chain of
precompiled single-frame callables with no AST walking, no string
handling, and no dictionary lookups per row.

The physical choices are priced in :mod:`repro.sql.costing`; this module
compiles each statement kind around them.  A point statement — a plan
whose scan probes a unique index — runs as one probe in one frame
(:func:`_point_runner`), and so does an ``INSERT ... ON CONFLICT``
upsert (:func:`_plan_upsert`).  Other UPDATEs and DELETEs run the same
access-path machinery, then **materialise the matching rowids before the
first mutation** — this is what lets :meth:`Table.scan` iterate without a
defensive copy.

Every plan carries a ``plan_info`` tree (operator, estimated rows, cost,
alternatives considered) that ``Database.explain`` surfaces with actual
row counts.

Entry points: :func:`prepare` (SQL text → prepared statement) and
:func:`plan` (parsed AST → prepared statement).  Statements are planned
against a catalog for schema information but re-resolve tables by name at
run time through the :class:`~repro.sql.executor.ExecutionContext`, so one
prepared statement works on every partition with the same schema.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from ..common.errors import PlanningError
from ..storage.catalog import Catalog
from ..storage.schema import is_hidden_column
from ..storage.table import Table
from .ast import (
    AGGREGATE_FUNCTIONS,
    ColumnRef,
    Delete,
    Expr,
    FuncCall,
    Insert,
    Literal,
    Select,
    SelectItem,
    Statement,
    Update,
    contains_aggregate,
    max_param_index,
    walk,
)
from .compile import compile_expr, compile_predicate, compile_row
from .costing import (
    _OTHER_SELECTIVITY,
    _VALUE_SCOPE,
    PlanEnv,
    _base_column,
    choose_join,
    choose_scan,
    combine_conjuncts,
    split_conjuncts,
)
from .executor import ExecutionContext, IndexScan, ResultSet, null_safe_key, sort_rows
from .expressions import Compiled, Scope, SlotRef, transform
from .functions import make_accumulator
from .parser import parse

Runner = Callable[[ExecutionContext], ResultSet]


class PreparedStatement:
    """An immutable, compiled statement ready for repeated execution.

    Holds the original SQL (the plan-cache key), the statement kind
    (``select``/``insert``/``update``/``delete``), the number of ``?``
    parameters the statement requires, the output column names
    (``columns``; empty for DML — known statically at plan time), a
    compiled runner closure, and ``plan_info`` — the JSON-safe plan tree
    (access path, join algorithms, estimated rows/costs) that
    ``Database.explain`` renders.

    ``epoch`` and ``stats_version`` are stamped by the
    :class:`~repro.engine.Database` facade at prepare time (both ``None``
    for statements planned outside a Database); ``row_bands`` records, per
    table the plan was costed against, the live row counts between which
    that costing still holds.  Together they are the one plan-reuse rule,
    :meth:`fresh`.  Only a schema-epoch mismatch **rejects** execution (a
    stale plan could read the wrong columns); a statistics or row-count
    change merely re-plans at the next reuse — such a plan is suboptimal,
    never incorrect.

    ``run_many(ctx, param_rows)`` is the batch binder of ``INSERT ...
    VALUES`` and the upsert (else None): it applies every parameter row as
    **one** statement execution and returns the rowcount; every
    ``executemany`` uses it when present.
    """

    __slots__ = (
        "sql",
        "kind",
        "param_count",
        "columns",
        "epoch",
        "stats_version",
        "row_bands",
        "plan_info",
        "_runner",
        "run_many",
    )

    def __init__(
        self,
        sql: str,
        kind: str,
        param_count: int,
        runner: Runner,
        columns: tuple[str, ...] = (),
        run_many: Optional[Callable[[ExecutionContext, Iterable[Sequence]], int]] = None,
        plan_info: Optional[dict[str, Any]] = None,
    ):
        self.sql = sql
        self.kind = kind
        self.param_count = param_count
        self.columns = columns
        self.epoch: Optional[int] = None
        self.stats_version: Optional[int] = None
        self.row_bands: tuple[tuple[Table, float, int], ...] = ()
        self.plan_info: dict[str, Any] = plan_info if plan_info is not None else {"kind": kind}
        self._runner = runner
        self.run_many = run_many

    def execute(self, ctx: ExecutionContext) -> ResultSet:
        if len(ctx.params) < self.param_count:
            _check_param_count(ctx.params, self.param_count, self.sql)  # raises
        return self._runner(ctx)

    def fresh(self, epoch: int, stats_version: int) -> bool:
        """Whether this plan may be reused as-is: planned under the current
        schema ``epoch`` and ``stats_version``, and every table it was
        costed against still inside its row band (a ×``PLAN_ROW_BAND``
        window around the planned count, floored on both sides).  Checked
        wherever plans are reused — a procedure's pin table and the plan
        cache; a stale statement is re-planned, never patched."""
        if self.epoch != epoch or self.stats_version != stats_version:
            return False
        for table, lowest, highest in self.row_bands:
            if not lowest <= table.row_count() <= highest:
                return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PreparedStatement({self.kind}, {self.sql!r})"


def _check_param_count(params: Sequence[Any], param_count: int, sql: str) -> None:
    if len(params) < param_count:
        raise PlanningError(
            f"statement requires {param_count} parameter(s), "
            f"got {len(params)}: {sql!r}"
        )


def prepare(
    sql: str,
    catalog: Catalog,
    *,
    stats=None,
    force_join: Optional[str] = None,
) -> PreparedStatement:
    """Lex + parse + plan ``sql`` against ``catalog``.

    ``stats`` is a :class:`~repro.engine.stats.StatsCatalog` (cardinality
    and selectivity estimates; defaults apply without one).  ``force_join``
    pins every join step to one algorithm — ``"inl"``, ``"hash"``, or
    ``"bnl"`` — falling back to the nearest feasible
    algorithm when the forced one cannot run the join shape.
    """
    return plan(parse(sql), catalog, sql=sql, stats=stats, force_join=force_join)


def plan(
    stmt: Statement,
    catalog: Catalog,
    *,
    sql: str = "",
    stats=None,
    force_join: Optional[str] = None,
) -> PreparedStatement:
    """Compile a parsed statement into a :class:`PreparedStatement`."""
    env = PlanEnv(stats, force_join)
    if isinstance(stmt, Select):
        prepared = _plan_select(stmt, catalog, sql, env)
    elif isinstance(stmt, Insert):
        prepared = _plan_insert(stmt, catalog, sql, env)
    elif isinstance(stmt, (Update, Delete)):
        prepared = _plan_write(stmt, catalog, sql, env)
    else:
        raise PlanningError(f"cannot plan statement of type {type(stmt).__name__}")
    prepared.row_bands = env.row_bands()
    return prepared


def _aggregate_input(call: FuncCall) -> Expr:
    """The value one aggregate call accumulates per row; ``COUNT(*)``
    counts ``TRUE``."""
    if call.star:
        return Literal(True)
    if len(call.args) != 1:
        raise PlanningError(f"aggregate {call.name.upper()}() takes exactly one argument")
    return call.args[0]


def _accumulators(calls: Sequence[FuncCall]) -> list:
    """A fresh accumulator per aggregate call, for one new group."""
    return [make_accumulator(c.name, star=c.star, distinct=c.distinct) for c in calls]


def _resolve_columns(expr: Expr, scope: Scope) -> Expr:
    """Rewrite every :class:`ColumnRef` into its resolved :class:`SlotRef`.

    Grouped queries match expressions by AST equality (``GROUP BY g`` must
    cover both ``g`` and ``t.g`` in the select list); resolving columns to
    slots first makes that matching semantic rather than syntactic.
    """
    def resolve(node: Expr) -> Optional[Expr]:
        if isinstance(node, ColumnRef):
            return SlotRef(scope.resolve(node.name, node.qualifier))
        return None

    return transform(expr, resolve)


def _collect_aggregates(exprs: Sequence[Optional[Expr]]) -> list[FuncCall]:
    """Aggregate calls from the given (resolved) expressions, in first-seen
    order, deduplicated by AST equality."""
    seen: list[FuncCall] = []
    for expr in exprs:
        if expr is None:
            continue
        for node in walk(expr):
            if isinstance(node, FuncCall) and node.name in AGGREGATE_FUNCTIONS:
                if node not in seen:
                    seen.append(node)
    return seen


def _rewrite_grouped(expr: Expr, mapping: dict[Expr, int], scope: Scope, what: str) -> Expr:
    """Rewrite ``expr`` to read the grouped row.

    Subtrees matching a group key or a collected aggregate call — compared
    by *resolved* AST (see :func:`_resolve_columns`), so ``GROUP BY g``
    covers both ``g`` and ``t.g`` — become :class:`SlotRef`\\ s into the
    grouped row.  A column reference outside any matched subtree is the
    classic ungrouped-column error, reported with the offending name.
    """
    def rewrite(node: Expr) -> Optional[Expr]:
        try:
            key = _resolve_columns(node, scope)
        except PlanningError:
            key = None  # contains an unresolvable column; descend to its leaf
        if key is not None:
            slot = mapping.get(key)
            if slot is not None:
                return SlotRef(slot)
        if isinstance(node, ColumnRef):
            try:
                scope.resolve(node.name, node.qualifier)
            except PlanningError as exc:
                raise PlanningError(f"{what}: {exc}") from None
            raise PlanningError(
                f"{what}: column {node.display()!r} must appear in GROUP BY "
                f"or inside an aggregate"
            )
        if isinstance(node, FuncCall) and node.name in AGGREGATE_FUNCTIONS:
            try:
                _resolve_columns(node, scope)
            except PlanningError as exc:
                raise PlanningError(f"{what}: {exc}") from None
            raise PlanningError(f"{what}: aggregates cannot be nested")
        return None

    return transform(expr, rewrite)


def _output_name(item: SelectItem, position: int) -> str:
    if item.alias:
        return item.alias.lower()
    if isinstance(item.expr, ColumnRef):
        return item.expr.name.lower()
    if isinstance(item.expr, FuncCall):
        return item.expr.name.lower()
    return f"expr_{position}"


def _compile_limit(expr: Optional[Expr], what: str):
    if expr is None:
        return None
    fn = compile_expr(expr, _VALUE_SCOPE)

    def bound(params) -> int:
        value = fn((), params)
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise PlanningError(f"{what} must be a non-negative integer, got {value!r}")
        return value

    return bound


def _plan_select(stmt: Select, catalog: Catalog, sql: str, env: PlanEnv) -> PreparedStatement:
    param_count = max_param_index(stmt)

    # SELECT without FROM: evaluate the items once against an empty row.
    if stmt.table is None:
        if any(item.star for item in stmt.items):
            raise PlanningError("SELECT * requires a FROM clause")
        if stmt.group_by or stmt.having is not None or stmt.joins:
            raise PlanningError("GROUP BY/HAVING/JOIN require a FROM clause")
        names = tuple(_output_name(item, i) for i, item in enumerate(stmt.items))
        build = compile_row([item.expr for item in stmt.items], _VALUE_SCOPE)
        where_pred = (
            compile_predicate(stmt.where, _VALUE_SCOPE)
            if stmt.where is not None
            else None
        )
        const_limit = _compile_limit(stmt.limit, "LIMIT")
        const_offset = _compile_limit(stmt.offset, "OFFSET")

        def run_const(ctx: ExecutionContext) -> ResultSet:
            params = ctx.params
            # WHERE before projection: a false filter must suppress the row
            # (and any errors its select list would raise).
            if where_pred is not None and not where_pred((), params):
                out: list[tuple] = []
            else:
                out = [build((), params)]
            if const_offset is not None:
                out = out[const_offset(params):]
            if const_limit is not None:
                out = out[: const_limit(params)]
            return ResultSet(names, out)

        plan_info = {"kind": "select", "scan": None, "estimated_rows": 1}
        return PreparedStatement(
            sql, "select", param_count, run_const, columns=names, plan_info=plan_info
        )

    # -- resolve FROM sources ------------------------------------------------
    scope = Scope()
    base_table = catalog.table(stmt.table.name)
    base_binding = stmt.table.binding
    scope.add_source(base_binding, base_table.schema)
    base_arity = base_table.schema.arity()

    join_specs: list[tuple] = []
    for join in stmt.joins:
        right = catalog.table(join.table.name)
        right_offset = scope.add_source(join.table.binding, right.schema)
        if join.on is None and join.kind == "inner":
            raise PlanningError("INNER JOIN requires an ON condition")
        join_specs.append((join, right, right_offset))

    # -- WHERE: push base-table conjuncts into the scan ----------------------
    conjuncts = split_conjuncts(stmt.where)
    if join_specs:
        base_only, post_join = [], []
        for c in conjuncts:
            if all(
                _base_column(n, scope, base_arity, base_table.schema) is not None
                for n in walk(c)
                if isinstance(n, ColumnRef)
            ):
                base_only.append(c)
            else:
                post_join.append(c)
    else:
        base_only, post_join = conjuncts, []

    if any(
        isinstance(n, FuncCall) and n.name in AGGREGATE_FUNCTIONS
        for c in conjuncts
        for n in walk(c)
    ):
        raise PlanningError("aggregates are not allowed in WHERE")

    scan, est, scan_info = choose_scan(
        None, base_table, scope, base_arity, env, extra_conjuncts=base_only
    )
    scan_info["op_id"] = 0

    join_steps = []
    join_infos: list[dict[str, Any]] = []
    for op_id, (join, right, right_offset) in enumerate(join_specs, start=1):
        step, est, jinfo = choose_join(join, right, right_offset, scope, env, est)
        jinfo["op_id"] = op_id
        join_steps.append(step)
        join_infos.append(jinfo)

    post_pred = combine_conjuncts(post_join, scope)
    est *= _OTHER_SELECTIVITY ** len(post_join)

    # -- grouping / aggregation ---------------------------------------------
    agg_exprs: list[Expr] = [item.expr for item in stmt.items if not item.star]
    if stmt.having is not None:
        agg_exprs.append(stmt.having)
    agg_exprs.extend(o.expr for o in stmt.order_by)
    grouped = bool(stmt.group_by) or any(contains_aggregate(e) for e in agg_exprs)

    if grouped:
        if any(item.star for item in stmt.items):
            raise PlanningError("SELECT * cannot be combined with GROUP BY / aggregates")
        # Everything is matched in resolved-AST space so that syntactically
        # different spellings of the same column (``g`` vs ``t.g``) unify.
        resolved_keys = [_resolve_columns(g, scope) for g in stmt.group_by]
        resolved_for_aggs = []
        for e in agg_exprs:
            try:
                resolved_for_aggs.append(_resolve_columns(e, scope))
            except PlanningError:
                # e.g. an ORDER BY select-list alias; handled by _compile_order
                continue
        agg_calls = _collect_aggregates(resolved_for_aggs)
        group_key = compile_row(resolved_keys, scope)
        agg_inputs = compile_row([_aggregate_input(call) for call in agg_calls], scope)
        mapping: dict[Expr, int] = {}
        for i, g in enumerate(resolved_keys):
            mapping.setdefault(g, i)
        for i, call in enumerate(agg_calls):
            mapping[call] = len(resolved_keys) + i

        def over_group(expr: Expr, what: str) -> Compiled:
            return compile_expr(_rewrite_grouped(expr, mapping, scope, what), _VALUE_SCOPE)

        def over_group_pred(expr: Expr, what: str):
            return compile_predicate(
                _rewrite_grouped(expr, mapping, scope, what), _VALUE_SCOPE
            )

        out_names = tuple(_output_name(item, i) for i, item in enumerate(stmt.items))
        project = compile_row(
            [_rewrite_grouped(item.expr, mapping, scope, "select list") for item in stmt.items],
            _VALUE_SCOPE,
        )
        having_pred = (
            over_group_pred(stmt.having, "HAVING") if stmt.having is not None else None
        )
        order_fns = _compile_order(stmt, out_names, lambda e: over_group(e, "ORDER BY"))
    else:
        if stmt.having is not None:
            raise PlanningError("HAVING requires GROUP BY or an aggregate")
        out_names_list: list[str] = []
        out_exprs: list[Expr] = []
        for i, item in enumerate(stmt.items):
            if item.star:
                if item.star_qualifier:
                    if item.star_qualifier.lower() not in scope.sources:
                        raise PlanningError(
                            f"unknown table or alias {item.star_qualifier!r}"
                        )
                    columns = scope.columns_of(item.star_qualifier)
                else:
                    columns = scope.all_columns()
                # ``SELECT *`` projects the *declared* schema: engine-managed
                # metadata columns (stream batch ids, window staging flags)
                # stay hidden unless referenced by explicit name.
                columns = [(n, s) for n, s in columns if not is_hidden_column(n)]
                for name, slot in columns:
                    out_names_list.append(name)
                    out_exprs.append(SlotRef(slot))
            else:
                out_names_list.append(_output_name(item, i))
                out_exprs.append(item.expr)
        out_names = tuple(out_names_list)
        project = compile_row(out_exprs, scope)
        having_pred = group_key = agg_inputs = agg_calls = None
        order_fns = _compile_order(stmt, out_names, lambda e: compile_expr(e, scope))

    limit_fn = _compile_limit(stmt.limit, "LIMIT")
    offset_fn = _compile_limit(stmt.offset, "OFFSET")
    distinct = stmt.distinct
    descending = tuple(o.descending for o in stmt.order_by)

    plan_info: dict[str, Any] = {
        "kind": "select",
        "scan": scan_info,
        "joins": join_infos,
        "estimated_rows": int(round(est)),
        "grouped": grouped,
        "distinct": distinct,
        "order_by": bool(stmt.order_by),
        "post_join_filter": len(post_join),
    }

    if (
        scan_info.get("unique")
        and not join_steps and not grouped and not distinct and not order_fns
        and limit_fn is None and offset_fn is None
    ):
        point = _point_runner("select", scan, out_names, project)
        return PreparedStatement(
            sql, "select", param_count, point, columns=out_names, plan_info=plan_info
        )

    def run(ctx: ExecutionContext) -> ResultSet:
        params = ctx.params
        rows: Iterator[tuple] = (row for _rowid, row in scan(ctx))
        counts = ctx.explain_counts
        if counts is not None:
            rows = _counted(rows, counts, 0)
        for op_id, step in enumerate(join_steps, start=1):
            rows = step.apply(rows, ctx)
            if counts is not None:
                rows = _counted(rows, counts, op_id)
        if post_pred is not None:
            rows = (r for r in rows if post_pred(r, params))

        if grouped:
            groups: dict[tuple, list] = {}
            for row in rows:
                key = group_key(row, params)
                accs = groups.get(key)
                if accs is None:
                    accs = groups[key] = _accumulators(agg_calls)
                for acc, value in zip(accs, agg_inputs(row, params)):
                    acc.add(value)
            if not groups and not stmt.group_by:
                # global aggregate over an empty input still yields one row
                groups[()] = _accumulators(agg_calls)
            source_rows: Iterator[tuple] = (
                key + tuple(acc.result() for acc in accs)
                for key, accs in groups.items()
            )
            if having_pred is not None:
                source_rows = (r for r in source_rows if having_pred(r, params))
        else:
            source_rows = rows

        seen: Optional[set] = set() if distinct else None
        if order_fns:
            pairs: list[tuple[tuple, tuple]] = []
            for row in source_rows:
                out = project(row, params)
                if seen is not None:
                    if out in seen:
                        continue
                    seen.add(out)
                key = tuple(
                    null_safe_key(out[slot] if is_output else fn(row, params))
                    for is_output, slot, fn in order_fns
                )
                pairs.append((key, out))
            out_rows = sort_rows(pairs, descending)
        else:
            # No ORDER BY: emit directly (no per-row sort-key allocation)
            # and stop consuming the pipeline once LIMIT+OFFSET rows are
            # collected — a bounded query must not pay for the whole table.
            bound = None
            if limit_fn is not None:
                bound = limit_fn(params) + (offset_fn(params) if offset_fn is not None else 0)
            out_rows = []
            for row in source_rows:
                out = project(row, params)
                if seen is not None:
                    if out in seen:
                        continue
                    seen.add(out)
                out_rows.append(out)
                if bound is not None and len(out_rows) >= bound:
                    close = getattr(source_rows, "close", None)
                    if close is not None:
                        close()  # flush scan counters deterministically
                    break

        if offset_fn is not None:
            out_rows = out_rows[offset_fn(params):]
        if limit_fn is not None:
            out_rows = out_rows[: limit_fn(params)]
        return ResultSet(out_names, out_rows)

    return PreparedStatement(
        sql, "select", param_count, run, columns=out_names, plan_info=plan_info
    )


def _counted(rows: Iterator[tuple], counts: dict[int, int], op_id: int) -> Iterator[tuple]:
    """Pass ``rows`` through and add how many went by to ``counts[op_id]``
    (EXPLAIN's actual rows) — in a ``finally``, so a LIMIT that closes the
    pipeline early still counts."""
    n = 0
    try:
        for row in rows:
            n += 1
            yield row
    finally:
        counts[op_id] = counts.get(op_id, 0) + n


def _compile_order(
    stmt: Select,
    out_names: tuple[str, ...],
    compile_fn: Callable[[Expr], Compiled],
) -> list[tuple[bool, int, Optional[Compiled]]]:
    """Compile ORDER BY items.

    Each entry is ``(is_output, slot, fn)``: output-relative keys (select
    aliases and 1-based ordinals) read slot ``slot`` of the projected row;
    expression keys evaluate ``fn`` against the pre-projection row.
    """
    order: list[tuple[bool, int, Optional[Compiled]]] = []
    for item in stmt.order_by:
        expr = item.expr
        if isinstance(expr, Literal) and isinstance(expr.value, int) and not isinstance(expr.value, bool):
            ordinal = expr.value
            if not 1 <= ordinal <= len(out_names):
                raise PlanningError(
                    f"ORDER BY position {ordinal} is out of range (1..{len(out_names)})"
                )
            order.append((True, ordinal - 1, None))
            continue
        if isinstance(expr, ColumnRef) and expr.qualifier is None and expr.name.lower() in out_names:
            name = expr.name.lower()
            if out_names.count(name) > 1:
                raise PlanningError(
                    f"ORDER BY {name!r} is ambiguous: several output columns "
                    f"share that name; qualify it or use an ordinal"
                )
            order.append((True, out_names.index(name), None))
            continue
        order.append((False, -1, compile_fn(expr)))
    return order


# ---------------------------------------------------------------------------
# INSERT planning
# ---------------------------------------------------------------------------


def _plan_insert(stmt: Insert, catalog: Catalog, sql: str, env: PlanEnv) -> PreparedStatement:
    table = catalog.table(stmt.table.name)
    schema = table.schema
    param_count = max_param_index(stmt)

    if stmt.columns:
        target_cols = tuple(c.lower() for c in stmt.columns)
        slots = [schema.position(c) for c in target_cols]  # raises on unknown columns
        if len(set(target_cols)) != len(target_cols):
            raise PlanningError(f"duplicate column in INSERT column list: {target_cols}")
    else:
        target_cols = schema.column_names()
        slots = list(range(len(target_cols)))

    def full_row(values: Sequence[Expr]) -> list[Expr]:
        """The full table row: target column ``i`` takes ``values[i]``,
        every other column its default (``Table.insert`` still coerces
        types and enforces NOT NULL/unique constraints)."""
        given = dict(zip(slots, values))
        return [given.get(i, Literal(col.default)) for i, col in enumerate(schema.columns)]

    def build_row(values: Sequence[Expr]):
        return compile_row(full_row(values), _VALUE_SCOPE)  # one generated frame

    table_name = table.name
    plan_info = {"kind": "insert", "table": table_name}

    if stmt.select is not None:
        inner = _plan_select(stmt.select, catalog, sql, env)
        if len(inner.columns) != len(target_cols):
            raise PlanningError(
                f"INSERT ... SELECT arity mismatch: {len(target_cols)} target "
                f"column(s), SELECT produces {len(inner.columns)}"
            )
        build = build_row([SlotRef(i) for i in range(len(target_cols))])

        def run_insert_select(ctx: ExecutionContext) -> ResultSet:
            result = inner.execute(ctx)  # materialised — safe for self-insert
            t = ctx.write_table(table_name)
            params = ctx.params
            n = len(ctx.insert_many(t, [build(row, params) for row in result.rows]))
            return ResultSet((), [], rowcount=n)

        plan_info["select"] = inner.plan_info
        return PreparedStatement(
            sql, "insert", param_count, run_insert_select, plan_info=plan_info
        )

    for row in stmt.rows:
        if len(row) != len(target_cols):
            raise PlanningError(
                f"INSERT row has {len(row)} value(s), expected {len(target_cols)}"
            )
    if stmt.conflict:
        return _plan_upsert(stmt, table, full_row(stmt.rows[0]), sql, param_count, plan_info)
    builders = [build_row(row) for row in stmt.rows]

    def run_insert(ctx: ExecutionContext) -> ResultSet:
        t = ctx.write_table(table_name)
        params = ctx.params
        if len(builders) == 1:  # Table.insert: a bulk insert re-sorts ordered indexes
            ctx.insert(t, builders[0]((), params))
            return ResultSet((), [], rowcount=1)
        n = len(ctx.insert_many(t, [build((), params) for build in builders]))
        return ResultSet((), [], rowcount=n)

    def run_insert_many(ctx: ExecutionContext, param_rows: Iterable[Sequence]) -> int:
        """Vectorized batch binder for ``executemany``: bind every parameter
        row, then apply the whole batch as **one** bulk insert (one undo-log
        range record, per-row work in tight loops)."""
        t = ctx.write_table(table_name)
        full_rows = []
        for params in param_rows:
            _check_param_count(params, param_count, sql)
            for build in builders:
                full_rows.append(build((), params))
        return len(ctx.insert_many(t, full_rows))

    return PreparedStatement(sql, "insert", param_count, run_insert,
                             run_many=run_insert_many, plan_info=plan_info)


def _set_row(assignments, schema, scope: Scope):
    """The updated row in one generated frame: SET values, else the old
    slots (an UPDATE's, or an upsert's DO UPDATE)."""
    assigned: dict[int, Expr] = {}
    for a in assignments:
        pos = schema.position(a.column)
        if pos in assigned:
            raise PlanningError(f"column {a.column!r} assigned twice in UPDATE")
        assigned[pos] = a.value
    return compile_row([assigned.get(i, SlotRef(i)) for i in range(schema.arity())], scope)


def _plan_upsert(
    stmt: Insert, table: Table, values: list[Expr], sql: str, param_count: int,
    plan_info: dict[str, Any],
) -> PreparedStatement:
    """``INSERT ... VALUES (row) ON CONFLICT (key) DO UPDATE SET ...
    [RETURNING cols]`` in one frame on one probe of the unique index the
    conflict target names: a visible row with the VALUES row's key gets
    the SET row (over its columns and the parameters), else the VALUES
    row is inserted.  The key comes from the parameters; only when the
    insert path's coercion changes it (``'7'`` for an INTEGER key) is the
    coerced key probed again.  ``run_many`` applies rows in order, so a
    key repeated in a batch accumulates."""
    schema, table_name = table.schema, table.name
    index = table.find_equality_index(stmt.conflict)  # the exact key set
    if index is None or not index.unique or len(set(stmt.conflict)) != len(stmt.conflict):
        raise PlanningError(f"ON CONFLICT ({', '.join(stmt.conflict)}) names no PRIMARY "
                            f"KEY or UNIQUE index of table {table_name!r}")
    index_name = index.name
    key_slots = [schema.position(c) for c in index.key_columns]
    key_fn = compile_row([values[i] for i in key_slots], _VALUE_SCOPE)
    stored_key = compile_row([SlotRef(i) for i in key_slots], _VALUE_SCOPE)
    build = compile_row(values, _VALUE_SCOPE)
    scope = Scope()
    scope.add_source(table_name, schema)
    set_row = _set_row(stmt.on_conflict, schema, scope)
    returning = tuple(c.lower() for c in stmt.returning)
    project = compile_row([SlotRef(schema.position(c)) for c in returning], _VALUE_SCOPE)

    def upsert(ctx: ExecutionContext, t: Table, params: Sequence[Any], stored=None) -> list:
        """Apply one parameter row to ``t``; returns the RETURNING rows."""
        key = key_fn((), params) if stored is None else stored
        ctx.index_probes += 1
        rowid = None if None in key else next(t.index(index_name).lookup(key), None)
        old = None if rowid is None else t.get(rowid)
        if old is None or not t.is_visible(old):
            row = t.schema.coerce_row(build((), params))
            if stored is None and stored_key(row, ()) != key:
                return upsert(ctx, t, params, stored_key(row, ()))  # probe the coerced key
            rowid = ctx.insert(t, row)
        else:
            ctx.rows_scanned += 1
            ctx.update(t, rowid, set_row(old, params))
        return [project(t.get(rowid), ())] if returning else []

    def run_upsert(ctx: ExecutionContext) -> ResultSet:
        rows = upsert(ctx, ctx.write_table(table_name), ctx.params)
        return ResultSet(returning, rows, rowcount=1)

    def run_upsert_many(ctx: ExecutionContext, param_rows: Iterable[Sequence]) -> int:
        t, n = ctx.write_table(table_name), 0
        for n, params in enumerate(param_rows, 1):
            _check_param_count(params, param_count, sql)
            upsert(ctx, t, params)
        return n

    plan_info["conflict"] = {"op": "IndexScan", "table": table_name,
                             "index": index_name, "unique": True}
    return PreparedStatement(sql, "insert", param_count, run_upsert, columns=returning,
                             run_many=run_upsert_many, plan_info=plan_info)


# ---------------------------------------------------------------------------
# Point statements — one unique-key probe, in one frame
# ---------------------------------------------------------------------------


def _point_runner(
    kind: str,
    scan: IndexScan,
    columns: tuple[str, ...] = (),
    build: Optional[Callable[[tuple, Sequence[Any]], tuple]] = None,
) -> Runner:
    """The runner of a SELECT, UPDATE or DELETE whose plan probes a unique
    index (``scan_info["unique"]``), so at most one row matches: guard,
    key, probe, visibility, residual, then project / update / delete, with
    no scan generator, and counters bumped exactly as :class:`IndexScan`
    bumps them.  ``build(row, params)`` is the SELECT's projection or the
    UPDATE's new row."""
    table_name, index_name = scan.table_name, scan.index_name
    key_fn, pred = scan.key_fn, scan.pred
    writes = kind != "select"

    def run_point(ctx: ExecutionContext) -> ResultSet:
        # the access guard admits writes to plain tables only, and those
        # it never hides from reads: one guarded lookup serves both
        table = ctx.write_table(table_name) if writes else ctx.read_table(table_name)
        params = ctx.params
        key = key_fn((), params)
        ctx.index_probes += 1
        if None in key:
            return ResultSet(columns, [])  # col = NULL never matches
        rowid = next(table.index(index_name).lookup(key), None)
        row = None if rowid is None else table.get(rowid)
        if row is not None:
            if not table.is_visible(row):
                row = None
            else:
                ctx.rows_scanned += 1
                if pred is not None and not pred(row, params):
                    row = None
        counts = ctx.explain_counts
        if counts is not None:
            counts[0] = counts.get(0, 0) + (row is not None)
        if row is None:
            return ResultSet(columns, [])
        if kind == "select":
            return ResultSet(columns, [build(row, params)])
        if kind == "update":
            ctx.update(table, rowid, build(row, params))
        else:
            ctx.delete(table, rowid)
        return ResultSet((), [], rowcount=1)

    return run_point


# ---------------------------------------------------------------------------
# UPDATE / DELETE planning — index-aware, materialise-then-mutate
# ---------------------------------------------------------------------------


def _plan_write(
    stmt: Update | Delete, catalog: Catalog, sql: str, env: PlanEnv
) -> PreparedStatement:
    """UPDATE and DELETE: one access path, then a point runner or the
    materialise-then-mutate loop."""
    kind = "update" if isinstance(stmt, Update) else "delete"
    table = catalog.table(stmt.table.name)
    schema = table.schema
    param_count = max_param_index(stmt)

    scope = Scope()
    scope.add_source(stmt.table.binding, schema)
    scan, est, scan_info = choose_scan(
        stmt.where, table, scope, schema.arity(), env
    )
    scan_info["op_id"] = 0

    new_row = _set_row(stmt.assignments, schema, scope) if kind == "update" else None

    table_name = table.name
    plan_info = {
        "kind": kind,
        "table": table_name,
        "scan": scan_info,
        "estimated_rows": int(round(est)),
    }
    if scan_info.get("unique"):
        point = _point_runner(kind, scan, build=new_row)
        return PreparedStatement(sql, kind, param_count, point, plan_info=plan_info)

    def run(ctx: ExecutionContext) -> ResultSet:
        t = ctx.write_table(table_name)
        params = ctx.params
        # Materialise matches before the first mutation: Table.scan() hands
        # out a live iterator over its row dict (see table.py).
        targets = list(scan(ctx))
        for rowid, row in targets:
            if kind == "delete":
                ctx.delete(t, rowid)
            else:
                ctx.update(t, rowid, new_row(row, params))
        return ResultSet((), [], rowcount=len(targets))

    return PreparedStatement(sql, kind, param_count, run, plan_info=plan_info)
