"""Compile-once SQL planner: AST → :class:`PreparedStatement`.

This is the layer H-Store (and therefore S-Store) leans on for its core
performance premise: a stored procedure's SQL is planned **once** and the
resulting plan is executed many times with fresh parameters.  Planning does
all name resolution, expression compilation (to *generated Python code*,
see :mod:`repro.sql.compile`), and — critically — access-path and
join-algorithm selection up front, so the execution hot path is a chain of
precompiled single-frame callables with no AST walking, no string
handling, and no dictionary lookups per row.

Physical choices are **priced by a cost model** over table statistics
(:mod:`repro.engine.stats`) instead of picked purely by rule:

* Access paths (paper §4.6.3: "a lookup rather than a table scan"):
  sargable equality conjuncts matched against hash indexes, range
  conjuncts against ordered indexes, sequential scan as the floor — each
  candidate priced as probe cost + estimated rows fetched, cheapest wins
  (ties prefer the more selective path, preserving the classic rule).
* Join algorithms per step: index-nested-loop (probe an inner-table
  index per outer row), hash join (build on the estimated-smaller side),
  sort-merge, and block-nested-loop as the universal fallback.  The
  estimate of rows flowing *into* each step is carried left-to-right, so
  the same ON clause can plan differently for a selective vs. a broad
  outer.  ``force_join`` pins one algorithm for differential testing.

Conjuncts not consumed by the chosen access path are ANDed into a compiled
*residual* predicate evaluated per row.  UPDATE and DELETE run the same
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

import math
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from ..common.errors import PlanningError
from ..storage.catalog import Catalog
from ..storage.schema import TableSchema, is_hidden_column
from ..storage.table import Table
from .ast import (
    AGGREGATE_FUNCTIONS,
    Between,
    Binary,
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
from .compile import compile_expr, compile_predicate
from .executor import (
    ExecutionContext,
    IndexRangeScan,
    IndexScan,
    ResultSet,
    Scan,
    SeqScan,
    null_safe_key,
    sort_rows,
)
from .expressions import Compiled, Scope, SlotRef, transform
from .functions import make_accumulator
from .joins import BlockNestedLoopStep, HashJoinStep, MergeJoinStep
from .parser import parse

#: Scope with no sources: compiles expressions over (params, literals) only.
#: Column references against it raise PlanningError, which is exactly the
#: check we want for INSERT VALUES rows, index key expressions, and LIMIT.
_VALUE_SCOPE = Scope()

Runner = Callable[[ExecutionContext], ResultSet]

#: join strategies accepted by ``force_join``
JOIN_STRATEGIES = ("inl", "hash", "merge", "bnl")

# ---------------------------------------------------------------------------
# Cost model.  The unit is "one sequential row visit" = 1.0; everything else
# is priced relative to it.  Constants are deliberately coarse — what
# matters is the *asymptotic* ordering (probe ≪ scan, hash build linear,
# nested loop quadratic), which is what flips plans at scale.
# ---------------------------------------------------------------------------

_COST_ROW = 1.0          # visiting one row sequentially
_COST_PROBE = 0.4        # one hash/index lookup
_COST_BUILD_ROW = 1.5    # inserting one row into a join hash table
_COST_PAIR = 0.25        # evaluating a predicate on one candidate pair
_COST_SORT_FACTOR = 1.2  # per-element sort factor (× log2 n)

#: fallback selectivity of a conjunct the estimator cannot read
_OTHER_SELECTIVITY = 0.33

#: Row count the cost model assumes for a table holding fewer rows than
#: this.  Plans outlive the emptiness they were made in — a procedure's
#: statements are planned at first call, usually against empty tables —
#: so an empty table is costed as a small one (the reason PostgreSQL
#: assumes 10 pages for a never-vacuumed empty heap): an equality-bound
#: index then always beats the scan, an unindexed equi-join hashes.
PLAN_MIN_ROWS = 10
#: A plan is reused while every table it was costed against stays within
#: this factor of its (floored) planned row count; see
#: :meth:`PreparedStatement.fresh`.
PLAN_ROW_BAND = 4


def _sort_cost(n: float) -> float:
    return _COST_SORT_FACTOR * n * math.log2(n + 2)


_FALLBACK_STATS = None


def _default_stats():
    """Statistics catalog used when planning outside a Database (tests,
    direct ``prepare`` calls): never analyzed, so every estimate uses the
    documented defaults.  Imported lazily — :mod:`repro.engine` imports
    this module at package-import time."""
    global _FALLBACK_STATS
    if _FALLBACK_STATS is None:
        from ..engine.stats import StatsCatalog

        _FALLBACK_STATS = StatsCatalog()
    return _FALLBACK_STATS


class _PlanEnv:
    """Planning-time environment: statistics, forced join strategy, and
    the row counts the plan was costed against."""

    __slots__ = ("stats", "force_join", "planned_rows")

    def __init__(self, stats, force_join: Optional[str]):
        if force_join is not None and force_join not in JOIN_STRATEGIES:
            raise PlanningError(
                f"unknown join strategy {force_join!r} "
                f"(expected one of {', '.join(JOIN_STRATEGIES)})"
            )
        self.stats = stats if stats is not None else _default_stats()
        self.force_join = force_join
        self.planned_rows: dict[Table, int] = {}

    def rows(self, table: Table) -> int:
        """``table``'s row count as costing sees it — floored at
        :data:`PLAN_MIN_ROWS` — recorded so the finished plan knows which
        counts it depends on.  The only place costing reads a row count."""
        rows = max(table.row_count(), PLAN_MIN_ROWS)
        self.planned_rows[table] = rows
        return rows

    def row_bands(self) -> tuple[tuple[Table, float, int], ...]:
        """``(table, lowest, highest)`` live row count each recorded table
        may reach before the plan is stale.  Both sides of the comparison
        are floored, so below ``PLAN_ROW_BAND * PLAN_MIN_ROWS`` planned
        rows there is no lower bound: an emptied table never thrashes."""
        return tuple(
            (
                table,
                rows / PLAN_ROW_BAND if rows > PLAN_ROW_BAND * PLAN_MIN_ROWS else 0,
                rows * PLAN_ROW_BAND,
            )
            for table, rows in self.planned_rows.items()
        )


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

    ``run_many`` is the vectorized batch binder, present only on statements
    that support bulk execution (INSERT ... VALUES): called as
    ``run_many(ctx, param_rows)`` it binds every parameter row, bulk-inserts
    the whole batch as **one** statement execution, and returns the
    rowcount.  ``Database.executemany`` routes through it when available.
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
            raise PlanningError(
                f"statement requires {self.param_count} parameter(s), "
                f"got {len(ctx.params)}: {self.sql!r}"
            )
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
    pins every join step to one algorithm — ``"inl"``, ``"hash"``,
    ``"merge"``, or ``"bnl"`` — falling back to the nearest feasible
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
    env = _PlanEnv(stats, force_join)
    if isinstance(stmt, Select):
        prepared = _plan_select(stmt, catalog, sql, env)
    elif isinstance(stmt, Insert):
        prepared = _plan_insert(stmt, catalog, sql, env)
    elif isinstance(stmt, Update):
        prepared = _plan_update(stmt, catalog, sql, env)
    elif isinstance(stmt, Delete):
        prepared = _plan_delete(stmt, catalog, sql, env)
    else:
        raise PlanningError(f"cannot plan statement of type {type(stmt).__name__}")
    prepared.row_bands = env.row_bands()
    return prepared


# ---------------------------------------------------------------------------
# WHERE-clause analysis
# ---------------------------------------------------------------------------

_RANGE_OPS = frozenset({"<", "<=", ">", ">="})
_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


def split_conjuncts(expr: Optional[Expr]) -> list[Expr]:
    """Flatten a WHERE tree into its top-level AND-conjuncts."""
    if expr is None:
        return []
    out: list[Expr] = []
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Binary) and node.op == "and":
            stack.append(node.right)
            stack.append(node.left)
        else:
            out.append(node)
    # stack order above preserves left-to-right conjunct order
    return out


def _is_value_expr(expr: Expr) -> bool:
    """True when ``expr`` references no columns (params/literals only)."""
    return not any(isinstance(n, (ColumnRef, SlotRef)) for n in walk(expr))


def _base_column(expr: Expr, scope: Scope, base_arity: int, schema: TableSchema) -> Optional[str]:
    """If ``expr`` is a column reference resolving into the base table,
    return its (lower-cased) column name; else None."""
    if not isinstance(expr, ColumnRef):
        return None
    try:
        slot = scope.resolve(expr.name, expr.qualifier)
    except PlanningError:
        return None
    if slot >= base_arity:
        return None
    return schema.column_names()[slot]


class _Sarg:
    """One classified conjunct."""

    __slots__ = ("kind", "column", "exprs", "conjunct")

    def __init__(self, kind: str, column: Optional[str], exprs: tuple, conjunct: Expr):
        self.kind = kind          # 'eq' | 'cmp_lo' | 'cmp_hi' | 'between' | 'other'
        self.column = column
        self.exprs = exprs        # ('eq': (value,)) ('cmp': (op, value)) ('between': (lo, hi))
        self.conjunct = conjunct


def _classify(conjunct: Expr, scope: Scope, base_arity: int, schema: TableSchema) -> _Sarg:
    if isinstance(conjunct, Binary) and conjunct.op == "=":
        col = _base_column(conjunct.left, scope, base_arity, schema)
        value = conjunct.right
        if col is None:
            col = _base_column(conjunct.right, scope, base_arity, schema)
            value = conjunct.left
        if col is not None and _is_value_expr(value):
            return _Sarg("eq", col, (value,), conjunct)
    elif isinstance(conjunct, Binary) and conjunct.op in _RANGE_OPS:
        col = _base_column(conjunct.left, scope, base_arity, schema)
        op, value = conjunct.op, conjunct.right
        if col is None:
            col = _base_column(conjunct.right, scope, base_arity, schema)
            op, value = _FLIP[conjunct.op], conjunct.left
        if col is not None and _is_value_expr(value):
            kind = "cmp_lo" if op in (">", ">=") else "cmp_hi"
            return _Sarg(kind, col, (op, value), conjunct)
    elif isinstance(conjunct, Between) and not conjunct.negated:
        col = _base_column(conjunct.expr, scope, base_arity, schema)
        if col is not None and _is_value_expr(conjunct.low) and _is_value_expr(conjunct.high):
            return _Sarg("between", col, (conjunct.low, conjunct.high), conjunct)
    return _Sarg("other", None, (), conjunct)


def _literal_value(expr: Expr) -> Any:
    """The plan-time value of a literal bound, or None when unknown
    (parameter / arithmetic — estimated with defaults)."""
    return expr.value if isinstance(expr, Literal) else None


def _sarg_selectivity(sarg: _Sarg, table: Table, env: _PlanEnv) -> float:
    """Estimated fraction of rows surviving one conjunct."""
    stats = env.stats
    if sarg.kind == "eq":
        return stats.eq_selectivity(table, sarg.column)
    if sarg.kind == "cmp_lo":
        return stats.range_selectivity(table, sarg.column, _literal_value(sarg.exprs[1]), None)
    if sarg.kind == "cmp_hi":
        return stats.range_selectivity(table, sarg.column, None, _literal_value(sarg.exprs[1]))
    if sarg.kind == "between":
        return stats.range_selectivity(
            table,
            sarg.column,
            _literal_value(sarg.exprs[0]),
            _literal_value(sarg.exprs[1]),
        )
    return _OTHER_SELECTIVITY


def _choose_equality_index(table: Table, eq_cols: Sequence[str]):
    """Best index whose key columns are all bound by equality conjuncts —
    :meth:`Table.find_equality_index` in subset mode, so e.g.
    ``WHERE pk = ? AND flag = 1`` still probes the primary key."""
    if not eq_cols:
        return None
    return table.find_equality_index(eq_cols, subset=True)


def _build_scan_costed(
    where: Optional[Expr],
    table: Table,
    scope: Scope,
    base_arity: int,
    env: _PlanEnv,
    *,
    extra_conjuncts: Sequence[Expr] = (),
) -> tuple[Scan, float, dict[str, Any]]:
    """Pick the physical access path for one table given its WHERE conjuncts.

    ``extra_conjuncts`` are pre-split conjuncts (used by SELECT-with-joins,
    which pushes only base-table conjuncts down into the scan); ``where``
    is the raw clause for the single-table statements.  Candidates —
    equality-index probe, ordered-index range scan, sequential scan — are
    priced as probe cost + estimated rows fetched, and the cheapest wins
    (ties break toward the probe, which also matches the legacy rule).

    Returns ``(scan, estimated_output_rows, plan_info_node)``; the scan's
    residual predicate covers every conjunct the access path itself does
    not guarantee.
    """
    schema = table.schema
    conjuncts = list(extra_conjuncts) if extra_conjuncts else split_conjuncts(where)
    sargs = [_classify(c, scope, base_arity, schema) for c in conjuncts]
    live = env.rows(table)

    # candidate: (cost, tie_order, fetch_est, consumed, make_scan, info)
    candidates: list[tuple] = []

    # 1. equality index probe
    eq_by_col: dict[str, int] = {}  # column -> sarg position (first wins)
    for i, s in enumerate(sargs):
        if s.kind == "eq" and s.column not in eq_by_col:
            eq_by_col[s.column] = i
    index = _choose_equality_index(table, list(eq_by_col))
    if index is not None:
        consumed = {eq_by_col[col] for col in index.key_columns}
        if index.unique:
            fetch = 1.0
        else:
            sel = 1.0
            for col in index.key_columns:
                sel *= env.stats.eq_selectivity(table, col)
            fetch = live * sel
        cost = _COST_PROBE + fetch * _COST_ROW

        def make_eq_scan(consumed=consumed, index=index):
            key_fns = [
                compile_expr(sargs[eq_by_col[col]].exprs[0], _VALUE_SCOPE)
                for col in index.key_columns
            ]
            residual = _compile_residual(sargs, consumed, scope)
            return IndexScan(table.name, index.name, key_fns, residual)

        candidates.append(
            (cost, 0, fetch, consumed, make_eq_scan,
             {"op": "IndexScan", "table": table.name, "index": index.name,
              "unique": index.unique})
        )

    # 2. ordered (range) index — first range-eligible column with one
    for i, s in enumerate(sargs):
        if s.kind not in ("cmp_lo", "cmp_hi", "between"):
            continue
        ordered = table.find_ordered_index(s.column)
        if ordered is None:
            continue
        consumed = set()
        lo_expr = hi_expr = None
        lo_inc = hi_inc = True
        if s.kind == "between":
            lo_expr, hi_expr = s.exprs
            consumed.add(i)
        else:
            for j, other in enumerate(sargs):
                if other.column != s.column:
                    continue
                if other.kind == "cmp_lo" and lo_expr is None:
                    op, value = other.exprs
                    lo_expr, lo_inc = value, op == ">="
                    consumed.add(j)
                elif other.kind == "cmp_hi" and hi_expr is None:
                    op, value = other.exprs
                    hi_expr, hi_inc = value, op == "<="
                    consumed.add(j)
        sel = env.stats.range_selectivity(
            table,
            s.column,
            _literal_value(lo_expr) if lo_expr is not None else None,
            _literal_value(hi_expr) if hi_expr is not None else None,
        )
        fetch = live * sel
        cost = _COST_PROBE + fetch * _COST_ROW

        def make_range_scan(consumed=consumed, ordered=ordered,
                            lo_expr=lo_expr, hi_expr=hi_expr,
                            lo_inc=lo_inc, hi_inc=hi_inc):
            lo_fn = compile_expr(lo_expr, _VALUE_SCOPE) if lo_expr is not None else None
            hi_fn = compile_expr(hi_expr, _VALUE_SCOPE) if hi_expr is not None else None
            residual = _compile_residual(sargs, consumed, scope)
            return IndexRangeScan(
                table.name, ordered.name, lo_fn, hi_fn, lo_inc, hi_inc, residual
            )

        candidates.append(
            (cost, 1, fetch, consumed, make_range_scan,
             {"op": "IndexRangeScan", "table": table.name, "index": ordered.name})
        )
        break  # one range candidate (first eligible column), as before

    # 3. full scan with everything as residual
    candidates.append(
        (live * _COST_ROW, 2, float(live), set(),
         lambda: SeqScan(table.name, _compile_residual(sargs, set(), scope)),
         {"op": "SeqScan", "table": table.name})
    )

    cost, _order, fetch, consumed, make_scan, info = min(
        candidates, key=lambda c: (c[0], c[1])
    )
    # rows *out* of the scan: fetched rows thinned by the residual conjuncts
    est = fetch
    for i, s in enumerate(sargs):
        if i not in consumed:
            est *= _sarg_selectivity(s, table, env)
    info = dict(info)
    info["est_rows"] = int(round(est))
    info["cost"] = round(cost, 1)
    info["considered"] = {c[5]["op"]: round(c[0], 1) for c in candidates}
    return make_scan(), est, info


def build_scan(
    where: Optional[Expr],
    table: Table,
    scope: Scope,
    base_arity: int,
    *,
    extra_conjuncts: Sequence[Expr] = (),
    stats=None,
) -> Scan:
    """Access-path selection without the cost/estimate plumbing — the
    compatibility entry point (tests drive it directly)."""
    env = _PlanEnv(stats, None)
    scan, _est, _info = _build_scan_costed(
        where, table, scope, base_arity, env, extra_conjuncts=extra_conjuncts
    )
    return scan


def combine_conjuncts(conjuncts: Sequence[Expr], scope: Scope):
    """AND pre-split conjuncts back together and compile as a WHERE-style
    predicate (NULL → not satisfied); None when there is nothing to test."""
    if not conjuncts:
        return None
    combined = conjuncts[0]
    for c in conjuncts[1:]:
        combined = Binary("and", combined, c)
    return compile_predicate(combined, scope)


def _compile_residual(sargs: list[_Sarg], consumed: set[int], scope: Scope):
    return combine_conjuncts(
        [s.conjunct for i, s in enumerate(sargs) if i not in consumed], scope
    )


# ---------------------------------------------------------------------------
# Join planning — algorithm choice priced per step
# ---------------------------------------------------------------------------


class _IndexJoinStep:
    """Index-nested-loop join: per outer row, probe an inner-table equality
    index with key values computed from the outer row, instead of scanning
    the whole inner table.  Residual ON conjuncts (those not covered by the
    index key) are evaluated on the combined row."""

    __slots__ = (
        "table_name", "arity", "index_name", "key_fns", "residual", "kind",
        "op_id", "_null_pad",
    )

    def __init__(
        self,
        table_name: str,
        arity: int,
        index_name: str,
        key_fns: Sequence[Compiled],
        residual,
        kind: str,
    ):
        self.table_name = table_name
        self.arity = arity
        self.index_name = index_name
        self.key_fns = tuple(key_fns)
        self.residual = residual
        self.kind = kind
        self.op_id = -1
        self._null_pad = (None,) * arity

    def apply(self, rows: Iterator[tuple], ctx: ExecutionContext) -> Iterator[tuple]:
        table = ctx.read_table(self.table_name)
        index = table.index(self.index_name)
        residual = self.residual
        params = ctx.params
        left_outer = self.kind == "left"
        visible = table.is_visible
        emitted = 0
        try:
            for left in rows:
                matched = False
                key = tuple(fn(left, params) for fn in self.key_fns)
                ctx.index_probes += 1
                if not any(v is None for v in key):  # col = NULL never matches
                    for rowid in index.lookup(key):
                        right = table.get(rowid)
                        if right is None or not visible(right):
                            continue
                        ctx.rows_scanned += 1
                        combined = left + right
                        if residual is None or residual(combined, params):
                            matched = True
                            emitted += 1
                            yield combined
                if left_outer and not matched:
                    emitted += 1
                    yield left + self._null_pad
        finally:
            if ctx.explain_counts is not None:
                ctx.explain_counts[self.op_id] = (
                    ctx.explain_counts.get(self.op_id, 0) + emitted
                )


JoinStep = _IndexJoinStep | HashJoinStep | MergeJoinStep | BlockNestedLoopStep


def _plan_join_step(
    join,
    right: Table,
    right_offset: int,
    scope: Scope,
    env: _PlanEnv,
    outer_est: float,
) -> tuple[Any, float, dict[str, Any]]:
    """Compile one join step, choosing the algorithm by estimated cost.

    An ON conjunct is *equi* when it has the shape ``inner_column =
    expr-over-earlier-tables``: the inner side resolves into the
    just-added source, and every column the other side references
    resolves to a slot *before* it (so the key is computable from the
    outer row alone).  Equi conjuncts can drive an index-nested-loop
    (via an inner-table equality index), a hash join, or a sort-merge
    join; everything else stays in the residual predicate.  Without any
    equi conjunct the block-nested-loop fallback evaluates the full ON
    clause per pair.

    Returns ``(step, estimated_output_rows, plan_info_node)``.
    """
    arity = right.schema.arity()
    inner_live = env.rows(right)
    kind = join.kind

    def slot_of(expr) -> Optional[int]:
        if not isinstance(expr, ColumnRef):
            return None
        try:
            return scope.resolve(expr.name, expr.qualifier)
        except PlanningError:
            return None

    def outer_only(expr: Expr) -> bool:
        for node in walk(expr):
            if isinstance(node, ColumnRef):
                slot = slot_of(node)
                if slot is None or slot >= right_offset:
                    return False
            elif isinstance(node, SlotRef):
                return False
        return True

    conjuncts = split_conjuncts(join.on)
    eq_by_col: dict[str, tuple[int, Expr]] = {}  # inner col -> (conjunct pos, outer expr)
    for i, c in enumerate(conjuncts):
        if not (isinstance(c, Binary) and c.op == "="):
            continue
        for inner_side, outer_side in ((c.left, c.right), (c.right, c.left)):
            slot = slot_of(inner_side)
            if slot is None or not right_offset <= slot < right_offset + arity:
                continue
            if not outer_only(outer_side):
                continue
            col = right.schema.column_names()[slot - right_offset]
            eq_by_col.setdefault(col, (i, outer_side))
            break

    index = _choose_equality_index(right, list(eq_by_col))

    # -- cardinality estimates ------------------------------------------------
    eq_cols = list(eq_by_col)
    eq_sel = 1.0
    for col in eq_cols:
        eq_sel *= env.stats.eq_selectivity(right, col)
    if eq_cols:
        match_est = max(inner_live * eq_sel, 1.0)
        residual_count = len(conjuncts) - len(eq_cols)
    else:
        match_est = inner_live * (_OTHER_SELECTIVITY if conjuncts else 1.0)
        residual_count = 0
    est_out = outer_est * match_est * (_OTHER_SELECTIVITY ** max(residual_count, 0))
    if kind == "left":
        est_out = max(est_out, outer_est)

    # -- candidate costs ------------------------------------------------------
    considered: dict[str, float] = {}
    if index is not None:
        idx_match = 1.0 if index.unique else max(inner_live * eq_sel, 1.0)
        considered["inl"] = outer_est * (_COST_PROBE + idx_match * _COST_ROW)
    if eq_cols:
        build = min(outer_est, float(inner_live))
        probe = max(outer_est, float(inner_live))
        considered["hash"] = (
            _COST_BUILD_ROW * build + _COST_PROBE * probe + est_out * _COST_PAIR
        )
        considered["merge"] = (
            _sort_cost(outer_est) + _sort_cost(inner_live)
            + (outer_est + inner_live) * _COST_ROW + est_out * _COST_PAIR
        )
    considered["bnl"] = (
        inner_live * _COST_ROW + outer_est * inner_live * _COST_PAIR
    )

    # -- constructors ---------------------------------------------------------
    def make_inl():
        consumed = set()
        key_fns = []
        for col in index.key_columns:
            pos, outer_expr = eq_by_col[col]
            key_fns.append(compile_expr(outer_expr, scope))
            consumed.add(pos)
        residual = combine_conjuncts(
            [c for i, c in enumerate(conjuncts) if i not in consumed], scope
        )
        return _IndexJoinStep(right.name, arity, index.name, key_fns, residual, kind)

    def make_equi(cls, **kw):
        consumed = set()
        outer_key_fns = []
        inner_key_slots = []
        for col, (pos, outer_expr) in eq_by_col.items():
            outer_key_fns.append(compile_expr(outer_expr, scope))
            inner_key_slots.append(right.schema.position(col))
            consumed.add(pos)
        residual = combine_conjuncts(
            [c for i, c in enumerate(conjuncts) if i not in consumed], scope
        )
        return cls(right.name, arity, outer_key_fns, inner_key_slots, residual, kind, **kw)

    def make_bnl():
        pred = compile_predicate(join.on, scope) if join.on is not None else None
        return BlockNestedLoopStep(right.name, arity, pred, kind)

    build_inner = inner_live <= outer_est

    # -- choice ---------------------------------------------------------------
    forced = env.force_join
    if forced is not None:
        if (forced in ("hash", "merge") and eq_cols) or (
            forced == "inl" and index is not None
        ):
            algo = forced
        else:  # bnl, or a force this join cannot honour (non-equi, no index)
            algo = "bnl"
    else:
        # tie order: inl < hash < merge < bnl (most index-exploiting first)
        order = {"inl": 0, "hash": 1, "merge": 2, "bnl": 3}
        algo = min(considered, key=lambda a: (considered[a], order[a]))

    if algo == "inl":
        step = make_inl()
        op = "IndexNestedLoopJoin"
    elif algo == "hash":
        step = make_equi(HashJoinStep, build_inner=build_inner)
        op = "HashJoin"
    elif algo == "merge":
        step = make_equi(MergeJoinStep)
        op = "MergeJoin"
    else:
        step = make_bnl()
        op = "BlockNestedLoopJoin"

    info: dict[str, Any] = {
        "op": op,
        "table": right.name,
        "join_kind": kind,
        "est_rows": int(round(est_out)),
        "cost": round(considered.get(algo, 0.0), 1),
        "considered": {a: round(c, 1) for a, c in sorted(considered.items())},
    }
    if forced is not None:
        info["forced"] = forced
    if algo == "inl":
        info["index"] = index.name
    if algo == "hash":
        info["build_side"] = "inner" if build_inner else "outer"
    return step, est_out, info


class _AggSpec:
    """One aggregate call: its argument compiler and accumulator factory."""

    __slots__ = ("call", "arg_fn", "star", "distinct", "name")

    def __init__(self, call: FuncCall, scope: Scope):
        self.call = call
        self.name = call.name
        self.star = call.star
        self.distinct = call.distinct
        if call.star:
            self.arg_fn = None
        else:
            if len(call.args) != 1:
                raise PlanningError(
                    f"aggregate {call.name.upper()}() takes exactly one argument"
                )
            self.arg_fn = compile_expr(call.args[0], scope)

    def fresh(self):
        return make_accumulator(self.name, star=self.star, distinct=self.distinct)


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


def _plan_select(stmt: Select, catalog: Catalog, sql: str, env: _PlanEnv) -> PreparedStatement:
    param_count = max_param_index(stmt)

    # SELECT without FROM: evaluate the items once against an empty row.
    if stmt.table is None:
        if any(item.star for item in stmt.items):
            raise PlanningError("SELECT * requires a FROM clause")
        if stmt.group_by or stmt.having is not None or stmt.joins:
            raise PlanningError("GROUP BY/HAVING/JOIN require a FROM clause")
        names = tuple(_output_name(item, i) for i, item in enumerate(stmt.items))
        fns = [compile_expr(item.expr, _VALUE_SCOPE) for item in stmt.items]
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
                out = [tuple(fn((), params) for fn in fns)]
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

    scan, est, scan_info = _build_scan_costed(
        None, base_table, scope, base_arity, env, extra_conjuncts=base_only
    )
    scan.op_id = 0
    scan_info["op_id"] = 0

    join_steps = []
    join_infos: list[dict[str, Any]] = []
    for op_id, (join, right, right_offset) in enumerate(join_specs, start=1):
        step, est, jinfo = _plan_join_step(join, right, right_offset, scope, env, est)
        step.op_id = op_id
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
        key_fns = [compile_expr(g, scope) for g in resolved_keys]
        agg_specs = [_AggSpec(call, scope) for call in agg_calls]
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
        out_fns = [over_group(item.expr, "select list") for item in stmt.items]
        having_pred = (
            over_group_pred(stmt.having, "HAVING") if stmt.having is not None else None
        )
        order_fns = _compile_order(stmt, out_names, lambda e: over_group(e, "ORDER BY"))
    else:
        if stmt.having is not None:
            raise PlanningError("HAVING requires GROUP BY or an aggregate")
        out_names_list: list[str] = []
        out_fns = []
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
                    out_fns.append(compile_expr(SlotRef(slot), scope))
            else:
                out_names_list.append(_output_name(item, i))
                out_fns.append(compile_expr(item.expr, scope))
        out_names = tuple(out_names_list)
        having_pred = None
        key_fns = []
        agg_specs = []
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

    def run(ctx: ExecutionContext) -> ResultSet:
        params = ctx.params
        rows: Iterator[tuple] = (row for _rowid, row in scan(ctx))
        for step in join_steps:
            rows = step.apply(rows, ctx)
        if post_pred is not None:
            rows = (r for r in rows if post_pred(r, params))

        if grouped:
            groups: dict[tuple, list] = {}
            for row in rows:
                key = tuple(fn(row, params) for fn in key_fns)
                accs = groups.get(key)
                if accs is None:
                    accs = [spec.fresh() for spec in agg_specs]
                    groups[key] = accs
                for spec, acc in zip(agg_specs, accs):
                    acc.add(True if spec.star else spec.arg_fn(row, params))
            if not groups and not key_fns:
                # global aggregate over an empty input still yields one row
                groups[()] = [spec.fresh() for spec in agg_specs]
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
                out = tuple(fn(row, params) for fn in out_fns)
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
                out = tuple(fn(row, params) for fn in out_fns)
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


def _plan_insert(stmt: Insert, catalog: Catalog, sql: str, env: _PlanEnv) -> PreparedStatement:
    table = catalog.table(stmt.table.name)
    schema = table.schema
    param_count = max_param_index(stmt)

    if stmt.columns:
        target_cols = tuple(c.lower() for c in stmt.columns)
        for c in target_cols:
            schema.position(c)  # raises on unknown columns
        if len(set(target_cols)) != len(target_cols):
            raise PlanningError(f"duplicate column in INSERT column list: {target_cols}")
    else:
        target_cols = schema.column_names()

    table_name = table.name
    plan_info = {"kind": "insert", "table": table_name}
    # Plan-time column permutation: target column i of the INSERT lands in
    # row slot ``slots[i]``; unmentioned columns take their default.  The
    # hot path then builds each full-width row with list indexing only —
    # no per-row dict construction (``Table.insert`` still coerces types
    # and enforces NOT NULL/unique constraints).
    slots = tuple(schema.position(c) for c in target_cols)
    defaults = tuple(col.default for col in schema.columns)

    if stmt.select is not None:
        inner = _plan_select(stmt.select, catalog, sql, env)
        if len(inner.columns) != len(target_cols):
            raise PlanningError(
                f"INSERT ... SELECT arity mismatch: {len(target_cols)} target "
                f"column(s), SELECT produces {len(inner.columns)}"
            )

        def run_insert_select(ctx: ExecutionContext) -> ResultSet:
            result = inner.execute(ctx)  # materialised — safe for self-insert
            t = ctx.write_table(table_name)
            full_rows = []
            for row in result.rows:
                full = list(defaults)
                for slot, value in zip(slots, row):
                    full[slot] = value
                full_rows.append(full)
            n = len(ctx.insert_many(t, full_rows))
            return ResultSet((), [], rowcount=n)

        plan_info["select"] = inner.plan_info
        return PreparedStatement(
            sql, "insert", param_count, run_insert_select, plan_info=plan_info
        )

    row_fns: list[list[Compiled]] = []
    for row in stmt.rows:
        if len(row) != len(target_cols):
            raise PlanningError(
                f"INSERT row has {len(row)} value(s), expected {len(target_cols)}"
            )
        row_fns.append([compile_expr(e, _VALUE_SCOPE) for e in row])

    def run_insert(ctx: ExecutionContext) -> ResultSet:
        t = ctx.write_table(table_name)
        params = ctx.params
        if len(row_fns) == 1:  # the single-row OLTP hot path: no batch setup
            full = list(defaults)
            for slot, fn in zip(slots, row_fns[0]):
                full[slot] = fn((), params)
            ctx.insert(t, full)
            return ResultSet((), [], rowcount=1)
        full_rows = []
        for fns in row_fns:
            full = list(defaults)
            for slot, fn in zip(slots, fns):
                full[slot] = fn((), params)
            full_rows.append(full)
        n = len(ctx.insert_many(t, full_rows))
        return ResultSet((), [], rowcount=n)

    # Plan-time fact for the batch binder: a single VALUES row whose target
    # list covers every column in schema order binds straight to a full row
    # (no defaults template, no slot permutation) — the common bulk-load shape.
    # An in-order *prefix* of the columns does not qualify: the unmentioned
    # trailing columns still need their defaults.
    full_width_in_order = (
        len(row_fns) == 1
        and len(slots) == len(defaults)
        and slots == tuple(range(len(slots)))
    )

    def run_insert_many(ctx: ExecutionContext, param_rows: Iterable[Sequence]) -> int:
        """Vectorized batch binder for ``executemany``: bind every parameter
        row, then apply the whole batch as **one** bulk insert (one undo-log
        range record, per-row work in tight loops)."""
        t = ctx.write_table(table_name)
        empty: tuple = ()
        full_rows = []
        if full_width_in_order:
            fns = row_fns[0]
            for params in param_rows:
                if len(params) < param_count:
                    raise PlanningError(
                        f"statement requires {param_count} parameter(s), "
                        f"got {len(params)}: {sql!r}"
                    )
                full_rows.append([fn(empty, params) for fn in fns])
        else:
            for params in param_rows:
                if len(params) < param_count:
                    raise PlanningError(
                        f"statement requires {param_count} parameter(s), "
                        f"got {len(params)}: {sql!r}"
                    )
                for fns in row_fns:
                    full = list(defaults)
                    for slot, fn in zip(slots, fns):
                        full[slot] = fn(empty, params)
                    full_rows.append(full)
        return len(ctx.insert_many(t, full_rows))

    return PreparedStatement(sql, "insert", param_count, run_insert,
                             run_many=run_insert_many, plan_info=plan_info)


# ---------------------------------------------------------------------------
# UPDATE / DELETE planning — index-aware, materialise-then-mutate
# ---------------------------------------------------------------------------


def _plan_update(stmt: Update, catalog: Catalog, sql: str, env: _PlanEnv) -> PreparedStatement:
    table = catalog.table(stmt.table.name)
    schema = table.schema
    param_count = max_param_index(stmt)

    scope = Scope()
    scope.add_source(stmt.table.binding, schema)
    scan, est, scan_info = _build_scan_costed(
        stmt.where, table, scope, schema.arity(), env
    )
    scan.op_id = 0
    scan_info["op_id"] = 0

    assignments: list[tuple[int, Compiled]] = []
    seen_cols: set[int] = set()
    for a in stmt.assignments:
        pos = schema.position(a.column)
        if pos in seen_cols:
            raise PlanningError(f"column {a.column!r} assigned twice in UPDATE")
        seen_cols.add(pos)
        assignments.append((pos, compile_expr(a.value, scope)))

    table_name = table.name
    plan_info = {
        "kind": "update",
        "table": table_name,
        "scan": scan_info,
        "estimated_rows": int(round(est)),
    }

    def run(ctx: ExecutionContext) -> ResultSet:
        t = ctx.write_table(table_name)
        params = ctx.params
        # Materialise matches before the first mutation: Table.scan() hands
        # out a live iterator over its row dict (see table.py).
        targets = list(scan(ctx))
        n = 0
        for rowid, row in targets:
            new = list(row)
            for pos, fn in assignments:
                new[pos] = fn(row, params)
            ctx.update(t, rowid, new)
            n += 1
        return ResultSet((), [], rowcount=n)

    return PreparedStatement(sql, "update", param_count, run, plan_info=plan_info)


def _plan_delete(stmt: Delete, catalog: Catalog, sql: str, env: _PlanEnv) -> PreparedStatement:
    table = catalog.table(stmt.table.name)
    schema = table.schema
    param_count = max_param_index(stmt)

    scope = Scope()
    scope.add_source(stmt.table.binding, schema)
    scan, est, scan_info = _build_scan_costed(
        stmt.where, table, scope, schema.arity(), env
    )
    scan.op_id = 0
    scan_info["op_id"] = 0
    table_name = table.name
    plan_info = {
        "kind": "delete",
        "table": table_name,
        "scan": scan_info,
        "estimated_rows": int(round(est)),
    }

    def run(ctx: ExecutionContext) -> ResultSet:
        t = ctx.write_table(table_name)
        # Same materialise-then-mutate contract as UPDATE.
        targets = list(scan(ctx))
        n = 0
        for rowid, _row in targets:
            ctx.delete(t, rowid)
            n += 1
        return ResultSet((), [], rowcount=n)

    return PreparedStatement(sql, "delete", param_count, run, plan_info=plan_info)
