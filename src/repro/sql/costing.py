"""Cost-based physical choices: every priced decision the planner makes.

Physical choices are **priced by a cost model** over table statistics
(:mod:`repro.engine.stats`) instead of picked purely by rule:

* Access paths (:func:`choose_scan`; paper §4.6.3: "a lookup rather
  than a table scan"): sargable equality conjuncts matched against hash
  indexes, range conjuncts against ordered indexes, sequential scan as
  the floor — each candidate priced as probe cost + estimated rows
  fetched, cheapest wins (ties prefer the more selective path,
  preserving the classic rule).
* Join algorithms per step (:func:`choose_join`): index-nested-loop
  (probe an inner-table index per outer row), hash join (build on the
  estimated-smaller side), and block-nested-loop as the universal
  fallback.  The estimate of rows flowing *into* each step is carried
  left-to-right, so the same ON clause can plan differently for a
  selective vs. a broad outer.  ``force_join`` pins one algorithm for
  differential testing.

Conjuncts not consumed by the chosen access path are ANDed into a compiled
*residual* predicate evaluated per row.  :class:`PlanEnv` records the
row counts each plan was costed against, which
:meth:`~repro.sql.planner.PreparedStatement.fresh` checks on reuse.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from ..common.errors import PlanningError
from ..storage.schema import TableSchema
from ..storage.table import Table
from .ast import Between, Binary, ColumnRef, Expr, Literal, walk
from .compile import compile_expr, compile_predicate, compile_row
from .executor import IndexRangeScan, IndexScan, Scan, SeqScan
from .expressions import Scope, SlotRef
from .joins import BlockNestedLoopStep, HashJoinStep, IndexNestedLoopStep

#: Scope with no sources: compiles expressions over (params, literals) only.
#: Column references against it raise PlanningError, which is exactly the
#: check we want for INSERT VALUES rows, index key expressions, and LIMIT.
_VALUE_SCOPE = Scope()

#: join strategies accepted by ``force_join``
JOIN_STRATEGIES = ("inl", "hash", "bnl")

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
#: :meth:`~repro.sql.planner.PreparedStatement.fresh`.
PLAN_ROW_BAND = 4


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


class PlanEnv:
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


def _sarg_selectivity(sarg: _Sarg, table: Table, env: PlanEnv) -> float:
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


def choose_scan(
    where: Optional[Expr],
    table: Table,
    scope: Scope,
    base_arity: int,
    env: PlanEnv,
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
            key_fn = compile_row(
                [sargs[eq_by_col[col]].exprs[0] for col in index.key_columns], _VALUE_SCOPE
            )
            residual = _compile_residual(sargs, consumed, scope)
            return IndexScan(table.name, index.name, key_fn, residual)

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


def choose_join(
    join,
    right: Table,
    right_offset: int,
    scope: Scope,
    env: PlanEnv,
    outer_est: float,
) -> tuple[Any, float, dict[str, Any]]:
    """Compile one join step, choosing the algorithm by estimated cost.

    An ON conjunct is *equi* when it has the shape ``inner_column =
    expr-over-earlier-tables``: the inner side resolves into the
    just-added source, and every column the other side references
    resolves to a slot *before* it (so the key is computable from the
    outer row alone).  Equi conjuncts can drive an index-nested-loop
    (via an inner-table equality index) or a hash join; everything else
    stays in the residual predicate.  Without any equi conjunct the
    block-nested-loop fallback evaluates the full ON clause per pair.

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
    considered["bnl"] = (
        inner_live * _COST_ROW + outer_est * inner_live * _COST_PAIR
    )

    # -- constructors ---------------------------------------------------------
    def residual_without(cols):
        consumed = {eq_by_col[col][0] for col in cols}
        return combine_conjuncts(
            [c for i, c in enumerate(conjuncts) if i not in consumed], scope
        )

    def make_inl():
        key_fn = compile_row([eq_by_col[col][1] for col in index.key_columns], scope)
        residual = residual_without(index.key_columns)
        return IndexNestedLoopStep(right.name, arity, index.name, key_fn, residual, kind)

    def make_hash():
        outer_key = compile_row([outer for _pos, outer in eq_by_col.values()], scope)
        inner_key = compile_row(
            [SlotRef(right.schema.position(col)) for col in eq_by_col], _VALUE_SCOPE
        )
        return HashJoinStep(
            right.name, arity, outer_key, inner_key, residual_without(eq_by_col), kind,
            build_inner=build_inner,
        )

    def make_bnl():
        pred = compile_predicate(join.on, scope) if join.on is not None else None
        return BlockNestedLoopStep(right.name, arity, pred, kind)

    build_inner = inner_live <= outer_est

    # -- choice ---------------------------------------------------------------
    forced = env.force_join
    if forced is not None:
        if (forced == "hash" and eq_cols) or (
            forced == "inl" and index is not None
        ):
            algo = forced
        else:  # bnl, or a force this join cannot honour (non-equi, no index)
            algo = "bnl"
    else:
        # tie order: inl < hash < bnl (most index-exploiting first)
        order = {"inl": 0, "hash": 1, "bnl": 2}
        algo = min(considered, key=lambda a: (considered[a], order[a]))

    if algo == "inl":
        step = make_inl()
        op = "IndexNestedLoopJoin"
    elif algo == "hash":
        step = make_hash()
        op = "HashJoin"
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
