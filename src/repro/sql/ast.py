"""Abstract syntax trees for the supported SQL subset.

The subset covers everything the paper's stored procedures need:

* ``SELECT`` with joins (INNER/LEFT/comma), WHERE, GROUP BY/HAVING,
  ORDER BY, LIMIT/OFFSET, DISTINCT, aggregates;
* ``INSERT ... VALUES`` (multi-row) and ``INSERT ... SELECT``;
* the upsert ``INSERT ... VALUES (one row) ON CONFLICT (key) DO UPDATE
  SET ... [RETURNING cols]``;
* ``UPDATE ... SET ... WHERE``;
* ``DELETE FROM ... WHERE``;
* positional ``?`` parameters everywhere an expression may appear.

All nodes are frozen dataclasses so prepared statements are immutable and
safely shareable between transaction executions.  Each expression node
names its child fields once, in ``_children``; :func:`children`,
:func:`map_children` and :func:`walk` read them from there, so a
traversal needs no branch per node type.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, ClassVar, Optional, Union

# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr:
    """Base class for expression nodes.

    ``_children`` names the fields that hold sub-expressions, in
    evaluation order; a field holds an expression, ``None``, or a tuple
    of them (nested, for CASE's ``(condition, value)`` pairs).
    """

    __slots__ = ()
    _children: ClassVar[tuple[str, ...]] = ()


@dataclass(frozen=True)
class Literal(Expr):
    value: Any


@dataclass(frozen=True)
class ColumnRef(Expr):
    """``name`` or ``qualifier.name`` (qualifier = table name or alias)."""

    name: str
    qualifier: Optional[str] = None

    def display(self) -> str:
        return f"{self.qualifier}.{self.name}" if self.qualifier else self.name


@dataclass(frozen=True)
class Param(Expr):
    """``?`` placeholder; ``index`` is the 0-based position in the bind list."""

    index: int


@dataclass(frozen=True)
class Unary(Expr):
    _children = ("operand",)

    op: str  # '-', '+', 'not'
    operand: Expr


@dataclass(frozen=True)
class Binary(Expr):
    _children = ("left", "right")

    op: str  # '+','-','*','/','%','=','<>','<','<=','>','>=','and','or'
    left: Expr
    right: Expr


@dataclass(frozen=True)
class FuncCall(Expr):
    """Scalar or aggregate function call; ``star`` marks ``COUNT(*)``."""

    _children = ("args",)

    name: str
    args: tuple[Expr, ...]
    distinct: bool = False
    star: bool = False


@dataclass(frozen=True)
class InList(Expr):
    _children = ("expr", "items")

    expr: Expr
    items: tuple[Expr, ...]
    negated: bool = False


@dataclass(frozen=True)
class Between(Expr):
    _children = ("expr", "low", "high")

    expr: Expr
    low: Expr
    high: Expr
    negated: bool = False


@dataclass(frozen=True)
class IsNull(Expr):
    _children = ("expr",)

    expr: Expr
    negated: bool = False


@dataclass(frozen=True)
class Like(Expr):
    _children = ("expr", "pattern")

    expr: Expr
    pattern: Expr
    negated: bool = False


@dataclass(frozen=True)
class Case(Expr):
    """``CASE WHEN cond THEN val ... [ELSE val] END`` (searched form)."""

    _children = ("whens", "else_")

    whens: tuple[tuple[Expr, Expr], ...]
    else_: Optional[Expr] = None


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TableRef:
    name: str
    alias: Optional[str] = None

    @property
    def binding(self) -> str:
        return self.alias or self.name


@dataclass(frozen=True)
class JoinClause:
    """One join step: ``JOIN table ON cond`` (``on`` is None for comma joins,
    where the condition lives in WHERE)."""

    table: TableRef
    on: Optional[Expr]
    kind: str = "inner"  # 'inner' | 'left' | 'cross'


@dataclass(frozen=True)
class SelectItem:
    expr: Expr
    alias: Optional[str] = None
    star: bool = False  # bare '*' or 'alias.*'
    star_qualifier: Optional[str] = None


@dataclass(frozen=True)
class OrderItem:
    expr: Expr
    descending: bool = False


@dataclass(frozen=True)
class Select:
    items: tuple[SelectItem, ...]
    table: Optional[TableRef]
    joins: tuple[JoinClause, ...] = ()
    where: Optional[Expr] = None
    group_by: tuple[Expr, ...] = ()
    having: Optional[Expr] = None
    order_by: tuple[OrderItem, ...] = ()
    limit: Optional[Expr] = None
    offset: Optional[Expr] = None
    distinct: bool = False


@dataclass(frozen=True)
class Assignment:
    column: str
    value: Expr


@dataclass(frozen=True)
class Insert:
    table: TableRef
    columns: tuple[str, ...]  # empty tuple = all columns in schema order
    rows: tuple[tuple[Expr, ...], ...] = ()  # VALUES form
    select: Optional[Select] = None  # INSERT ... SELECT form
    #: upsert form: the ON CONFLICT key columns (empty: a plain INSERT),
    #: its DO UPDATE SET assignments and the RETURNING columns
    conflict: tuple[str, ...] = ()
    on_conflict: tuple[Assignment, ...] = ()
    returning: tuple[str, ...] = ()


@dataclass(frozen=True)
class Update:
    table: TableRef
    assignments: tuple[Assignment, ...]
    where: Optional[Expr] = None


@dataclass(frozen=True)
class Delete:
    table: TableRef
    where: Optional[Expr] = None


Statement = Union[Select, Insert, Update, Delete]

#: Names treated as aggregate functions by the planner.
AGGREGATE_FUNCTIONS = frozenset({"count", "sum", "avg", "min", "max"})


def _flatten(value):
    if isinstance(value, tuple):
        for item in value:
            yield from _flatten(item)
    elif value is not None:
        yield value


def children(expr: Expr):
    """The direct sub-expressions of ``expr``, in evaluation order."""
    for name in expr._children:
        yield from _flatten(getattr(expr, name))


def _map_field(value, fn):
    if isinstance(value, tuple):
        return tuple(_map_field(item, fn) for item in value)
    return None if value is None else fn(value)


def map_children(expr: Expr, fn) -> Expr:
    """A copy of ``expr`` with ``fn`` applied to each direct child
    (``expr`` itself when it has no child fields)."""
    if not expr._children:
        return expr
    return replace(
        expr, **{name: _map_field(getattr(expr, name), fn) for name in expr._children}
    )


def walk(expr: Expr):
    """Depth-first pre-order traversal of an expression tree."""
    yield expr
    for child in children(expr):
        yield from walk(child)


def contains_aggregate(expr: Expr) -> bool:
    """True when any node of ``expr`` is an aggregate function call."""
    return any(
        isinstance(node, FuncCall) and node.name in AGGREGATE_FUNCTIONS
        for node in walk(expr)
    )


def max_param_index(stmt: Statement) -> int:
    """Highest ``?`` index in the statement plus one (= required bind count)."""
    best = 0

    def scan(expr: Optional[Expr]) -> None:
        nonlocal best
        if expr is None:
            return
        for node in walk(expr):
            if isinstance(node, Param):
                best = max(best, node.index + 1)

    if isinstance(stmt, Select):
        for item in stmt.items:
            if not item.star:
                scan(item.expr)
        scan(stmt.where)
        for g in stmt.group_by:
            scan(g)
        scan(stmt.having)
        for o in stmt.order_by:
            scan(o.expr)
        scan(stmt.limit)
        scan(stmt.offset)
        for j in stmt.joins:
            scan(j.on)
    elif isinstance(stmt, Insert):
        for row in stmt.rows:
            for e in row:
                scan(e)
        for a in stmt.on_conflict:
            scan(a.value)
        if stmt.select is not None:
            best = max(best, max_param_index(stmt.select))
    elif isinstance(stmt, Update):
        for a in stmt.assignments:
            scan(a.value)
        scan(stmt.where)
    elif isinstance(stmt, Delete):
        scan(stmt.where)
    return best
