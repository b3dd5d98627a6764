"""The closure-tree SQL expression interpreter: the differential oracle.

``repro.sql.compile`` generates one Python frame per expression and is
the only evaluator the engine ships.  This module keeps an independent
implementation of the same semantics — one closure per AST node, NULL
propagation, Kleene three-valued logic, lazy AND/OR/CASE/IN — so
``test_compile.py`` can hold the generated code to it row by row, and
time the two against each other.  It reuses the engine's scalar function
registry, ``sql_div``/``sql_mod`` and ``LIKE`` matcher; everything that
decides *evaluation order and NULL handling* is written out here a
second time.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

from repro.common.errors import ExpressionError, NoSuchColumnError, PlanningError
from repro.sql.ast import (
    AGGREGATE_FUNCTIONS,
    Between,
    Binary,
    Case,
    ColumnRef,
    Expr,
    FuncCall,
    InList,
    IsNull,
    Like,
    Literal,
    Param,
    Unary,
)
from repro.sql.expressions import (
    SCALAR_FUNCTIONS,
    Compiled,
    Scope,
    SlotRef,
    _truthy,
    like_match,
    sql_div,
    sql_mod,
)


def _arith(op: str, a: Any, b: Any) -> Any:
    if a is None or b is None:
        return None
    try:
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            return sql_div(a, b)
        if op == "%":
            return sql_mod(a, b)
    except TypeError:
        raise ExpressionError(
            f"invalid operands for {op!r}: {type(a).__name__}, {type(b).__name__}"
        ) from None
    raise ExpressionError(f"unknown arithmetic operator {op!r}")  # pragma: no cover


def _compare(op: str, a: Any, b: Any) -> Optional[bool]:
    if a is None or b is None:
        return None
    try:
        if op == "=":
            return a == b
        if op == "<>":
            return a != b
        if op == "<":
            return a < b
        if op == "<=":
            return a <= b
        if op == ">":
            return a > b
        if op == ">=":
            return a >= b
    except TypeError:
        raise ExpressionError(
            f"cannot compare {type(a).__name__} with {type(b).__name__}"
        ) from None
    raise ExpressionError(f"unknown comparison operator {op!r}")  # pragma: no cover


def compile_expr(expr: Expr, scope: Scope) -> Compiled:
    """Compile ``expr`` into a ``(row, params) -> value`` closure.

    Aggregate function calls must have been substituted away (into
    :class:`SlotRef`) by the planner before compilation; encountering one
    here is a planning bug surfaced as :class:`PlanningError`.
    """
    if isinstance(expr, Literal):
        value = expr.value
        return lambda row, params: value

    if isinstance(expr, SlotRef):
        slot = expr.slot
        return lambda row, params: row[slot]

    if isinstance(expr, ColumnRef):
        try:
            slot = scope.resolve(expr.name, expr.qualifier)
        except NoSuchColumnError as exc:
            raise PlanningError(str(exc)) from None
        return lambda row, params: row[slot]

    if isinstance(expr, Param):
        index = expr.index
        def eval_param(row, params, index=index):
            try:
                return params[index]
            except IndexError:
                raise ExpressionError(
                    f"statement requires at least {index + 1} parameters, got {len(params)}"
                ) from None
        return eval_param

    if isinstance(expr, Unary):
        inner = compile_expr(expr.operand, scope)
        if expr.op == "not":
            def eval_not(row, params):
                v = inner(row, params)
                if v is None:
                    return None
                return not _truthy(v)
            return eval_not
        if expr.op == "-":
            def eval_neg(row, params):
                v = inner(row, params)
                return None if v is None else -v
            return eval_neg
        if expr.op == "+":
            return inner
        raise PlanningError(f"unknown unary operator {expr.op!r}")  # pragma: no cover

    if isinstance(expr, Binary):
        op = expr.op
        left = compile_expr(expr.left, scope)
        right = compile_expr(expr.right, scope)
        if op == "and":
            def eval_and(row, params):
                a = left(row, params)
                if a is not None and not _truthy(a):
                    return False
                b = right(row, params)
                if b is not None and not _truthy(b):
                    return False
                if a is None or b is None:
                    return None
                return True
            return eval_and
        if op == "or":
            def eval_or(row, params):
                a = left(row, params)
                if a is not None and _truthy(a):
                    return True
                b = right(row, params)
                if b is not None and _truthy(b):
                    return True
                if a is None or b is None:
                    return None
                return False
            return eval_or
        if op in ("=", "<>", "<", "<=", ">", ">="):
            return lambda row, params: _compare(op, left(row, params), right(row, params))
        return lambda row, params: _arith(op, left(row, params), right(row, params))

    if isinstance(expr, FuncCall):
        if expr.name in AGGREGATE_FUNCTIONS:
            raise PlanningError(
                f"aggregate {expr.name.upper()}() not allowed in this context"
            )
        fn = SCALAR_FUNCTIONS.get(expr.name)
        if fn is None:
            raise PlanningError(f"unknown function {expr.name!r}")
        arg_fns = [compile_expr(a, scope) for a in expr.args]
        return lambda row, params: fn(*[f(row, params) for f in arg_fns])

    if isinstance(expr, InList):
        target = compile_expr(expr.expr, scope)
        item_fns = [compile_expr(e, scope) for e in expr.items]
        negated = expr.negated
        def eval_in(row, params):
            v = target(row, params)
            if v is None:
                return None
            saw_null = False
            for f in item_fns:
                item = f(row, params)
                if item is None:
                    saw_null = True
                elif item == v:
                    return not negated
            if saw_null:
                return None
            return negated
        return eval_in

    if isinstance(expr, Between):
        target = compile_expr(expr.expr, scope)
        low = compile_expr(expr.low, scope)
        high = compile_expr(expr.high, scope)
        negated = expr.negated
        def eval_between(row, params):
            v = target(row, params)
            lo = low(row, params)
            hi = high(row, params)
            a = _compare(">=", v, lo)
            b = _compare("<=", v, hi)
            if a is None or b is None:
                if a is False or b is False:
                    return negated
                return None
            result = a and b
            return (not result) if negated else result
        return eval_between

    if isinstance(expr, IsNull):
        inner = compile_expr(expr.expr, scope)
        negated = expr.negated
        return lambda row, params: (inner(row, params) is not None) == negated

    if isinstance(expr, Like):
        target = compile_expr(expr.expr, scope)
        pattern = compile_expr(expr.pattern, scope)
        negated = expr.negated
        def eval_like(row, params):
            result = like_match(target(row, params), pattern(row, params))
            if result is None:
                return None
            return (not result) if negated else result
        return eval_like

    if isinstance(expr, Case):
        compiled_whens = [
            (compile_expr(cond, scope), compile_expr(val, scope)) for cond, val in expr.whens
        ]
        else_fn = compile_expr(expr.else_, scope) if expr.else_ is not None else None
        def eval_case(row, params):
            for cond_fn, val_fn in compiled_whens:
                cond = cond_fn(row, params)
                if cond is not None and _truthy(cond):
                    return val_fn(row, params)
            return else_fn(row, params) if else_fn is not None else None
        return eval_case

    raise PlanningError(f"cannot compile expression node {type(expr).__name__}")


def predicate(compiled: Compiled) -> Callable[[Sequence[Any], Sequence[Any]], bool]:
    """Wrap a compiled expression as a WHERE predicate: NULL → not satisfied."""
    def check(row, params):
        v = compiled(row, params)
        if v is None:
            return False
        return _truthy(v)
    return check
