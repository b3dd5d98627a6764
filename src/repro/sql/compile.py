"""Expression trees → generated Python code: the SQL expression evaluator.

Every expression the engine evaluates — a WHERE predicate, a projection,
an index or join key, a GROUP BY key, an aggregate's input, an INSERT or
UPDATE row, a constant folded at plan time — runs
as Python source this module **generates** and ``compile()``s once at plan
time: straight-line statements over ``row``/``params`` with explicit
temporaries, so evaluating a predicate is a single stack frame with
inlined column loads, comparisons, and arithmetic.  The semantics:

* NULL (``None``) propagates through arithmetic and comparisons;
* ``AND``/``OR`` follow Kleene three-valued logic **with short-circuit
  evaluation** (the right side is not evaluated when the left decides);
* CASE evaluates WHEN conditions lazily, in order, and ``IN`` evaluates
  its items left to right, stopping at the first match;
* division/modulo keep SQL integer semantics (truncation toward zero,
  errors on zero) through :mod:`repro.sql.expressions`' ``sql_div`` and
  ``sql_mod``;
* a stray ``TypeError``, ``ValueError`` or ``ArithmeticError`` (an
  operand of the wrong type, ``power`` of a negative base, an overflow)
  surfaces as :class:`ExpressionError`.

``tests/sql_oracle.py`` keeps an independent closure-tree interpreter of
the same semantics, and ``tests/test_compile.py`` holds the generated
code to it row by row.

A **constant-folding** pass runs first: any pure all-literal subtree is
replaced by the literal its generated code returns (errors like ``1/0``
are deferred to execution, not raised), and the three-valued identities
``FALSE AND x → FALSE`` / ``TRUE OR x → TRUE`` prune short-circuit
branches entirely.  (``TRUE AND x`` is *not* folded to ``x`` — AND
coerces its result to a boolean, ``x`` may be numeric.)

Entry points: :func:`compile_expr` yields a ``(row, params) -> value``
callable; :func:`compile_predicate` yields a WHERE-style
``(row, params) -> bool`` (NULL → not satisfied) with the coercion
generated inline instead of paying a wrapper frame per row;
:func:`compile_row` yields one ``(row, params) -> tuple`` frame and is
the SQL layer's only per-row tuple builder: projections, SELECT-without-
FROM rows, index and join keys, GROUP BY keys, aggregate inputs, and
INSERT and UPDATE rows.  A node the generator does not know raises
:class:`PlanningError`.
"""

from __future__ import annotations

import re
from typing import Any, Callable, Sequence

from ..common.errors import ExpressionError, NoSuchColumnError, PlanningError
from .ast import (
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
    map_children,
    walk,
)
from .expressions import (
    SCALAR_FUNCTIONS,
    Compiled,
    Scope,
    SlotRef,
    _truthy,
    like_match,
    sql_div,
    sql_mod,
)

__all__ = ["compile_expr", "compile_predicate", "compile_row", "fold_constants"]

# ---------------------------------------------------------------------------
# Constant folding
# ---------------------------------------------------------------------------

_EMPTY_SCOPE = Scope()


def _pure(node: Expr) -> bool:
    """True when ``node`` itself reads nothing but its children."""
    if not node._children:
        return isinstance(node, Literal)  # a column, slot or parameter varies
    if isinstance(node, FuncCall):  # aggregates and unknown names never fold
        return not node.star and node.name in SCALAR_FUNCTIONS
    return True


def _is_const(expr: Expr) -> bool:
    """True when ``expr`` is a pure function of literals only."""
    return all(_pure(node) for node in walk(expr))


def _literal_bool(expr: Expr) -> Any:
    """True/False when ``expr`` is a non-NULL literal with a definite truth
    value, else None (NULL literal, non-literal, or non-boolean type)."""
    if isinstance(expr, Literal) and expr.value is not None:
        try:
            return _truthy(expr.value)
        except ExpressionError:
            return None
    return None


def fold_constants(expr: Expr) -> Expr:
    """Bottom-up constant folding with runtime errors deferred.

    A pure all-literal subtree becomes the literal its generated code
    returns; a subtree whose evaluation *raises* (``1/0``) is left intact
    so the error still surfaces at execution.
    """
    expr = map_children(expr, fold_constants)
    if isinstance(expr, Binary):
        # three-valued short-circuit identities (left side only: AND/OR
        # evaluate left first, so dropping the right never skips an error)
        left = _literal_bool(expr.left)
        if expr.op == "and" and left is False:
            return Literal(False)
        if expr.op == "or" and left is True:
            return Literal(True)
    if not isinstance(expr, Literal) and _is_const(expr):
        try:
            value = _generate(expr, _EMPTY_SCOPE, as_predicate=False)((), ())
        except ExpressionError:
            return expr  # deferred runtime error (division by zero, ...)
        return Literal(value)
    return expr


# ---------------------------------------------------------------------------
# Code generation
# ---------------------------------------------------------------------------

def _expression_error(exc: Exception) -> ExpressionError:
    """What a generated frame raises for a Python error inside it."""
    if isinstance(exc, IndexError):
        return ExpressionError(f"parameter binding error: {exc}")
    kind = "type" if isinstance(exc, TypeError) else "value"
    return ExpressionError(f"{kind} error in expression: {exc}")


_CMP_OPS = {"=": "==", "<>": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}
_ARITH_INLINE = {"+", "-", "*"}


class _Codegen:
    """Accumulates generated statements plus the environment they close over.

    ``_gen`` returns ``(atom, is_bool)``: ``atom`` is a Python expression
    string that is either a literal, a ``row[i]``/``params[i]`` subscript,
    or a temporary name — always side-effect free and cheap to mention more
    than once.  ``is_bool`` marks values statically known to be
    ``True``/``False``/``None``, which lets logical connectives test
    ``is False`` / ``is True`` instead of calling the truthiness helper.
    """

    def __init__(self, scope: Scope):
        self.scope = scope
        self.lines: list[str] = []
        self.env: dict[str, Any] = {
            "_t": _truthy,
            "_error": _expression_error,
            "_like": like_match,
            "_div": sql_div,
            "_mod": sql_mod,
        }
        self._n = 0

    def tmp(self) -> str:
        self._n += 1
        return f"t{self._n}"

    def bind(self, value: Any, prefix: str = "c") -> str:
        name = f"{prefix}{len(self.env)}"
        self.env[name] = value
        return name

    def emit(self, depth: int, line: str) -> None:
        self.lines.append("    " * depth + line)

    def const(self, value: Any) -> str:
        # Only the keyword singletons are inlined: a repr'd int/str literal
        # inside a generated ``x is None`` / ``x is False`` test would trip
        # CPython's "is with a literal" SyntaxWarning at compile() time.
        if value is None or isinstance(value, bool):
            return repr(value)
        return self.bind(value)

    # -- truthiness fragments -------------------------------------------------

    @staticmethod
    def _is_false(atom: str, is_bool: bool) -> str:
        return f"{atom} is False" if is_bool else f"{atom} is not None and not _t({atom})"

    @staticmethod
    def _is_true(atom: str, is_bool: bool) -> str:
        return f"{atom} is True" if is_bool else f"{atom} is not None and _t({atom})"

    # -- the generator ---------------------------------------------------------

    def gen(self, expr: Expr, depth: int) -> tuple[str, bool]:
        if isinstance(expr, Literal):
            return self.const(expr.value), isinstance(expr.value, bool)

        if isinstance(expr, SlotRef):
            return f"row[{expr.slot}]", False

        if isinstance(expr, ColumnRef):
            try:
                slot = self.scope.resolve(expr.name, expr.qualifier)
            except NoSuchColumnError as exc:
                raise PlanningError(str(exc)) from None
            return f"row[{slot}]", False

        if isinstance(expr, Param):
            return f"params[{expr.index}]", False

        if isinstance(expr, Unary):
            return self._gen_unary(expr, depth)

        if isinstance(expr, Binary):
            return self._gen_binary(expr, depth)

        if isinstance(expr, FuncCall):
            return self._gen_func(expr, depth)

        if isinstance(expr, InList):
            return self._gen_in(expr, depth)

        if isinstance(expr, Between):
            return self._gen_between(expr, depth)

        if isinstance(expr, IsNull):
            a, _ = self.gen(expr.expr, depth)
            t = self.tmp()
            self.emit(depth, f"{t} = ({a} is not None) == {expr.negated!r}")
            return t, True

        if isinstance(expr, Like):
            return self._gen_like(expr, depth)

        if isinstance(expr, Case):
            t = self.tmp()
            self._gen_case(list(expr.whens), expr.else_, depth, t)
            return t, False

        raise PlanningError(f"cannot compile expression node {type(expr).__name__}")

    def _gen_unary(self, expr: Unary, depth: int) -> tuple[str, bool]:
        a, a_bool = self.gen(expr.operand, depth)
        if expr.op == "+":
            return a, a_bool
        t = self.tmp()
        if expr.op == "-":
            self.emit(depth, f"{t} = None if {a} is None else -{a}")
            return t, False
        if expr.op == "not":
            body = f"not {a}" if a_bool else f"not _t({a})"
            self.emit(depth, f"{t} = None if {a} is None else ({body})")
            return t, True
        raise PlanningError(f"unknown unary operator {expr.op!r}")  # pragma: no cover

    def _gen_binary(self, expr: Binary, depth: int) -> tuple[str, bool]:
        op = expr.op
        if op in ("and", "or"):
            return self._gen_logical(expr, depth)
        a, _ = self.gen(expr.left, depth)
        b, _ = self.gen(expr.right, depth)
        t = self.tmp()
        if op in _CMP_OPS:
            py = _CMP_OPS[op]
            self.emit(
                depth,
                f"{t} = None if {a} is None or {b} is None else ({a} {py} {b})",
            )
            return t, True
        if op in _ARITH_INLINE:
            self.emit(
                depth,
                f"{t} = None if {a} is None or {b} is None else ({a} {op} {b})",
            )
            return t, False
        if op == "/":
            self.emit(depth, f"{t} = _div({a}, {b})")
            return t, False
        if op == "%":
            self.emit(depth, f"{t} = _mod({a}, {b})")
            return t, False
        raise PlanningError(f"unknown binary operator {op!r}")  # pragma: no cover

    def _gen_logical(self, expr: Binary, depth: int) -> tuple[str, bool]:
        # Kleene AND/OR with short-circuit: the right operand's code is
        # generated *inside* the else-branch, so it does not run (and
        # cannot raise) when the left side decides the answer.
        t = self.tmp()
        a, a_bool = self.gen(expr.left, depth)
        if expr.op == "and":
            self.emit(depth, f"if {self._is_false(a, a_bool)}:")
            self.emit(depth + 1, f"{t} = False")
            self.emit(depth, "else:")
            b, b_bool = self.gen(expr.right, depth + 1)
            self.emit(depth + 1, f"if {self._is_false(b, b_bool)}:")
            self.emit(depth + 2, f"{t} = False")
            self.emit(depth + 1, f"elif {a} is None or {b} is None:")
            self.emit(depth + 2, f"{t} = None")
            self.emit(depth + 1, "else:")
            self.emit(depth + 2, f"{t} = True")
        else:
            self.emit(depth, f"if {self._is_true(a, a_bool)}:")
            self.emit(depth + 1, f"{t} = True")
            self.emit(depth, "else:")
            b, b_bool = self.gen(expr.right, depth + 1)
            self.emit(depth + 1, f"if {self._is_true(b, b_bool)}:")
            self.emit(depth + 2, f"{t} = True")
            self.emit(depth + 1, f"elif {a} is None or {b} is None:")
            self.emit(depth + 2, f"{t} = None")
            self.emit(depth + 1, "else:")
            self.emit(depth + 2, f"{t} = False")
        return t, True

    def _gen_func(self, expr: FuncCall, depth: int) -> tuple[str, bool]:
        if expr.name in AGGREGATE_FUNCTIONS:
            raise PlanningError(
                f"aggregate {expr.name.upper()}() not allowed in this context"
            )
        fn = SCALAR_FUNCTIONS.get(expr.name)
        if fn is None:
            raise PlanningError(f"unknown function {expr.name!r}")
        args = [self.gen(a, depth)[0] for a in expr.args]
        t = self.tmp()
        if expr.name == "coalesce" and args:
            chain = args[-1]
            for a in reversed(args[:-1]):
                chain = f"({a} if {a} is not None else {chain})"
            self.emit(depth, f"{t} = {chain}")
            return t, False
        name = self.bind(fn, prefix="f")
        self.emit(depth, f"{t} = {name}({', '.join(args)})")
        return t, False

    def _gen_in(self, expr: InList, depth: int) -> tuple[str, bool]:
        tgt, _ = self.gen(expr.expr, depth)
        t = self.tmp()
        negated = expr.negated
        if all(isinstance(i, Literal) for i in expr.items):
            values = [i.value for i in expr.items]
            members = frozenset(v for v in values if v is not None)
            has_null = any(v is None for v in values)
            s = self.bind(members, prefix="s")
            self.emit(depth, f"if {tgt} is None:")
            self.emit(depth + 1, f"{t} = None")
            self.emit(depth, f"elif {tgt} in {s}:")
            self.emit(depth + 1, f"{t} = {(not negated)!r}")
            self.emit(depth, "else:")
            self.emit(depth + 1, f"{t} = {'None' if has_null else repr(negated)}")
            return t, True
        # items are evaluated left to right and only until one matches;
        # a NULL target evaluates none of them
        hit, saw = self.tmp(), self.tmp()
        self.emit(depth, f"{t} = None")
        self.emit(depth, f"if {tgt} is not None:")
        depth += 1
        self.emit(depth, f"{hit} = {saw} = False")
        for k, item in enumerate(expr.items):
            inner = depth + 1 if k else depth
            if k:
                self.emit(depth, f"if not {hit}:")
            v, _ = self.gen(item, inner)
            self.emit(inner, f"if {v} is None:")
            self.emit(inner + 1, f"{saw} = True")
            self.emit(inner, f"elif {v} == {tgt}:")
            self.emit(inner + 1, f"{hit} = True")
        self.emit(depth, f"if {hit}:")
        self.emit(depth + 1, f"{t} = {(not negated)!r}")
        self.emit(depth, f"elif not {saw}:")
        self.emit(depth + 1, f"{t} = {negated!r}")
        return t, True

    def _gen_between(self, expr: Between, depth: int) -> tuple[str, bool]:
        v, _ = self.gen(expr.expr, depth)
        lo, _ = self.gen(expr.low, depth)
        hi, _ = self.gen(expr.high, depth)
        ta, tb, t = self.tmp(), self.tmp(), self.tmp()
        self.emit(depth, f"{ta} = None if {v} is None or {lo} is None else ({v} >= {lo})")
        self.emit(depth, f"{tb} = None if {v} is None or {hi} is None else ({v} <= {hi})")
        self.emit(depth, f"if {ta} is None or {tb} is None:")
        self.emit(
            depth + 1,
            f"{t} = {expr.negated!r} if ({ta} is False or {tb} is False) else None",
        )
        self.emit(depth, "else:")
        if expr.negated:
            self.emit(depth + 1, f"{t} = not ({ta} and {tb})")
        else:
            self.emit(depth + 1, f"{t} = {ta} and {tb}")
        return t, True

    def _gen_like(self, expr: Like, depth: int) -> tuple[str, bool]:
        a, _ = self.gen(expr.expr, depth)
        t = self.tmp()
        if isinstance(expr.pattern, Literal):
            pattern = expr.pattern.value
            if pattern is None:
                self.emit(depth, f"{t} = None")
                return t, True
            # literal pattern: build the regex once at plan time
            regex = "".join(
                ".*" if ch == "%" else "." if ch == "_" else re.escape(ch)
                for ch in str(pattern)
            )
            m = self.bind(re.compile(f"^{regex}$", re.DOTALL).match, prefix="m")
            self.emit(
                depth, f"{t} = None if {a} is None else ({m}(str({a})) is not None)"
            )
        else:
            p, _ = self.gen(expr.pattern, depth)
            self.emit(depth, f"{t} = _like({a}, {p})")
        if expr.negated:
            self.emit(depth, f"if {t} is not None:")
            self.emit(depth + 1, f"{t} = not {t}")
        return t, True

    def _gen_case(self, whens: list, else_: Expr | None, depth: int, t: str) -> None:
        if not whens:
            if else_ is None:
                self.emit(depth, f"{t} = None")
            else:
                v, _ = self.gen(else_, depth)
                self.emit(depth, f"{t} = {v}")
            return
        cond, val = whens[0]
        c, c_bool = self.gen(cond, depth)
        self.emit(depth, f"if {self._is_true(c, c_bool)}:")
        v, _ = self.gen(val, depth + 1)
        self.emit(depth + 1, f"{t} = {v}")
        self.emit(depth, "else:")
        self._gen_case(whens[1:], else_, depth + 1, t)


def _generate(expr: Expr, scope: Scope, as_predicate: bool) -> Callable:
    g = _Codegen(scope)
    atom, is_bool = g.gen(expr, 2)
    if as_predicate:
        if is_bool:
            g.emit(2, f"return {atom} is True")
        else:
            g.emit(2, f"return False if {atom} is None else _t({atom})")
    else:
        g.emit(2, f"return {atom}")
    return _define(g)


def _define(g: _Codegen) -> Callable:
    """Wrap ``g``'s statements in the ``(row, params)`` function frame
    with the shared error mapping, and compile it."""
    body = "\n".join(g.lines)
    src = (
        "def _compiled(row, params):\n"
        "    try:\n"
        f"{body}\n"
        "    except (TypeError, ValueError, ArithmeticError, IndexError) as exc:\n"
        "        raise _error(exc) from None\n"
    )
    namespace = g.env
    exec(compile(src, "<sql-expr>", "exec"), namespace)  # noqa: S102 - plan-time codegen
    fn = namespace["_compiled"]
    fn._source = src  # debugging / test introspection
    return fn


def compile_expr(expr: Expr, scope: Scope) -> Compiled:
    """Compile ``expr`` into one ``(row, params) -> value`` frame."""
    return _generate(fold_constants(expr), scope, as_predicate=False)


def compile_row(
    exprs: Sequence[Expr], scope: Scope
) -> Callable[[Sequence[Any], Sequence[Any]], tuple]:
    """Compile several expressions into one ``(row, params) -> tuple``
    frame — a projection, a key, aggregate inputs or a table row —
    evaluated left to right, instead of one call per value."""
    g = _Codegen(scope)
    atoms = [g.gen(fold_constants(expr), 2)[0] for expr in exprs]
    g.emit(2, f"return ({''.join(atom + ', ' for atom in atoms)})")
    return _define(g)


def compile_predicate(
    expr: Expr, scope: Scope
) -> Callable[[Sequence[Any], Sequence[Any]], bool]:
    """Compile a WHERE-style predicate (NULL → not satisfied) with the
    boolean coercion generated inline — no wrapper frame per row."""
    return _generate(fold_constants(expr), scope, as_predicate=True)
