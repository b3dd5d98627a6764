"""Expression trees → generated Python code (the compiled executor).

:mod:`repro.sql.expressions` compiles an expression into a *closure tree*:
one Python frame per AST node per row.  That is fine for planning-time
values but is the dominant per-row cost of hot filters.  This module
instead **generates Python source** for the whole expression — straight-
line statements over ``row``/``params`` with explicit temporaries — and
``compile()``s it once at plan time, so evaluating a predicate is a single
stack frame with inlined column loads, comparisons, and arithmetic.

Semantics are identical to the interpreter (the property tests in
``tests/test_compile.py`` hold the two implementations together):

* NULL (``None``) propagates through arithmetic and comparisons;
* ``AND``/``OR`` follow Kleene three-valued logic **with short-circuit
  evaluation** (the right side is not evaluated when the left decides);
* CASE evaluates WHEN conditions lazily, in order;
* division/modulo keep SQL integer semantics (truncation toward zero,
  errors on zero) by delegating to the interpreter's ``_arith``;
* stray ``TypeError``s surface as :class:`ExpressionError`.

A **constant-folding** pass runs first: any pure all-literal subtree is
evaluated at plan time (errors like ``1/0`` are deferred, not raised), and
the three-valued identities ``FALSE AND x → FALSE`` / ``TRUE OR x → TRUE``
prune short-circuit branches entirely.  (``TRUE AND x`` is *not* folded to
``x`` — AND coerces its result to a boolean, ``x`` may be numeric.)

Entry points mirror the interpreter: :func:`compile_expr` yields a
``(row, params) -> value`` callable; :func:`compile_predicate` yields a
WHERE-style ``(row, params) -> bool`` (NULL → not satisfied) with the
coercion generated inline instead of paying a wrapper frame per row;
:func:`compile_row` yields one ``(row, params) -> tuple`` frame for a
whole projection, index key or updated row.  Unsupported nodes (there
are none today; the hook guards future AST growth) fall back to the
interpreter.
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
)
from .expressions import (
    SCALAR_FUNCTIONS,
    Compiled,
    Scope,
    SlotRef,
    _arith,
    _truthy,
    like_match,
)
from .expressions import compile_expr as interpret_expr
from .expressions import predicate as interpret_predicate

__all__ = ["compile_expr", "compile_predicate", "compile_row", "fold_constants"]


class _Unsupported(Exception):
    """Internal: node the code generator cannot handle (fall back)."""


# ---------------------------------------------------------------------------
# Constant folding
# ---------------------------------------------------------------------------

_EMPTY_SCOPE = Scope()


def _is_const(expr: Expr) -> bool:
    """True when ``expr`` is a pure function of literals only."""
    if isinstance(expr, Literal):
        return True
    if isinstance(expr, (Param, ColumnRef, SlotRef)):
        return False
    if isinstance(expr, Unary):
        return _is_const(expr.operand)
    if isinstance(expr, Binary):
        return _is_const(expr.left) and _is_const(expr.right)
    if isinstance(expr, FuncCall):
        if expr.star or expr.name in AGGREGATE_FUNCTIONS:
            return False
        if expr.name not in SCALAR_FUNCTIONS:
            return False  # unknown function: let compilation raise PlanningError
        return all(_is_const(a) for a in expr.args)
    if isinstance(expr, InList):
        return _is_const(expr.expr) and all(_is_const(i) for i in expr.items)
    if isinstance(expr, Between):
        return _is_const(expr.expr) and _is_const(expr.low) and _is_const(expr.high)
    if isinstance(expr, IsNull):
        return _is_const(expr.expr)
    if isinstance(expr, Like):
        return _is_const(expr.expr) and _is_const(expr.pattern)
    if isinstance(expr, Case):
        return all(
            _is_const(c) and _is_const(v) for c, v in expr.whens
        ) and (expr.else_ is None or _is_const(expr.else_))
    return False


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

    A pure all-literal subtree becomes the literal of its value;
    a subtree whose evaluation *raises* (``1/0``) is left intact so the
    error still surfaces at execution, exactly as interpreted.
    """
    if isinstance(expr, Unary):
        expr = Unary(expr.op, fold_constants(expr.operand))
    elif isinstance(expr, Binary):
        left = fold_constants(expr.left)
        right = fold_constants(expr.right)
        expr = Binary(expr.op, left, right)
        # three-valued short-circuit identities (left side only: AND/OR
        # evaluate left first, so dropping the right never skips an error)
        if expr.op == "and" and _literal_bool(left) is False:
            return Literal(False)
        if expr.op == "or" and _literal_bool(left) is True:
            return Literal(True)
    elif isinstance(expr, FuncCall):
        expr = FuncCall(
            expr.name,
            tuple(fold_constants(a) for a in expr.args),
            distinct=expr.distinct,
            star=expr.star,
        )
    elif isinstance(expr, InList):
        expr = InList(
            fold_constants(expr.expr),
            tuple(fold_constants(i) for i in expr.items),
            negated=expr.negated,
        )
    elif isinstance(expr, Between):
        expr = Between(
            fold_constants(expr.expr),
            fold_constants(expr.low),
            fold_constants(expr.high),
            negated=expr.negated,
        )
    elif isinstance(expr, IsNull):
        expr = IsNull(fold_constants(expr.expr), negated=expr.negated)
    elif isinstance(expr, Like):
        expr = Like(
            fold_constants(expr.expr),
            fold_constants(expr.pattern),
            negated=expr.negated,
        )
    elif isinstance(expr, Case):
        expr = Case(
            tuple((fold_constants(c), fold_constants(v)) for c, v in expr.whens),
            fold_constants(expr.else_) if expr.else_ is not None else None,
        )

    if not isinstance(expr, Literal) and _is_const(expr):
        try:
            value = interpret_expr(expr, _EMPTY_SCOPE)((), ())
        except ExpressionError:
            return expr  # deferred runtime error (division by zero, ...)
        return Literal(value)
    return expr


# ---------------------------------------------------------------------------
# Code generation
# ---------------------------------------------------------------------------

def _div(a: Any, b: Any) -> Any:
    return _arith("/", a, b)


def _mod(a: Any, b: Any) -> Any:
    return _arith("%", a, b)


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
            "_EE": ExpressionError,
            "_like": like_match,
            "_div": _div,
            "_mod": _mod,
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

        raise _Unsupported(type(expr).__name__)

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
        saw = self.tmp()
        loop_var = self.tmp()
        self.emit(depth, f"if {tgt} is None:")
        self.emit(depth + 1, f"{t} = None")
        self.emit(depth, "else:")
        # items are evaluated lazily, inside the else-branch, matching the
        # interpreter (a NULL target never evaluates the list)
        items = [self.gen(i, depth + 1)[0] for i in expr.items]
        self.emit(depth + 1, f"{saw} = False")
        self.emit(depth + 1, f"{t} = {negated!r}")
        self.emit(depth + 1, f"for {loop_var} in ({', '.join(items)},):")
        self.emit(depth + 2, f"if {loop_var} is None:")
        self.emit(depth + 3, f"{saw} = True")
        self.emit(depth + 2, f"elif {loop_var} == {tgt}:")
        self.emit(depth + 3, f"{t} = {(not negated)!r}")
        self.emit(depth + 3, "break")
        self.emit(depth + 1, "else:")
        self.emit(depth + 2, f"if {saw}:")
        self.emit(depth + 3, f"{t} = None")
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
        "    except _EE:\n"
        "        raise\n"
        "    except TypeError as exc:\n"
        "        raise _EE(f\"type error in expression: {exc}\") from None\n"
        "    except IndexError as exc:\n"
        "        raise _EE(f\"parameter binding error: {exc}\") from None\n"
    )
    namespace = g.env
    exec(compile(src, "<sql-expr>", "exec"), namespace)  # noqa: S102 - plan-time codegen
    fn = namespace["_compiled"]
    fn._source = src  # debugging / test introspection
    return fn


def compile_expr(expr: Expr, scope: Scope) -> Compiled:
    """Codegen counterpart of :func:`repro.sql.expressions.compile_expr`:
    same ``(row, params) -> value`` contract, single-frame execution."""
    expr = fold_constants(expr)
    try:
        return _generate(expr, scope, as_predicate=False)
    except _Unsupported:  # pragma: no cover - all current nodes supported
        return interpret_expr(expr, scope)


def compile_row(
    exprs: Sequence[Expr], scope: Scope
) -> Callable[[Sequence[Any], Sequence[Any]], tuple]:
    """Compile several expressions into one ``(row, params) -> tuple``
    frame — a projection, an index key or an updated row — evaluated left
    to right, instead of one call per value."""
    g = _Codegen(scope)
    try:
        atoms = [g.gen(fold_constants(expr), 2)[0] for expr in exprs]
    except _Unsupported:  # pragma: no cover - all current nodes supported
        fns = [compile_expr(expr, scope) for expr in exprs]
        return lambda row, params: tuple([fn(row, params) for fn in fns])
    g.emit(2, f"return ({''.join(atom + ', ' for atom in atoms)})")
    return _define(g)


def compile_predicate(
    expr: Expr, scope: Scope
) -> Callable[[Sequence[Any], Sequence[Any]], bool]:
    """Compile a WHERE-style predicate (NULL → not satisfied) with the
    boolean coercion generated inline — no wrapper frame per row."""
    expr = fold_constants(expr)
    try:
        return _generate(expr, scope, as_predicate=True)
    except _Unsupported:  # pragma: no cover - all current nodes supported
        return interpret_predicate(interpret_expr(expr, scope))
