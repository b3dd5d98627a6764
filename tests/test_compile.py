"""Compiled expressions vs the closure-tree interpreter.

The compiler (:mod:`repro.sql.compile`) generates Python source for each
expression tree; the interpreter (:mod:`repro.sql.expressions`) is the
reference semantics.  The contract is *exact agreement* — same values,
same NULL propagation, same errors — so the core here is a property
test: every expression shape evaluated over deterministic pseudo-random
rows (with NULLs) by both evaluators, in both value and predicate form.
"""

import gc
import time

import pytest

from repro.common.errors import ExpressionError
from repro.common.types import ColumnType as T
from repro.sql.ast import Binary, Literal
from repro.sql.compile import compile_expr, compile_predicate, fold_constants
from repro.sql.expressions import (
    Scope,
    compile_expr as interpret_expr,
    predicate as interpret_predicate,
)
from repro.sql.parser import parse_expression
from repro.storage.schema import schema


def make_scope() -> Scope:
    scope = Scope()
    scope.add_source(
        "t",
        schema(
            "t",
            ("a", T.BIGINT),
            ("b", T.BIGINT),
            ("x", T.FLOAT),
            ("s", T.VARCHAR),
            ("flag", T.BOOLEAN),
        ),
    )
    return scope


def lcg(seed: int):
    state = seed

    def next_u32() -> int:
        nonlocal state
        state = (1103515245 * state + 12345) % (1 << 31)
        return state

    return next_u32


def random_rows(n: int, seed: int = 0xC0FFEE) -> list[tuple]:
    """Deterministic rows mixing ints, floats, strings, bools, and NULLs."""
    rnd = lcg(seed)
    strings = ("alpha", "beta", "gamma", "", "Alpha", None)
    rows = []
    for _ in range(n):
        a = None if rnd() % 7 == 0 else rnd() % 20 - 10
        b = None if rnd() % 7 == 0 else rnd() % 5
        x = None if rnd() % 9 == 0 else (rnd() % 1000) / 10.0
        s = strings[rnd() % 6]
        flag = (None, True, False)[rnd() % 3]
        rows.append((a, b, x, s, flag))
    return rows


#: every expression-language construct: arithmetic, comparison, boolean
#: logic, NULL tests, IN/BETWEEN/LIKE/CASE, scalar functions, params
EXPRESSIONS = [
    "a + b * 2",
    "a - b / 2",
    "-a + 7",
    "a % 3",
    "x * 1.5 + a",
    "a = b",
    "a <> b",
    "a < b OR a > b + 3",
    "a >= 0 AND b <= 3",
    "NOT (a > 0)",
    "a > 0 AND x > 50.0",
    "a > 0 OR flag",
    "flag AND a IS NOT NULL",
    "a IS NULL",
    "x IS NOT NULL AND x < 25.0",
    "a IN (1, 2, 3, b)",
    "a NOT IN (0, 5)",
    "a BETWEEN -2 AND b",
    "x NOT BETWEEN 10.0 AND 90.0",
    "s = 'alpha'",
    "s LIKE 'al%'",
    "s LIKE '%a'",
    "s NOT LIKE '_eta'",
    "UPPER(s) = 'ALPHA'",
    "LOWER(s) LIKE 'alpha%'",
    "LENGTH(s) > 3",
    "ABS(a) + ABS(b)",
    "COALESCE(a, b, 0)",
    "COALESCE(x, 0.0) * 2.0",
    "CASE WHEN a > 0 THEN 'pos' WHEN a < 0 THEN 'neg' ELSE 'zero' END",
    "CASE WHEN flag THEN a ELSE b END",
    "LEAST(a, b)",
    "GREATEST(a, b, 0)",
    "NULLIF(b, 0)",
    "ROUND(x / 3.0, 1)",
    "a = ? OR b = ?",
    "x > ? AND s LIKE ?",
    "(a + 1) * (b - 1) = a * b + a - b - 1 + 2",
    "1 + 2 * 3 = 7",
    "NULL IS NULL",
    "NOT flag OR flag",
]

PARAMS = (3, "a%", 42.5)


def both_results(fn, row, params):
    """(value, error-class) of one evaluator — errors must match too."""
    try:
        return fn(row, params), None
    except ExpressionError:
        return None, ExpressionError


@pytest.mark.parametrize("sql", EXPRESSIONS)
def test_compiled_matches_interpreted(sql):
    scope = make_scope()
    expr = parse_expression(sql)
    interp = interpret_expr(expr, scope)
    compiled = compile_expr(expr, scope)
    interp_pred = interpret_predicate(interpret_expr(expr, scope))
    compiled_pred = compile_predicate(expr, scope)

    for row in random_rows(300):
        iv, ierr = both_results(interp, row, PARAMS)
        cv, cerr = both_results(compiled, row, PARAMS)
        assert (iv, ierr) == (cv, cerr), (
            f"{sql!r} on {row}: interpreted {iv!r}/{ierr} "
            f"!= compiled {cv!r}/{cerr}"
        )
        # predicate form: NULL must coerce to False identically
        ip, ierr = both_results(interp_pred, row, PARAMS)
        cp, cerr = both_results(compiled_pred, row, PARAMS)
        assert (ip, ierr) == (cp, cerr)
        if cerr is None:
            assert isinstance(cp, bool)


def test_predicate_null_is_false():
    scope = make_scope()
    pred = compile_predicate(parse_expression("a > 0"), scope)
    assert pred((None, 1, 1.0, "s", True), ()) is False
    assert pred((1, 1, 1.0, "s", True), ()) is True
    assert pred((-1, 1, 1.0, "s", True), ()) is False


def test_division_errors_match():
    scope = make_scope()
    expr = parse_expression("a / b")
    interp = interpret_expr(expr, scope)
    compiled = compile_expr(expr, scope)
    row = (10, 0, 1.0, "s", True)
    with pytest.raises(ExpressionError):
        interp(row, ())
    with pytest.raises(ExpressionError):
        compiled(row, ())
    # NULL divisor propagates NULL, no error
    assert compiled((10, None, 1.0, "s", True), ()) is None


def test_type_errors_become_expression_errors():
    scope = make_scope()
    compiled = compile_expr(parse_expression("a + s"), scope)
    with pytest.raises(ExpressionError):
        compiled((1, 0, 1.0, "alpha", True), ())


# -- constant folding --------------------------------------------------------


def test_fold_constants_collapses_pure_subtrees():
    folded = fold_constants(parse_expression("1 + 2 * 3"))
    assert isinstance(folded, Literal) and folded.value == 7
    folded = fold_constants(parse_expression("'al' LIKE 'a%' AND 2 > 1"))
    assert isinstance(folded, Literal) and folded.value is True


def test_fold_constants_short_circuits_left_side_only():
    # FALSE AND x -> FALSE even when x references a column
    folded = fold_constants(parse_expression("1 > 2 AND a = 1"))
    assert isinstance(folded, Literal) and folded.value is False
    # TRUE OR x -> TRUE
    folded = fold_constants(parse_expression("1 < 2 OR a = 1"))
    assert isinstance(folded, Literal) and folded.value is True
    # TRUE AND x is NOT x (predicate coercion differs): must stay a Binary
    folded = fold_constants(parse_expression("1 < 2 AND a"))
    assert isinstance(folded, Binary)


def test_fold_constants_defers_runtime_errors():
    # 1/0 must not raise at plan time; it still raises at execution
    folded = fold_constants(parse_expression("1 / 0"))
    assert not isinstance(folded, Literal)
    compiled = compile_expr(folded, make_scope())
    with pytest.raises(ExpressionError):
        compiled((1, 1, 1.0, "s", True), ())


def test_folded_predicate_in_where_clause_still_runs():
    # end to end: a constant-true WHERE folds away, results unchanged
    scope = make_scope()
    pred = compile_predicate(parse_expression("1 = 1 AND a > 5"), scope)
    assert pred((6, 0, 0.0, "", None), ()) is True
    assert pred((5, 0, 0.0, "", None), ()) is False


def test_compiled_source_attached_for_debugging():
    scope = make_scope()
    compiled = compile_expr(parse_expression("a + b"), scope)
    assert "def _compiled(row, params):" in compiled._source


# -- speed ---------------------------------------------------------------------


def best_of_3(fn) -> float:
    best = float("inf")
    for _ in range(3):
        gc.collect()
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.wallclock
def test_compiled_predicate_is_faster_than_interpreted():
    # a fraud-filter shape: comparison, OR branching, arithmetic, string
    # equality — the per-row dispatch the compiler removes shows on all of it
    scope = make_scope()
    expr = parse_expression(
        "x > 20.0 AND s <> 'beta' AND (a > 0 OR b = 2) AND x * 1.02 + 5.0 < 95.0"
    )
    interp = interpret_predicate(interpret_expr(expr, scope))
    compiled = compile_predicate(expr, scope)
    rows = random_rows(5_000)

    def run(pred):
        return lambda: [row for row in rows if pred(row, ())]

    assert run(interp)() == run(compiled)()
    assert best_of_3(run(interp)) >= 1.5 * best_of_3(run(compiled))
