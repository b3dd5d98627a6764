"""Expression evaluation: three-valued logic, NULL propagation, sorting."""

import pytest

from repro.common.errors import ExpressionError, PlanningError
from repro.sql.executor import null_safe_key, sort_rows
from repro.sql.compile import compile_expr, compile_predicate
from repro.sql.expressions import Scope
from repro.sql.parser import parse_expression
from repro.storage.schema import schema
from repro.common.types import ColumnType as T

USERS = schema("u", ("a", T.INTEGER), ("b", T.INTEGER), ("s", T.VARCHAR))


def scope():
    sc = Scope()
    sc.add_source("u", USERS)
    return sc


def ev(sql, row=(None, None, None), params=()):
    return compile_expr(parse_expression(sql), scope())(row, params)


# -- NULL semantics ---------------------------------------------------------

def test_arithmetic_null_propagates():
    assert ev("a + 1") is None
    assert ev("1 + 2") == 3
    assert ev("a * b") is None


def test_comparison_null_is_unknown():
    assert ev("a = 1") is None
    assert ev("1 = 1") is True
    assert ev("a <> a") is None


def test_three_valued_and_or():
    assert ev("a = 1 AND 1 = 2") is False      # unknown AND false -> false
    assert ev("a = 1 AND 1 = 1") is None       # unknown AND true -> unknown
    assert ev("a = 1 OR 1 = 1") is True        # unknown OR true -> true
    assert ev("a = 1 OR 1 = 2") is None        # unknown OR false -> unknown
    assert ev("NOT (a = 1)") is None


def test_predicate_treats_null_as_not_satisfied():
    pred = compile_predicate(parse_expression("a = 1"), scope())
    assert pred((None, None, None), ()) is False
    assert pred((1, None, None), ()) is True


def test_in_list_null_semantics():
    assert ev("1 IN (1, 2)") is True
    assert ev("3 IN (1, 2)") is False
    assert ev("3 IN (1, a)") is None           # no match but NULL present
    assert ev("a IN (1, 2)") is None
    assert ev("1 NOT IN (1, a)") is False


def test_between_null_semantics():
    assert ev("5 BETWEEN 1 AND 10") is True
    assert ev("5 BETWEEN a AND 4") is False    # 5 <= 4 already false
    assert ev("5 BETWEEN a AND 10") is None
    assert ev("5 NOT BETWEEN a AND 4") is True


def test_is_null_is_two_valued():
    assert ev("a IS NULL") is True
    assert ev("1 IS NULL") is False
    assert ev("a IS NOT NULL") is False


def test_like_patterns():
    assert ev("'hello' LIKE 'h%'") is True
    assert ev("'hello' LIKE 'h_llo'") is True
    assert ev("'hello' LIKE 'H%'") is False    # LIKE is case-sensitive
    assert ev("s LIKE 'x%'") is None


def test_case_searched():
    assert ev("CASE WHEN 1 = 1 THEN 'y' ELSE 'n' END") == "y"
    assert ev("CASE WHEN a = 1 THEN 'y' END") is None  # unknown cond, no ELSE


# -- arithmetic details ------------------------------------------------------

def test_integer_division_truncates_toward_zero():
    assert ev("7 / 2") == 3
    assert ev("-7 / 2") == -3
    assert ev("7 % 2") == 1
    assert ev("-7 % 2") == -1
    assert ev("7.0 / 2") == 3.5


def test_division_by_zero_raises():
    with pytest.raises(ExpressionError):
        ev("1 / 0")
    with pytest.raises(ExpressionError):
        ev("1 % 0")


def test_scalar_functions():
    assert ev("coalesce(a, b, 9)") == 9
    assert ev("nullif(3, 3)") is None
    assert ev("greatest(1, a, 5)") == 5
    assert ev("least(a, 2)") == 2
    assert ev("upper('ab')") == "AB"
    assert ev("length(s)") is None
    assert ev("abs(-4)") == 4
    with pytest.raises(PlanningError):
        ev("no_such_fn(1)")


def test_params_bind_positionally():
    assert ev("? + ?", params=(2, 3)) == 5
    with pytest.raises(ExpressionError):
        ev("? + ?", params=(2,))


def test_column_resolution_errors():
    with pytest.raises(PlanningError):
        ev("nope")
    with pytest.raises(PlanningError):
        ev("x.a")


# -- sorting -----------------------------------------------------------------

def test_null_safe_key_orders_nulls_last_asc():
    values = [3, None, 1, None, 2]
    pairs = [((null_safe_key(v),), (v,)) for v in values]
    assert sort_rows(pairs, (False,)) == [(1,), (2,), (3,), (None,), (None,)]


def test_null_safe_key_orders_nulls_first_desc():
    values = [3, None, 1]
    pairs = [((null_safe_key(v),), (v,)) for v in values]
    assert sort_rows(pairs, (True,)) == [(None,), (3,), (1,)]


def test_multi_key_sort_is_stable():
    rows = [(1, "b"), (2, "a"), (1, "a"), (2, "b")]
    pairs = [((null_safe_key(a), null_safe_key(b)), (a, b)) for a, b in rows]
    assert sort_rows(pairs, (False, True)) == [
        (1, "b"), (1, "a"), (2, "b"), (2, "a")
    ]
