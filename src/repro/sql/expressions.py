"""What compiled expressions are evaluated against, and with.

:mod:`repro.sql.compile` turns an expression into one generated
``(row, params) -> value`` function (:data:`Compiled`), where ``row`` is
the flat tuple produced by the current plan node and ``params`` is the
positional bind list.  This module holds what that code resolves names
against and calls at run time:

* :class:`Scope` maps column references to row slots, and
  :class:`SlotRef` is the planner's direct slot reference;
* the scalar function registry (``SCALAR_FUNCTIONS``);
* the NULL-propagating helpers: SQL division and modulo (``sql_div``,
  ``sql_mod``), ``LIKE`` matching, and the truth test of a condition;
* :func:`transform`, the planner's structure-preserving rewrite.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from ..common.errors import ExpressionError, PlanningError
from .ast import Expr, map_children

Compiled = Callable[[Sequence[Any], Sequence[Any]], Any]


@dataclass(frozen=True)
class SlotRef(Expr):
    """Internal node: a direct reference into the current row tuple.

    The planner substitutes these for group keys and computed aggregates
    when compiling HAVING / ORDER BY / projection over grouped rows.
    """

    slot: int


class Scope:
    """Resolves column references to slots in the current flat row.

    Built from the FROM clause: each source contributes its columns at an
    offset.  Unqualified names must be unambiguous across sources.
    """

    def __init__(self) -> None:
        #: binding name -> (offset, schema)
        self.sources: dict[str, tuple[int, Any]] = {}
        self.width = 0

    def add_source(self, binding: str, schema) -> int:
        binding = binding.lower()
        if binding in self.sources:
            raise PlanningError(f"duplicate table binding {binding!r} in FROM clause")
        offset = self.width
        self.sources[binding] = (offset, schema)
        self.width += schema.arity()
        return offset

    def resolve(self, name: str, qualifier: Optional[str]) -> int:
        name = name.lower()
        if qualifier is not None:
            qualifier = qualifier.lower()
            if qualifier not in self.sources:
                raise PlanningError(f"unknown table or alias {qualifier!r}")
            offset, schema = self.sources[qualifier]
            return offset + schema.position(name)
        matches = []
        for binding, (offset, schema) in self.sources.items():
            if schema.has_column(name):
                matches.append(offset + schema.position(name))
        if not matches:
            raise PlanningError(f"unknown column {name!r}")
        if len(matches) > 1:
            raise PlanningError(f"ambiguous column {name!r}; qualify it")
        return matches[0]

    def columns_of(self, binding: str) -> list[tuple[str, int]]:
        offset, schema = self.sources[binding.lower()]
        return [(c, offset + schema.position(c)) for c in schema.column_names()]

    def all_columns(self) -> list[tuple[str, int]]:
        out = []
        for binding in self.sources:
            out.extend(self.columns_of(binding))
        return out


# ---------------------------------------------------------------------------
# Scalar function registry
# ---------------------------------------------------------------------------

def _fn_abs(v):
    return None if v is None else abs(v)


def _fn_floor(v):
    return None if v is None else math.floor(v)


def _fn_ceil(v):
    return None if v is None else math.ceil(v)


def _fn_round(v, digits=0):
    if v is None:
        return None
    result = round(v, int(digits))
    return result


def _fn_length(v):
    return None if v is None else len(v)


def _fn_upper(v):
    return None if v is None else str(v).upper()


def _fn_lower(v):
    return None if v is None else str(v).lower()


def _fn_mod(a, b):
    if a is None or b is None:
        return None
    if b == 0:
        raise ExpressionError("MOD by zero")
    return math.fmod(a, b) if isinstance(a, float) or isinstance(b, float) else int(math.fmod(a, b))


def _fn_coalesce(*args):
    for a in args:
        if a is not None:
            return a
    return None


def _fn_nullif(a, b):
    return None if a == b else a


def _fn_greatest(*args):
    present = [a for a in args if a is not None]
    return max(present) if present else None


def _fn_least(*args):
    present = [a for a in args if a is not None]
    return min(present) if present else None


def _fn_power(a, b):
    if a is None or b is None:
        return None
    return math.pow(a, b)


def _fn_sqrt(a):
    if a is None:
        return None
    if a < 0:
        raise ExpressionError("SQRT of negative value")
    return math.sqrt(a)


SCALAR_FUNCTIONS: dict[str, Callable[..., Any]] = {
    "abs": _fn_abs,
    "floor": _fn_floor,
    "ceil": _fn_ceil,
    "ceiling": _fn_ceil,
    "round": _fn_round,
    "length": _fn_length,
    "char_length": _fn_length,
    "upper": _fn_upper,
    "lower": _fn_lower,
    "mod": _fn_mod,
    "coalesce": _fn_coalesce,
    "nullif": _fn_nullif,
    "greatest": _fn_greatest,
    "least": _fn_least,
    "power": _fn_power,
    "sqrt": _fn_sqrt,
}


# ---------------------------------------------------------------------------
# Division with NULL propagation and SQL integer semantics
# ---------------------------------------------------------------------------

def sql_div(a: Any, b: Any) -> Any:
    """SQL ``/``: NULL if either side is; integers truncate toward zero."""
    if a is None or b is None:
        return None
    if b == 0:
        raise ExpressionError("division by zero")
    if isinstance(a, int) and isinstance(b, int):
        q = abs(a) // abs(b)
        return q if (a >= 0) == (b >= 0) else -q
    return a / b


def sql_mod(a: Any, b: Any) -> Any:
    """SQL ``%``: NULL if either side is; the result has the dividend's sign."""
    if a is None or b is None:
        return None
    if b == 0:
        raise ExpressionError("modulo by zero")
    if isinstance(a, int) and isinstance(b, int):
        r = abs(a) % abs(b)
        return r if a >= 0 else -r
    return math.fmod(a, b)


_LIKE_CACHE: dict[str, re.Pattern] = {}


def like_match(value: Any, pattern: Any) -> Optional[bool]:
    """SQL LIKE with ``%`` and ``_`` wildcards (NULL-propagating)."""
    if value is None or pattern is None:
        return None
    compiled = _LIKE_CACHE.get(pattern)
    if compiled is None:
        regex = "".join(
            ".*" if ch == "%" else "." if ch == "_" else re.escape(ch) for ch in pattern
        )
        compiled = re.compile(f"^{regex}$", re.DOTALL)
        if len(_LIKE_CACHE) < 1024:
            _LIKE_CACHE[pattern] = compiled
    return compiled.match(str(value)) is not None


def _truthy(value: Any) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return value != 0
    raise ExpressionError(f"value {value!r} is not a boolean condition")


def transform(expr: Expr, fn: Callable[[Expr], Optional[Expr]]) -> Expr:
    """Structure-preserving top-down rewrite of an expression tree.

    ``fn`` is offered every node: returning a replacement node substitutes
    that whole subtree (no further descent); returning ``None`` descends
    into the children.  The planner builds its column-resolution and
    grouped-row rewrites on this single walker.
    """
    replaced = fn(expr)
    if replaced is not None:
        return replaced
    return map_children(expr, lambda child: transform(child, fn))
