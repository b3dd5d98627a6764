"""Column types and value coercion.

The engine stores rows as plain Python tuples; this module defines the small
set of column types the SQL layer understands and the coercion rules used
when values enter a table (INSERT/UPDATE) or when parameters are bound.

Types are deliberately close to H-Store's: integers, floats, fixed-point
handled as floats, strings, and timestamps (stored as integer microseconds).
``None`` represents SQL NULL for every type.
"""

from __future__ import annotations

import enum
import math
from typing import Any

from .errors import TypeMismatchError


class ColumnType(enum.Enum):
    """Supported column types.

    ``TIMESTAMP`` is stored as an integer number of microseconds since an
    arbitrary epoch, matching H-Store's microsecond-precision TIMESTAMP
    columns.
    """

    INTEGER = "INTEGER"
    BIGINT = "BIGINT"
    FLOAT = "FLOAT"
    VARCHAR = "VARCHAR"
    TIMESTAMP = "TIMESTAMP"
    BOOLEAN = "BOOLEAN"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ColumnType.{self.name}"


_INTEGER_TYPES = frozenset({ColumnType.INTEGER, ColumnType.BIGINT, ColumnType.TIMESTAMP})

#: Inclusive bounds for 32-bit INTEGER columns (BIGINT/TIMESTAMP are 64-bit).
INTEGER_MIN = -(2**31)
INTEGER_MAX = 2**31 - 1
BIGINT_MIN = -(2**63)
BIGINT_MAX = 2**63 - 1


#: Per type, a source-level test over the placeholder ``{v}`` that holds
#: exactly when :func:`coerce_value` would return the value unchanged:
#: the cast table resolved once, for code generated per schema
#: (:meth:`repro.storage.schema.TableSchema.coerce_row`) to inline per
#: cell.  Every other value — NULL, a ``bool`` offered to an integer
#: column, anything needing conversion or failing a range check — is
#: :func:`coerce_value`'s, which stays the reference and the only error
#: path.
EXACT_TYPE_TEST: dict[ColumnType, str] = {
    ColumnType.INTEGER: f"type({{v}}) is int and {INTEGER_MIN} <= {{v}} <= {INTEGER_MAX}",
    ColumnType.BIGINT: f"type({{v}}) is int and {BIGINT_MIN} <= {{v}} <= {BIGINT_MAX}",
    ColumnType.TIMESTAMP: f"type({{v}}) is int and {BIGINT_MIN} <= {{v}} <= {BIGINT_MAX}",
    ColumnType.FLOAT: "type({v}) is float",
    ColumnType.VARCHAR: "type({v}) is str",
    ColumnType.BOOLEAN: "type({v}) is bool",
}


def coerce_value(value: Any, ctype: ColumnType, *, column: str = "?") -> Any:
    """Coerce ``value`` to the Python representation of ``ctype``.

    ``None`` (SQL NULL) passes through unchanged for every type.  Raises
    :class:`TypeMismatchError` when the value cannot be represented.

    >>> coerce_value("42", ColumnType.INTEGER)
    42
    >>> coerce_value(1, ColumnType.BOOLEAN)
    True
    """
    if value is None:
        return None

    if ctype in _INTEGER_TYPES:
        out = _coerce_int(value, column)
        lo, hi = (INTEGER_MIN, INTEGER_MAX) if ctype is ColumnType.INTEGER else (BIGINT_MIN, BIGINT_MAX)
        if not lo <= out <= hi:
            raise TypeMismatchError(
                f"column {column!r}: value {out} out of range for {ctype.value}"
            )
        return out

    if ctype is ColumnType.FLOAT:
        if isinstance(value, bool):
            raise TypeMismatchError(f"column {column!r}: cannot store BOOLEAN in FLOAT")
        if isinstance(value, (int, float)):
            return float(value)
        if isinstance(value, str):
            try:
                return float(value)
            except ValueError:
                raise TypeMismatchError(
                    f"column {column!r}: cannot coerce {value!r} to FLOAT"
                ) from None
        raise TypeMismatchError(f"column {column!r}: cannot coerce {type(value).__name__} to FLOAT")

    if ctype is ColumnType.VARCHAR:
        if isinstance(value, str):
            return value
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return str(value)
        raise TypeMismatchError(f"column {column!r}: cannot coerce {type(value).__name__} to VARCHAR")

    if ctype is ColumnType.BOOLEAN:
        if isinstance(value, bool):
            return value
        if isinstance(value, int) and value in (0, 1):
            return bool(value)
        raise TypeMismatchError(f"column {column!r}: cannot coerce {value!r} to BOOLEAN")

    raise TypeMismatchError(f"column {column!r}: unsupported type {ctype!r}")  # pragma: no cover


def _coerce_int(value: Any, column: str) -> int:
    if isinstance(value, bool):
        raise TypeMismatchError(f"column {column!r}: cannot store BOOLEAN in integer column")
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        if not math.isfinite(value) or value != int(value):
            raise TypeMismatchError(f"column {column!r}: {value!r} is not an integral value")
        return int(value)
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            raise TypeMismatchError(f"column {column!r}: cannot coerce {value!r} to integer") from None
    raise TypeMismatchError(f"column {column!r}: cannot coerce {type(value).__name__} to integer")


def sql_repr(value: Any) -> str:
    """Render a Python value the way it would appear in SQL output.

    >>> sql_repr(None)
    'NULL'
    >>> sql_repr("x")
    "'x'"
    """
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    return repr(value)
