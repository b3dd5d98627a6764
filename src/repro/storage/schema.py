"""Table schemas: columns, constraints, and table kinds.

A :class:`TableSchema` is an immutable description of a table: ordered
columns, an optional primary key, and UNIQUE constraints.  The streaming
layer reuses the same machinery for streams and windows — per paper §3.2.1
and §3.2.2, *"S-Store implements a stream as a time-varying, H-Store table"*
— distinguishing them only by :class:`TableKind` plus hidden metadata
columns appended by the streaming layer.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from ..common.errors import ConstraintViolation, NoSuchColumnError, SchemaError
from ..common.types import EXACT_TYPE_TEST, ColumnType, coerce_value


class TableKind(enum.Enum):
    """What role a table plays in the hybrid model (paper §2: three kinds of
    state — public shared tables, windows, and streams)."""

    TABLE = "TABLE"
    STREAM = "STREAM"
    WINDOW = "WINDOW"


#: Columns whose names start with this prefix are engine-managed metadata
#: (batch ids, arrival sequence, window staging state).  They are invisible
#: to ``SELECT *`` and to ``stats()`` column listings, but remain addressable
#: by explicit name — the streaming layer queries them directly.
HIDDEN_COLUMN_PREFIX = "__"


def is_hidden_column(name: str) -> bool:
    """Whether ``name`` is an engine-managed metadata column."""
    return name.startswith(HIDDEN_COLUMN_PREFIX)


@dataclass(frozen=True)
class Column:
    """One column: name, type, nullability, and optional default value."""

    name: str
    ctype: ColumnType
    nullable: bool = True
    default: Any = None

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "a").isalnum():
            raise SchemaError(f"invalid column name {self.name!r}")
        if self.default is not None:
            default = coerce_value(self.default, self.ctype, column=self.name)
            object.__setattr__(self, "default", default)


class TableSchema:
    """Ordered columns plus key constraints for one table.

    Column names are case-insensitive (normalised to lower case), matching
    the SQL layer's identifier handling.
    """

    __slots__ = (
        "name", "columns", "primary_key", "unique_keys", "kind", "_positions", "_coercer",
    )

    def __init__(
        self,
        name: str,
        columns: Sequence[Column],
        *,
        primary_key: Sequence[str] = (),
        unique_keys: Sequence[Sequence[str]] = (),
        kind: TableKind = TableKind.TABLE,
    ):
        if not name:
            raise SchemaError("table name must be non-empty")
        if not columns:
            raise SchemaError(f"table {name!r} must have at least one column")
        self.name = name.lower()
        self.columns: tuple[Column, ...] = tuple(
            Column(c.name.lower(), c.ctype, c.nullable, c.default) for c in columns
        )
        self._positions: dict[str, int] = {}
        for i, col in enumerate(self.columns):
            if col.name in self._positions:
                raise SchemaError(f"duplicate column {col.name!r} in table {name!r}")
            self._positions[col.name] = i
        self.primary_key: tuple[str, ...] = tuple(c.lower() for c in primary_key)
        for c in self.primary_key:
            if c not in self._positions:
                raise SchemaError(f"primary key column {c!r} not in table {name!r}")
        self.unique_keys: tuple[tuple[str, ...], ...] = tuple(
            tuple(c.lower() for c in key) for key in unique_keys
        )
        for key in self.unique_keys:
            for c in key:
                if c not in self._positions:
                    raise SchemaError(f"unique key column {c!r} not in table {name!r}")
        self.kind = kind
        self._coercer: Callable[[Sequence[Any]], tuple] | None = None

    # -- lookups ------------------------------------------------------------

    def column_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    def position(self, column: str) -> int:
        """Index of ``column`` within a row tuple."""
        try:
            return self._positions[column.lower()]
        except KeyError:
            raise NoSuchColumnError(
                f"no column {column!r} in table {self.name!r} "
                f"(have: {', '.join(self._positions)})"
            ) from None

    def has_column(self, column: str) -> bool:
        return column.lower() in self._positions

    def column(self, name: str) -> Column:
        return self.columns[self.position(name)]

    def arity(self) -> int:
        return len(self.columns)

    # -- row handling ---------------------------------------------------------

    @property
    def coerce_row(self) -> Callable[[Sequence[Any]], tuple]:
        """``coerce_row(values) -> tuple``: validate and coerce a full-width
        row, applying defaults and NOT NULL checks.

        The callable is generated for this schema on first use (schemas
        never written pay nothing), the way :mod:`repro.sql.compile`
        generates predicates: one frame per row, per cell an inlined
        exact-type test (:data:`~repro.common.types.EXACT_TYPE_TEST`), and
        every cell failing it handed to :meth:`_coerce_cell`.
        """
        coercer = self._coercer
        if coercer is None:
            coercer = self._coercer = self._compile_coercer()
        return coercer

    def _coerce_cell(self, col: Column, value: Any) -> Any:
        """Reference coercion of one cell — NULL takes the default, NOT
        NULL is enforced, :func:`coerce_value` converts or raises."""
        if value is None:
            value = col.default
        if value is None and not col.nullable:
            raise ConstraintViolation(
                f"column {col.name!r} of table {self.name!r} is NOT NULL"
            )
        return coerce_value(value, col.ctype, column=col.name)

    def _wrong_arity(self, got: int) -> SchemaError:
        return SchemaError(
            f"table {self.name!r} expects {len(self.columns)} values, got {got}"
        )

    def _compile_coercer(self) -> Callable[[Sequence[Any]], tuple]:
        cells = [f"v{i}" for i in range(len(self.columns))]
        lines = [
            "def coerce_row(values):",
            f"    if len(values) != {len(cells)}:",
            "        raise wrong_arity(len(values))",
            f"    {', '.join(cells)}, = values",
        ]
        namespace: dict[str, Any] = {
            "wrong_arity": self._wrong_arity, "cell": self._coerce_cell,
        }
        for i, (v, col) in enumerate(zip(cells, self.columns)):
            namespace[f"col{i}"] = col
            lines.append(f"    if not ({EXACT_TYPE_TEST[col.ctype].format(v=v)}):")
            lines.append(f"        {v} = cell(col{i}, {v})")
        lines.append(f"    return ({', '.join(cells)},)")
        source = "\n".join(lines) + "\n"
        exec(compile(source, f"<coerce {self.name}>", "exec"), namespace)  # noqa: S102
        coercer = namespace["coerce_row"]
        coercer._source = source  # debugging / test introspection
        return coercer

    def row_from_mapping(self, mapping: dict[str, Any]) -> tuple:
        """Build a full-width row from a column→value mapping; missing
        columns take their default (or NULL)."""
        unknown = set(k.lower() for k in mapping) - set(self._positions)
        if unknown:
            raise NoSuchColumnError(
                f"unknown column(s) {sorted(unknown)} for table {self.name!r}"
            )
        lowered = {k.lower(): v for k, v in mapping.items()}
        values = [lowered.get(col.name, col.default) for col in self.columns]
        return self.coerce_row(values)

    def key_of(self, row: Sequence[Any], key_columns: Iterable[str]) -> tuple:
        """Extract a key tuple from a row."""
        positions = self._positions  # a list, not a generator: runs per index per write
        return tuple([row[positions[c]] for c in key_columns])

    def declared_columns(self) -> tuple[str, ...]:
        """Column names excluding engine-managed (``__``-prefixed) metadata —
        the schema as the user declared it."""
        return tuple(c.name for c in self.columns if not is_hidden_column(c.name))

    def hidden_columns(self) -> tuple[str, ...]:
        """Engine-managed metadata column names (``__``-prefixed)."""
        return tuple(c.name for c in self.columns if is_hidden_column(c.name))

    def reject_hidden_columns(self, kind: str) -> None:
        """Raise :class:`SchemaError` if this user-declared ``kind`` schema
        uses a reserved ``__``-prefixed name: engine metadata is hidden from
        ``SELECT *`` and ``stats()``, so such a column would silently vanish."""
        hidden = self.hidden_columns()
        if hidden:
            raise SchemaError(
                f"{kind} {self.name!r}: column names starting with '__' are "
                f"reserved for engine metadata ({', '.join(hidden)})"
            )

    def extended(
        self,
        extra: Sequence[Column],
        *,
        kind: TableKind | None = None,
        name: str | None = None,
        drop_constraints: bool = False,
    ) -> "TableSchema":
        """A copy of this schema with extra (hidden metadata) columns appended.

        Used by the streaming layer to add batch-id / ordering / staging
        columns to stream and window tables.  ``drop_constraints`` removes
        the primary key and UNIQUE constraints — window tables hold several
        batches of the same stream, so a key that is unique per batch is
        not unique across the window's contents.
        """
        return TableSchema(
            name if name is not None else self.name,
            tuple(self.columns) + tuple(extra),
            primary_key=() if drop_constraints else self.primary_key,
            unique_keys=() if drop_constraints else self.unique_keys,
            kind=kind if kind is not None else self.kind,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        cols = ", ".join(f"{c.name} {c.ctype.value}" for c in self.columns)
        return f"TableSchema({self.name}: {cols})"


def schema(
    name: str,
    /,
    *cols: tuple,
    primary_key: Sequence[str] = (),
    unique_keys: Sequence[Sequence[str]] = (),
    kind: TableKind = TableKind.TABLE,
) -> TableSchema:
    """Shorthand schema constructor.

    >>> s = schema("votes", ("phone", ColumnType.BIGINT), ("contestant", ColumnType.INTEGER))
    >>> s.column_names()
    ('phone', 'contestant')

    Each positional argument is ``(name, type)`` or ``(name, type, nullable)``.
    """
    columns = []
    for spec in cols:
        if len(spec) == 2:
            columns.append(Column(spec[0], spec[1]))
        elif len(spec) == 3:
            columns.append(Column(spec[0], spec[1], spec[2]))
        else:
            raise SchemaError(f"bad column spec {spec!r}")
    return TableSchema(name, columns, primary_key=primary_key, unique_keys=unique_keys, kind=kind)
