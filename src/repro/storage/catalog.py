"""The catalog: all tables (public tables, streams, windows) of a partition.

Each partition of the engine owns one :class:`Catalog`.  The catalog is the
unit of checkpointing: :meth:`Catalog.snapshot` captures every table's
physical state, :meth:`Catalog.restore` reloads it.
"""

from __future__ import annotations

from typing import Any, Iterator

from ..common.errors import DuplicateTableError, NoSuchTableError, RecoveryError
from .schema import TableKind, TableSchema
from .table import Table


class Catalog:
    """Name → :class:`Table` mapping with kind-aware helpers."""

    __slots__ = ("_tables",)

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}

    def create_table(self, schema: TableSchema) -> Table:
        name = schema.name
        if name in self._tables:
            raise DuplicateTableError(f"table {name!r} already exists")
        table = Table(schema)
        self._tables[name] = table
        return table

    def add_table(self, table: Table) -> Table:
        """Register an externally constructed table (streams/windows are
        built by the streaming layer, then registered here)."""
        if table.name in self._tables:
            raise DuplicateTableError(f"table {table.name!r} already exists")
        self._tables[table.name] = table
        return table

    def drop_table(self, name: str) -> None:
        key = name.lower()
        if key not in self._tables:
            raise NoSuchTableError(f"no table {name!r}")
        del self._tables[key]

    def table(self, name: str) -> Table:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise NoSuchTableError(
                f"no table {name!r} (have: {', '.join(sorted(self._tables)) or 'none'})"
            ) from None

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def tables(self, kind: TableKind | None = None) -> Iterator[Table]:
        for table in self._tables.values():
            if kind is None or table.schema.kind is kind:
                yield table

    def table_names(self, kind: TableKind | None = None) -> list[str]:
        """Sorted table names, optionally restricted to one
        :class:`TableKind` (e.g. just the streams)."""
        if kind is None:
            return sorted(self._tables)
        return sorted(t.name for t in self.tables(kind))

    # -- checkpointing ---------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Capture the physical state of every table."""
        return {name: table.snapshot_state() for name, table in self._tables.items()}

    def restore(self, snapshot: dict[str, Any]) -> None:
        """Restore table contents from :meth:`snapshot`.

        Tables present in the catalog but absent from the snapshot are
        truncated (they did not exist / were empty at checkpoint time).
        A snapshot that names a table the catalog does not hold raises
        :class:`~repro.common.errors.RecoveryError`: the checkpoint was
        taken against a schema the bootstrap did not re-create, and
        silently dropping its rows would lose committed state.
        """
        unknown = sorted(set(snapshot) - set(self._tables))
        if unknown:
            raise RecoveryError(
                f"checkpoint references table(s) not present in the "
                f"catalog: {', '.join(unknown)} — re-create the schema "
                f"(bootstrap) before recovering"
            )
        for name, table in self._tables.items():
            state = snapshot.get(name)
            if state is None:
                table.truncate()
            else:
                table.load_snapshot_state(state)

    def total_rows(self) -> int:
        return sum(t.row_count() for t in self._tables.values())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Catalog({', '.join(sorted(self._tables))})"
