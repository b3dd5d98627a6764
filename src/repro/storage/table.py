"""In-memory row store with index maintenance and constraint checks.

Rows live in an insertion-ordered ``dict[rowid, tuple]``; row ids are
monotonically increasing and never reused, which gives three properties the
engine relies on:

* ``scan()`` yields rows in insertion order — the arrival order that stream
  tables depend on (§3.2.1: "the order of tuples in a stream is captured
  based on tuple metadata");
* deletes/updates are O(1) and reversible by rowid, which is what the
  transaction undo log records;
* snapshots and command-log replay rebuild identical physical state.

Constraint enforcement (NOT NULL, PRIMARY KEY, UNIQUE) happens here, so
every execution path — SQL, stored procedures, recovery replay — observes
the same integrity rules.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Sequence

from ..common.errors import (
    ConstraintViolation,
    NoSuchIndexError,
    NoSuchRowError,
    SchemaError,
)
from .index import HashIndex, Index, OrderedIndex, rebuild
from .schema import TableSchema


class Table:
    """One in-memory table (also the substrate for streams and windows)."""

    __slots__ = ("schema", "_rows", "_next_rowid", "_order_dirty", "indexes")

    def __init__(self, schema: TableSchema):
        self.schema = schema
        self._rows: dict[int, tuple] = {}
        self._next_rowid: int = 1
        #: True while out-of-order restores have left the row dict
        #: unsorted; reconciled lazily by :meth:`_ensure_order`.
        self._order_dirty = False
        self.indexes: dict[str, Index] = {}
        if schema.primary_key:
            self.create_index(f"{schema.name}_pkey", schema.primary_key, unique=True)
        for i, key in enumerate(schema.unique_keys):
            self.create_index(f"{schema.name}_uniq{i}", key, unique=True)

    # -- basic properties ----------------------------------------------------

    @property
    def name(self) -> str:
        return self.schema.name

    def row_count(self) -> int:
        return len(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    # -- index management ----------------------------------------------------

    def create_index(
        self,
        name: str,
        key_columns: Sequence[str],
        *,
        unique: bool = False,
        ordered: bool = False,
    ) -> Index:
        """Create (and backfill) a secondary index."""
        if name in self.indexes:
            raise SchemaError(f"index {name!r} already exists on table {self.name!r}")
        for c in key_columns:
            self.schema.position(c)  # raises NoSuchColumnError for unknowns
        index: Index
        if ordered:
            if unique:
                raise SchemaError("ordered unique indexes are not supported")
            index = OrderedIndex(name, key_columns)
        else:
            index = HashIndex(name, key_columns, unique=unique)
        rebuild(index, self._rows.items(), self.schema.key_of)
        self.indexes[name] = index
        return index

    def drop_index(self, name: str) -> None:
        if name not in self.indexes:
            raise NoSuchIndexError(f"no index {name!r} on table {self.name!r}")
        del self.indexes[name]

    def index(self, name: str) -> Index:
        try:
            return self.indexes[name]
        except KeyError:
            raise NoSuchIndexError(f"no index {name!r} on table {self.name!r}") from None

    def find_equality_index(self, columns: Iterable[str], *, subset: bool = False) -> Index | None:
        """An index usable for an equality lookup on ``columns``.

        Exact key-set matches win (order-insensitive, preferring unique
        indexes).  With ``subset=True`` — the SQL planner's mode — an index
        whose key columns are all *within* ``columns`` also qualifies, so a
        compound predicate can still probe a narrower index; among subset
        candidates, unique indexes win, then wider keys.
        """
        wanted = frozenset(c.lower() for c in columns)
        best: Index | None = None
        for index in self.indexes.values():
            if frozenset(index.key_columns) == wanted:
                if index.unique:
                    return index
                best = best or index
        if best is not None or not subset:
            return best
        for index in self.indexes.values():
            if not all(c in wanted for c in index.key_columns):
                continue
            if best is None:
                best = index
                continue
            better_unique = index.unique and not best.unique
            wider = len(index.key_columns) > len(best.key_columns)
            if better_unique or (wider and index.unique == best.unique):
                best = index
        return best

    def find_ordered_index(self, column: str) -> OrderedIndex | None:
        for index in self.indexes.values():
            if isinstance(index, OrderedIndex) and index.key_columns == (column.lower(),):
                return index
        return None

    # -- row operations -------------------------------------------------------

    def insert(self, values: Sequence[Any]) -> int:
        """Insert a full-width row; returns the new rowid.

        All unique constraints are checked before any index is touched so a
        violation leaves the table unchanged.  Each index key is computed
        exactly once and shared between the unique check and index
        maintenance.
        """
        row = self.schema.coerce_row(values)
        keyed = self._index_keys(row)
        self._check_unique_keyed(keyed)
        rowid = self._next_rowid
        self._next_rowid += 1
        self._rows[rowid] = row
        for index, key in keyed:
            if key is not None:
                index.insert(key, rowid)
        return rowid

    def insert_many(self, rows: Iterable[Sequence[Any]]) -> range:
        """Bulk insert; returns the contiguous range of new rowids.

        The batch-oriented fast path (paper §3.2.1: the batch is the atomic
        unit): the whole batch is type-checked and unique-checked up front —
        each index key computed exactly once, intra-batch duplicates
        included — then rows are appended in one pass and every index is
        maintained with a single loop.  A constraint violation anywhere in
        the batch leaves the table completely unchanged: no rows, no index
        entries, and no rowids consumed.  Arrival order is batch order.
        """
        coerce = self.schema.coerce_row
        checked = [coerce(values) for values in rows]
        first = self._next_rowid
        n = len(checked)
        if n == 0:
            return range(first, first)
        key_of = self.schema.key_of
        per_index: list[tuple[Index, list[tuple]]] = []
        for index in self.indexes.values():
            cols = index.key_columns
            keys = [key_of(row, cols) for row in checked]
            if getattr(index, "unique", False):
                seen: set[tuple] = set()
                for key in keys:
                    if None in key:
                        continue  # NULL keys are never indexed
                    if key in seen or index.contains(key):
                        raise ConstraintViolation(
                            f"table {self.name!r}: duplicate key {key!r} for "
                            f"index {index.name!r}"
                        )
                    seen.add(key)
            per_index.append((index, keys))
        self._next_rowid = first + n
        store = self._rows
        rowid = first
        for row in checked:
            store[rowid] = row
            rowid += 1
        for index, keys in per_index:
            index.insert_many(keys, first)
        return range(first, first + n)

    def get(self, rowid: int) -> tuple | None:
        return self._rows.get(rowid)

    def delete_row(self, rowid: int) -> tuple:
        """Delete by rowid; returns the old row (for undo logging)."""
        row = self._rows.pop(rowid, None)
        if row is None:
            raise NoSuchRowError(f"no row {rowid} in table {self.name!r}")
        for index, key in self._index_keys(row):
            if key is not None:
                index.delete(key, rowid)
        return row

    def delete_many(self, rowids: Iterable[int]) -> int:
        """Bulk delete by rowid; returns how many rows were removed.

        Every rowid is validated before the first mutation (an unknown
        rowid raises with nothing deleted), then the row dict is emptied in
        one pass and each index is maintained with a single loop — ordered
        indexes filter their sorted lists in one O(n) pass instead of one
        O(n) splice per row.
        """
        store = self._rows
        doomed: list[tuple[int, tuple]] = []
        seen: set[int] = set()
        for rowid in rowids:
            row = store.get(rowid)
            if row is None or rowid in seen:
                # a duplicate targets a row the batch already deletes —
                # rejected up front so nothing has been mutated yet
                raise NoSuchRowError(
                    f"no row {rowid} in table {self.name!r}"
                    + (" (duplicate rowid in bulk delete)" if rowid in seen else "")
                )
            seen.add(rowid)
            doomed.append((rowid, row))
        if not doomed:
            return 0
        for rowid, _row in doomed:
            del store[rowid]
        key_of = self.schema.key_of
        for index in self.indexes.values():
            cols = index.key_columns
            index.delete_many((key_of(row, cols), rowid) for rowid, row in doomed)
        return len(doomed)

    def delete_range(self, first_rowid: int, count: int) -> int:
        """Delete the ``count`` rows at contiguous rowids starting at
        ``first_rowid`` — the undo primitive matching :meth:`insert_many`'s
        compact range undo record."""
        return self.delete_many(range(first_rowid, first_rowid + count))

    def update_row(self, rowid: int, new_values: Sequence[Any]) -> tuple:
        """Replace the row at ``rowid``; returns the old row (for undo).

        Only indexes whose key the update changes are touched: each
        index's old and new key are computed once, and the unique check
        and the delete/insert run for the changed keys alone.  A unique
        key the update leaves unchanged can only belong to this row, so it
        needs no check.  Every check runs before the first index write, so
        a violation leaves the table unchanged.
        """
        old = self._rows.get(rowid)
        if old is None:
            raise NoSuchRowError(f"no row {rowid} in table {self.name!r}")
        new = self.schema.coerce_row(new_values)
        key_of = self.schema.key_of
        changed = []
        for index in self.indexes.values():
            old_key = key_of(old, index.key_columns)
            new_key = key_of(new, index.key_columns)
            if old_key != new_key:
                changed.append((index, old_key, None if None in new_key else new_key))
        if changed:
            self._check_unique_keyed([(i, new_key) for i, _, new_key in changed], ignore_rowid=rowid)
            for index, old_key, new_key in changed:
                if None not in old_key:  # NULL keys are never indexed
                    index.delete(old_key, rowid)
                if new_key is not None:
                    index.insert(new_key, rowid)
        self._rows[rowid] = new
        return old

    def restore_row(self, rowid: int, row: tuple) -> None:
        """Re-insert a previously deleted row under its original rowid
        (undo path; bypasses re-coercion, the row was valid when stored).

        Arrival order is part of the physical state (stream tables depend
        on it), so a restore in the middle of the rowid sequence marks the
        row dict unsorted; the next scan/snapshot re-sorts it **once** —
        O(n log n) per rollback batch, not per restored row, and never on
        the forward hot path."""
        if rowid in self._rows:
            raise ConstraintViolation(f"rowid {rowid} already present in {self.name!r}")
        self._rows[rowid] = row
        if not self._order_dirty and len(self._rows) > 1:
            tail = reversed(self._rows)
            next(tail)  # the rowid just appended
            prev = next(tail, None)
            if prev is not None and prev > rowid:
                self._order_dirty = True
        for index, key in self._index_keys(row):
            if key is not None:
                index.insert(key, rowid)
        # rowids are never reused, even across undo
        if rowid >= self._next_rowid:
            self._next_rowid = rowid + 1

    # -- scanning --------------------------------------------------------------
    #
    # Scans iterate the row dict directly — no defensive copy — so read-only
    # scans are allocation-free.  The contract: callers that mutate the table
    # while consuming a scan (the SQL executor's UPDATE/DELETE paths) must
    # materialise the scan into a list *before* the first mutation.  The
    # planner's DML runners do exactly that; see ``repro.sql.planner``.

    def _ensure_order(self) -> None:
        """Re-sort the row dict if out-of-order restores dirtied it (one
        cheap flag check on every scan; one sort per rollback batch)."""
        if self._order_dirty:
            self._rows = dict(sorted(self._rows.items()))
            self._order_dirty = False

    def scan(self) -> Iterator[tuple[int, tuple]]:
        """All ``(rowid, row)`` pairs in insertion (arrival) order.

        Do not insert/delete rows while consuming this iterator; materialise
        it first (``list(table.scan())``) if you intend to mutate.
        """
        self._ensure_order()
        yield from self._rows.items()

    def is_visible(self, row: tuple) -> bool:
        """Whether SQL queries may see this row.

        Plain tables expose everything; window tables override this to hide
        tuples in the "staging" state (paper §3.2.2).
        """
        return True

    def scan_visible(self) -> Iterator[tuple[int, tuple]]:
        """Like :meth:`scan` but restricted to SQL-visible rows (and with the
        same no-mutation-while-iterating contract)."""
        self._ensure_order()
        visible = self.is_visible
        for rowid, row in self._rows.items():
            if visible(row):
                yield rowid, row

    def scan_rows(self) -> Iterator[tuple]:
        """Row tuples only, insertion order (no-mutation contract as above)."""
        self._ensure_order()
        yield from self._rows.values()

    def truncate(self) -> int:
        """Delete all rows; returns how many were removed."""
        n = len(self._rows)
        self._rows.clear()
        self._order_dirty = False
        for index in self.indexes.values():
            index.clear()
        return n

    # -- snapshot support --------------------------------------------------------

    def snapshot_state(self) -> dict[str, Any]:
        """Physical state for checkpointing: rowids, rows, next rowid.

        Rows are emitted in rowid order — the canonical arrival order — so
        two tables holding the same rows under the same rowids produce
        identical snapshots (what the transaction tests compare against)."""
        self._ensure_order()
        return {
            "next_rowid": self._next_rowid,
            "rows": [[rowid, list(row)] for rowid, row in self._rows.items()],
        }

    def load_snapshot_state(self, state: dict[str, Any]) -> None:
        """Replace contents from a checkpoint produced by
        :meth:`snapshot_state` (indexes are rebuilt)."""
        self._rows = {int(rowid): tuple(row) for rowid, row in state["rows"]}
        self._order_dirty = False  # snapshots are emitted in rowid order
        self._next_rowid = int(state["next_rowid"])
        for index in self.indexes.values():
            rebuild(index, self._rows.items(), self.schema.key_of)

    # -- internals ----------------------------------------------------------------

    def _index_keys(self, row: tuple) -> list[tuple[Index, tuple | None]]:
        """One ``(index, key)`` pair per index, each key computed exactly
        once per row; non-indexable keys (containing NULL) map to None."""
        key_of = self.schema.key_of
        out = []
        for index in self.indexes.values():
            key = key_of(row, index.key_columns)
            out.append((index, None if None in key else key))
        return out

    def _check_unique_keyed(
        self,
        keyed: list[tuple[Index, tuple | None]],
        *,
        ignore_rowid: int | None = None,
    ) -> None:
        """Unique-constraint check over precomputed index keys."""
        for index, key in keyed:
            if key is None or not getattr(index, "unique", False):
                continue
            for existing in index.lookup(key):
                if existing != ignore_rowid:
                    raise ConstraintViolation(
                        f"table {self.name!r}: duplicate key {key!r} for index {index.name!r}"
                    )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Table({self.name!r}, rows={len(self._rows)}, kind={self.schema.kind.value})"
