"""Execution context, result sets, and physical access paths.

A :class:`PreparedStatement` (built by :mod:`repro.sql.planner`) is a pure
closure over compiled expressions and access-path choices; running it
requires an :class:`ExecutionContext`, which carries:

* the catalog (tables are resolved by name at run time, so one prepared
  statement works on every partition with the same schema),
* the positional parameter list,
* a write observer — the undo log of the transaction the statement runs
  in (:class:`repro.engine.transaction.UndoLog`; supplied by the
  ``Database`` facade, never by callers),
* an access guard — the streaming layer's window-visibility enforcement
  (paper §3.2.2; likewise private engine wiring), and
* event tallies (rows scanned, index probes, rows written) kept in plain
  int slots (:class:`ExecutionCounters`); the execution engine adds them
  onto its event ledger, and tests assert on them directly.

All writes go through the context (:meth:`ExecutionContext.insert` /
:meth:`delete` / :meth:`update`) so that undo logging, visibility guards,
trigger notification, and cost accounting see every mutation.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, Iterable, Iterator, Optional, Protocol, Sequence

from ..common.errors import PlanningError
from ..obs import DISABLED
from ..storage.catalog import Catalog
from ..storage.index import OrderedIndex
from ..storage.table import Table


class WriteObserver(Protocol):
    """Receives every physical mutation (the transaction undo log)."""

    def on_insert(self, table: Table, rowid: int) -> None: ...

    def on_insert_many(self, table: Table, first_rowid: int, count: int) -> None: ...

    def on_delete(self, table: Table, rowid: int, old_row: tuple) -> None: ...

    def on_update(self, table: Table, rowid: int, old_row: tuple) -> None: ...


AccessGuard = Callable[[Table, str], None]  # (table, "read"|"write") -> None or raise


class ResultSet:
    """Query result: named columns plus materialised rows.

    Iterable, sized, indexable, and truthy-on-rows, so callers consume it
    directly (``for row in result``, ``len(result)``, ``result[0]``)
    instead of reaching into :attr:`rows`.

    DML statements return an empty-column result whose :attr:`rowcount`
    records the number of affected rows (mirroring H-Store's behaviour of
    returning a single-cell VoltTable for DML).
    """

    __slots__ = ("columns", "rows", "rowcount")

    def __init__(self, columns: Sequence[str], rows: list[tuple], rowcount: int | None = None):
        self.columns = tuple(columns)
        self.rows = rows
        self.rowcount = len(rows) if rowcount is None else rowcount

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __bool__(self) -> bool:
        return bool(self.rows)

    def __getitem__(self, i: int) -> tuple:
        return self.rows[i]

    def scalar(self) -> Any:
        """The single value of a single-row, single-column result (or None
        when the result is empty)."""
        if not self.rows:
            return None
        return self.rows[0][0]

    def first(self) -> tuple | None:
        return self.rows[0] if self.rows else None

    def column(self, name: str) -> list[Any]:
        try:
            i = self.columns.index(name.lower())
        except ValueError:
            raise PlanningError(f"no column {name!r} in result (have {self.columns})") from None
        return [row[i] for row in self.rows]

    def to_dicts(self) -> list[dict[str, Any]]:
        return [dict(zip(self.columns, row)) for row in self.rows]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResultSet({self.columns}, {len(self.rows)} rows)"


EMPTY_RESULT = ResultSet((), [], rowcount=0)


class ExecutionCounters:
    """The five per-execution event tallies, as plain int slots.

    Operators bump them with ``ctx.rows_scanned += n``; nothing is priced
    or hashed per event.  :attr:`counters` is the read-time
    :class:`~collections.Counter` view (non-zero tallies only)."""

    __slots__ = ("rows_scanned", "index_probes", "rows_inserted", "rows_updated", "rows_deleted")

    def __init__(self) -> None:
        self.rows_scanned = 0
        self.index_probes = 0
        self.rows_inserted = 0
        self.rows_updated = 0
        self.rows_deleted = 0

    def add_to(self, target) -> None:
        """Add these tallies onto ``target``'s slots of the same names —
        another :class:`ExecutionCounters` (lifetime totals, a batch
        aggregate) or the :class:`~repro.common.clock.EventLedger`."""
        n = self.rows_scanned
        if n:
            target.rows_scanned += n
        n = self.index_probes
        if n:
            target.index_probes += n
        n = self.rows_inserted
        if n:
            target.rows_inserted += n
        n = self.rows_updated
        if n:
            target.rows_updated += n
        n = self.rows_deleted
        if n:
            target.rows_deleted += n

    @property
    def counters(self) -> Counter[str]:
        out: Counter[str] = Counter()
        for name in ExecutionCounters.__slots__:
            n = getattr(self, name)
            if n:
                out[name] = n
        return out


class ExecutionContext(ExecutionCounters):
    """Everything a prepared statement needs at run time.

    ``obs`` is the engine's observability handle (DISABLED by default:
    operators open its spans unguarded and enter the no-op span).
    ``explain_counts`` is normally ``None``; an EXPLAIN run passes a dict,
    and the plan runner records each operator's actual output rows under
    its plan ``op_id`` (operators never see it).
    """

    __slots__ = ("catalog", "params", "observer", "guard", "obs", "explain_counts")

    def __init__(
        self,
        catalog: Catalog,
        params: Sequence[Any] = (),
        observer: Optional[WriteObserver] = None,
        guard: Optional[AccessGuard] = None,
        obs=DISABLED,
        explain_counts: Optional[dict[int, int]] = None,
    ):
        # runs once per statement: every slot set inline, a params tuple kept
        self.catalog = catalog
        self.params = params if type(params) is tuple else tuple(params)
        self.observer = observer
        self.guard = guard
        self.obs = obs
        self.explain_counts = explain_counts
        self.rows_scanned = self.index_probes = 0
        self.rows_inserted = self.rows_updated = self.rows_deleted = 0

    # -- guarded table access ------------------------------------------------

    def read_table(self, name: str) -> Table:
        table = self.catalog.table(name)
        if self.guard is not None:
            self.guard(table, "read")
        return table

    def write_table(self, name: str) -> Table:
        table = self.catalog.table(name)
        if self.guard is not None:
            self.guard(table, "write")
        return table

    # -- guarded mutations ----------------------------------------------------

    def insert(self, table: Table, values: Sequence[Any]) -> int:
        rowid = table.insert(values)
        self.rows_inserted += 1
        if self.observer is not None:
            self.observer.on_insert(table, rowid)
        return rowid

    def insert_many(self, table: Table, rows: Sequence[Sequence[Any]]) -> range:
        """Bulk insert through :meth:`Table.insert_many`: one undo-log range
        record and one counter update for the whole batch."""
        rowids = table.insert_many(rows)
        n = len(rowids)
        self.rows_inserted += n
        if n and self.observer is not None:
            self.observer.on_insert_many(table, rowids.start, n)
        return rowids

    def delete(self, table: Table, rowid: int) -> tuple:
        old = table.delete_row(rowid)
        self.rows_deleted += 1
        if self.observer is not None:
            self.observer.on_delete(table, rowid, old)
        return old

    def update(self, table: Table, rowid: int, new_values: Sequence[Any]) -> tuple:
        old = table.update_row(rowid, new_values)
        self.rows_updated += 1
        if self.observer is not None:
            self.observer.on_update(table, rowid, old)
        return old


# ---------------------------------------------------------------------------
# Physical access paths.  Each is a factory the planner configures once;
# calling it with a context yields (rowid, row) pairs.
# ---------------------------------------------------------------------------

Predicate = Callable[[Sequence[Any], Sequence[Any]], bool]
ValueFn = Callable[[Sequence[Any], Sequence[Any]], Any]
KeyFn = Callable[[Sequence[Any], Sequence[Any]], tuple]

_NO_ROW: tuple = ()


class SeqScan:
    """Full scan in insertion (arrival) order with optional residual filter."""

    __slots__ = ("table_name", "pred")

    def __init__(self, table_name: str, pred: Optional[Predicate] = None):
        self.table_name = table_name
        self.pred = pred

    def __call__(self, ctx: ExecutionContext) -> Iterator[tuple[int, tuple]]:
        table = ctx.read_table(self.table_name)
        pred = self.pred
        params = ctx.params
        scanned = 0
        # finally, not loop-exit: a LIMIT may close this generator early and
        # the rows already visited must still be charged.
        try:
            for rowid, row in table.scan_visible():
                scanned += 1
                if pred is None or pred(row, params):
                    yield rowid, row
        finally:
            ctx.rows_scanned += scanned


class _IndexProbe:
    """The probe loop both index access paths share: fetch each rowid the
    index yields, skip rows hidden from reads, count the visited ones and
    apply the residual filter.  Subclasses
    supply only ``rowids(table, ctx)``, the index lookup itself (None when
    a NULL key or bound matches nothing)."""

    __slots__ = ()

    def __call__(self, ctx: ExecutionContext) -> Iterator[tuple[int, tuple]]:
        table = ctx.read_table(self.table_name)
        rowids = self.rowids(table, ctx)
        if rowids is None:
            return
        pred = self.pred
        params = ctx.params
        visible = table.is_visible
        scanned = 0
        # batched counter update (finally: a LIMIT may close this generator
        # early and the rows already visited must still be charged)
        try:
            for rowid in rowids:
                row = table.get(rowid)
                if row is None or not visible(row):
                    continue
                scanned += 1
                if pred is None or pred(row, params):
                    yield rowid, row
        finally:
            ctx.rows_scanned += scanned


class IndexScan(_IndexProbe):
    """Equality probe into a hash index, plus optional residual filter.

    ``key_fn(row, params)`` builds the whole key tuple in one call."""

    __slots__ = ("table_name", "index_name", "key_fn", "pred")

    def __init__(
        self,
        table_name: str,
        index_name: str,
        key_fn: KeyFn,
        pred: Optional[Predicate] = None,
    ):
        self.table_name = table_name
        self.index_name = index_name
        self.key_fn = key_fn
        self.pred = pred

    def rowids(self, table: Table, ctx: ExecutionContext) -> Optional[Iterable[int]]:
        index = table.index(self.index_name)
        key = self.key_fn(_NO_ROW, ctx.params)
        ctx.index_probes += 1
        return None if None in key else index.lookup(key)


class IndexRangeScan(_IndexProbe):
    """Range scan over an ordered index, plus optional residual filter."""

    __slots__ = (
        "table_name", "index_name", "lo_fn", "hi_fn", "lo_inc", "hi_inc", "pred",
    )

    def __init__(
        self,
        table_name: str,
        index_name: str,
        lo_fn: Optional[ValueFn],
        hi_fn: Optional[ValueFn],
        lo_inc: bool,
        hi_inc: bool,
        pred: Optional[Predicate] = None,
    ):
        self.table_name = table_name
        self.index_name = index_name
        self.lo_fn = lo_fn
        self.hi_fn = hi_fn
        self.lo_inc = lo_inc
        self.hi_inc = hi_inc
        self.pred = pred

    def rowids(self, table: Table, ctx: ExecutionContext) -> Optional[Iterable[int]]:
        index = table.index(self.index_name)
        if not isinstance(index, OrderedIndex):  # pragma: no cover - planner invariant
            raise PlanningError(f"index {self.index_name!r} is not ordered")
        params = ctx.params
        lo = self.lo_fn(_NO_ROW, params) if self.lo_fn is not None else None
        hi = self.hi_fn(_NO_ROW, params) if self.hi_fn is not None else None
        if (self.lo_fn is not None and lo is None) or (self.hi_fn is not None and hi is None):
            return None
        ctx.index_probes += 1
        return index.range_scan(lo, hi, lo_inclusive=self.lo_inc, hi_inclusive=self.hi_inc)


Scan = SeqScan | IndexScan | IndexRangeScan


def sort_rows(
    pairs: list[tuple[tuple, tuple]],
    descending: Sequence[bool],
) -> list[tuple]:
    """Sort ``(sort_key_tuple, output_row)`` pairs and return output rows.

    Multi-key sorts are applied as successive stable sorts from the last key
    to the first.  NULLs order last under ASC and first under DESC (each key
    element arrives pre-wrapped as ``(value is None, value)``).
    """
    for i in range(len(descending) - 1, -1, -1):
        reverse = descending[i]
        pairs.sort(key=lambda pair, i=i: pair[0][i], reverse=reverse)
    return [row for _key, row in pairs]


def null_safe_key(value: Any) -> tuple:
    """Wrap a sort value so NULLs compare without TypeError."""
    return (value is None, value)
