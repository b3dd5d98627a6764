"""Windows: incrementally maintained slices of a stream (paper §3.2.2).

A window is a :class:`~repro.storage.schema.TableKind.WINDOW` table over a
source stream.  Its physical schema is the stream's *declared* schema plus
three hidden metadata columns — ``__batch_id__`` and ``__seq__`` copied
from the source tuple, and ``__active__``, the staging flag:

* ``__active__ = 0`` — **staged**: the tuple has arrived but the window has
  not slid over it yet.  Staged tuples are invisible to SQL
  (:meth:`WindowTable.is_visible`), matching the paper: *"arriving tuples
  are staged until the slide condition is met"*.
* ``__active__ = 1`` — part of the window's current contents.

Two slide disciplines:

* ``unit="rows"`` — a tuple-based sliding window of ``size`` rows
  advancing every ``slide`` arrivals;
* ``unit="batches"`` — a batch-based (logical-time) window of ``size``
  atomic batches advancing every ``slide`` batches; batch ids are the
  time axis, so this is the repo's time-based window.

Every mutation (stage, activate, evict) goes through the owning
transaction's undo log, so window state is exactly as transactional as
table state: an aborted transaction rolls its window maintenance back and
a retried batch re-slides identically.

Visibility (paper: a window is visible only to transaction executions of
the stored procedure that defined it): a window created with ``owner=``
may only be read by SQL running inside that procedure's invocations —
enforced by the engine's access guard, raising
:class:`~repro.common.errors.WindowVisibilityError` elsewhere.  Owned
windows advance inside the owning procedure's delivery transaction;
unowned windows advance inside the transaction that ingests the batch.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..common.errors import SchemaError
from ..common.types import ColumnType
from ..storage.schema import Column, TableKind, TableSchema
from ..storage.table import Table
from .stream import BATCH_COLUMN, SEQ_COLUMN, Stream

#: Hidden staging-state column (paper §3.2.2 "staging" state).
ACTIVE_COLUMN = "__active__"

STAGED = 0
ACTIVE = 1

_WINDOW_METADATA = (
    Column(BATCH_COLUMN, ColumnType.BIGINT, nullable=False),
    Column(SEQ_COLUMN, ColumnType.BIGINT, nullable=False),
    Column(ACTIVE_COLUMN, ColumnType.INTEGER, nullable=False, default=STAGED),
)


@dataclass(frozen=True)
class WindowSpec:
    """Size/slide discipline of one window."""

    unit: str  # "rows" | "batches"
    size: int
    slide: int

    def __post_init__(self) -> None:
        if self.unit not in ("rows", "batches"):
            raise SchemaError(f"window unit must be 'rows' or 'batches', got {self.unit!r}")
        if self.size < 1 or self.slide < 1:
            raise SchemaError(
                f"window size and slide must be >= 1 (got size={self.size}, slide={self.slide})"
            )
        if self.slide > self.size:
            raise SchemaError(
                f"window slide ({self.slide}) cannot exceed its size ({self.size})"
            )


class WindowTable(Table):
    """A :class:`Table` whose SQL visibility honours the staging flag."""

    __slots__ = ("_active_pos",)

    def __init__(self, schema: TableSchema):
        super().__init__(schema)
        self._active_pos = schema.position(ACTIVE_COLUMN)

    def is_visible(self, row: tuple) -> bool:
        return row[self._active_pos] == ACTIVE


def window_schema(name: str, source_declared: TableSchema) -> TableSchema:
    """Physical schema of a window over ``source_declared``.

    Key constraints are dropped: a window holds several batches, so a key
    that is unique per batch is not unique across the window.
    """
    return source_declared.extended(
        _WINDOW_METADATA, kind=TableKind.WINDOW, name=name, drop_constraints=True
    )


class Window:
    """One registered window: source stream, spec, owner, and its table."""

    __slots__ = ("spec", "owner", "table", "source", "_batch_pos", "_seq_pos", "_active_pos")

    def __init__(self, name: str, source: Stream, spec: WindowSpec, owner: str | None):
        self.spec = spec
        self.owner = owner
        self.source = source.name
        self.table = WindowTable(window_schema(name, source.declared))
        schema = self.table.schema
        self._batch_pos = schema.position(BATCH_COLUMN)
        self._seq_pos = schema.position(SEQ_COLUMN)
        self._active_pos = schema.position(ACTIVE_COLUMN)

    @property
    def name(self) -> str:
        return self.table.name

    # -- incremental maintenance ---------------------------------------------
    #
    # ``ctx`` is the SQL layer's :class:`~repro.sql.executor.ExecutionContext`
    # over the current transaction's undo log: every insert / update /
    # delete is undo-logged and tallied like a SQL write, so window
    # maintenance aborts and replays with the rest of the transaction.

    def absorb(self, ctx, ext_rows) -> int:
        """Stage newly committed source tuples, then slide if due; returns
        how many slides were performed.

        ``ext_rows`` are stream-extended rows ``(declared..., batch, seq)``
        in arrival order.
        """
        for row in ext_rows:
            ctx.insert(self.table, tuple(row) + (STAGED,))
        return self.slide(ctx)

    def slide(self, ctx) -> int:
        """Apply every due slide; returns how many slides were performed.

        The window state is scanned **once**; the slide loop updates the
        in-memory staged/active lists as it activates and evicts, so a
        large absorb costs one scan plus the rows actually touched.
        """
        staged, active = self._rows_by_state()
        slides = 0
        if self.spec.unit == "rows":
            while len(staged) >= self.spec.slide:
                advancing = staged[: self.spec.slide]
                del staged[: self.spec.slide]
                self._activate(ctx, advancing)
                active.extend(advancing)
                excess = len(active) - self.spec.size
                if excess > 0:
                    for rowid, _row in active[:excess]:
                        ctx.delete(self.table, rowid)
                    del active[:excess]
                slides += 1
            return slides

        # unit == "batches": batch ids are the (logical) time axis
        batch_pos = self._batch_pos
        while True:
            staged_batches = _ordered_batches(staged, batch_pos)
            if len(staged_batches) < self.spec.slide:
                return slides
            advancing_ids = set(staged_batches[: self.spec.slide])
            advancing = [p for p in staged if p[1][batch_pos] in advancing_ids]
            staged = [p for p in staged if p[1][batch_pos] not in advancing_ids]
            self._activate(ctx, advancing)
            active.extend(advancing)
            active_batches = _ordered_batches(active, batch_pos)
            excess = len(active_batches) - self.spec.size
            if excess > 0:
                evict_ids = set(active_batches[:excess])
                for rowid, row in active:
                    if row[batch_pos] in evict_ids:
                        ctx.delete(self.table, rowid)
                active = [p for p in active if p[1][batch_pos] not in evict_ids]
            slides += 1

    def _rows_by_state(self) -> tuple[list, list]:
        """(staged, active) as ``(rowid, row)`` lists in arrival order."""
        staged, active = [], []
        pos = self._active_pos
        for rowid, row in self.table.scan():
            (active if row[pos] == ACTIVE else staged).append((rowid, row))
        return staged, active

    def _activate(self, ctx, pairs) -> None:
        pos = self._active_pos
        for rowid, row in pairs:
            new = list(row)
            new[pos] = ACTIVE
            ctx.update(self.table, rowid, new)

    # -- introspection ---------------------------------------------------------

    def counts(self) -> dict[str, int]:
        staged, active = self._rows_by_state()
        return {"active_rows": len(active), "staged_rows": len(staged)}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        own = f", owner={self.owner!r}" if self.owner else ""
        return (
            f"Window({self.name!r} over {self.source!r}, "
            f"{self.spec.size}/{self.spec.slide} {self.spec.unit}{own})"
        )


def _ordered_batches(pairs, batch_pos: int) -> list[int]:
    """Distinct batch ids among ``(rowid, row)`` pairs, in first-seen
    (arrival) order."""
    seen: dict[int, None] = {}
    for _rowid, row in pairs:
        seen.setdefault(row[batch_pos], None)
    return list(seen)
