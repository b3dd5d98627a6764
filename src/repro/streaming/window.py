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

Two slide units, one slide rule over *groups* — a group is one row
(``__seq__``) for ``unit="rows"`` and one atomic batch (``__batch_id__``)
for ``unit="batches"``:

* a window holds the newest ``size`` groups and advances every ``slide``
  staged groups: a slide activates the ``slide`` oldest staged groups,
  then evicts the active groups beyond the newest ``size``;
* ``unit="batches"`` is a batch-based (logical-time) window — batch ids
  are the time axis, so this is the repo's time-based window.

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

        Every due group is activated first, then the active groups beyond
        the newest ``size`` are evicted: the same updates and deletes as
        sliding one step at a time, from a **single** scan of the window
        state plus the rows actually touched.
        """
        spec = self.spec
        key = self._seq_pos if spec.unit == "rows" else self._batch_pos
        staged, active = self._groups_by_state(key)
        slides = len(staged) // spec.slide
        due = staged[: slides * spec.slide]
        for group in due:
            self._activate(ctx, group)
        active += due
        for group in active[: -spec.size]:
            for rowid, _row in group:
                ctx.delete(self.table, rowid)
        return slides

    def _groups_by_state(self, key: int) -> tuple[list, list]:
        """(staged, active) groups in arrival order; a group is the
        ``(rowid, row)`` pairs sharing the value at position ``key``."""
        groups: tuple[dict, dict] = ({}, {})
        pos = self._active_pos
        for pair in self.table.scan():
            row = pair[1]
            groups[row[pos] == ACTIVE].setdefault(row[key], []).append(pair)
        return list(groups[0].values()), list(groups[1].values())

    def _activate(self, ctx, pairs) -> None:
        pos = self._active_pos
        for rowid, row in pairs:
            new = list(row)
            new[pos] = ACTIVE
            ctx.update(self.table, rowid, new)

    # -- introspection ---------------------------------------------------------

    def counts(self) -> dict[str, int]:
        pos = self._active_pos
        active = sum(row[pos] == ACTIVE for row in self.table.scan_rows())
        return {"active_rows": active, "staged_rows": self.table.row_count() - active}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        own = f", owner={self.owner!r}" if self.owner else ""
        return (
            f"Window({self.name!r} over {self.source!r}, "
            f"{self.spec.size}/{self.spec.slide} {self.spec.unit}{own})"
        )

