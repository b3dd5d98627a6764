"""Transactions: the undo log and the single-partition serial transaction.

S-Store keeps H-Store's transaction model (paper §3.1): each partition is
single-threaded and executes transactions **serially**, so there is never
more than one open transaction per :class:`~repro.engine.Database`, no
lock manager, and no interleaving to reason about.  What remains of ACID
on this substrate is atomicity + durability machinery, and atomicity is
this module: an undo log replayed in reverse on abort.

The :class:`UndoLog` is the engine's implementation of the executor's
``WriteObserver`` protocol — every physical mutation a statement performs
(:meth:`ExecutionContext.insert` / ``delete`` / ``update``) is appended as
one undo record.  Undo is purely physical and uses ``Table``'s reversible
primitives:

===========  =========================================
forward      undo
===========  =========================================
insert       ``Table.delete_row(rowid)``
insert_many  ``Table.delete_range(first_rowid, count)``
delete       ``Table.restore_row(rowid, old_row)``
update       ``Table.update_row(rowid, old_row)``
===========  =========================================

A bulk insert is recorded as **one compact range record** (contiguous
rowids), not one record per row — the undo log stays O(statements), and
reverse replay restores physical state identical to the per-row path.

Replaying the records **in reverse order** restores the exact prior
physical state — data, indexes, and arrival order — which the tests
assert via ``Catalog.snapshot()`` equality.  Rowids consumed by aborted
inserts are never reused (``Table._next_rowid`` only moves forward).

:class:`Transaction` is the handle returned by ``Database.begin()`` and
``with db.transaction():``.  The serial model makes its life cycle strict:
begin → (statements) → commit | abort, nesting is an error, and DDL inside
a transaction is rejected.  Boundaries count ``txn_begin`` /
``txn_commit`` / ``txn_abort`` events on the database's
:class:`~repro.common.clock.EventLedger`; an abort also counts one
``rows_undone`` per undo record replayed.

:class:`Step` is the one atomic unit every engine entry point runs in: a
savepoint of the open transaction, or a transaction the step opened and
owns.  A step that fails is undone as a whole; a step that wrote has its
command captured for the command log — and only a step that wrote.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from ..common.errors import RecoveryError, TransactionError
from ..storage.table import Table

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .database import Database


class UndoLog:
    """Append-only log of physical mutations, replayed in reverse to undo.

    Implements the executor's ``WriteObserver`` protocol; the ``Database``
    facade installs the open transaction's undo log as the observer of
    every :class:`~repro.sql.executor.ExecutionContext` it creates.
    """

    __slots__ = ("_entries",)

    _INSERT = 0
    _DELETE = 1
    _UPDATE = 2
    _INSERT_MANY = 3

    def __init__(self) -> None:
        #: (kind, table, rowid, extra), oldest first; ``extra`` is the old
        #: row for delete/update, the row count for insert_many, else None
        self._entries: list[tuple[int, Table, int, Any]] = []

    # -- WriteObserver protocol ----------------------------------------------

    def on_insert(self, table: Table, rowid: int) -> None:
        self._entries.append((self._INSERT, table, rowid, None))

    def on_insert_many(self, table: Table, first_rowid: int, count: int) -> None:
        """One compact range record for a bulk insert of ``count`` rows at
        contiguous rowids — O(1) log space however large the batch."""
        self._entries.append((self._INSERT_MANY, table, first_rowid, count))

    def on_delete(self, table: Table, rowid: int, old_row: tuple) -> None:
        self._entries.append((self._DELETE, table, rowid, old_row))

    def on_update(self, table: Table, rowid: int, old_row: tuple) -> None:
        self._entries.append((self._UPDATE, table, rowid, old_row))

    # -- replay ----------------------------------------------------------------

    def mark(self) -> int:
        """Current log position — a statement-level savepoint."""
        return len(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def rollback_to(self, mark: int) -> int:
        """Undo (and drop) every record past ``mark``, newest first.

        ``mark=0`` undoes the whole transaction; a statement's pre-execution
        mark undoes just that statement's writes (statement-level atomicity
        for multi-row DML that fails midway).  Returns the number of *rows*
        replayed — a range record counts all its rows — so the caller can
        count ``rows_undone`` identically to the per-row path.
        """
        undone = 0
        entries = self._entries
        while len(entries) > mark:
            kind, table, rowid, extra = entries.pop()
            if kind == self._INSERT:
                table.delete_row(rowid)
                undone += 1
            elif kind == self._DELETE:
                table.restore_row(rowid, extra)
                undone += 1
            elif kind == self._UPDATE:
                table.update_row(rowid, extra)
                undone += 1
            else:  # _INSERT_MANY: one compact record, ``extra`` rows
                undone += table.delete_range(rowid, extra)
        return undone

    def clear(self) -> None:
        """Forget all records (commit: the writes become permanent)."""
        self._entries.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"UndoLog({len(self._entries)} records)"


class Step:
    """One atomic unit of work; a context manager yielding its transaction.

    An *owned* step opened its transaction and exits it like ``with txn``
    (see :meth:`Transaction.__exit__`).  Otherwise it is a savepoint of
    the open transaction: an exception undoes the writes and captured
    commands since entry, leaving the transaction usable.  Given ``cmd =
    (kind, text, payload)``, a clean exit whose body wrote captures it for
    the command log; a failed capture undoes the step.  A ``__slots__``
    class, not a generator: it is per statement.
    """

    __slots__ = ("txn", "_db", "_owned", "_mark", "_cmd_mark", "_cmd")

    def __init__(self, db: "Database", txn: "Transaction", owned: bool, cmd=None):
        self._db = db
        self.txn = txn
        self._owned = owned
        if owned:
            self._mark = 0
        else:
            self._mark = len(txn.undo)
            self._cmd_mark = len(txn.log_cmds)
        self._cmd = cmd

    def __enter__(self) -> "Transaction":
        return self.txn

    def __exit__(self, exc_type, exc, tb) -> bool:
        txn = self.txn
        if exc_type is None and self._cmd is not None and len(txn.undo) > self._mark:
            capture = self._db._log_capture
            if capture is not None:
                try:
                    capture.record(txn, *self._cmd)
                except RecoveryError as error:
                    self.__exit__(RecoveryError, error, None)
                    raise
        if self._owned:
            return txn.__exit__(exc_type, exc, tb)
        if exc_type is not None:
            self._db.events.rows_undone += txn.undo.rollback_to(self._mark)
            del txn.log_cmds[self._cmd_mark:]
        return False


class Transaction:
    """One serial transaction on one partition.

    Obtained from :meth:`Database.begin` (manual commit/abort) or
    ``with db.transaction():`` (commit on clean exit, abort on exception).
    Statements executed through the database while the transaction is open
    — ``db.execute(...)`` and friends — automatically run inside it; there
    is no per-statement opt-in.

    The handle is single-use: once committed or aborted it cannot be
    reused, and a new transaction must be begun.
    """

    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"

    __slots__ = (
        "txn_id",
        "undo",
        "state",
        "implicit",
        "wrote",
        "log_record",
        "log_cmds",
        "_db",
        "_commit_hooks",
    )

    def __init__(self, db: "Database", txn_id: int, *, implicit: bool = False):
        self._db = db
        self.txn_id = txn_id
        self.undo = UndoLog()
        self.state = self.ACTIVE
        #: True for the auto-commit wrapper around a bare ``db.execute()``
        self.implicit = implicit
        #: True once committed with at least one physical write (captured
        #: before the undo log is cleared); read-only transactions need no
        #: command-log record.
        self.wrote = False
        #: Preset logical command-log record for this transaction (set by
        #: the ingest / procedure-call / workflow-delivery paths); when
        #: None, the record is assembled from :attr:`log_cmds` instead.
        self.log_record = None
        #: Captured commands ``("sql"|"many"|"callx", text, payload)`` in
        #: execution order — the logical command list of an explicit or
        #: implicit client transaction.  Discarded on abort.
        self.log_cmds: list = []
        #: Callables run once, after a successful commit has fully closed the
        #: transaction (the paper's PE-trigger firing point, §3.2.3).  An
        #: abort discards them unrun — an aborted ingest fires no triggers.
        self._commit_hooks: list = []

    @staticmethod
    def savepoint(db: "Database", cmd: Optional[tuple] = None) -> Step:
        """A :class:`Step` on ``db``: a savepoint of its open transaction,
        or — with none open — an implicit transaction the step owns and
        commits on clean exit.  ``cmd`` is the command captured if the
        step writes."""
        txn = db._txn
        if txn is None:
            return Step(db, db._scope(implicit=True), True, cmd)
        return Step(db, txn, False, cmd)

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        """The ``with`` scope: commit on clean exit, abort on exception; a
        transaction the block already finished is left as-is."""
        if self.state == self.ACTIVE:
            if exc_type is None:
                self.commit()
            else:
                self.abort()
        return False

    @property
    def is_active(self) -> bool:
        return self.state == self.ACTIVE

    def _require_active(self, op: str) -> None:
        if self.state != self.ACTIVE:
            raise TransactionError(
                f"cannot {op} transaction {self.txn_id}: it is already {self.state}"
            )

    def add_commit_hook(self, fn) -> None:
        """Register ``fn()`` to run after this transaction commits.

        Hooks run *outside* the transaction (it is already closed), in
        registration order; the streaming layer uses them to publish
        committed stream batches and fire PE triggers.  On abort the hooks
        are discarded without running.
        """
        self._require_active("attach a commit hook to")
        self._commit_hooks.append(fn)

    def commit(self) -> None:
        """Make the transaction's writes permanent and close it."""
        self._require_active("commit")
        self.wrote = len(self.undo) > 0
        self.undo.clear()
        self.state = self.COMMITTED
        self._db._txn_closed(self, "txn_commit")
        hooks, self._commit_hooks = self._commit_hooks, []
        for fn in hooks:
            fn()

    def abort(self) -> None:
        """Replay the undo log in reverse and close the transaction."""
        self._require_active("abort")
        self._commit_hooks.clear()
        db = self._db
        db.events.rows_undone += self.undo.rollback_to(0)
        self.state = self.ABORTED
        db._txn_closed(self, "txn_abort")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "implicit" if self.implicit else "explicit"
        return f"Transaction(id={self.txn_id}, {kind}, {self.state}, undo={len(self.undo)})"
