"""Stored procedures: the unit of transaction (paper §2, §3.1).

S-Store's computational model is built on H-Store stored procedures: a
named body of logic whose SQL is **planned once at registration/first
invocation** and whose every invocation runs as **exactly one
transaction** — commit on return, rollback on exception.  This module
supplies both halves:

* :class:`StoredProcedure` owns the procedure function and a *pin table*
  of its :class:`~repro.sql.planner.PreparedStatement`\\ s.  The first time
  a statement text is executed the plan comes from the database's plan
  cache (one ``sql_plan`` or ``plan_cache_hit`` event); thereafter the
  pinned plan is used directly with **zero** planning or cache-lookup
  cost — the H-Store deploy-time-planning behaviour.  A pin is reused
  only while :meth:`~repro.sql.planner.PreparedStatement.fresh` holds
  (same schema epoch, same statistics version, every costed table inside
  its row band); a stale one re-pins through the plan cache, so a plan
  made at first call against empty tables does not outlive them.
* :class:`ProcedureContext` is the only capability a procedure body
  receives: statement execution inside the procedure's transaction (one
  parameter row with :meth:`~ProcedureContext.execute`, a batch of them
  with :meth:`~ProcedureContext.executemany`), plus an explicit
  :meth:`~ProcedureContext.abort` escape hatch.  Bodies have
  the signature ``fn(ctx, *args)``.

Registration and invocation go through the ``Database`` facade::

    @db.register_procedure("vote")
    def vote(ctx, contestant_id):
        ctx.execute("UPDATE votes SET n = n + 1 WHERE id = ?", (contestant_id,))
        return ctx.execute("SELECT n FROM votes WHERE id = ?", (contestant_id,)).scalar()

    db.call("vote", 3)   # one transaction: commit on return, rollback on raise

**Determinism is the recovery contract** (paper §3.1/§4.4): with
``recovery_dir=`` the command log records a committed ``db.call`` as just
``(name, args)`` and crash recovery *re-invokes the body* — so a body
must be a deterministic function of its arguments and database state (no
wall-clock reads, no randomness, no external I/O), and its arguments
must be JSON-serialisable.  Statements run through ``ctx.execute`` are
deliberately **not** logged individually; the invocation record covers
them.  The same applies to workflow deliveries, which are procedure
invocations whose argument is a replayable
:class:`~repro.streaming.stream.Batch`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from ..common.errors import UserAbort
from ..sql.executor import ResultSet
from ..sql.planner import PreparedStatement

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .database import Database
    from .transaction import Transaction

ProcedureFn = Callable[..., Any]


class StoredProcedure:
    """A registered procedure and its pinned (compile-once) statements."""

    __slots__ = ("name", "fn", "_pinned", "pin_hits")

    def __init__(self, name: str, fn: ProcedureFn):
        self.name = name
        self.fn = fn
        self._pinned: dict[str, PreparedStatement] = {}
        #: statements served straight from the pin table (no cache traffic)
        self.pin_hits = 0

    def statement(self, db: "Database", sql: str) -> PreparedStatement:
        """The pinned plan for ``sql``, (re-)pinning through the plan cache.

        On a pin-table hit this is a dict lookup plus the freshness check —
        no plan-cache traffic, no counted event.  A pin gone stale (DDL, an
        ANALYZE, or a costed table leaving its row band) is replaced via
        :meth:`Database.prepare`, statement by statement.
        """
        stmt = self._pinned.get(sql)
        if stmt is not None and stmt.fresh(db.schema_epoch, db.table_stats.version):
            self.pin_hits += 1
            return stmt
        stmt = self._pinned[sql] = db.prepare(sql)
        return stmt

    def pinned_count(self) -> int:
        return len(self._pinned)

    def unpin_all(self) -> None:
        """Drop every pinned plan; each statement re-pins on its next run."""
        self._pinned.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StoredProcedure({self.name!r}, pinned={len(self._pinned)})"


class ProcedureContext:
    """What a procedure body sees: its transaction's statement executor.

    Deliberately narrow — no DDL, no begin/commit/abort of other
    transactions, no direct catalog access.  Everything executed here runs
    inside the invocation's transaction and is undone if it aborts.
    """

    __slots__ = ("_db", "_proc", "txn")

    def __init__(self, db: "Database", proc: StoredProcedure, txn: "Transaction"):
        self._db = db
        self._proc = proc
        self.txn = txn

    def execute(self, sql: str, params: Sequence[Any] = ()) -> ResultSet:
        """Run one of the procedure's statements (pinned plan) in its txn."""
        stmt = self._proc.statement(self._db, sql)
        return self._db._execute(stmt, params, self.txn)

    def executemany(self, sql: str, rows: Iterable[Sequence[Any]]) -> int:
        """Run one pinned statement over parameter ``rows`` as **one**
        statement with its own savepoint (one ``sql_stmt`` when it has a
        vectorized binder, as :meth:`Database.executemany`); returns the
        total rowcount."""
        stmt = self._proc.statement(self._db, sql)
        return self._db._execute_many(stmt, rows, self.txn)

    def query(self, sql: str, params: Sequence[Any] = ()) -> list[dict[str, Any]]:
        """Convenience: execute and return rows as dicts."""
        return self.execute(sql, params).to_dicts()

    def emit(self, stream: str, rows, batch_id: int | None = None) -> int:
        """Append an atomic batch to ``stream`` inside this transaction.

        The batch is published — watermark advanced, PE triggers and
        downstream workflow procedures fired — only when the transaction
        commits; a rollback emits nothing.  Inside a workflow delivery the
        batch id defaults to the input batch's id, so ids flow through the
        DAG unchanged; otherwise it defaults to the next id of ``stream``.
        Returns the batch id used.
        """
        return self._db.streaming.emit(self.txn, stream, rows, batch_id)

    def abort(self, message: str = "aborted by stored procedure") -> None:
        """Abort the invocation: raises :class:`UserAbort`, which rolls the
        transaction back and propagates (unwrapped) to the caller."""
        raise UserAbort(message)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ProcedureContext({self._proc.name!r}, txn={self.txn.txn_id})"
