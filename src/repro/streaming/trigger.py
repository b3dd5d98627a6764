"""EE and PE triggers: the dataflow wiring of the engine (paper §3.2.3).

Two trigger classes, mirroring S-Store's split:

* **EE (execution-engine) triggers** fire *per statement*, inside the
  transaction that inserts into their stream.  The body runs with a
  :class:`TriggerContext` — it may execute SQL and ``emit`` into other
  streams, and every effect it produces belongs to the same transaction:
  if the transaction aborts, the trigger's work is rolled back with it.
  Each firing counts one ``ee_trigger`` event.

* **PE (partition-engine) triggers** fire *per transaction commit*: when a
  transaction commits an atomic batch into their stream, the firing is
  counted (one ``pe_trigger`` event) and queued; the body ``fn(db, batch)`` runs
  after the committing transaction has fully closed, outside any
  transaction, so it may start transactions of its own (``db.call``,
  ``db.ingest``...).  Workflow edges are PE triggers whose body is a
  stored-procedure invocation (see :mod:`repro.streaming.workflow`).

An aborted transaction publishes no batches, so it fires no PE triggers —
and any EE-trigger effects it produced are undone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence

from ..sql.executor import ResultSet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..engine.database import Database
    from ..engine.transaction import Transaction

#: EE trigger body: ``fn(ctx, rows)`` — rows are the declared-width tuples
#: just inserted into the trigger's stream.
EETriggerFn = Callable[..., Any]

#: PE trigger body: ``fn(db, batch)`` — runs post-commit, outside any txn.
PETriggerFn = Callable[..., Any]

#: EE triggers may cascade (a trigger emits into a stream that has its own
#: triggers); this caps runaway cycles.
MAX_EE_DEPTH = 8


@dataclass(frozen=True)
class EETrigger:
    name: str
    stream: str
    fn: EETriggerFn


@dataclass(frozen=True)
class PETrigger:
    name: str
    stream: str
    fn: PETriggerFn


class TriggerContext:
    """What an EE trigger body sees: its firing transaction's executor.

    Like :class:`~repro.engine.procedure.ProcedureContext` but without an
    abort escape hatch — a trigger that wants the transaction dead raises.
    """

    __slots__ = ("_db", "txn", "trigger", "batch_id")

    def __init__(self, db: "Database", txn: "Transaction", trigger: EETrigger, batch_id: int):
        self._db = db
        self.txn = txn
        self.trigger = trigger
        #: the batch id of the insert that fired this trigger
        self.batch_id = batch_id

    def execute(self, sql: str, params: Sequence[Any] = ()) -> ResultSet:
        """Run a statement inside the firing transaction (plan-cached)."""
        return self._db._execute(self._db.prepare(sql), params, self.txn)

    def query(self, sql: str, params: Sequence[Any] = ()) -> list[dict[str, Any]]:
        return self.execute(sql, params).to_dicts()

    def emit(self, stream: str, rows, batch_id: int | None = None) -> int:
        """Append an atomic batch to another stream, in this transaction."""
        return self._db.streaming.emit(self.txn, stream, rows, batch_id)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TriggerContext({self.trigger.name!r}, txn={self.txn.txn_id})"
