"""The recovery manager: capture on commit, replay on open.

One :class:`RecoveryManager` per :class:`~repro.engine.Database` opened
with ``recovery_dir=``.  Invariants the manager maintains:

* **Only committed work is logged.**  The engine calls :meth:`on_commit`
  from the transaction-close path, *before* staged stream batches
  publish, so records land in the log in commit order and parents
  precede the downstream deliveries they trigger.  Aborted transactions leave no
  record (and therefore their rowid/sequence gaps are not reproduced by
  replay — replay regenerates *committed* state, which is the durability
  contract).
* **Schema and code are deployment, not log.**  The log holds data
  commands only.  Recovery first runs the caller's ``bootstrap(db)`` to
  re-create tables/streams/windows/workflows and re-register procedures
  and triggers (H-Store's model: stored procedures are deployed, then
  the log is replayed against them).  A log or checkpoint that references
  objects the bootstrap did not create raises
  :class:`~repro.common.errors.RecoveryError`.
* **Replay is deterministic re-execution.**  Records replay through the
  same public entry points that produced them (``execute``/
  ``executemany``/``call``/``ingest``/the delivery scheduler), so every
  constraint check, EE trigger, window slide, and counted event happens
  again exactly; procedure bodies must be deterministic functions of
  their arguments and database state.
* **One delivery queue.**  Replay rebuilds the scheduler's queue as live
  execution built it; each logged delivery consumes its head under strong
  replay, so the workflow deliveries still queued afterwards are exactly
  those the crash lost (``regenerated_deliveries``): strong recovery
  leaves them for the next ``drain()``, weak recovery drains them.
* **Recovery ends with a fresh checkpoint**, which carries that queue,
  and truncates the log, so repeated crashes never see a delivery hole
  or a duplicate.  A checkpoint older than the log's first record is
  refused: the records in between are gone.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, Any, Optional

from ..common.errors import RecoveryError
from .checkpoint import (
    checkpoint_path,
    newest_valid_checkpoint,
    prune_checkpoints,
    write_checkpoint,
)
from .log import DEFAULT_GROUP_SIZE, CommandLog, scan_log

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..engine.database import Database
    from ..engine.transaction import Transaction

#: File name of the single command log inside a recovery directory.
LOG_NAME = "command.log"

#: Record ops replayed by weak recovery; the rest (workflow deliveries)
#: is regenerated by re-driving the DAG.
WEAK_REPLAY_OPS = ("txn", "call", "ingest")


class RecoveryManager:
    """Durability sidecar of one database: command log + checkpoints."""

    def __init__(
        self,
        db: "Database",
        directory: str | Path,
        *,
        mode: str = "strong",
        bootstrap=None,
        group_size: int = DEFAULT_GROUP_SIZE,
        verify: bool = False,
        readonly: bool = False,
    ):
        if mode not in ("strong", "weak"):
            raise ValueError(f"recovery mode must be 'strong' or 'weak', got {mode!r}")
        self._db = db
        self.directory = Path(directory)
        self.mode = mode
        self.bootstrap = bootstrap
        self.group_size = group_size
        self.verify = verify
        self.readonly = readonly
        self._log: Optional[CommandLog] = None
        self.last_checkpoint_lsn = 0
        #: summary of what the open-time recovery did (``stats()`` shows it)
        self.recovered: Optional[dict[str, Any]] = None

    @property
    def active(self) -> bool:
        """True once open() finished: committed transactions are captured.
        Always False while replaying and in readonly mode."""
        return self._db._log_capture is self

    @property
    def log_path(self) -> Path:
        return self.directory / LOG_NAME

    # -- the open protocol -----------------------------------------------------

    def open(self) -> None:
        """Bootstrap → recover → (checkpoint + truncate) → go active.

        Called once from ``Database.__init__``.  Failures propagate as
        :class:`RecoveryError` and leave the directory untouched — a
        failed recovery never truncates or rewrites the log.
        """
        if not self.readonly:
            self.directory.mkdir(parents=True, exist_ok=True)
        if self.bootstrap is not None:
            self.bootstrap(self._db)
        ckpt_lsn, base, records, valid_end = self._recover()
        if self.verify and self.mode == "weak":
            self._verify_against_strong()
        if self.readonly:
            return
        self._open_writer(ckpt_lsn, base, records, valid_end)
        if records or ckpt_lsn:
            # Re-anchor the durable state: the recovered state, queue of
            # lost deliveries included, becomes a fresh checkpoint and the
            # replayed log is truncated.
            self.checkpoint()
        self._db._log_capture = self

    def _recover(self) -> tuple[int, int, list[dict[str, Any]], int]:
        db = self._db
        found = newest_valid_checkpoint(self.directory, db.events)
        ckpt_lsn = 0 if found is None else int(found[1]["lsn"])
        base, records, valid_end = scan_log(self.log_path)
        if ckpt_lsn < base:
            raise RecoveryError(
                f"LSN {ckpt_lsn + 1}..{base} is in no readable file: the "
                f"command log starts after LSN {base}, and the newest valid "
                f"checkpoint covers LSN {ckpt_lsn} — refusing to recover "
                f"without those committed commands"
            )
        if found is not None:
            db.catalog.restore(found[1]["catalog"])
            db.streaming.restore_persistent_state(found[1]["streaming"])
        runtime = db.streaming
        replayed = skipped = 0
        runtime.replay_mode = self.mode
        try:
            for i, record in enumerate(records):
                lsn = base + i + 1
                if lsn <= ckpt_lsn:
                    continue  # already folded into the checkpoint
                op = record.get("op")
                if self.mode == "weak" and op not in WEAK_REPLAY_OPS:
                    skipped += 1
                    continue
                try:
                    self._replay_record(record)
                except RecoveryError:
                    raise
                except Exception as exc:
                    raise RecoveryError(
                        f"replay of {op!r} record at LSN {lsn} failed: "
                        f"{type(exc).__name__}: {exc}"
                    ) from exc
                replayed += 1
        finally:
            runtime.replay_mode = None
        # the workflow deliveries still queued are the tail the log lost
        regenerated = runtime.stats()["scheduler"]["pending_deliveries"]
        if self.mode == "weak" and regenerated:
            # weak recovery's contract: the DAG is re-driven to completion
            runtime.drain()
        self.recovered = {
            "mode": self.mode,
            "checkpoint": None if found is None else found[0].name,
            "checkpoint_lsn": ckpt_lsn,
            "log_records": len(records),
            "replayed": replayed,
            "skipped": skipped,
            "regenerated_deliveries": regenerated,
        }
        self.last_checkpoint_lsn = ckpt_lsn
        return ckpt_lsn, base, records, valid_end

    def _replay_record(self, record: dict[str, Any]) -> None:
        db = self._db
        op = record.get("op")
        if op == "txn":
            with db.transaction():
                for kind, sql, payload in record["cmds"]:
                    if kind == "sql":
                        db.execute(sql, payload)
                    elif kind == "many":
                        db.executemany(sql, payload)
                    elif kind == "callx":
                        # a cross-partition procedure fragment: re-invoke the
                        # body inside the replaying transaction, exactly
                        # where the original ran (``sql`` holds the name)
                        db.call_in_txn(sql, *payload)
                    else:
                        raise RecoveryError(f"unknown command kind {kind!r}")
        elif op == "call":
            db.call(record["proc"], *record["args"])
        elif op == "ingest":
            applied = db.streaming.ingest(
                record["stream"], record["rows"], record["batch_id"]
            )
            if record["batch_id"] not in applied:
                raise RecoveryError(
                    f"replayed batch {record['batch_id']} of stream "
                    f"{record['stream']!r} did not apply (got {applied}); "
                    f"the log is out of order"
                )
        elif op == "delivery":
            db.streaming.replay_delivery(
                record["stream"], record["batch_id"], record["proc"]
            )
        else:
            raise RecoveryError(f"unknown command-log op {op!r}")

    def _open_writer(
        self, ckpt_lsn: int, base: int, records: list, valid_end: int
    ) -> None:
        path = self.log_path
        # Continue the existing LSN sequence after dropping the torn tail,
        # so the next append starts on a clean line boundary; with no
        # usable log (missing, empty, or wholly predating the checkpoint)
        # start a fresh one anchored at the checkpoint's LSN.
        keep = valid_end > 0 and base + len(records) >= ckpt_lsn
        end = valid_end if keep else 0
        if path.exists() and path.stat().st_size > end:
            os.truncate(path, end)
        self._log = CommandLog(
            path,
            self._db.events,
            base_lsn=base if keep else ckpt_lsn,
            existing_records=len(records) if keep else 0,
            group_size=self.group_size,
        )
        # group-commit spans ("log.fsync") and buffer-wait timings land in
        # the owning database's observability registry
        self._log.obs = self._db.obs

    def _verify_against_strong(self) -> None:
        """Weak-recovery verification: run strong recovery on a read-only
        shadow database and require snapshot equality (paper §4.4: weak
        recovery must produce *a* correct state — here we hold it to the
        strong-recovery state after the DAG quiesces)."""
        from ..engine.database import Database  # local: import cycle

        shadow = Database(
            recovery_dir=self.directory,
            recovery="strong",
            bootstrap=self.bootstrap,
            readonly=True,
        )
        shadow.drain()  # run the still-queued lost-tail deliveries
        mine = self._db.catalog.snapshot()
        theirs = shadow.catalog.snapshot()
        if mine != theirs:
            differing = sorted(
                name
                for name in set(mine) | set(theirs)
                if mine.get(name) != theirs.get(name)
            )
            raise RecoveryError(
                f"weak recovery diverged from strong recovery in table(s) "
                f"{', '.join(differing)} — a workflow procedure is likely "
                f"non-deterministic, or state is written outside the dataflow"
            )

    # -- capture (engine-facing) -----------------------------------------------
    #
    # Serialisability is validated at CAPTURE time, not at the commit-time
    # append: a record that cannot be encoded must fail while the
    # transaction can still abort.  Failing later — after undo.clear() —
    # would leave committed in-memory state permanently missing from the
    # log, and replay after a crash would silently diverge.

    @staticmethod
    def _ensure_jsonable(payload, what: str) -> None:
        try:
            json.dumps(payload)
        except TypeError as exc:
            raise RecoveryError(
                f"{what} is not JSON-serialisable: {exc} — with recovery "
                f"enabled, statement parameters and procedure arguments "
                f"must be JSON-safe values"
            ) from exc

    def record(self, txn: "Transaction", kind: str, text: str, payload) -> None:
        """Capture one command whose step wrote into the transaction's
        logical command list (logged as one ``txn`` record on commit):
        ``("sql", sql, params)``, ``("many", sql, rows)``, or ``("callx",
        name, args)`` for a procedure body run by
        :meth:`~repro.engine.database.Database.call_in_txn`, which replay
        re-invokes at the same point of the transaction.  Raises
        :class:`RecoveryError` — before the transaction can commit — when
        ``payload`` cannot ride in a log record."""
        payload = list(payload)
        self._ensure_jsonable(payload, f"parameters of {kind} command {text!r}")
        txn.log_cmds.append((kind, text, payload))

    def call_record(self, proc_name: str, args) -> dict[str, Any]:
        """Build (and validate, pre-transaction) one ``call`` record."""
        record = {"op": "call", "proc": proc_name, "args": list(args)}
        self._ensure_jsonable(record["args"], f"arguments of procedure {proc_name!r}")
        return record

    @staticmethod
    def ingest_record(stream: str, batch_id: int, rows) -> dict[str, Any]:
        """Build one ``ingest`` record; the batch is the dataflow's external
        input, so its declared-width, type-checked rows ride in the record."""
        rows = [list(r) for r in rows]
        return {"op": "ingest", "stream": stream, "batch_id": batch_id, "rows": rows}

    @staticmethod
    def delivery_record(stream: str, batch_id: int, proc_name: str) -> dict[str, Any]:
        """Build one workflow ``delivery`` record: the hop, not its rows —
        replay finds the batch at the head of the rebuilt queue."""
        return {"op": "delivery", "stream": stream, "batch_id": batch_id, "proc": proc_name}

    def on_commit(self, txn: "Transaction") -> None:
        """Append the transaction's logical record, if it has one.

        Preset records (ingest / delivery / procedure call) win over the
        ad-hoc command list; read-only procedure calls and transactions
        that captured nothing are replay-neutral and skipped.  Workflow
        deliveries are logged even when the procedure wrote nothing —
        the delivered-watermark advance itself is durable state.
        """
        if not self.active or self._log is None:
            return
        record = txn.log_record
        if record is not None:
            if record["op"] == "call" and not txn.wrote:
                return
            self._log.append(record)
        elif txn.log_cmds:
            self._log.append({"op": "txn", "cmds": [list(c) for c in txn.log_cmds]})

    # -- checkpoints -------------------------------------------------------------

    def checkpoint(self, path: Optional[str | Path] = None) -> Path:
        """Write a checkpoint; with no explicit ``path``, manage it.

        Managed checkpoints (``path=None``) land in the recovery directory
        as ``checkpoint-<lsn>.ckpt``, truncate the command log up to their
        LSN, and prune all but the two newest checkpoint files.  An explicit
        ``path`` exports a checkpoint without touching the log — recovery
        only consults the managed directory.
        """
        if self.readonly or self._log is None:
            raise RecoveryError("cannot checkpoint a read-only recovery session")
        self._log.flush()
        lsn = self._log.durable_lsn
        if path is not None:
            return write_checkpoint(path, self._db, lsn)
        dest = write_checkpoint(checkpoint_path(self.directory, lsn), self._db, lsn)
        self._log.truncate_to(lsn)
        self.last_checkpoint_lsn = lsn
        prune_checkpoints(self.directory, keep=2)
        return dest

    # -- lifecycle ---------------------------------------------------------------

    def flush(self) -> None:
        """Force the group-commit buffer to disk (fsync)."""
        if self._log is not None:
            self._log.flush()

    def close(self) -> None:
        """Flush and close the log; the database stays queryable but no
        further commits are captured."""
        self._db._log_capture = None
        if self._log is not None:
            self._log.close()

    # -- introspection -----------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        return {
            "dir": str(self.directory),
            "mode": self.mode,
            "active": self.active,
            "readonly": self.readonly,
            "log": self._log.stats() if self._log is not None else None,
            "last_checkpoint_lsn": self.last_checkpoint_lsn,
            "recovered": self.recovered,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RecoveryManager({str(self.directory)!r}, mode={self.mode!r}, "
            f"active={self.active})"
        )
