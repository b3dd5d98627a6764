"""The :class:`Database` facade: a transactional front door for one partition.

This is the engine's public API, redesigned around the paper's central
claim (§2, §3.1): **all state lives under ACID transactions, and the
stored procedure is the unit of transaction**.  Every statement executed
through this facade runs inside a transaction — there is no
non-transactional path:

* ``with db.transaction(): ...`` / ``txn = db.begin()`` — an explicit
  transaction; statements executed while it is open join it; commit on
  clean ``with``-exit (or ``txn.commit()``), undo-log rollback on
  exception (or ``txn.abort()``).
* ``db.call(name, *args)`` — a stored-procedure invocation (registered
  via :meth:`register_procedure`): the whole body is one transaction with
  compile-once pinned statements; commit on return, rollback on raise.
* ``db.execute(sql)`` with no transaction open — an **implicit
  single-statement transaction** (auto-commit).  A statement that fails
  midway (e.g. a unique violation on row 3 of a multi-row INSERT) leaves
  no partial writes behind.

The single-partition serial model (§3.1) keeps this strict: at most one
open transaction, nested ``begin()`` is an error, and DDL inside a
transaction is rejected.

Internally every path converges on :meth:`_execute`, which builds the
:class:`~repro.sql.executor.ExecutionContext` with the open transaction's
:class:`~repro.engine.transaction.UndoLog` as the write observer and the
engine's (private) access guard.  Observer and guard are **not** part of
the public signatures — they are the seams the trigger, window-visibility,
and command-logging layers plug into.

Events per statement, counted on the
:class:`~repro.common.clock.EventLedger` (``self.events``):

* plan-cache **miss** → one ``sql_plan``; **hit** → one ``plan_cache_hit``;
  a procedure's *pinned* statement → neither, after the first invocation;
* every execution → one ``sql_stmt`` plus its execution counters
  (``rows_scanned``/written, ``index_probes``);
* transaction boundaries → ``txn_begin`` / ``txn_commit`` / ``txn_abort``,
  an abort adding one ``rows_undone`` per undo record replayed.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Iterable, Optional, Sequence

from pathlib import Path

from ..common.clock import EventLedger, sim_time_us
from ..common.errors import (
    NoSuchProcedureError,
    PlanningError,
    ProcedureError,
    RecoveryError,
    SchemaError,
    TransactionAborted,
    TransactionError,
)
from ..common.ops import StatsSections
from ..obs import observability
from ..recovery.checkpoint import write_checkpoint
from ..recovery.manager import RecoveryManager
from ..sql.executor import ExecutionContext, ExecutionCounters, ResultSet
from ..sql.costing import JOIN_STRATEGIES
from ..sql.parser import statement_head
from ..sql.planner import PreparedStatement, prepare
from ..storage.catalog import Catalog
from ..storage.schema import TableKind, TableSchema
from ..storage.table import Table
from ..streaming.runtime import StreamingRuntime
from ..streaming.stream import Stream
from ..streaming.trigger import EETrigger, PETrigger
from ..streaming.window import Window
from ..streaming.workflow import Workflow
from .plan_cache import PlanCache
from .procedure import ProcedureContext, ProcedureFn, StoredProcedure
from .stats import StatsCatalog
from .transaction import Transaction


def _copy_plan_info(info: Any) -> Any:
    """Deep-copy a plan_info tree (dicts/lists/scalars only) so EXPLAIN
    callers can annotate and mutate their copy without corrupting the
    cached plan's tree."""
    if isinstance(info, dict):
        return {k: _copy_plan_info(v) for k, v in info.items()}
    if isinstance(info, list):
        return [_copy_plan_info(v) for v in info]
    return info


def _annotate_actual(info: Any, counts: dict[int, int]) -> None:
    """Write each operator's actual emitted-row count (keyed by plan
    ``op_id``) into its node of the EXPLAIN tree."""
    if isinstance(info, dict):
        op_id = info.get("op_id")
        if op_id is not None:
            info["actual_rows"] = counts.get(op_id, 0)
        for value in info.values():
            _annotate_actual(value, counts)
    elif isinstance(info, list):
        for value in info:
            _annotate_actual(value, counts)


class Database(StatsSections):
    """One partition's engine: DDL, transactions, procedures, accounting."""

    def __init__(
        self,
        *,
        plan_cache_size: int = 256,
        recovery_dir: Optional[str | Path] = None,
        recovery: str = "strong",
        bootstrap=None,
        group_commit: int = 8,
        readonly: bool = False,
        obs=None,
    ):
        """Open one partition's engine.

        Args:
            plan_cache_size: LRU capacity of the plan cache (SQL texts).
            recovery_dir: directory for the command log and checkpoints.
                When given, the database is **durable**: every committed
                transaction is command-logged, ``checkpoint()`` works,
                and opening runs crash recovery (see ``recovery``).
            recovery: ``"strong"`` logs and replays every committed
                transaction; ``"weak"`` logs only the dataflow's border
                inputs and re-drives workflow DAGs through the scheduler
                (paper §4.4).  Ignored without ``recovery_dir``.
            bootstrap: ``fn(db)`` that re-creates the deployment — all
                DDL (tables, streams, windows, indexes, workflows) and
                procedure/trigger registrations.  DDL is *not* logged
                (H-Store's model: schema and procedures are deployed,
                commands are replayed against them), so with
                ``recovery_dir`` all DDL belongs in the bootstrap.  Runs
                before recovery; also runs when given without
                ``recovery_dir`` (pure convenience).
            group_commit: command-log records buffered per fsync (1 =
                synchronous logging; the default batches 8); 64 KiB of
                buffered records also force one.
            readonly: recover state but never write to the recovery
                directory (no log appends, no checkpoints) — for
                inspecting or timing a recovery.
            obs: observability handle — an
                :class:`~repro.obs.Observability`, ``"metrics"``,
                ``"full"``, or ``None``/``"off"`` (the default: the
                shared no-op, near-zero cost).  When enabled, its
                registry surfaces as the ``"obs"`` :meth:`stats` section
                and pipeline stages emit wall-clock trace spans.

        Raises:
            ValueError: an unknown ``recovery`` mode.
            RecoveryError: the log or a checkpoint is damaged beyond the
                torn-tail contract, references schema objects the
                bootstrap did not create, or holds weak-mode records past
                its newest checkpoint under ``recovery="strong"``.
        """
        #: every architectural event this engine counts (``stats("events")``)
        self.events = EventLedger()
        #: the observability handle; DISABLED (a shared no-op) by default.
        #: Span sites open ``with self.obs.span(...)`` unguarded: disabled,
        #: 0.32–0.34 µs per site, 0.8–3.2 µs per op (see :mod:`repro.obs`).
        self.obs = observability(obs, process="engine")
        #: the open transaction's ``txn`` span (from _scope to _txn_closed)
        self._txn_span = None
        self.catalog = Catalog()
        self.plan_cache = PlanCache(plan_cache_size, self.events)
        #: bumped on every DDL; prepared statements are stamped with it so
        #: stale plans held across a schema change fail fast (see
        #: :meth:`execute_prepared`) instead of reading the wrong schema.
        self.schema_epoch = 0
        #: column statistics feeding the cost-based planner; populated by
        #: :meth:`analyze` / ``ANALYZE``, version-stamped into every plan
        #: so a refresh invalidates cached plans (cache replan, never an
        #: execution-time rejection — see :class:`PlanCache`).
        self.table_stats = StatsCatalog()
        #: forced join algorithm for differential testing (None = cost-based)
        self._force_join: Optional[str] = None
        #: per-plan tallies surfaced by the ``planner`` stats section
        self._planner_stats: Counter[str] = Counter()
        #: EXPLAIN's per-operator actual-row sink; threaded into the
        #: ExecutionContext of statements run under :meth:`explain`
        self._explain_counts: Optional[dict[int, int]] = None
        #: tallies of the most recent execution (see :attr:`last_counters`)
        self._last = ExecutionCounters()
        self._txn: Optional[Transaction] = None
        self._next_txn_id = 1
        self._procedures: dict[str, StoredProcedure] = {}
        #: name of the stored procedure whose invocation is currently on the
        #: stack (window-visibility checks key off this); None for ad-hoc SQL
        self._current_proc: Optional[str] = None
        #: the streaming layer (paper §3.2): streams, windows, triggers,
        #: workflow DAGs, and the batch-ordered delivery scheduler
        self.streaming = StreamingRuntime(self)
        #: the executor's access-guard hook, occupied by the streaming
        #: layer's visibility/DML rules; deliberately not exposed through
        #: any public signature.
        self._guard = self.streaming.guard
        super().__init__()  # the registered stats sections
        # the metrics registry *backs* stats() through the same hook any
        # attached subsystem uses — one snapshot API, no parallel channel
        self._stats_sections["obs"] = lambda: self.obs.stats_section()
        # the planner section rides the same subsystem hook: plan tallies,
        # join-algorithm mix, and the statistics catalog behind them
        self.add_stats_section("planner", self._planner_stats_section)
        #: durability sidecar (command log + checkpoints); None = memory-only
        self._recovery: Optional[RecoveryManager] = None
        #: the recovery manager iff it is capturing commits right now (None
        #: while memory-only, replaying, or read-only) — the engine's single
        #: check before paying any logging cost; the manager sets it
        self._log_capture: Optional[RecoveryManager] = None
        if recovery_dir is not None:
            self._recovery = RecoveryManager(
                self,
                recovery_dir,
                mode=recovery,
                bootstrap=bootstrap,
                group_size=group_commit,
                readonly=readonly,
            )
            self._recovery.open()
        elif bootstrap is not None:
            bootstrap(self)

    # -- DDL -----------------------------------------------------------------

    def create_table(self, schema: TableSchema) -> Table:
        """Create a table; invalidates all cached plans (schema change)."""
        self._reject_ddl_in_txn("CREATE TABLE")
        if schema.kind is not TableKind.TABLE:
            raise SchemaError(
                f"create_table only creates plain tables; use "
                f"db.create_stream(...) / db.create_window(...) for "
                f"{schema.kind.value} tables"
            )
        schema.reject_hidden_columns("table")
        table = self.catalog.create_table(schema)
        self._schema_changed()
        return table

    def drop_table(self, name: str) -> None:
        """Drop a table, stream, or window (streams with dependent windows,
        triggers, or workflow edges are rejected)."""
        self._reject_ddl_in_txn("DROP TABLE")
        self.catalog.table(name)  # raises NoSuchTableError before unregistering
        self.streaming.unregister_table(name)
        self.catalog.drop_table(name)
        self.table_stats.drop(name)
        self._schema_changed()

    # -- streaming DDL (paper §3.2) -------------------------------------------

    def create_stream(self, schema: TableSchema) -> Stream:
        """Create a stream from a *declared* schema (paper §3.2.1).

        The physical table is the declared schema extended with the hidden
        ``__batch_id__``/``__seq__`` metadata columns; ``SELECT *`` and
        ``stats()`` keep showing the declared shape.  Write access is
        exclusively through :meth:`ingest` / ``ctx.emit`` atomic batches.
        Like all DDL, not command-logged: with recovery enabled, create
        streams in the ``bootstrap``.

        Returns:
            The registered :class:`Stream`.

        Raises:
            SchemaError: a declared column name uses the reserved ``__``
                prefix.
            DuplicateTableError: the name is taken.
            TransactionError: called inside a transaction (DDL is
                auto-commit only).
        """
        self._reject_ddl_in_txn("CREATE STREAM")
        stream = self.streaming.create_stream(schema)
        self._schema_changed()
        return stream

    def create_window(
        self,
        name: str,
        source: str,
        *,
        size: int,
        slide: int,
        unit: str = "rows",
        owner: Optional[str] = None,
    ) -> Window:
        """Create a sliding window over stream ``source`` (paper §3.2.2).

        ``unit="rows"`` slides every ``slide`` tuples over the last ``size``
        tuples; ``unit="batches"`` slides every ``slide`` atomic batches
        over the last ``size`` batches (batch ids are the logical time
        axis).  With ``owner=`` the window is visible only to SQL inside
        that stored procedure's invocations and advances inside the owner's
        workflow-delivery transactions; unowned windows advance inside the
        transaction that ingests each batch.

        Returns:
            The registered :class:`Window`.

        Raises:
            SchemaError: invalid size/slide/unit combination.
            StreamingError: ``source`` is not a stream, or ``owner`` is
                not a registered procedure.
            TransactionError: called inside a transaction.
        """
        self._reject_ddl_in_txn("CREATE WINDOW")
        window = self.streaming.create_window(
            name, source, size=size, slide=slide, unit=unit, owner=owner
        )
        self._schema_changed()
        return window

    def create_ee_trigger(self, name: str, stream: str, fn) -> EETrigger:
        """Attach an EE trigger: ``fn(ctx, rows)`` fires per batch-insert
        statement on ``stream``, inside the inserting transaction
        (paper §3.2.3); each firing counts one ``ee_trigger`` event."""
        self._reject_ddl_in_txn("CREATE TRIGGER")
        return self.streaming.create_ee_trigger(name, stream, fn)

    def create_pe_trigger(self, name: str, stream: str, fn) -> PETrigger:
        """Attach a PE trigger: ``fn(db, batch)`` fires after a transaction
        commits an atomic batch into ``stream``, outside any transaction
        (paper §3.2.3); each firing counts one ``pe_trigger`` event."""
        self._reject_ddl_in_txn("CREATE TRIGGER")
        return self.streaming.create_pe_trigger(name, stream, fn)

    def create_workflow(self, name: str, edges: Sequence) -> Workflow:
        """Wire stored procedures into a dataflow DAG (paper §2, §3.2).

        ``edges`` are ``(in_stream, procedure)`` or
        ``(in_stream, procedure, out_stream)`` tuples: each committed batch
        in ``in_stream`` runs ``procedure`` once, as one transaction, with
        that :class:`~repro.streaming.stream.Batch`.  Deliveries are
        exactly-once in batch-id order — a guarantee that survives crashes
        when recovery is enabled; cycles are rejected.

        Returns:
            The validated :class:`Workflow`.

        Raises:
            WorkflowError: malformed edge, unknown stream/procedure,
                duplicate subscription, or a cycle (including across
                previously registered workflows).
            TransactionError: called inside a transaction.
        """
        self._reject_ddl_in_txn("CREATE WORKFLOW")
        return self.streaming.create_workflow(name, edges)

    # -- streaming data plane ----------------------------------------------------

    def ingest(self, stream: str, rows, batch_id: Optional[int] = None) -> list[int]:
        """Ingest one atomic batch into ``stream`` as one transaction.

        Committed batches trigger downstream workflow procedures before
        this call returns (see :meth:`drain`).  With recovery enabled,
        each *applied* batch is command-logged with its rows — ingests
        are the dataflow's border inputs, the records weak recovery
        replays.  Batches queued for the future are **not** durable until
        applied; after a crash the client must resubmit them.

        Args:
            stream: target stream name (created via :meth:`create_stream`).
            rows: the batch — tuples in declared-column order, or
                column→value mappings.
            batch_id: explicit atomic-batch id; defaults to the next id
                after the newest batch the stream has seen.

        Returns:
            The batch ids applied, in order: ``[batch_id]`` normally,
            ``[]`` when the batch was queued (arrived from the future),
            or several ids when this batch filled a gap and queued
            successors were applied behind it.

        Raises:
            BatchOrderError: ``batch_id`` is at or before the stream's
                committed watermark, or duplicates a queued batch.
            SchemaError: a row does not match the declared schema.
            NoSuchTableError | StreamingError: ``stream`` is unknown or
                not a stream.
            TransactionError: called while a transaction is open (each
                batch is its own transaction; use ``ctx.emit`` inside
                procedures).
        """
        return self.streaming.ingest(stream, rows, batch_id)

    def drain(self) -> int:
        """Run pending workflow/PE-trigger deliveries to completion.

        A delivery whose transaction aborts stays queued and the error
        propagates — call ``drain()`` again to retry it (exactly-once:
        the aborted attempt rolled back, so the retry's effects happen
        once).  After a **strong** recovery, the committed-but-undelivered
        hops the crash lost wait in the queue; the first ``drain()``
        resumes the dataflow where the crash cut it.

        After each workflow delivery commits, stream garbage collection
        drops the rows of its input stream's batches that every workflow
        subscriber has consumed (keeping the newest consumed batch), so
        sustained ingest does not grow memory without bound;
        ``stats()["streaming"]`` reports per-stream and total
        ``rows_reclaimed``.

        Returns:
            How many deliveries were processed.

        Raises:
            ProcedureError | TransactionAborted: a delivery's procedure
                failed; the delivery stays queued for retry.
            ScheduleViolation: the scheduler observed a non-monotonic
                batch id for a subscription (internal invariant).
        """
        return self.streaming.drain()

    # -- durability (paper §3.1, §4.4) ----------------------------------------

    def checkpoint(self, path: Optional[str | Path] = None) -> Path:
        """Write a checkpoint of all durable state; returns its path.

        A checkpoint is one checksummed file holding the full
        ``Catalog.snapshot()`` (tables, streams, windows — rowids, rows,
        next-rowid) plus the streaming runtime's watermarks and scheduler
        positions.  With no ``path``, the checkpoint is *managed*: it
        lands in the recovery directory, the command log is truncated up
        to the checkpoint's LSN, and all but the newest two checkpoints
        are pruned (the newest is fsynced before its rename; the older one
        cannot stand in once the log is truncated).  With an explicit
        ``path``, the snapshot is exported there and the log is untouched.

        Args:
            path: optional export destination (outside the managed
                recovery directory).

        Returns:
            The path of the written checkpoint file.

        Raises:
            TransactionError: a transaction is open (checkpoints are
                consistent cuts between transactions).
            RecoveryError: the database has no ``recovery_dir`` and no
                explicit ``path`` was given, or it was opened
                ``readonly``.

        Counts one ``snapshot_row`` event per serialised row.
        """
        if self._txn is not None:
            raise TransactionError(
                f"cannot checkpoint while transaction {self._txn.txn_id} is "
                f"open (checkpoints are consistent cuts between transactions)"
            )
        if self._recovery is not None:
            return self._recovery.checkpoint(path)
        if path is None:
            raise RecoveryError(
                "this database has no recovery_dir; pass an explicit path "
                "to export a standalone checkpoint"
            )
        return write_checkpoint(path, self, 0)

    def flush_log(self) -> None:
        """Force the command log's group-commit buffer to disk (one
        batched fsync).  The durability window closes here: everything
        committed so far survives a crash.  No-op without recovery."""
        if self._recovery is not None:
            self._recovery.flush()

    def close(self) -> None:
        """Flush and close the command log.  The database remains
        queryable in memory, but further commits are no longer captured;
        idempotent, and a no-op without recovery."""
        if self._recovery is not None:
            self._recovery.close()

    def create_index(
        self,
        table_name: str,
        index_name: str,
        key_columns: Sequence[str],
        *,
        unique: bool = False,
        ordered: bool = False,
    ):
        """Create a secondary index; invalidates cached plans so future
        statements can pick the new access path."""
        self._reject_ddl_in_txn("CREATE INDEX")
        index = self.catalog.table(table_name).create_index(
            index_name, key_columns, unique=unique, ordered=ordered
        )
        self._schema_changed()
        return index

    def drop_index(self, table_name: str, index_name: str) -> None:
        """Drop an index; invalidates cached plans so statements compiled
        against it replan onto a different access path.  Always drop
        indexes through this method, not ``Table.drop_index`` directly —
        stale cached plans would keep probing the dropped index."""
        self._reject_ddl_in_txn("DROP INDEX")
        self.catalog.table(table_name).drop_index(index_name)
        self._schema_changed()

    def _reject_ddl_in_txn(self, what: str) -> None:
        """DDL is auto-commit only: the undo log records physical row
        mutations, not schema changes, so DDL cannot be rolled back."""
        if self._txn is not None:
            raise TransactionError(
                f"{what} is not allowed inside a transaction "
                f"(txn {self._txn.txn_id} is open; DDL is auto-commit only)"
            )

    def _schema_changed(self) -> None:
        """After any DDL: drop every cached plan and advance the epoch so
        externally held prepared statements (and procedure pin tables) are
        invalidated."""
        self.plan_cache.clear()
        self.schema_epoch += 1

    # -- transactions ----------------------------------------------------------

    def begin(self) -> Transaction:
        """Open an explicit transaction.

        The caller owns the handle and must :meth:`~Transaction.commit`
        or :meth:`~Transaction.abort` it; prefer ``with
        db.transaction():`` which does so automatically.  With recovery
        enabled, the statements that wrote are logged as one ``txn``
        record when the transaction commits.

        Returns:
            The open :class:`Transaction` handle.

        Raises:
            TransactionError: a transaction is already open
                (single-partition serial model: no nesting).
        """
        return self._scope(implicit=False)

    def transaction(self) -> Transaction:
        """Scope one transaction: commit on clean exit, abort on exception.

        A transaction already finished inside the block (manual
        ``txn.abort()``/``txn.commit()``) is left as-is on exit.

        Returns:
            The open :class:`Transaction`, which is its own ``with`` scope.

        Raises:
            TransactionError: a transaction is already open.
        """
        return self._scope(implicit=False)

    def _scope(self, *, implicit: bool) -> Transaction:
        """Begin the one open transaction — the one begin/commit/abort
        scope of ``begin()``, ``transaction()``, procedure calls, ingest and
        implicit statements: ``with`` it to commit on clean exit and abort
        on exception."""
        if self._txn is not None:
            raise TransactionError(
                f"transaction {self._txn.txn_id} is already open "
                f"(single-partition serial model: one transaction at a time)"
            )
        txn = Transaction(self, self._next_txn_id, implicit=implicit)
        self._next_txn_id += 1
        self._txn = txn
        self.events.txn_begin += 1
        if implicit:
            self.events.txn_implicit += 1
        # open until _txn_closed, so trigger/log spans nest inside it
        self._txn_span = self.obs.span("txn", txn_id=txn.txn_id, implicit=implicit)
        return txn

    def _txn_closed(self, txn: Transaction, event: str) -> None:
        """Called by :class:`Transaction` after commit/abort settles state."""
        self._txn = None
        try:
            if event == "txn_commit":
                self.events.txn_commit += 1
                # Command logging rides the commit path, before staged
                # batches publish, so parent records precede the downstream
                # deliveries they trigger.
                capture = self._log_capture
                if capture is not None:
                    capture.on_commit(txn)
            else:
                self.events.txn_abort += 1
        finally:
            self._txn_span.finish(outcome="commit" if event == "txn_commit" else "abort")

    # -- stored procedures -----------------------------------------------------

    def register_procedure(self, name, fn: Optional[ProcedureFn] = None):
        """Register ``fn(ctx, *args)`` as stored procedure ``name``.

        Three equivalent forms::

            db.register_procedure("vote", vote_fn)      # direct

            @db.register_procedure("vote")              # named decorator
            def vote_fn(ctx, contestant_id): ...

            @db.register_procedure                      # bare decorator
            def vote(ctx, contestant_id): ...           # name = fn.__name__

        Procedure names are case-insensitive and must be unique.  With
        recovery enabled, bodies must be **deterministic** — recovery
        re-invokes them with the logged arguments and expects identical
        effects.

        Returns:
            ``fn`` (so the decorator forms compose), or the decorator
            itself in the named-decorator form.

        Raises:
            ValueError: the name is already registered.
        """
        if callable(name) and fn is None:  # bare-decorator form
            return self.register_procedure(name.__name__, name)
        if fn is None:
            def decorate(f: ProcedureFn) -> ProcedureFn:
                self.register_procedure(name, f)
                return f
            return decorate
        key = name.lower()
        if key in self._procedures:
            raise ValueError(f"stored procedure {name!r} is already registered")
        self._procedures[key] = StoredProcedure(key, fn)
        return fn

    def call(self, name: str, *args: Any, key: Any = None) -> Any:
        """Invoke a stored procedure as one transaction.

        The body runs with a :class:`ProcedureContext`; its statements use
        the procedure's pinned compile-once plans.  On return the
        transaction commits (and, with recovery enabled, a ``call``
        record with ``name`` and ``args`` is command-logged — replay
        re-invokes the procedure, so bodies must be deterministic and
        args JSON-safe).  On exception the transaction rolls back.

        Args:
            name: registered procedure name (case-insensitive).
            args: positional arguments passed to the body after ``ctx``.
            key: partition routing hint, ignored — a single engine *is*
                the one partition every key routes to.

        Returns:
            The body's return value.

        Raises:
            NoSuchProcedureError: ``name`` is not registered.
            TransactionAborted: the body aborted (including
                :class:`UserAbort` from ``ctx.abort()``); propagates
                unwrapped after rollback.
            ProcedureError: the body raised any other exception; wrapped
                with the original as ``__cause__`` after rollback.
            TransactionError: a transaction is already open (serial
                model: procedures cannot nest inside transactions).
            RecoveryError: recovery is enabled and ``args`` are not
                JSON-serialisable.
        """
        proc = self._procedures.get(name.lower()) or self._no_such_procedure(name)
        capture = self._log_capture
        # build + validate the record while nothing has happened yet:
        # unserialisable args must fail before the transaction opens
        record = None if capture is None else capture.call_record(proc.name, args)
        with self.obs.span("procedure", proc=proc.name), self._scope(implicit=False) as txn:
            txn.log_record = record
            result = self._invoke(proc, txn, args)
        # A committed call may have emitted stream batches; run the
        # downstream workflow deliveries before handing control back.
        self.streaming.drain()
        return result

    def _no_such_procedure(self, name: str):
        known = ", ".join(sorted(self._procedures)) or "none"
        raise NoSuchProcedureError(f"no stored procedure {name!r} (have: {known})")

    def _invoke(
        self, proc: StoredProcedure, txn: Transaction, args: Sequence[Any], before=None
    ) -> Any:
        """The one procedure-body runner, inside ``txn`` (its enclosing step
        owns the rollback): ``before(ctx)`` (a delivery's owned-window
        advance), then ``proc.fn(ctx, *args)``.  :class:`TransactionAborted`
        propagates unwrapped; other exceptions wrap in :class:`ProcedureError`."""
        self.events.procedure_call += 1
        ctx = ProcedureContext(self, proc, txn)
        prev_proc = self._current_proc
        self._current_proc = proc.name
        try:
            if before is not None:
                before(ctx)
            return proc.fn(ctx, *args)
        except TransactionAborted:
            raise
        except Exception as exc:
            raise ProcedureError(
                f"procedure {proc.name!r} failed and was rolled back: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        finally:
            self._current_proc = prev_proc

    def call_in_txn(self, name: str, *args: Any) -> Any:
        """Run a stored procedure's **body** inside the open explicit
        transaction, without committing it.

        This is the cross-partition prepare seam (paper §4.7): a
        :class:`~repro.partition.PartitionedDatabase` coordinator begins an
        explicit transaction on each participant partition, runs procedure
        fragments through this method, and only then commits every
        participant in its globally assigned order — so all fragments
        commit or none do.  Unlike :meth:`call`, the transaction stays
        open on return: the caller owns commit/abort.

        The body runs with the usual :class:`ProcedureContext` (pinned
        plans, ``ctx.emit`` staging into the open transaction, owned-window
        visibility).  On failure the body's writes are rolled back to a
        savepoint taken at entry — the enclosing transaction stays
        consistent and usable, exactly like a failed statement.  With
        recovery enabled the invocation is captured as one ``callx``
        command in the transaction's log record — if, and only if, the
        body wrote — so replay re-invokes the body deterministically at the
        same point of the transaction.

        Args:
            name: registered procedure name (case-insensitive).
            args: positional arguments passed to the body after ``ctx``.

        Returns:
            The body's return value.

        Raises:
            NoSuchProcedureError: ``name`` is not registered.
            TransactionError: no explicit transaction is open (use
                :meth:`call` for the ordinary one-invocation-one-
                transaction path).
            TransactionAborted: the body called ``ctx.abort()``; its
                writes are rolled back, the transaction stays open.
            ProcedureError: the body raised; writes rolled back likewise.
            RecoveryError: recovery is enabled, the body wrote, and
                ``args`` are not JSON-serialisable (checked after the body
                returns; its writes are rolled back likewise).
        """
        proc = self._procedures.get(name.lower()) or self._no_such_procedure(name)
        txn = self._txn
        if txn is None or txn.implicit:
            raise TransactionError(
                f"call_in_txn({name!r}) requires an open explicit transaction "
                f"(the caller owns commit/abort); use db.call() for the "
                f"auto-commit form"
            )
        with Transaction.savepoint(self, ("callx", proc.name, args)):
            return self._invoke(proc, txn, args)

    # -- statement preparation -----------------------------------------------

    def prepare(self, sql: str) -> PreparedStatement:
        """Fetch the prepared statement for ``sql``, planning it on a cache
        miss.  The cache counts a hit as one ``plan_cache_hit`` event and a
        miss as one ``sql_plan``.

        Args:
            sql: one statement (the exact text is the cache key).

        Returns:
            The compiled :class:`PreparedStatement`, stamped with the
            current schema epoch.

        Raises:
            LexError | ParseError | PlanningError: the SQL is invalid
                against the current schema.
        """
        stats = self.table_stats
        # analyzed tables whose row count drifted past the threshold are
        # re-analyzed first; the version bump makes the cache lookup below
        # miss for every plan costed under the old numbers
        stats.maybe_auto_refresh(self.catalog)
        stmt = self.plan_cache.get(sql, self.schema_epoch, stats.version)
        if stmt is not None:
            return stmt
        with self.obs.span("plan.compile", sql=sql[:120]):
            stmt = prepare(sql, self.catalog, stats=stats, force_join=self._force_join)
        stmt.epoch = self.schema_epoch
        stmt.stats_version = stats.version
        self.plan_cache.put(sql, stmt)
        self._tally_plan(stmt.plan_info)
        return stmt

    _JOIN_OP_TALLY = {
        "HashJoin": "join_hash",
        "IndexNestedLoopJoin": "join_inl",
        "BlockNestedLoopJoin": "join_bnl",
    }

    def _tally_plan(self, info: dict[str, Any]) -> None:
        self._planner_stats["plans_costed"] += 1
        node = info
        while node is not None:
            for join in node.get("joins", ()):
                key = self._JOIN_OP_TALLY.get(join.get("op"))
                if key is not None:
                    self._planner_stats[key] += 1
            node = node.get("select")  # descend into INSERT ... SELECT

    def _planner_stats_section(self) -> dict[str, Any]:
        joins = {
            key.removeprefix("join_"): self._planner_stats.get(key, 0)
            for key in self._JOIN_OP_TALLY.values()
        }
        return {
            "plans_costed": self._planner_stats.get("plans_costed", 0),
            "joins": joins,
            "force_join": self._force_join,
            "stats": self.table_stats.stats_section(),
        }

    @property
    def force_join(self) -> Optional[str]:
        """Forced join algorithm (``"inl"``/``"hash"``/``"bnl"``)
        or None for cost-based selection.  Changing it clears the plan cache
        and every procedure's pin table, so no cached or pinned plan leaks
        the previous strategy; the schema epoch stays, because a held
        prepared statement is still correct.  This is the
        differential-testing hook, not a tuning knob."""
        return self._force_join

    @force_join.setter
    def force_join(self, value: Optional[str]) -> None:
        if value is not None and value not in JOIN_STRATEGIES:
            raise PlanningError(
                f"unknown join strategy {value!r} "
                f"(expected one of {', '.join(JOIN_STRATEGIES)})"
            )
        if value != self._force_join:
            self._force_join = value
            self.plan_cache.clear()
            for proc in self._procedures.values():
                proc.unpin_all()

    def analyze(self, table: Optional[str] = None) -> dict[str, int]:
        """Collect column statistics (NDV, min/max, null counts) for one
        table or — with no argument — every table; the SQL spelling is
        ``ANALYZE [table]``.

        Each analyzed table is scanned once (counted per row like a
        sequential scan).  The statistics version bump invalidates every
        cached plan, so subsequent statements are re-costed against the
        fresh numbers.

        Returns:
            ``{table_name: analyzed_row_count}`` for the analyzed tables.

        Raises:
            NoSuchTableError: ``table`` names no existing table.
        """
        targets = (
            [self.catalog.table(table)] if table is not None else list(self.catalog.tables())
        )
        out: dict[str, int] = {}
        for t in targets:
            snap = self.table_stats.analyze(t)
            out[t.name] = snap.analyzed_rows
            self.events.rows_scanned += snap.analyzed_rows
        return out

    def explain(
        self, sql: str, params: Sequence[Any] = (), *, key: Any = None
    ) -> dict[str, Any]:
        """The plan tree for ``sql`` with estimated — and, for SELECT,
        **actual** — per-operator row counts (``key`` is a routing hint,
        ignored here as in :meth:`execute`).

        SELECT statements are executed (with ``params``) so every operator
        can report the rows it actually emitted next to the planner's
        estimate; DML statements are planned but **not** executed (EXPLAIN
        must never mutate), so their nodes carry estimates only.

        Returns:
            A JSON-safe dict: the statement's ``plan_info`` tree where
            each operator node has ``op``, ``est_rows``, ``cost``, the
            alternatives ``considered``, and (SELECT only) ``actual_rows``.
        """
        stmt = self.prepare(sql)
        info = _copy_plan_info(stmt.plan_info)
        if stmt.kind == "select":
            prev = self._explain_counts
            self._explain_counts = counts = {}
            try:
                result = self.execute_prepared(stmt, params)
            finally:
                self._explain_counts = prev
            _annotate_actual(info, counts)
            info["actual_rows"] = len(result)
        return info

    # -- execution -------------------------------------------------------------

    def execute(
        self, sql: str, params: Sequence[Any] = (), *, key: Any = None
    ) -> ResultSet:
        """Execute one SQL statement (through the plan cache).

        Joins the open transaction if there is one; otherwise runs as an
        implicit single-statement transaction (auto-commit), so even a
        multi-row statement that fails midway leaves no partial writes.
        With recovery enabled, a statement that wrote is captured in the
        transaction's command-log record at commit.

        Args:
            sql: one statement (SELECT/INSERT/UPDATE/DELETE); ``?``
                placeholders bind positionally.
            params: bind values, one per ``?`` (JSON-safe values required
                when recovery is enabled).
            key: partition routing hint, ignored (see :meth:`call`).

        Returns:
            A :class:`ResultSet` — rows and column names for SELECT, a
            ``rowcount`` for DML.

        Raises:
            LexError | ParseError | PlanningError: the SQL is invalid.
            ConstraintViolation: a NOT NULL / UNIQUE / PRIMARY KEY rule
                was violated (the statement's writes are rolled back).
            StreamingError: direct DML against a stream or window table
                (use :meth:`ingest` / ``ctx.emit``).
            WindowVisibilityError: reading an owned window outside its
                owning procedure.
            TransactionError: the enclosing transaction is no longer live.
        """
        # ANALYZE is a utility statement, not a plannable one; intercept it
        # before the plan cache
        verb, table = statement_head(sql)
        if verb == "analyze":
            analyzed = self.analyze(table)
            return ResultSet(("table_name", "analyzed_rows"), sorted(analyzed.items()))
        return self.execute_prepared(self.prepare(sql), params)

    def execute_prepared(
        self, stmt: PreparedStatement, params: Sequence[Any] = ()
    ) -> ResultSet:
        """Execute an already-prepared statement (no cache interaction).

        Same transactional behaviour, capture, and errors as
        :meth:`execute`, plus: rejects statements prepared before the
        last schema change (:class:`PlanningError`) — a stale plan could
        silently read the wrong columns or probe a dropped index;
        re-prepare (or go through :meth:`execute`) after DDL."""
        with Transaction.savepoint(self, ("sql", stmt.sql, params)) as txn:
            return self._execute(stmt, params, txn)

    def executemany(
        self,
        sql: str,
        param_rows: Iterable[Sequence[Any]],
        *,
        key_position: Optional[int] = None,
    ) -> int:
        """Apply one statement across a batch of parameter rows; returns the
        total rowcount.

        The statement goes through :meth:`prepare` exactly once, and — for
        statements that support it (``INSERT ... VALUES``) — the whole batch
        is applied **vectorized** as one statement execution: every row is
        bound up front, the storage layer bulk-inserts with one index
        maintenance loop per index, and the undo log records one compact
        range entry.  Per-invocation overhead is paid once per batch, not
        once per row (paper §3.2.1: the batch is the atomic unit).  The
        batch is always atomic: a failure anywhere rolls back every row —
        inside an explicit transaction the batch acts as one statement with
        its own savepoint, leaving the transaction usable.  Statements with
        no vectorized binder fall back to one execution per parameter row
        (still one prepare, still atomic).  After the batch,
        :attr:`last_counters` holds the **aggregate** counters across all
        parameter rows.

        Args:
            sql: one statement with ``?`` placeholders.
            param_rows: an iterable of bind-value rows (materialised up
                front when recovery is enabled, so the whole batch can
                ride in one command-log record).
            key_position: which parameter column carries the partition
                key — a routing hint, ignored (see :meth:`call`).

        Returns:
            The total rowcount across the batch.

        Raises:
            Everything :meth:`execute` can raise; a failure anywhere in
            the batch rolls back the entire batch.
        """
        stmt = self.prepare(sql)
        if self._log_capture is not None:
            # the logical command is (sql, all rows): materialise so the
            # batch can ride in one command-log record
            param_rows = [list(row) for row in param_rows]
        with Transaction.savepoint(self, ("many", sql, param_rows)) as txn:
            if stmt.run_many is not None:
                # one vectorized execution over the whole batch (mirrors
                # _execute; the step is its savepoint)
                self._check_executable(stmt, txn)
                ctx = ExecutionContext(self.catalog, (), txn.undo, self._guard, self.obs)
                total = stmt.run_many(ctx, param_rows)
                self._tally(ctx)
                return total
            batch = ExecutionCounters()
            total = 0
            for params in param_rows:
                total += self._execute(stmt, params, txn).rowcount
                self._last.add_to(batch)
        self._last = batch
        return total

    def query(self, sql: str, params: Sequence[Any] = ()) -> list[dict[str, Any]]:
        """Convenience wrapper over :meth:`execute`.

        Args:
            sql: one statement; ``?`` placeholders bind positionally.
            params: bind values, one per ``?``.

        Returns:
            The result rows as ``{column: value}`` dicts.

        Raises:
            Everything :meth:`execute` can raise.
        """
        return self.execute(sql, params).to_dicts()

    def _execute(
        self, stmt: PreparedStatement, params: Sequence[Any], txn: Transaction
    ) -> ResultSet:
        """The single internal execution path: every statement, from every
        public entry point, runs here inside ``txn``.

        The transaction's undo log observes all writes; a statement that
        raises is rolled back to its own savepoint (statement-level
        atomicity) before the exception propagates, leaving the enclosing
        transaction consistent and usable."""
        if txn is not self._txn or txn.state != txn.ACTIVE or (
            stmt.epoch != self.schema_epoch and stmt.epoch is not None
        ):
            self._check_executable(stmt, txn)  # raises
        undo = txn.undo
        ctx = ExecutionContext(
            self.catalog, params, undo, self._guard, self.obs, self._explain_counts
        )
        mark = len(undo._entries)  # the statement's savepoint (no call: runs per statement)
        try:
            result = stmt.execute(ctx)
        except BaseException:
            self.events.rows_undone += undo.rollback_to(mark)
            raise
        self._last = ctx  # _tally's accounting, inline: this runs per statement
        events = self.events
        events.sql_stmt += 1
        ctx.add_to(events)
        return result

    def _check_executable(self, stmt: PreparedStatement, txn: Transaction) -> None:
        """Raise unless both preconditions of every execution path hold: a
        live current transaction and a non-stale prepared statement."""
        if txn is not self._txn or not txn.is_active:
            # e.g. a ProcedureContext that escaped its db.call() scope:
            # executing on it would write outside any live transaction.
            raise TransactionError(
                f"transaction {txn.txn_id} is {txn.state} and is not the "
                f"database's current transaction; statements must run inside "
                f"a live transaction scope"
            )
        if stmt.epoch is not None and stmt.epoch != self.schema_epoch:
            raise PlanningError(
                f"prepared statement is stale (schema changed since it was "
                f"prepared): {stmt.sql!r}; re-prepare it"
            )

    # -- accounting ------------------------------------------------------------

    def _tally(self, ctx: ExecutionContext) -> None:
        """Account one successful execution: one ``sql_stmt`` plus its
        execution counters onto the ledger."""
        self._last = ctx
        self.events.sql_stmt += 1
        ctx.add_to(self.events)

    @property
    def last_counters(self) -> Counter[str]:
        """Counters of the most recent execution — for :meth:`executemany`,
        the aggregate over **all** parameter rows of the batch."""
        return self._last.counters

    def _builtin_stats_sections(self) -> dict[str, Any]:
        """Name → thunk for every built-in :meth:`stats` section, so a
        selective ``stats(section=...)`` computes only what it returns."""
        events = self.events
        return {
            "sim_time_us": lambda: sim_time_us(events.snapshot()),
            "schema_epoch": lambda: self.schema_epoch,
            "events": events.snapshot,
            "counters": lambda: {
                k: n for k, n in events.snapshot().items() if k in ExecutionCounters.__slots__
            },
            "transactions": lambda: {
                "begun": events.txn_begin,
                "committed": events.txn_commit,
                "aborted": events.txn_abort,
                "implicit": events.txn_implicit,
                "procedure_calls": events.procedure_call,
                "open": self._txn is not None,
            },
            "procedures": lambda: {
                name: proc.pinned_count()
                for name, proc in sorted(self._procedures.items())
            },
            "plan_cache": lambda: self.plan_cache.stats(
                sum(proc.pin_hits for proc in self._procedures.values())
            ),
            "tables": lambda: {
                t.name: {
                    "rows": t.row_count(),
                    "kind": t.schema.kind.value,
                    "columns": list(t.schema.declared_columns()),
                }
                for t in self.catalog.tables()
            },
            "streaming": self.streaming.stats,
            "recovery": lambda: (
                self._recovery.stats() if self._recovery is not None else None
            ),
        }

    def stats(self, section: Optional[str] = None) -> Any:
        """One snapshot for dashboards/benchmarks — or one section of it.

        Args:
            section: fetch just this section's value (computing only it —
                wire clients poll one section without the engine
                serialising the whole snapshot).  Registered sections
                shadow built-ins, matching the full-snapshot behaviour.

        Returns:
            With ``section=None``, a dict with ``events`` (the event
            ledger), ``sim_time_us`` (its price at the default costs),
            ``schema_epoch``, ``counters`` and ``transactions`` (ledger
            views: the execution tallies; begun/committed/aborted/
            implicit/procedure_calls/open), ``procedures`` (pinned-plan counts),
            ``plan_cache`` (hits/pin_hits/misses/evictions/replans and the
            ``hit_rate`` over all three kinds of lookup), ``tables``
            (row counts, kinds, declared columns), ``streaming``
            (watermarks, windows, trigger fires, scheduler state),
            ``recovery`` (command-log/checkpoint state and what the
            open-time recovery replayed; None when memory-only), plus one
            key per attached :meth:`add_stats_section` section (always
            including ``obs``).  With ``section=``, that section's value
            alone.

        Raises:
            KeyError: ``section`` names no built-in or registered section.

        Table column listings show the *declared* schema only — hidden
        ``__``-prefixed metadata columns are engine-internal.  The full
        snapshot never raises (a failing registered thunk degrades to an
        ``{"error": ...}`` section); safe to call between statements.
        """
        return self._stats_snapshot(section, self._builtin_stats_sections())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        open_txn = self._txn.txn_id if self._txn is not None else None
        return (
            f"Database(tables={self.catalog.table_names()}, "
            f"procedures={sorted(self._procedures)}, open_txn={open_txn}, "
            f"cache={self.plan_cache!r})"
        )
