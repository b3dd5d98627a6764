"""The streaming runtime: one partition's dataflow state and scheduler.

This module owns everything the paper layers on top of the OLTP engine
(§3.2): the stream/window registry, EE/PE trigger dispatch, the workflow
subscription table, and the batch-ordered delivery queue.  It plugs into
the engine through exactly three seams:

* the executor's **access guard** (:meth:`StreamingRuntime.guard`) — SQL
  may read streams freely, but direct DML against stream/window tables is
  rejected (ingest is the only write path), and owned windows are visible
  only inside their owning procedure (paper §3.2.2);
* the transaction's **staged batches** (``Transaction.staged``) — an
  atomic batch written by ``ingest``/``emit`` is published (stream
  watermark advanced, PE triggers fired and queued) by :meth:`publish`
  only once its transaction commits; an abort, or a rolled-back savepoint,
  drops it unpublished;
* the database's **procedure invocation** path — workflow deliveries run
  downstream procedures as ordinary one-transaction calls, with owned
  windows advanced inside the delivery transaction before the body runs.

Scheduling: deliveries are dispatched smallest-batch-id-first (FIFO among
equal ids), so a batch flows through its whole DAG path before the next
batch enters it.  A delivery whose transaction aborts goes back to the
head of the queue and the error propagates; ``db.drain()`` retries it —
its rolled-back effects never became visible, so the batch is processed
exactly once.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional, Sequence

from ..common.errors import (
    BatchOrderError,
    NoSuchTableError,
    RecoveryError,
    ScheduleViolation,
    StreamingError,
    TransactionError,
    TriggerError,
    WindowVisibilityError,
    WorkflowError,
)
from ..sql.executor import ExecutionContext
from ..storage.schema import TableKind, TableSchema
from ..storage.table import Table
from .stream import BATCH_COLUMN, Batch, Stream, stream_schema
from .trigger import MAX_EE_DEPTH, EETrigger, PETrigger, TriggerContext
from .window import Window, WindowSpec
from .workflow import Workflow, find_cycle, stream_arcs

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..engine.database import Database
    from ..engine.transaction import Transaction


@dataclass
class _Delivery:
    """One queued post-commit firing: a workflow hop or a user PE trigger."""

    batch: Batch
    ext_rows: tuple  # stream-extended rows, for owned-window advancement
    kind: str        # "proc" | "pe_fn"
    target: str      # procedure name | trigger name
    fn: Any = None   # PE trigger body when kind == "pe_fn"


class StreamingRuntime:
    """All streaming state of one :class:`~repro.engine.Database`."""

    def __init__(self, db: "Database"):
        self._db = db
        self.streams: dict[str, Stream] = {}
        self.windows: dict[str, Window] = {}
        self._windows_by_source: dict[str, list[Window]] = {}
        self._ee_triggers: dict[str, list[EETrigger]] = {}
        self._pe_triggers: dict[str, list[PETrigger]] = {}
        self._trigger_names: set[str] = set()
        self.workflows: dict[str, Workflow] = {}
        #: stream name -> [(workflow name, procedure name)]
        self._subscriptions: dict[str, list[tuple[str, str]]] = {}
        #: min-heap of [batch_id, enqueue_seq, _Delivery]
        self._queue: list[list] = []
        self._enq_seq = 0
        self._draining = False
        self._delivering: Optional[_Delivery] = None
        self._ee_depth = 0
        #: (stream, procedure) -> last successfully delivered batch id
        self.delivered: dict[tuple[str, str], int] = {}
        self.deliveries_done = 0
        self.delivery_retries = 0
        #: recovery-replay mode: None (live), "strong" (logged deliveries
        #: consume the queue) or "weak" (the scheduler drains it); replay
        #: fires no user PE trigger — its effects replay from its own records
        self.replay_mode: Optional[str] = None

    # -- registry lookups -----------------------------------------------------

    def _stream(self, name: str) -> Stream:
        stream = self.streams.get(name.lower())
        if stream is None:
            if self._db.catalog.has_table(name):
                raise StreamingError(
                    f"table {name!r} is a "
                    f"{self._db.catalog.table(name).schema.kind.value}, not a STREAM"
                )
            known = self._db.catalog.table_names(TableKind.STREAM)
            raise NoSuchTableError(
                f"no stream {name!r} (have: {', '.join(known) or 'none'})"
            )
        return stream

    # -- DDL ------------------------------------------------------------------

    def create_stream(self, declared: TableSchema) -> Stream:
        """Register a stream from the user's *declared* schema; the physical
        table carries the hidden ``__batch_id__``/``__seq__`` columns."""
        declared.reject_hidden_columns("stream")
        table = Table(stream_schema(declared))
        self._db.catalog.add_table(table)
        stream = Stream(declared=declared, table=table)
        self.streams[table.name] = stream
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
        stream = self._stream(source)
        if owner is not None:
            owner = owner.lower()
            if owner not in self._db._procedures:
                raise StreamingError(
                    f"window {name!r}: owner {owner!r} is not a registered "
                    f"stored procedure"
                )
        window = Window(name.lower(), stream, WindowSpec(unit, size, slide), owner)
        self._db.catalog.add_table(window.table)
        self.windows[window.name] = window
        self._windows_by_source.setdefault(stream.name, []).append(window)
        return window

    def create_ee_trigger(self, name: str, stream: str, fn) -> EETrigger:
        self._check_trigger_name(name)
        target = self._stream(stream)  # EE triggers attach to streams only
        trigger = EETrigger(name.lower(), target.name, fn)
        self._ee_triggers.setdefault(target.name, []).append(trigger)
        self._trigger_names.add(trigger.name)
        return trigger

    def create_pe_trigger(self, name: str, stream: str, fn) -> PETrigger:
        self._check_trigger_name(name)
        target = self._stream(stream)  # a PE trigger on a window is invalid
        trigger = PETrigger(name.lower(), target.name, fn)
        self._pe_triggers.setdefault(target.name, []).append(trigger)
        self._trigger_names.add(trigger.name)
        return trigger

    def _check_trigger_name(self, name: str) -> None:
        if not name:
            raise TriggerError("trigger name must be non-empty")
        if name.lower() in self._trigger_names:
            raise TriggerError(f"trigger {name!r} already exists")

    def create_workflow(self, name: str, edges: Sequence) -> Workflow:
        key = name.lower()
        if key in self.workflows:
            raise WorkflowError(f"workflow {name!r} already exists")
        workflow = Workflow(key, edges)
        for edge in workflow.edges:
            self._stream(edge.in_stream)
            if edge.out_stream is not None:
                self._stream(edge.out_stream)
            if edge.procedure not in self._db._procedures:
                raise WorkflowError(
                    f"workflow {name!r}: procedure {edge.procedure!r} is not "
                    f"registered"
                )
            for other_subs in self._subscriptions.get(edge.in_stream, ()):
                if other_subs[1] == edge.procedure:
                    raise WorkflowError(
                        f"workflow {name!r}: procedure {edge.procedure!r} is "
                        f"already subscribed to stream {edge.in_stream!r} by "
                        f"workflow {other_subs[0]!r}"
                    )
        # individually acyclic workflows may still close a loop together —
        # a joint cycle would re-trigger deliveries forever, so check the
        # union of every registered workflow's arcs plus the candidate's
        arcs = stream_arcs(e for wf in self.workflows.values() for e in wf.edges)
        arcs += stream_arcs(workflow.edges)
        cycle = find_cycle(arcs)
        if cycle is not None:
            raise WorkflowError(
                f"workflow {name!r} would close a cycle across workflows: "
                f"{' -> '.join(cycle)}"
            )
        self.workflows[key] = workflow
        for edge in workflow.edges:
            self._subscriptions.setdefault(edge.in_stream, []).append(
                (key, edge.procedure)
            )
        return workflow

    def unregister_table(self, name: str) -> bool:
        """Called by ``Database.drop_table``; returns True when ``name`` was
        a streaming object (and has now been unregistered)."""
        key = name.lower()
        if key in self.streams:
            dependents = [w.name for w in self._windows_by_source.get(key, ())]
            dependents += [t.name for t in self._ee_triggers.get(key, ())]
            dependents += [t.name for t in self._pe_triggers.get(key, ())]
            dependents += [
                wf.name
                for wf in self.workflows.values()
                if any(e.in_stream == key or e.out_stream == key for e in wf.edges)
            ]
            if dependents:
                raise StreamingError(
                    f"cannot drop stream {name!r}: referenced by "
                    f"{', '.join(sorted(set(dependents)))}"
                )
            del self.streams[key]
            return True
        if key in self.windows:
            window = self.windows.pop(key)
            self._windows_by_source[window.source].remove(window)
            return True
        return False

    # -- the access guard (installed as Database._guard) ----------------------

    def guard(self, table: Table, mode: str) -> None:
        kind = table.schema.kind
        if kind is TableKind.TABLE:
            return
        if mode == "write":
            if kind is TableKind.STREAM:
                raise StreamingError(
                    f"direct DML on stream {table.name!r} is not allowed; "
                    f"ingest atomic batches with db.ingest({table.name!r}, rows) "
                    f"or ctx.emit({table.name!r}, rows) inside a procedure"
                )
            raise StreamingError(
                f"direct DML on window {table.name!r} is not allowed; windows "
                f"are maintained by the streaming layer as their source "
                f"stream's batches commit"
            )
        if kind is TableKind.WINDOW:
            window = self.windows.get(table.name)
            if window is not None and window.owner is not None:
                current = self._db._current_proc
                if current != window.owner:
                    raise WindowVisibilityError(
                        f"window {table.name!r} is only visible inside its "
                        f"owning procedure {window.owner!r} "
                        f"(current: {current or 'ad-hoc SQL'})"
                    )

    # -- ingest / emit ---------------------------------------------------------

    def ingest(self, stream_name: str, rows, batch_id: Optional[int] = None) -> list[int]:
        """Ingest one atomic batch (one transaction per applied batch).

        Returns the batch ids applied — empty when the batch arrived from
        the future and was queued; several when it filled a gap and queued
        successors were applied behind it.  After applying, drains the
        delivery queue (downstream workflow procedures run here), so a
        downstream abort propagates to this caller *after* the ingested
        batch itself has committed; ``db.drain()`` retries the delivery.
        """
        db = self._db
        if db._txn is not None:
            raise TransactionError(
                "db.ingest opens its own transaction per atomic batch; finish "
                "the open transaction first (inside a procedure, use ctx.emit)"
            )
        stream = self._stream(stream_name)
        if batch_id is None:
            batch_id = stream.next_auto_batch()
        batch_id = int(batch_id)
        if batch_id <= stream.last_committed:
            raise BatchOrderError(
                f"stream {stream.name!r}: batch {batch_id} is not after the "
                f"last committed batch {stream.last_committed}"
            )
        if batch_id in stream.pending:
            if batch_id != stream.expected_batch:
                raise BatchOrderError(
                    f"stream {stream.name!r}: batch {batch_id} is already queued"
                )
            # the queued copy became applicable but failed to apply (that is
            # the only way it is still here): this explicit re-ingest is a
            # retry — replace the stuck copy instead of wedging the stream
            del stream.pending[batch_id]
        db.events.client_submit += 1
        # Coerce once, at the door: a malformed row fails this submission
        # before any transaction opens, and a queued batch cannot poison the
        # gap-filling ingest that eventually applies it.
        rows = [self._coerce_declared(stream, r) for r in rows]
        applied: list[int] = []
        if batch_id != stream.expected_batch:
            stream.pending[batch_id] = rows
            return applied
        with db.obs.span("ingest", stream=stream.name, batch_id=batch_id) as span:
            self._apply_batch(stream, batch_id, rows)
            applied.append(batch_id)
            while stream.expected_batch in stream.pending:
                nxt = stream.expected_batch
                self._apply_batch(stream, nxt, stream.pending[nxt])
                del stream.pending[nxt]
                applied.append(nxt)
            self.drain()
            span.set(applied=len(applied))
        return applied

    def _coerce_declared(self, stream: Stream, raw) -> tuple:
        """One declared-width row from user input (tuple or mapping), width-,
        type- and NOT-NULL-checked by the declared schema's ``coerce_row``."""
        if isinstance(raw, dict):
            return stream.declared.row_from_mapping(raw)
        return stream.declared.coerce_row(tuple(raw))

    def _apply_batch(self, stream: Stream, batch_id: int, rows: list) -> None:
        db = self._db
        capture = db._log_capture
        with db._scope(implicit=True) as txn:
            if capture is not None:
                # the batch is the dataflow's external input, so its declared
                # rows ride in the log record itself (replay re-coerces them
                # identically)
                txn.log_record = capture.ingest_record(stream.name, batch_id, rows)
            self._emit_into(txn, stream, batch_id, rows)

    def emit(self, txn: "Transaction", stream_name: str, rows, batch_id=None) -> int:
        """Append an atomic batch to a stream inside ``txn`` (procedures and
        EE triggers); published when the transaction commits."""
        db = self._db
        if txn is not db._txn or not txn.is_active:
            raise TransactionError(
                f"emit requires a live transaction (transaction {txn.txn_id} "
                f"is {txn.state})"
            )
        stream = self._stream(stream_name)
        last = stream.last_committed
        for staged_stream, staged_id, _rows in txn.staged:
            if staged_stream is stream and staged_id > last:
                last = staged_id
        if batch_id is None:
            delivering = self._delivering
            if delivering is not None and delivering.batch.batch_id > last:
                # propagate the input batch id through the DAG
                batch_id = delivering.batch.batch_id
            else:
                batch_id = last + 1
        batch_id = int(batch_id)
        if batch_id <= last:
            raise BatchOrderError(
                f"stream {stream.name!r}: emitted batch {batch_id} is not "
                f"after batch {last}"
            )
        if stream.pending and batch_id >= min(stream.pending):
            # emitting past queued ingest batches would strand them forever
            # (their ids would fall at or below the new watermark)
            raise BatchOrderError(
                f"stream {stream.name!r}: emitted batch {batch_id} conflicts "
                f"with queued ingest batches {sorted(stream.pending)}"
            )
        rows = [self._coerce_declared(stream, r) for r in rows]
        self._emit_into(txn, stream, batch_id, rows)
        return batch_id

    def _emit_into(self, txn: "Transaction", stream: Stream, batch_id: int, rows: list) -> None:
        """The one write path into a stream: insert the batch of declared-
        width tuples (undo-logged), advance unowned windows, fire EE
        triggers, stage it on ``txn`` for :meth:`publish`."""
        db = self._db
        # Fail fast on a miswired pipeline: an owned window only advances
        # through deliveries of its source stream to its owner, so batches
        # flowing in while no such subscription exists would silently never
        # reach the window and every downstream aggregate would be wrong.
        for window in self._windows_by_source.get(stream.name, ()):
            if window.owner is not None and not any(
                procedure == window.owner
                for _workflow, procedure in self._subscriptions.get(stream.name, ())
            ):
                raise StreamingError(
                    f"window {window.name!r} is owned by procedure "
                    f"{window.owner!r}, which is not subscribed to stream "
                    f"{stream.name!r} in any workflow; its contents would "
                    f"silently never advance — wire the owner into a "
                    f"workflow before ingesting"
                )
        events = db.events
        events.sql_stmt += 1  # the batch insert is one statement
        # Vectorized batch apply: stamp metadata and bulk-insert in one
        # pass — one undo range record, one index-maintenance loop per index.
        seq0 = stream.next_seq
        stream.next_seq = seq0 + len(rows)
        table = stream.table
        # the batch insert and window maintenance write like SQL does: undo-
        # logged through the transaction; a failed attempt still counts its writes
        ctx = ExecutionContext(db.catalog, (), txn.undo)
        try:
            rowids = ctx.insert_many(
                table,
                [d + (batch_id, seq0 + i) for i, d in enumerate(rows)],
            )
            frozen = tuple(table.get(rowid) for rowid in rowids)  # post-coercion rows
            for window in self._windows_by_source.get(stream.name, ()):
                if window.owner is None:
                    events.window_slide += window.absorb(ctx, frozen)
        finally:
            ctx.add_to(events)
        self._fire_ee(txn, stream, batch_id, frozen)
        txn.staged.append((stream, batch_id, frozen))

    # -- EE triggers (in-transaction, per statement) ---------------------------

    def _fire_ee(self, txn: "Transaction", stream: Stream, batch_id: int, ext_rows: tuple) -> None:
        triggers = self._ee_triggers.get(stream.name)
        if not triggers:
            return
        if self._ee_depth >= MAX_EE_DEPTH:
            raise TriggerError(
                f"EE trigger cascade deeper than {MAX_EE_DEPTH} levels on "
                f"stream {stream.name!r} (cyclic trigger graph?)"
            )
        db = self._db
        obs = db.obs
        declared_rows = _strip(ext_rows, stream.declared.arity())
        self._ee_depth += 1
        try:
            for trigger in triggers:
                db.events.ee_trigger += 1
                with obs.span(
                    "trigger.ee", trigger=trigger.name, stream=stream.name, batch_id=batch_id
                ):
                    trigger.fn(TriggerContext(db, txn, trigger, batch_id), declared_rows)
        finally:
            self._ee_depth -= 1

    # -- publication and PE triggers --------------------------------------------

    def publish(self, txn: "Transaction") -> None:
        """Run by ``Transaction.commit`` once the commit has fully closed:
        advance stream watermarks, fire (count + enqueue) PE triggers and
        workflow subscriptions for every batch ``txn`` staged.

        Workflow deliveries enqueue in every mode, so replay rebuilds the
        queue exactly as live execution built it (strong replay consumes
        it through :meth:`replay_delivery`, weak replay drains it).  User
        PE triggers enqueue only live: their effects were logged as their
        own records, and replaying both would double them.
        """
        db = self._db
        for stream, batch_id, ext_rows in txn.staged:
            stream.last_committed = max(stream.last_committed, batch_id)
            batch = Batch(stream.name, batch_id, _strip(ext_rows, stream.declared.arity()))
            if self.replay_mode is None:
                for trigger in self._pe_triggers.get(stream.name, ()):
                    db.events.pe_trigger += 1
                    self._enqueue(_Delivery(batch, ext_rows, "pe_fn", trigger.name, trigger.fn))
            for _workflow, procedure in self._subscriptions.get(stream.name, ()):
                db.events.pe_trigger += 1
                self._enqueue(_Delivery(batch, ext_rows, "proc", procedure))

    def _enqueue(self, delivery: _Delivery) -> None:
        self._enq_seq += 1
        heapq.heappush(self._queue, [delivery.batch.batch_id, self._enq_seq, delivery])

    # -- the delivery scheduler -------------------------------------------------

    def drain(self) -> int:
        """Process queued deliveries, smallest batch id first, until the
        queue is empty; returns how many were processed.

        A failing delivery goes back to the head of the queue, the error
        propagates, and a later ``drain()`` retries it.  No-op while a
        drain is already running or a transaction is open.  Each workflow
        delivery that commits runs stream GC on its input stream (see
        :meth:`_reclaim`).
        """
        db = self._db
        if self._draining or db._txn is not None or self.replay_mode == "strong":
            # strong replay: logged deliveries run in log order
            return 0
        self._draining = True
        processed = 0
        try:
            while self._queue:
                entry = heapq.heappop(self._queue)
                try:
                    self._deliver(entry[2])
                except BaseException:
                    self.delivery_retries += 1
                    heapq.heappush(self._queue, entry)
                    raise
                processed += 1
                self.deliveries_done += 1
        finally:
            self._draining = False
        return processed

    def _deliver(self, delivery: _Delivery) -> None:
        db = self._db
        obs = db.obs
        if delivery.kind == "pe_fn":
            with obs.span(
                "trigger.pe",
                trigger=delivery.target,
                stream=delivery.batch.stream,
                batch_id=delivery.batch.batch_id,
            ):
                delivery.fn(db, delivery.batch)
            return
        key = (delivery.batch.stream, delivery.target)
        last = self.delivered.get(key, 0)
        if delivery.batch.batch_id <= last:
            raise ScheduleViolation(
                f"stream {delivery.batch.stream!r} -> procedure "
                f"{delivery.target!r}: batch {delivery.batch.batch_id} "
                f"scheduled after batch {last} was already processed"
            )
        procedure = db._procedures.get(delivery.target)
        if procedure is None:  # pragma: no cover - registration is validated
            raise WorkflowError(f"procedure {delivery.target!r} disappeared")
        capture = db._log_capture
        previous = self._delivering
        self._delivering = delivery
        try:
            # the delivery span times this invocation: no ``procedure`` span
            with obs.span(
                "delivery",
                stream=delivery.batch.stream,
                batch_id=delivery.batch.batch_id,
                proc=delivery.target,
            ), db._scope(implicit=False) as txn:
                if capture is not None:
                    # replay re-drives the hop (batch rebuilt from the
                    # stream table) instead of treating it as a client call
                    txn.log_record = capture.delivery_record(
                        delivery.batch.stream, delivery.batch.batch_id, delivery.target
                    )
                # owned windows absorb the batch inside the transaction, so
                # an abort rolls them back together with the body's writes
                db._invoke(
                    procedure, txn, (delivery.batch,),
                    before=lambda ctx: self._advance_owned_windows(txn, delivery),
                )
        finally:
            self._delivering = previous
        self.delivered[key] = delivery.batch.batch_id
        self._reclaim(self.streams[delivery.batch.stream])

    def _reclaim(self, stream: Stream) -> None:
        """Stream GC after a committed workflow delivery from ``stream``:
        bulk-drop the rows of batches every workflow subscription on it has
        delivered past, keeping the newest consumed batch (the horizon) so
        the latest committed contents stay queryable.  Post-commit
        maintenance, not undo-logged; replay re-runs the same deliveries
        in log order, so it re-runs the same GC."""
        horizon = min(
            self.delivered.get((stream.name, procedure), 0)
            for _workflow, procedure in self._subscriptions[stream.name]
        )
        if horizon <= stream.gc_horizon:
            return
        table = stream.table
        batch_pos = table.schema.position(BATCH_COLUMN)
        doomed = [rowid for rowid, row in table.scan() if row[batch_pos] < horizon]
        stream.gc_horizon = horizon
        if doomed:
            table.delete_many(doomed)
            stream.reclaimed_rows += len(doomed)

    def _advance_owned_windows(self, txn: "Transaction", delivery: _Delivery) -> None:
        """Inside the delivery transaction, before the procedure body:
        windows over the input stream owned by the target procedure absorb
        the batch.  An abort rolls this back; the retry re-absorbs."""
        owned = [
            w for w in self._windows_by_source.get(delivery.batch.stream, ())
            if w.owner == delivery.target
        ]
        if not owned:
            return
        events = self._db.events
        ctx = ExecutionContext(self._db.catalog, (), txn.undo)
        try:
            for window in owned:
                events.window_slide += window.absorb(ctx, delivery.ext_rows)
        finally:
            ctx.add_to(events)

    # -- recovery support --------------------------------------------------------
    #
    # The recovery manager drives these.  The split of responsibilities:
    # the *manager* owns files, record framing, and replay-mode sequencing;
    # the *runtime* owns the dataflow state being persisted/replayed —
    # watermarks, scheduler positions, and the delivery queue: the one
    # record of pending deliveries, live and in replay alike.

    def persistent_state(self) -> dict[str, Any]:
        """The dataflow state a checkpoint carries beyond table contents:
        per-stream watermarks (``last_committed``), arrival-sequence
        counters (``next_seq``), GC horizons, the per-subscription
        ``delivered`` progress map, and the workflow hops still queued
        (``undelivered``: ``[stream, batch_id, proc]`` in queue order).
        Queued out-of-order batches (``Stream.pending``) were never
        committed, so they are not durable; clients resubmit them.
        """
        return {
            "streams": {
                s.name: {
                    "last_committed": s.last_committed,
                    "next_seq": s.next_seq,
                    "gc_horizon": s.gc_horizon,
                    "reclaimed_rows": s.reclaimed_rows,
                }
                for s in self.streams.values()
            },
            "delivered": [
                [stream, proc, batch_id]
                for (stream, proc), batch_id in sorted(self.delivered.items())
            ],
            "undelivered": [
                [d.batch.stream, d.batch.batch_id, d.target]
                for _batch_id, _seq, d in sorted(self._queue)
                if d.kind == "proc"
            ],
            "deliveries_done": self.deliveries_done,
        }

    def restore_persistent_state(self, state: dict[str, Any]) -> None:
        """Inverse of :meth:`persistent_state`; the ``undelivered`` hops are
        queued again with their rows read back from the stream tables.
        Raises :class:`RecoveryError` when the checkpoint names a stream
        the bootstrap did not create, or has no ``undelivered`` key while
        some subscription lags its stream (its pending hops are unknown).
        """
        for name, st in state.get("streams", {}).items():
            stream = self.streams.get(name)
            if stream is None:
                raise RecoveryError(
                    f"checkpoint references stream {name!r}, which the "
                    f"bootstrap did not create — schema and procedures must "
                    f"be re-registered before recovery"
                )
            stream.last_committed = int(st["last_committed"])
            stream.next_seq = int(st["next_seq"])
            stream.gc_horizon = int(st.get("gc_horizon", 0))
            stream.reclaimed_rows = int(st.get("reclaimed_rows", 0))
        self.delivered = {
            (stream, proc): int(batch_id)
            for stream, proc, batch_id in state.get("delivered", ())
        }
        self.deliveries_done = int(state.get("deliveries_done", 0))
        undelivered = state.get("undelivered")
        if undelivered is None:  # written before checkpoints carried the queue
            undelivered = ()
            if any(self.delivered.get((name, proc), 0) < self.streams[name].last_committed
                   for name, subs in self._subscriptions.items() for _wf, proc in subs):
                raise RecoveryError(
                    "checkpoint has no 'undelivered' queue, yet a workflow "
                    "subscription lags its stream: its pending deliveries are unknown"
                )
        for name, batch_id, proc in undelivered:
            stream = self._stream(name)
            ext_rows = self._batch_ext_rows(stream, batch_id)
            batch = Batch(stream.name, batch_id, _strip(ext_rows, stream.declared.arity()))
            self._enqueue(_Delivery(batch, ext_rows, "proc", proc))

    def _batch_ext_rows(self, stream: Stream, batch_id: int) -> tuple:
        """Stream-extended rows of one committed batch, in arrival order (GC
        keeps every batch until all its subscribers consumed it)."""
        pos = stream.table.schema.position(BATCH_COLUMN)
        return tuple(row for row in stream.table.scan_rows() if row[pos] == batch_id)

    def replay_delivery(self, stream_name: str, batch_id: int, proc_name: str) -> None:
        """Strong-recovery replay of one logged workflow delivery: replay
        rebuilt the queue as live execution built it, so the logged hop
        must be its head, which is popped and delivered as the original
        ran; any other head raises :class:`RecoveryError`."""
        head = self._queue[0][2] if self._queue else None
        queued = head and (head.batch.stream, head.batch.batch_id, head.target)
        if queued != (stream_name, batch_id, proc_name):
            raise RecoveryError(
                f"log out of order: delivery of batch {batch_id} of {stream_name!r} "
                f"to {proc_name!r} is logged, but the queue head is {queued}"
            )
        heapq.heappop(self._queue)
        self._deliver(head)
        self.deliveries_done += 1

    # -- introspection -----------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        return {
            "streams": {
                s.name: {
                    "last_committed": s.last_committed,
                    "pending_batches": sorted(s.pending),
                    "rows": s.table.row_count(),
                    "rows_reclaimed": s.reclaimed_rows,
                }
                for s in self.streams.values()
            },
            "windows": {
                w.name: {
                    "source": w.source,
                    "owner": w.owner,
                    "unit": w.spec.unit,
                    "size": w.spec.size,
                    "slide": w.spec.slide,
                    **w.counts(),
                }
                for w in self.windows.values()
            },
            "triggers": {
                "ee": sorted(t.name for ts in self._ee_triggers.values() for t in ts),
                "pe": sorted(t.name for ts in self._pe_triggers.values() for t in ts),
            },
            "trigger_fires": {
                "ee": self._db.events.ee_trigger,
                "pe": self._db.events.pe_trigger,
            },
            "workflows": {name: wf.describe() for name, wf in self.workflows.items()},
            "scheduler": {
                "pending_deliveries": len(self._queue),
                "delivered": self.deliveries_done,
                "retries": self.delivery_retries,
                "rows_reclaimed": sum(s.reclaimed_rows for s in self.streams.values()),
            },
        }


def _strip(ext_rows: tuple, declared_arity: int) -> tuple:
    """Declared-width projections of stream-extended rows."""
    return tuple(row[:declared_arity] for row in ext_rows)
