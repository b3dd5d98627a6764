""":class:`PartitionedDatabase`: N serial engines behind one facade.

The paper's §4.7 scale-out model: the input stream is partitioned across
cores, each core running transaction executions "in a serial, single-sited
fashion" for its slice.  This module is the coordinator half — it owns N
worker processes (one single-partition :class:`~repro.engine.Database`
each, see :mod:`repro.partition.worker`), routes work to them with a
strict-mode :class:`~repro.partition.partitioning.PartitionMap`, and runs
the ordered-commit protocol for the transactions that cannot be confined
to one partition.

Routing rules
=============
* ``ingest(stream, rows)`` — the batch splits by the stream's registered
  partition column; each partition applies its sub-batch as one local
  transaction on its **own** batch-id sequence.  Sub-batches are posted
  pipelined (bounded by ``MAX_INFLIGHT`` per worker), so ingest throughput
  scales with workers instead of serialising on round trips.
* ``call(name, *args, key=...)`` / ``execute(sql, params, key=...)`` —
  an explicit ``key`` routes the whole request to ``partition_of(key)``
  as an ordinary single-partition transaction (the fast path; the paper's
  single-sited case).
* ``execute`` without a key classifies the statement by its first token
  (the lexer's, so comments and case do not matter): ``SELECT`` fans out
  to every partition and returns the **union** of per-partition results
  (no cross-partition ordering or aggregate merge — aggregates come back
  one row per partition); ``UPDATE``/``DELETE`` run as a cross-partition
  transaction; ``INSERT`` without a key is refused (broadcasting it would
  duplicate the row on every partition); ``ANALYZE [table]`` is
  :meth:`~PartitionedDatabase.analyze`; anything else is not a statement
  and goes to partition 0 for the engine's own parse error.
* ``call`` without a key runs the procedure body as a fragment on *every*
  partition inside one cross-partition transaction (via
  :meth:`~repro.engine.database.Database.call_in_txn`) and returns the
  per-partition results.

Ordered commit
==============
A cross-partition transaction gets a global id and runs in two phases,
both in ascending partition order: **prepare** (open an explicit
transaction on each participant and execute its fragment; any failure →
abort-all, nothing committed anywhere) and **commit** (commit each
participant in the same global order).  Because every worker executes
serially and the coordinator runs one cross-partition transaction at a
time, the global commit order is the serialisation order.  A participant
that fails *during the commit phase* — only possible via fault injection
or a worker crash, since prepare already validated the fragments — leaves
the earlier participants committed; the coordinator then raises
:class:`~repro.common.errors.PartitionError` naming exactly which
partitions committed, so the damage is diagnosable.

Durability
==========
With ``recovery_dir=``, partition *i* logs to ``<recovery_dir>/p00i``.
Reopening a :class:`PartitionedDatabase` on the same directory recovers
every partition independently (same deploy-then-replay contract as the
single engine).  Note the per-partition atomicity grain of ingest: each
partition's sub-batch is its own logged transaction, so a crash can
persist one partition's half of an input batch and not another's — this
is the paper's model (atomic batches are per-stream-partition), and
``flush_log()`` is the all-partitions durability boundary.
"""

from __future__ import annotations

import multiprocessing
import socket
from collections import Counter, defaultdict, deque
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence

from ..common.errors import (
    BatchOrderError,
    NoSuchTableError,
    PartitionError,
    ProtocolError,
    SchemaError,
)
from ..common.ops import StatsSections
from ..obs import NOOP_SPAN, MetricsRegistry, observability
from ..sql.executor import ResultSet
from ..sql.parser import statement_head
from .partitioning import PartitionMap
from .rpc import Channel, open_span, settle
from .worker import InlineWorker, PartitionInfo, worker_main

#: pipelining bound: unanswered requests allowed per worker before ingest
#: blocks collecting replies
MAX_INFLIGHT = 32


class _ProcessHandle(Channel):
    """The channel to one worker process (an
    :class:`~repro.partition.worker.InlineWorker` is the same interface
    with no process behind it)."""

    def __init__(self, deploy, part: PartitionInfo, options: dict[str, Any]):
        ctx = multiprocessing.get_context("fork")
        parent, child = socket.socketpair()
        self.process = ctx.Process(
            target=worker_main,
            args=(child, deploy, part, options),
            daemon=True,
            name=f"repro-{part.name}",
        )
        self.process.start()
        child.close()
        super().__init__(parent)

    def ready(self, partition_id: int) -> None:
        reply = self.recv()
        if not reply.get("ok"):
            self.process.join(timeout=5)
        settle(reply, NOOP_SPAN, f"partition {partition_id}", PartitionError)

    def join(self) -> None:
        self.close()
        self.process.join(timeout=10)

    def kill(self) -> None:
        self.process.terminate()
        self.process.join(timeout=10)
        self.close()


def _value_sort_key(v: Any) -> tuple:
    if v is None:
        return (0, 0)
    if isinstance(v, (int, float)):  # bools are ints; numerics compare numerically
        return (1, v)
    return (2, str(v))


def _row_sort_key(row: Sequence[Any]) -> tuple:
    """Total order over heterogeneous SQL rows (None/bool/int/float/str)."""
    return tuple(_value_sort_key(v) for v in row)


class PartitionedDatabase(StatsSections):
    """One logical database over ``num_partitions`` serial engines.

    Args:
        num_partitions: worker count (one engine, one process each).
        deploy: ``fn(db, part)`` run on every worker at startup (and again
            before recovery) — all DDL, procedure/trigger registrations,
            and reference-data seeding belong here.  ``part`` is the
            worker's :class:`~repro.partition.worker.PartitionInfo`; use
            ``part.owns(key)`` to seed only locally-routed rows.
        partition_keys: ``{table_or_stream: column}`` routing columns,
            registered into a **strict** map — ingest into an unkeyed
            stream on a multi-partition database raises
            :class:`~repro.common.errors.SchemaError` instead of
            hot-spotting partition 0.
        mode: ``"hash"`` (type-tagged stable hash) or ``"round_robin"``
            (``key % n`` for ints — the paper's x-way distribution).
        workers: ``"process"`` (real parallelism, the default) or
            ``"inline"`` (same wire discipline, no processes — for tests
            and single-core environments).
        recovery_dir: per-partition durability root; partition *i* uses
            ``<recovery_dir>/p00i``.
        recovery: ``"strong"`` or ``"weak"`` (forwarded to every worker;
            a weak partition logs only its border records, and a strong
            open of its log is refused).
        group_commit: per-worker command-log group-commit size.
        obs: observability spec (``None``/``"off"``/``"metrics"``/
            ``"full"`` or an :class:`~repro.obs.Observability` for the
            coordinator side).  Workers get their own registry/tracer
            (labelled ``p000``, ``p001``, ...) at the same level; the
            coordinator's ``stats()["obs"]`` section merges all of them,
            and with tracing on, RPC trace context rides each request so
            worker spans stitch into the coordinator's traces
            (:meth:`trace_spans` collects the whole set).
    """

    def __init__(
        self,
        num_partitions: int = 2,
        deploy=None,
        *,
        partition_keys: Optional[Mapping[str, str]] = None,
        mode: str = "hash",
        workers: str = "process",
        recovery_dir: Optional[str | Path] = None,
        recovery: str = "strong",
        group_commit: int = 8,
        obs=None,
    ):
        if workers not in ("process", "inline"):
            raise ValueError(f"workers must be 'process' or 'inline', not {workers!r}")
        # strict map: unkeyed tables fail loudly instead of hot-spotting
        self.partition_map = PartitionMap(num_partitions, mode=mode)
        for table, column in (partition_keys or {}).items():
            self.partition_map.set_partition_key(table, column)
        self.num_partitions = num_partitions
        self.workers = workers
        #: routing / protocol tallies, reported by :meth:`stats`
        self.routing: Counter[str] = Counter()
        super().__init__()  # the registered stats sections
        self.obs = observability(obs, process="coord")
        self._stats_sections["obs"] = self._obs_section
        self._next_xid = 1
        self._closed = False
        handle_cls = InlineWorker if workers == "inline" else _ProcessHandle
        root = Path(recovery_dir) if recovery_dir is not None else None
        # the obs level crosses the fork as a string; each worker builds
        # its own registry/tracer labelled with its partition name
        worker_obs = None
        if self.obs.enabled:
            worker_obs = "full" if self.obs.tracing else "metrics"
        self._handles: list[Any] = []
        self._pending: list[deque] = []
        try:
            for pid in range(num_partitions):
                part = PartitionInfo(pid, num_partitions, mode)
                options = {
                    "recovery_dir": str(root / part.name) if root is not None else None,
                    "recovery": recovery,
                    "group_commit": group_commit,
                    "obs": worker_obs,
                }
                self._handles.append(handle_cls(deploy, part, options))
                self._pending.append(deque())
            for pid, handle in enumerate(self._handles):
                handle.ready(pid)
        except BaseException:
            for handle in self._handles:
                handle.kill()
            raise
        # every partition shares the deployed schema: learn it from one
        tables = self._request(0, {"op": "stats", "section": "tables"})
        self._schema = {name.lower(): meta for name, meta in tables.items()}

    # -- request plumbing (one reply FIFO per worker; supports pipelining) ----

    def _post(self, pid: int, request: dict[str, Any]) -> None:
        span = open_span(self.obs, "rpc", request, {"partition": pid})
        self._handles[pid].send(request)
        self._pending[pid].append(span)

    def _pump(self, pid: int) -> Any:
        """Receive worker ``pid``'s oldest outstanding reply and return its
        value.  An error reply raises here — asynchronous (pipelined)
        failures surface at the next synchronisation point."""
        reply = self._handles[pid].recv()
        span = self._pending[pid].popleft()
        return settle(reply, span, f"partition {pid}", PartitionError)

    def _sync(self, pid: int) -> Any:
        """Collect every outstanding reply of worker ``pid``; returns the
        newest one's value."""
        value = None
        while self._pending[pid]:
            value = self._pump(pid)
        return value

    def _request(self, pid: int, request: dict[str, Any]) -> Any:
        self._post(pid, request)
        return self._sync(pid)

    def barrier(self) -> None:
        """Collect every outstanding pipelined reply (first error raises)."""
        for pid in range(self.num_partitions):
            self._sync(pid)

    def _broadcast(self, op: str, **operands: Any) -> list:
        """Synchronise, then run the same request on every partition in
        partition order; returns the per-partition values."""
        self.barrier()
        return [
            self._request(pid, {"op": op, **operands})
            for pid in range(self.num_partitions)
        ]

    # -- ingest (pipelined, split by partition column) -----------------------

    def _split_batch(self, stream: str, rows: Sequence[Any]) -> list[tuple[int, list]]:
        if self.num_partitions == 1:
            return [(0, [row if isinstance(row, Mapping) else list(row) for row in rows])]
        key_col = self.partition_map.require_partition_key(stream)
        meta = self._schema.get(stream.lower())
        if meta is None:
            raise NoSuchTableError(f"no stream or table named {stream!r}")
        columns = [c.lower() for c in meta["columns"]]
        try:
            pos = columns.index(key_col)
        except ValueError:
            raise SchemaError(
                f"partition key {key_col!r} is not a declared column of "
                f"{stream!r} (columns: {', '.join(columns)})"
            ) from None
        buckets: list[list] = [[] for _ in range(self.num_partitions)]
        part_of = self.partition_map.partition_of
        memo: dict[tuple, int] = {}  # (type, key): 1 == True, yet they route apart
        try:  # around the loop, not per row: a short row is the only IndexError
            for row in rows:
                if type(row) is not list and type(row) is not tuple:
                    row = dict(row) if isinstance(row, Mapping) else list(row)
                value = _mapping_value(row, key_col) if type(row) is dict else row[pos]
                try:
                    pid = memo[type(value), value]
                except (KeyError, TypeError):  # a new key, or an unhashable one
                    pid = part_of(value)  # unhashable: SchemaError
                    if type(value) is not float:  # 0.0 == -0.0, yet they route apart
                        memo[type(value), value] = pid
                buckets[pid].append(row)
        except IndexError:
            raise SchemaError(
                f"table {stream.lower()!r} expects {len(columns)} values, got {len(row)}"
            ) from None
        return [(pid, sub) for pid, sub in enumerate(buckets) if sub]

    def ingest(
        self,
        stream: str,
        rows,
        batch_id: Optional[int] = None,
        *,
        wait: bool = True,
    ) -> Optional[dict[int, list[int]]]:
        """Split one atomic batch by the stream's partition column and apply
        each sub-batch on its partition (each as one local transaction, on
        that partition's own batch-id sequence).

        With ``wait=False`` the sub-batches are posted without collecting
        replies — the pipelined fast path; errors surface at the next
        :meth:`barrier`/:meth:`drain`/sync call.  Returns ``{partition:
        applied batch ids}`` when waiting, else ``None``.
        """
        if batch_id is not None and self.num_partitions > 1:
            raise BatchOrderError(
                "explicit batch ids cannot target a multi-partition database: "
                "each partition runs its own batch-id sequence"
            )
        rows = list(rows)
        obs = self.obs
        with obs.span("coord.ingest", stream=stream, rows=len(rows)):
            with obs.span("ingest.split", stream=stream):
                buckets = self._split_batch(stream, rows)
            self.routing["ingest_batches"] += 1
            self.routing["ingest_rows"] += len(rows)
            for pid, sub in buckets:
                self.routing["ingest_sub_batches"] += 1
                while len(self._pending[pid]) >= MAX_INFLIGHT:
                    self._pump(pid)
                self._post(pid, {"op": "ingest", "stream": stream,
                                 "rows": sub, "batch_id": batch_id})
            if not wait:
                return None
            return {pid: self._sync(pid) for pid, _sub in buckets}

    # -- routed statements and procedure calls -------------------------------

    def execute(self, sql: str, params: Sequence[Any] = (), *, key: Any = None) -> ResultSet:
        """Run one statement (see module docstring for the routing rules)."""
        params = list(params)
        if key is not None:
            self.routing["single_partition_statements"] += 1
            pid = self.partition_map.partition_of(key)
            return self._request(pid, {"op": "execute", "sql": sql, "params": params})
        verb, table = statement_head(sql)
        if verb == "select":
            return self._fanout_select(sql, params)
        if verb == "insert":
            raise PartitionError(
                "cannot broadcast an INSERT (it would duplicate the row on "
                "every partition); pass key=<partition-key value> to route it"
            )
        if verb in ("update", "delete"):
            results = self._cross_partition(
                lambda pid: {"op": "xp_exec", "sql": sql, "params": params}
            )
            return ResultSet((), [], sum(r.rowcount for r in results))
        if verb == "analyze":
            return ResultSet(
                ("table_name", "analyzed_rows"), sorted(self.analyze(table).items())
            )
        # not a statement: partition 0's engine raises the typed parse error
        return self._request(0, {"op": "execute", "sql": sql, "params": params})

    def _fanout_select(self, sql: str, params: list) -> ResultSet:
        self.routing["fanout_selects"] += 1
        for pid in range(self.num_partitions):
            self._post(pid, {"op": "execute", "sql": sql, "params": params})
        columns: tuple = ()
        rows: list = []
        rowcount = 0
        for pid in range(self.num_partitions):
            rs = self._sync(pid)
            columns = rs.columns
            rows.extend(rs.rows)
            rowcount += rs.rowcount
        return ResultSet(columns, rows, rowcount)

    def call(self, name: str, *args: Any, key: Any = None) -> Any:
        """Invoke a stored procedure.

        With ``key=`` the whole invocation is a single-partition
        transaction on ``partition_of(key)`` and returns the procedure's
        result.  Without a key the body runs as a fragment on **every**
        partition inside one ordered-commit cross-partition transaction;
        returns the list of per-partition results.
        """
        if key is not None:
            self.routing["single_partition_calls"] += 1
            pid = self.partition_map.partition_of(key)
            return self._request(pid, {"op": "call", "proc": name, "args": list(args)})
        return self._cross_partition(
            lambda pid: {"op": "xp_call", "proc": name, "args": list(args)}
        )

    def explain(self, sql: str, params: Sequence[Any] = (), *, key: Any = None) -> dict:
        """The plan tree with estimated (and, for SELECT, actual) row
        counts.  With ``key=`` the statement is explained (and, for
        SELECT, executed) on that key's partition; without one it goes to
        partition 0 — every partition shares the schema, so the plan
        *shape* is identical everywhere and only the row counts are
        partition-local."""
        pid = self.partition_map.partition_of(key) if key is not None else 0
        return self._request(
            pid, {"op": "explain", "sql": sql, "params": list(params)}
        )

    def analyze(self, table: Optional[str] = None) -> dict[str, int]:
        """Collect column statistics on **every** partition (each worker's
        planner costs against its own rows); returns the per-table row
        totals summed across partitions."""
        totals: Counter[str] = Counter()
        for analyzed in self._broadcast("analyze", table=table):
            totals.update(analyzed)
        return dict(totals)

    def executemany(
        self, sql: str, param_rows, *, key_position: Optional[int] = None
    ) -> int:
        """Bulk DML routed row-by-row: each parameter row goes to the
        partition of its ``key_position``-th value, applied as one
        ``executemany`` transaction per touched partition.  With more than
        one partition ``key_position`` is required
        (:class:`~repro.common.errors.ProtocolError` without it)."""
        if key_position is None and self.num_partitions > 1:
            raise ProtocolError(
                "executemany against a partitioned engine requires "
                "key_position (which parameter column carries the "
                "partition key)"
            )
        buckets: dict[int, list] = defaultdict(list)
        part_of = self.partition_map.partition_of
        for row in param_rows:
            row = list(row)
            buckets[0 if key_position is None else part_of(row[key_position])].append(row)
        self.routing["single_partition_statements"] += len(buckets)
        total = 0
        for pid, rows in sorted(buckets.items()):
            total += self._request(pid, {"op": "executemany", "sql": sql, "rows": rows})
        return total

    # -- ordered-commit cross-partition protocol -----------------------------

    def _cross_partition(self, fragment_for) -> list:
        """Run one fragment per partition under ordered commit: prepare
        serially in partition order, commit in the same order, abort-all
        on any prepare failure."""
        self.barrier()
        xid = self._next_xid
        self._next_xid += 1
        self.routing["cross_partition_txns"] += 1
        prepared: list[int] = []
        results: list = []
        try:
            for pid in range(self.num_partitions):
                self._request(pid, {"op": "xp_begin", "xid": xid})
                prepared.append(pid)
                results.append(self._request(pid, fragment_for(pid)))
        except BaseException:
            self._abort_best_effort(prepared)
            self.routing["cross_partition_aborts"] += 1
            raise
        committed: list[int] = []
        for pid in prepared:
            try:
                self._request(pid, {"op": "xp_commit", "xid": xid})
                committed.append(pid)
            except BaseException as exc:
                # the failed participant's transaction is still open (the
                # failure pre-empted its commit); roll back it and every
                # not-yet-committed participant
                self._abort_best_effort([p for p in prepared if p not in committed])
                self.routing["cross_partition_aborts"] += 1
                if committed:
                    raise PartitionError(
                        f"cross-partition transaction {xid} torn mid-commit: "
                        f"partition(s) {committed} committed before partition "
                        f"{pid} failed — partitions have diverged ({exc})"
                    ) from exc
                raise
        self.routing["cross_partition_commits"] += 1
        return results

    def _abort_best_effort(self, pids: Sequence[int]) -> None:
        for pid in pids:
            try:
                self._request(pid, {"op": "xp_abort"})
            except Exception:
                pass  # the worker may be gone; abort is best-effort cleanup

    # -- broadcast maintenance ------------------------------------------------

    def drain(self) -> int:
        """Run pending workflow deliveries to completion on every
        partition; returns the total deliveries processed."""
        return sum(self._broadcast("drain"))

    def flush_log(self) -> None:
        """Close the durability window on every partition (one group-commit
        fsync each).  This is the all-partitions durability boundary."""
        self._broadcast("flush_log")

    def checkpoint(self) -> list[str]:
        """Checkpoint every partition; returns the checkpoint paths."""
        return self._broadcast("checkpoint")

    def inject_fault(self, pid: int, op: str, message: Optional[str] = None) -> None:
        """Arm a one-shot failure of ``op`` on partition ``pid`` (tests)."""
        self._request(pid, {"op": "inject_fault", "fault_op": op, "message": message})

    # -- inspection -----------------------------------------------------------

    def snapshot(self) -> dict[int, dict[str, Any]]:
        """Per-partition ``Catalog.snapshot()`` (JSON-decoded form)."""
        return dict(enumerate(self._broadcast("snapshot")))

    def merged_table_rows(self, table: str) -> list[tuple]:
        """All partitions' rows of ``table`` as a sorted list of value
        tuples (rowids dropped — they are per-partition).  The partitioned
        counterpart of a single engine's table contents, for equivalence
        checks against an unpartitioned run."""
        merged: list[tuple] = []
        for snap in self.snapshot().values():
            state = snap.get(table)
            if state is None:
                raise NoSuchTableError(f"no table named {table!r}")
            merged.extend(tuple(values) for _rowid, values in state["rows"])
        return sorted(merged, key=_row_sort_key)

    def _worker_stats(self, section: Optional[str] = None) -> list:
        """Per-partition engine stats (whole snapshot or one section)."""
        per = self._broadcast("stats", section=section)
        if section is None:
            for pid, snapshot in enumerate(per):
                snapshot["partition"] = pid
        return per

    @staticmethod
    def _agg_transactions(per: list) -> dict[str, int]:
        txns: Counter[str] = Counter()
        for section in per:
            for key, value in section.items():
                if not isinstance(value, bool):
                    txns[key] += value
        return dict(txns)

    @staticmethod
    def _agg_table_rows(per: list) -> dict[str, int]:
        table_rows: Counter[str] = Counter()
        for tables in per:
            for t, meta in tables.items():
                table_rows[t] += meta["rows"]
        return dict(table_rows)

    def stats(self, section: Optional[str] = None) -> Any:
        """Aggregated counters: routing/protocol tallies, per-partition
        engine stats, cross-partition sums (transactions, table row
        counts), a merged ``obs`` section (coordinator + every worker,
        histograms bucket-merged), plus one key per attached
        :meth:`add_stats_section` section.  ``section=`` fetches one
        section, computing (and fetching from workers) only what it
        needs; an unknown name raises :class:`KeyError`."""
        whole = self._worker_stats() if section is None else None

        def fetch(name: Optional[str] = None) -> list:
            # the whole snapshot asks every worker once and slices that;
            # a selective fetch asks only for the section it needs
            if whole is None:
                return self._worker_stats(name)
            return whole if name is None else [s[name] for s in whole]

        builtins = {
            "num_partitions": lambda: self.num_partitions,
            "mode": lambda: self.partition_map.mode,
            "workers": lambda: self.workers,
            "routing": lambda: dict(self.routing),
            "transactions": lambda: self._agg_transactions(fetch("transactions")),
            "table_rows": lambda: self._agg_table_rows(fetch("tables")),
            "partitions": fetch,
        }
        return self._stats_snapshot(section, builtins)

    # -- observability --------------------------------------------------------

    def _obs_section(self) -> dict[str, Any]:
        """The merged ``"obs"`` stats section: the coordinator's registry
        plus every worker's, combined with
        :meth:`~repro.obs.MetricsRegistry.merge_snapshots` so N partition
        histograms read as one logical histogram."""
        if not self.obs.enabled:
            return {"enabled": False}
        snaps = [self.obs.metrics.snapshot()]
        snaps.extend(
            w for w in self._worker_stats("obs") if w and w.get("enabled")
        )
        merged = MetricsRegistry.merge_snapshots(snaps)
        merged["enabled"] = True
        merged["tracing"] = self.obs.tracing
        merged["spans"] = self.obs.tracer.stats()
        return merged

    def trace_spans(self) -> list[dict[str, Any]]:
        """Drain every buffered span — the coordinator's ring plus each
        worker's (via the ``obs_spans`` RPC) — as one list ready for
        :func:`repro.obs.write_jsonl`.  Empty unless tracing is on."""
        if not self.obs.tracing:
            return []
        spans = self.obs.tracer.drain()
        for worker_spans in self._broadcast("obs_spans"):
            spans.extend(worker_spans or [])
        return spans

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Flush and close every partition's log, stop the workers, and
        reap the processes.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        try:
            self.barrier()
            for pid in range(self.num_partitions):
                self._request(pid, {"op": "shutdown"})
        finally:
            for handle in self._handles:
                handle.join()

    def kill(self) -> None:
        """Simulate a crash: terminate every worker with no close/flush.
        Commits past the last :meth:`flush_log` may be lost — exactly the
        window the per-partition command logs bound."""
        self._closed = True
        for handle in self._handles:
            handle.kill()
        for pending in self._pending:
            pending.clear()

    def __enter__(self) -> "PartitionedDatabase":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.kill()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PartitionedDatabase(num_partitions={self.num_partitions}, "
            f"mode={self.partition_map.mode!r}, workers={self.workers!r})"
        )


def _mapping_value(row: Mapping[str, Any], key_col: str) -> Any:
    if key_col in row:
        return row[key_col]
    for name, value in row.items():
        if name.lower() == key_col:
            return value
    raise SchemaError(
        f"row {dict(row)!r} has no value for partition key column {key_col!r}"
    )

