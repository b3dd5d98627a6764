"""One partition's worker: a single-partition engine behind an RPC loop.

Each worker owns a plain :class:`~repro.engine.Database` — the serial,
single-sited engine of paper §3.1 — and executes requests one at a time in
arrival order, so the per-partition serial execution model is preserved by
construction: the RPC loop *is* the partition's transaction queue.

The same :class:`WorkerServer` dispatch runs in two containers:

* :func:`worker_main` — the ``multiprocessing`` child entry point, serving
  a :class:`~repro.partition.rpc.Channel` until ``shutdown`` (real
  parallelism, used by default and by the scaling benchmark);
* :class:`InlineWorker` — the same server in-process, with requests and
  replies still round-tripping through the hop's codec so tests exercise
  the exact wire value-domain without paying process startup.

Both take each reply from :meth:`WorkerServer.reply`, which never raises:
a reply the hop cannot carry goes back as its typed error, and the
partition keeps serving.

An engine verb arrives as the same record the public wire carries and runs
through the same declared dispatch (:func:`repro.common.ops.bind`).  The
worker's own ops are its control plane (``snapshot`` / ``obs_spans`` /
``inject_fault`` / ``shutdown``, which closes the engine) and the ``xp_*``
family of cross-partition transactions: the coordinator opens one
explicit transaction per participant (``xp_begin``), streams fragments into
it (``xp_exec`` / ``xp_call`` — both verbs run inside the open
transaction, the second via
:meth:`~repro.engine.database.Database.call_in_txn`), then commits every
participant in global order (``xp_commit``) or aborts them all
(``xp_abort``).  ``inject_fault`` arms a one-shot failure on a named op so
tests can tear the protocol at any point and observe the abort-all /
partial-commit behaviour.
"""

from __future__ import annotations

import socket
from collections import deque
from dataclasses import dataclass
from typing import Any, Optional

from ..common.errors import PartitionError
from ..common.framing import TRACE_KEY
from ..common.ops import BY_NAME, UNTRACED_OPS, bind
from ..engine.database import Database
from ..obs import observability
from .partitioning import PartitionMap
from .rpc import Channel, error_reply, pack, respond, unpack, value_reply


@dataclass(frozen=True)
class PartitionInfo:
    """What one worker knows about its place in the partitioned database.

    Passed to the deploy function as its second argument so bootstrap code
    can seed only the reference rows this partition :meth:`owns` — e.g.
    pre-populating a keyed tally table without duplicating every row on
    every partition."""

    partition_id: int
    num_partitions: int
    mode: str = "hash"

    @property
    def name(self) -> str:
        """Stable directory-safe name (``p000``, ``p001``, ...) — also the
        per-partition ``recovery_dir`` subdirectory."""
        return f"p{self.partition_id:03d}"

    def partition_of(self, value: Any) -> int:
        return PartitionMap(self.num_partitions, mode=self.mode).partition_of(value)

    def owns(self, value: Any) -> bool:
        """True when rows keyed by ``value`` route to this partition."""
        return self.partition_of(value) == self.partition_id


def _build_database(deploy, part: PartitionInfo, options: dict[str, Any]) -> Database:
    bootstrap = None if deploy is None else (lambda db: deploy(db, part))
    return Database(
        recovery_dir=options.get("recovery_dir"),
        recovery=options.get("recovery", "strong"),
        group_commit=options.get("group_commit", 8),
        bootstrap=bootstrap,
        # the coordinator ships the obs level as a string; spans this
        # worker records are labelled with its partition name
        obs=observability(options.get("obs"), process=part.name),
    )


class WorkerServer:
    """Request dispatch for one partition (shared by process and inline)."""

    def __init__(self, db: Database):
        self.db = db
        self._txn = None  # the open cross-partition transaction, if any
        self._armed_fault: Optional[dict[str, Any]] = None
        verbs = bind(db)
        self._dispatch = {
            **verbs,
            "xp_exec": self._fragment(verbs["execute"]),
            "xp_call": self._fragment(BY_NAME["call"].caller(db.call_in_txn)),
        }

    def reply(self, request: dict[str, Any]) -> tuple[bytes, bytes, bytes]:
        """``request``'s reply as packed hop buffers; never raises.  A reply
        the hop cannot carry goes back as its error, so the partition
        stays up in either container."""
        try:
            return pack(respond(self.handle, request))
        except Exception as exc:  # noqa: BLE001 - a serving loop must not die
            return pack(error_reply(exc))

    def handle(self, request: dict[str, Any]) -> Any:
        op = str(request.get("op"))
        ctx = request.pop(TRACE_KEY, None)
        fault = self._armed_fault
        if fault is not None and fault["op"] == op:
            self._armed_fault = None
            raise PartitionError(fault.get("message") or f"injected fault on {op!r}")
        fn = self._dispatch.get(op) or getattr(self, f"_op_{op}", None)
        if fn is None:
            raise PartitionError(f"unknown worker op {op!r}")
        obs = self.db.obs
        if not obs.enabled or op in UNTRACED_OPS:
            return fn(request)
        # adopt the coordinator's rpc.<op> span as parent, so this
        # worker's spans stitch into the coordinator-side trace
        with obs.tracer.activate(ctx):
            with obs.span(f"worker.{op}"):
                return fn(request)

    # -- plumbing ------------------------------------------------------------

    def _op_shutdown(self, request) -> None:
        self.db.close()

    def _op_inject_fault(self, request) -> None:
        """Arm a one-shot failure: the next request whose op matches
        ``fault_op`` raises :class:`PartitionError` before executing."""
        self._armed_fault = {
            "op": str(request["fault_op"]),
            "message": request.get("message"),
        }

    def _op_obs_spans(self, request) -> list:
        """Take this worker's buffered trace spans (the coordinator's
        :meth:`~repro.partition.coordinator.PartitionedDatabase.trace_spans`
        collects them)."""
        obs = self.db.obs
        if not obs.tracing:
            return []
        return obs.tracer.drain()

    def _op_snapshot(self, request) -> dict[str, Any]:
        return self.db.catalog.snapshot()

    # -- cross-partition transaction fragments (ordered commit) -------------

    def _require_xp(self):
        if self._txn is None:
            raise PartitionError(
                "no cross-partition transaction is open on this partition "
                "(protocol error: xp_begin must come first)"
            )
        return self._txn

    def _op_xp_begin(self, request) -> int:
        if self._txn is not None:
            raise PartitionError(
                f"cross-partition transaction {self._txn.txn_id} is already "
                f"open (the coordinator runs at most one at a time)"
            )
        self._txn = self.db.begin()
        return self._txn.txn_id

    def _fragment(self, verb):
        """A verb run as a fragment of the open cross-partition
        transaction (the engine joins the transaction it has open)."""

        def run(request) -> Any:
            self._require_xp()
            return verb(request)

        return run

    def _op_xp_commit(self, request) -> int:
        txn = self._require_xp()
        self._txn = None
        txn.commit()
        # workflow deliveries scheduled by the fragment's emits run now,
        # still inside this partition's serial request queue
        return self.db.drain()

    def _op_xp_abort(self, request) -> None:
        txn = self._txn
        self._txn = None
        if txn is not None and txn.is_active:
            txn.abort()


def worker_main(sock: socket.socket, deploy, part: PartitionInfo, options: dict[str, Any]) -> None:
    """Child-process entry point: open the partition's engine, report
    readiness (or the bootstrap/recovery error), then serve until
    ``shutdown`` or the coordinator hangs up."""
    channel = Channel(sock)
    try:
        db = _build_database(deploy, part, options)
    except BaseException as exc:
        try:
            channel.send(error_reply(exc))
        finally:
            channel.close()
        return
    channel.send(value_reply("ready"))
    server = WorkerServer(db)
    while True:
        try:
            request = channel.recv()
        except PartitionError:
            break  # coordinator went away; nothing left to serve
        try:
            channel.send_packed(server.reply(request))
        except PartitionError:
            break  # coordinator went away mid-reply
        if request.get("op") == "shutdown":
            break
    channel.close()


class InlineWorker:
    """The worker loop without the process: same dispatch, same codec.

    Every request and reply still round-trips through
    :func:`~repro.partition.rpc.pack`, so a value the hop cannot carry
    fails identically in both modes — inline tests cannot pass on values
    that would die on the real wire.  Replies queue FIFO, preserving the
    coordinator's pipelined send/collect discipline.  It is its own
    coordinator-side handle: there is no process to await or reap, so
    :meth:`ready` and :meth:`join` are no-ops."""

    def __init__(self, deploy, part: PartitionInfo, options: dict[str, Any]):
        self.part = part
        self.db = _build_database(deploy, part, options)
        self.server = WorkerServer(self.db)
        self._replies: deque[dict[str, Any]] = deque()
        self.alive = True

    def ready(self, partition_id: int) -> None:
        pass

    def join(self) -> None:
        pass

    def send(self, request: dict[str, Any]) -> None:
        if not self.alive:
            raise PartitionError(f"partition {self.part.partition_id} worker was killed")
        request = unpack(*pack(request)[1:])
        self._replies.append(unpack(*self.server.reply(request)[1:]))

    def recv(self) -> dict[str, Any]:
        if not self._replies:
            raise PartitionError(
                f"partition {self.part.partition_id}: no pending reply "
                f"(coordinator/worker bookkeeping out of sync)"
            )
        return self._replies.popleft()

    def kill(self) -> None:
        """Simulate a crash: drop the engine without close/flush.  Work
        past the last ``flush_log()`` group-commit boundary is lost, like
        a real process kill."""
        self.alive = False
        self._replies.clear()
        self.db = None
        self.server = None
