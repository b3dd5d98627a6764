"""The asyncio TCP server fronting a single or partitioned engine.

Architecture — two threads: the caller's, which starts and closes the
server, and the **event-loop thread**, which owns every socket, every
admission-control counter and the engine itself.  Connections are
coroutines; each admitted request joins one job FIFO shared by all
connections, and the loop runs exactly one job per turn, so engine
operations execute serially in arrival order — the execution model the
engine is built on — with no lock and no hand-off between threads.
This also makes server-assigned batch ids safe: concurrent clients
ingesting the same stream are serialised by the FIFO, so each batch
draws the next id with no interleaving (no
:class:`~repro.common.errors.BatchOrderError`).

Backpressure is *rejection*, not buffering.  Each connection carries a
bounded in-flight budget and the server a global one; a frame read while
either budget is held by queued work is answered — in FIFO position —
with a :class:`~repro.common.errors.BackpressureError` reply
(``retryable``) and **nothing** is queued or executed.  Stream GC bounds
engine memory and group commit bounds fsyncs; this layer bounds the job
FIFO, so no component of the pipeline grows without limit under
overload.  The reply path is bounded too: the per-connection reply queue
blocks frame reading when full, and a peer that stops reading its
replies for :data:`DRAIN_TIMEOUT_S` seconds is declared dead and
disconnected.

In-flight means *admitted but not yet executed*: a job settles its reply
and releases its budget before the next job starts, so the reply write
is queued ahead of further engine work and a strict request/reply client
is never spuriously rejected even at budget 1.  A client that
disconnects mid-request does not abort anything — admitted work runs to
completion (the transaction either fully applies or never started; there
is no partial state to roll back), its budget is released, and the
undeliverable reply is dropped.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import Counter, deque
from functools import partial
from typing import Any, Optional

from ..common.errors import (
    BackpressureError,
    ConnectionClosedError,
    FrameTooLargeError,
    ProtocolError,
    ServerError,
)
from ..common.framing import MAX_FRAME_BYTES, TRACE_KEY, encode_frame, read_frame_async
from ..common.ops import UNTRACED_OPS, bind, perform
from .protocol import (
    CONNECTION_OPS,
    EXEMPT_OPS,
    OPS,
    PROTOCOL_VERSION,
    error_reply,
    hello_reply,
    respond,
    value_reply,
)

#: reply-queue slack beyond the admission budget, for rejection/ping
#: replies that carry no budget.  When even this fills, the reader stops
#: pulling frames and TCP flow control pushes back on the client.
_REPLY_QUEUE_SLACK = 32
#: seconds a reply write may stall on a non-reading peer before the
#: connection is declared dead
DRAIN_TIMEOUT_S = 30.0


class ServerStats:
    """Counters surfaced as the ``server`` section of ``db.stats()``.
    Written on the loop thread; an in-process ``db.stats()`` reads them
    from its own thread, one GIL-atomic copy per field."""

    def __init__(self) -> None:
        self.connections_accepted = 0
        self.requests: Counter[str] = Counter()
        self.replies = 0
        self.rejected: Counter[str] = Counter()
        self.protocol_errors = 0
        self.bytes_in = 0
        self.bytes_out = 0

    def snapshot(self, server: "ReproServer") -> dict[str, Any]:
        return {
            "listening": list(server.address),
            "connections": {
                "accepted": self.connections_accepted,
                "active": len(server._conns),
            },
            "requests": dict(self.requests),
            "replies": self.replies,
            "rejected": {
                "total": sum(self.rejected.values()),
                "by_op": dict(self.rejected),
            },
            "inflight": {
                "now": server._inflight_total,
                "limit_per_connection": server.max_inflight_per_conn,
                "limit_total": server.max_inflight_total,
            },
            "protocol_errors": self.protocol_errors,
            "bytes": {"in": self.bytes_in, "out": self.bytes_out},
        }


class _Conn:
    """Per-connection session: its reply queue and in-flight budget."""

    __slots__ = ("writer", "replies", "inflight", "alive")

    def __init__(self, writer: asyncio.StreamWriter, queue_size: int):
        self.writer = writer
        #: FIFO of reply dicts / job futures; ``None`` ends it
        self.replies: asyncio.Queue = asyncio.Queue(maxsize=queue_size)
        self.inflight = 0
        self.alive = True


class ReproServer:
    """Serve a :class:`~repro.engine.database.Database` or
    :class:`~repro.partition.coordinator.PartitionedDatabase` over TCP.

    The server owns no engine state and closes without touching the
    engine — ``close()`` stops accepting, finishes or abandons
    connections, joins its thread, and leaves ``db`` usable in-process.

    Args:
        db: the engine to front — any shape: every request goes through
            the one declared operation surface (:mod:`repro.common.ops`).
        host/port: bind address; port 0 picks a free port (read it back
            from :attr:`address`).
        max_inflight_per_conn: admitted-but-unexecuted budget per
            connection; requests beyond it are rejected retryably.
        max_inflight_total: the same budget across all connections.
        max_frame_bytes: per-frame ceiling, enforced both directions.
        idle_timeout: seconds a connection may sit with no request and
            nothing in flight before the server hangs up (None = never).
    """

    def __init__(
        self,
        db: Any,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_inflight_per_conn: int = 8,
        max_inflight_total: int = 64,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        idle_timeout: Optional[float] = None,
    ):
        if max_inflight_per_conn < 1 or max_inflight_total < 1:
            raise ValueError("in-flight budgets must be >= 1")
        self.db = db
        self._perform = partial(perform, bind(db))
        self.partitioned = hasattr(db, "partition_map")
        self.max_inflight_per_conn = max_inflight_per_conn
        self.max_inflight_total = max_inflight_total
        self.max_frame_bytes = max_frame_bytes
        self.idle_timeout = idle_timeout
        self.stats = ServerStats()
        self.address: tuple[str, int] = (host, port)
        self._host, self._port = host, port
        self._inflight_total = 0
        self._conns: set[_Conn] = set()
        self._conn_tasks: set[asyncio.Task] = set()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._loop_thread: Optional[threading.Thread] = None
        #: admitted requests of every connection, run one per loop turn:
        #: ``(record, future, conn or None if exempt, queued_ns)``.  A
        #: ``_run_next`` is scheduled exactly while it is non-empty.
        self._jobs: deque = deque()
        self._aserver: Optional[asyncio.AbstractServer] = None
        self._started = False
        self._closed = False

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ReproServer":
        """Bind, listen, and register the ``server`` stats section.

        Returns ``self`` so ``ReproServer(db).start()`` reads naturally.
        """
        if self._started:
            raise ServerError("server already started")
        self._started = True
        self._loop = asyncio.new_event_loop()
        self._loop_thread = threading.Thread(
            target=self._loop.run_forever, name="repro-server", daemon=True
        )
        self._loop_thread.start()
        try:
            self._aserver = asyncio.run_coroutine_threadsafe(
                asyncio.start_server(self._handle, self._host, self._port),
                self._loop,
            ).result()
        except BaseException:
            self.close()
            raise
        sock = self._aserver.sockets[0]
        self.address = sock.getsockname()[:2]
        self.db.add_stats_section("server", lambda: self.stats.snapshot(self))
        return self

    def close(self) -> None:
        """Stop accepting, finish open connections and their jobs, join
        the loop thread, and detach from the engine.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        if self._loop is not None and self._loop_thread is not None:
            if self._loop_thread.is_alive():
                asyncio.run_coroutine_threadsafe(
                    self._shutdown(), self._loop
                ).result()
                self._loop.call_soon_threadsafe(self._loop.stop)
            self._loop_thread.join()
            self._loop.close()
        self.db.remove_stats_section("server")

    async def _shutdown(self) -> None:
        if self._aserver is not None:
            self._aserver.close()
            await self._aserver.wait_closed()
        # hang up on every live connection; handlers observe the closed
        # transport, finish their in-flight work, and exit
        for conn in list(self._conns):
            conn.alive = False
            conn.writer.close()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)

    def __enter__(self) -> "ReproServer":
        return self.start() if not self._started else self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- connection handling (event-loop thread) -----------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        st = self.stats
        st.connections_accepted += 1
        conn = _Conn(writer, self.max_inflight_per_conn + _REPLY_QUEUE_SLACK)
        self._conns.add(conn)
        self._conn_tasks.add(asyncio.current_task())
        writer_task = asyncio.ensure_future(self._write_replies(conn))
        try:
            if await self._handshake(conn, reader):
                await self._serve(conn, reader)
        finally:
            await conn.replies.put(None)
            await writer_task  # waits out this connection's jobs, drains replies
            self._conns.discard(conn)
            self._conn_tasks.discard(asyncio.current_task())
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, ConnectionError):
                pass

    async def _handshake(
        self, conn: _Conn, reader: asyncio.StreamReader
    ) -> bool:
        """First frame must be a versioned hello; anything else gets one
        error frame and the connection closes."""
        try:
            record, nbytes = await read_frame_async(
                reader, limit=self.max_frame_bytes, header_timeout=self.idle_timeout
            )
        except (TimeoutError, asyncio.TimeoutError, ConnectionClosedError):
            return False
        except (FrameTooLargeError, ProtocolError) as exc:
            self.stats.protocol_errors += 1
            await conn.replies.put(error_reply(exc))
            return False
        self.stats.bytes_in += nbytes
        op = record.get("op")
        self.stats.requests[op if isinstance(op, str) else "?"] += 1
        if op != "hello":
            self.stats.protocol_errors += 1
            await conn.replies.put(error_reply(ProtocolError(f"expected hello, got {op!r}")))
            return False
        if record.get("protocol") != PROTOCOL_VERSION:
            self.stats.protocol_errors += 1
            await conn.replies.put(error_reply(ProtocolError(
                f"unsupported protocol version {record.get('protocol')!r} "
                f"(server speaks {PROTOCOL_VERSION})"
            )))
            return False
        await conn.replies.put(hello_reply(
            partitioned=self.partitioned,
            max_frame_bytes=self.max_frame_bytes,
            max_inflight_per_conn=self.max_inflight_per_conn,
        ))
        return True

    async def _serve(self, conn: _Conn, reader: asyncio.StreamReader) -> None:
        st = self.stats
        while True:
            try:
                record, nbytes = await read_frame_async(
                    reader,
                    limit=self.max_frame_bytes,
                    header_timeout=self.idle_timeout,
                )
            except (TimeoutError, asyncio.TimeoutError):
                if conn.inflight or not conn.replies.empty():
                    continue  # quiet socket but work in flight — not idle
                await conn.replies.put(error_reply(ConnectionClosedError(
                    f"idle timeout ({self.idle_timeout}s with no request)"
                )))
                return
            except ConnectionClosedError:
                return  # client hung up; in-flight work still completes
            except (FrameTooLargeError, ProtocolError) as exc:
                # the byte stream is no longer trustworthy: one typed
                # error frame, then hang up
                st.protocol_errors += 1
                await conn.replies.put(error_reply(exc))
                return
            st.bytes_in += nbytes
            op = record.get("op")
            name = op if isinstance(op, str) else "?"  # "?" is no op: unhashable ops end here
            st.requests[name] += 1
            if op == "ping":
                await conn.replies.put(value_reply("pong"))
                continue
            if op == "bye":
                await conn.replies.put(value_reply("bye"))
                return
            if name not in OPS:
                hint = "duplicate hello" if name in CONNECTION_OPS else f"unknown op {op!r}"
                await conn.replies.put(error_reply(ProtocolError(hint)))
                continue
            charged = op not in EXEMPT_OPS
            if charged:
                rejection = self._admit(conn, op)
                if rejection is not None:
                    await conn.replies.put(rejection)
                    continue
            future = self._loop.create_future()
            self._jobs.append(
                (record, future, conn if charged else None, time.perf_counter_ns())
            )
            if len(self._jobs) == 1:  # the FIFO was idle: start it
                self._loop.call_soon(self._run_next)
            await conn.replies.put(future)

    def _admit(self, conn: _Conn, op: str) -> Optional[dict[str, Any]]:
        """Take one unit of budget, or return the rejection reply.

        Nothing is queued for a rejected request — the engine never sees
        it, so a client retry cannot double-apply anything.
        """
        if conn.inflight >= self.max_inflight_per_conn:
            scope = f"connection budget full ({self.max_inflight_per_conn} in flight)"
        elif self._inflight_total >= self.max_inflight_total:
            scope = f"server budget full ({self.max_inflight_total} in flight)"
        else:
            conn.inflight += 1
            self._inflight_total += 1
            return None
        self.stats.rejected[op] += 1
        return error_reply(BackpressureError(
            f"{op} rejected: {scope}; nothing was executed, retry later"
        ))

    def _run_next(self) -> None:
        """Run the oldest job, settle its reply, release its budget, and
        only then schedule the next job: the reply write is queued ahead
        of further engine work, and I/O is polled between jobs."""
        record, future, conn, queued_ns = self._jobs.popleft()
        try:
            reply = self._respond(record, queued_ns)
        except BaseException as exc:
            # owe the connection's reply writer a reply regardless
            reply = error_reply(ServerError(f"request lost: {exc}"))
            raise
        finally:
            future.set_result(reply)
            if conn is not None:
                conn.inflight -= 1
                self._inflight_total -= 1
            if self._jobs:
                self._loop.call_soon(self._run_next)

    def _respond(self, record: dict[str, Any], queued_ns: int) -> dict[str, Any]:
        """Job entry: measure the wait from admission to job start, adopt
        the client's trace context (if any), span the request, execute."""
        ctx = record.pop(TRACE_KEY, None)
        obs = self.db.obs
        op = record.get("op")
        if not obs.enabled or op in UNTRACED_OPS:
            # stats polls stay out of the span ring (and the disabled
            # path pays nothing beyond this branch)
            return respond(self._perform, record)
        wait_us = (time.perf_counter_ns() - queued_ns) / 1000.0
        obs.observe("server.queue_wait", wait_us)
        with obs.tracer.activate(ctx):
            with obs.span("server.request", op=op, queue_wait_us=round(wait_us, 1)):
                return respond(self._perform, record)

    async def _write_replies(self, conn: _Conn) -> None:
        """Drain the reply queue in FIFO order.  Runs until the ``None``
        sentinel, even once the socket is dead — every queued job future
        must still be awaited to completion (admitted work always runs,
        reachable client or not)."""
        st = self.stats
        while True:
            payload = await conn.replies.get()
            if payload is None:
                return
            reply = await payload if isinstance(payload, asyncio.Future) else payload
            if conn.alive:
                try:
                    data = self._encode_reply(reply)
                    conn.writer.write(data)
                    await asyncio.wait_for(
                        conn.writer.drain(), timeout=DRAIN_TIMEOUT_S
                    )
                    st.bytes_out += len(data)
                    st.replies += 1
                except (TimeoutError, asyncio.TimeoutError, OSError, ConnectionError):
                    conn.alive = False  # dead or non-reading peer
                    conn.writer.close()

    def _encode_reply(self, reply: dict[str, Any]) -> bytes:
        """A reply that cannot be framed must still produce a frame —
        the client is owed exactly one reply per request."""
        try:
            return encode_frame(reply, limit=self.max_frame_bytes)
        except FrameTooLargeError as exc:
            return encode_frame(error_reply(exc), limit=self.max_frame_bytes)
        except Exception as exc:  # noqa: BLE001 - e.g. unserialisable value
            return encode_frame(
                error_reply(ServerError(f"reply not serialisable: {exc}")),
                limit=self.max_frame_bytes,
            )


def serve(db: Any, host: str = "127.0.0.1", port: int = 0, **options: Any) -> ReproServer:
    """Start a :class:`ReproServer` and return it (convenience)."""
    return ReproServer(db, host, port, **options).start()
