"""Clients for the network front door.

:class:`ReproClient` is the workhorse: a blocking, socket-based client
exposing the engine's whole operation surface (one method per verb
declared in :mod:`repro.common.ops`, same name and signature as the
engine's), safe to use from benchmark worker threads or processes (one
client per worker — a client is a connection, and a connection is a FIFO
reply stream owned by one caller at a time).

:class:`AsyncReproClient` is the asyncio twin for callers that already
live on an event loop: the same verbs, awaited.

The verbs are written once, in :class:`_ClientBase`: each builds its request
record from the declaration and hands it to ``_request`` — the single
override point; the two clients differ only in transport.  Both support
**pipelining**: ``post()`` sends a request without waiting and
``collect()`` takes the oldest outstanding reply — the same FIFO matching
the coordinator uses against its workers.  The verb methods are strictly
request/reply and refuse to run with posts outstanding (interleaving them
would mis-match replies).

Error replies re-raise as the engine's own exception classes, resolved
by name (foreign names fall back to
:class:`~repro.common.errors.ServerError`), with the message prefixed
``[server]`` so a remote failure names its origin.  Admission-control
rejections are :class:`~repro.common.errors.BackpressureError` with
``retryable = True``; :meth:`ReproClient.ingest` can retry those itself
(``retries=``) with exponential backoff — safe because a rejected batch
was never executed.
"""

from __future__ import annotations

import asyncio
import socket
import time
from collections import deque
from typing import Any, Optional, Sequence

from ..common.errors import ProtocolError, ServerError
from ..common.framing import (
    MAX_FRAME_BYTES,
    encode_frame,
    read_frame_async,
    recv_frame,
    send_frame,
)
from ..common.ops import BY_NAME, OPERATIONS, Operation
from ..obs import observability
from ..partition.rpc import open_span, settle
from ..sql.executor import ResultSet
from .protocol import PROTOCOL_VERSION

#: seconds :class:`ReproClient` waits for the TCP connection to open
CONNECT_TIMEOUT_S = 5.0


def _ingest_result(value: Any) -> Any:
    # a partitioned reply is {partition: batch ids}; JSON stringified the
    # int keys in transit — restore them
    if isinstance(value, dict):
        return {int(pid): ids for pid, ids in value.items()}
    return value


def _verb(op: Operation):
    finish = _ingest_result if op.name == "ingest" else None

    def method(self, *args: Any, **kwargs: Any) -> Any:
        return self._request(op.record(args, kwargs), finish)

    method.__name__ = op.name
    method.__doc__ = f"The served engine's ``{op.name}``: same arguments, same result."
    return method


class _ClientBase:
    """The engine facade, remoted — and everything about a connection that
    is not transport: one method per declared operation, the span opened
    per posted request, and the FIFO of outstanding replies.

    Subclasses provide ``post`` / ``collect`` and ``_request(record,
    finish)``, which returns (or, on the event loop, awaits to)
    ``finish(reply value)``."""

    def __init__(self, *, max_frame_bytes: int, obs) -> None:
        self._limit = max_frame_bytes
        #: client-side observability (``None``/``"off"``/``"metrics"``/
        #: ``"full"`` or an Observability).  With tracing on, each posted
        #: request opens a ``client.<op>`` span whose context rides the
        #: frame — the server's work stitches under it.
        self.obs = observability(obs, process="client")
        #: one entry per outstanding post: its span, or None
        self._spans: deque = deque()
        self.server_info: dict[str, Any] = {}
        self.partitioned = False

    def _request(self, record: dict[str, Any], finish=None) -> Any:
        raise NotImplementedError

    def query(self, sql: str, params: Sequence[Any] = (), *, key: Any = None) -> Any:
        """``execute`` with the rows returned as ``{column: value}`` dicts."""
        return self._request(
            BY_NAME["execute"].record((sql, params), {"key": key}), ResultSet.to_dicts
        )

    def ping(self) -> Any:
        return self._request({"op": "ping"})

    @property
    def outstanding(self) -> int:
        return len(self._spans)

    def trace_spans(self) -> list[dict[str, Any]]:
        """Drain this client's buffered spans (empty unless tracing)."""
        if not self.obs.tracing:
            return []
        return self.obs.tracer.drain()

    # -- bookkeeping shared by both transports --------------------------------

    def _connected(self, server_info: dict[str, Any]) -> None:
        self.server_info = server_info
        self.partitioned = bool(server_info.get("partitioned"))

    def _opening(self, record: dict[str, Any]) -> tuple[dict[str, Any], Any]:
        """The record to put on the wire and the ``client.<op>`` span (or
        None) to queue once it is sent."""
        if self.obs.tracing:
            record = dict(record)  # the context is stamped in: spare the caller's dict
        return record, open_span(self.obs, "client", record)

    def _expecting(self) -> None:
        if not self._spans:
            raise ProtocolError("collect() with no outstanding post()")

    def _settle(self, reply: dict[str, Any]) -> Any:
        """Match ``reply`` to the oldest post; its value, or its typed error."""
        return settle(reply, self._spans.popleft(), "server", ServerError)

    def _idle(self) -> None:
        if self._spans:
            raise ProtocolError(
                f"{len(self._spans)} pipelined post(s) outstanding — "
                "collect() them before a synchronous call"
            )


for _op in OPERATIONS:
    setattr(_ClientBase, _op.name, _verb(_op))


class ReproClient(_ClientBase):
    """Blocking client for one :class:`~repro.server.ReproServer`.

    Connecting performs the handshake; :attr:`server_info` then carries
    the server's metadata (``partitioned``, limits).  Close with
    :meth:`close` or use as a context manager.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        obs=None,
    ):
        super().__init__(max_frame_bytes=max_frame_bytes, obs=obs)
        self._sock = socket.create_connection((host, port), timeout=CONNECT_TIMEOUT_S)
        self._sock.settimeout(None)
        self._closed = False
        try:
            self._connected(self._request({"op": "hello", "protocol": PROTOCOL_VERSION}))
        except BaseException:
            self._sock.close()
            self._closed = True
            raise

    # -- pipelining primitives ------------------------------------------------

    def post(self, record: dict[str, Any]) -> None:
        """Send one request without waiting; replies arrive in FIFO order
        via :meth:`collect`."""
        record, span = self._opening(record)
        send_frame(self._sock, record, limit=self._limit)
        self._spans.append(span)

    def collect(self) -> Any:
        """Take the oldest outstanding reply (raises its typed error)."""
        self._expecting()
        reply, _ = recv_frame(self._sock, limit=self._limit)
        return self._settle(reply)

    def _request(self, record: dict[str, Any], finish=None) -> Any:
        self._idle()
        self.post(record)
        value = self.collect()
        return value if finish is None else finish(value)

    def ingest(
        self,
        stream: str,
        rows,
        batch_id: Optional[int] = None,
        *,
        retries: int = 0,
        backoff: float = 0.01,
    ) -> Any:
        """Ingest one atomic batch.  Returns the applied batch ids — a
        list from a single engine, ``{partition: ids}`` from a
        partitioned one.

        ``retries`` re-submits after a *retryable* rejection (admission
        control), sleeping ``backoff * 2**attempt`` between tries.  A
        rejected batch was never executed, so the retry applies exactly
        once.
        """
        attempt = 0
        while True:
            try:
                return super().ingest(stream, rows, batch_id)
            except ServerError as exc:
                if not exc.retryable or attempt >= retries:
                    raise
                time.sleep(backoff * (2 ** attempt))
                attempt += 1

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Graceful goodbye (best-effort) and socket close.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        try:
            if not self._spans:
                self._request({"op": "bye"})
        except Exception:
            pass  # the goodbye is courtesy; the close is what matters
        self._sock.close()

    def __enter__(self) -> "ReproClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class AsyncReproClient(_ClientBase):
    """The same protocol and verbs on an event loop (``await
    client.call(...)``).

    Build with :meth:`connect`; one outstanding-reply FIFO per client,
    same pipelining rules as :class:`ReproClient`.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        obs=None,
    ):
        super().__init__(max_frame_bytes=max_frame_bytes, obs=obs)
        self._reader = reader
        self._writer = writer

    @classmethod
    async def connect(
        cls,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        obs=None,
    ) -> "AsyncReproClient":
        reader, writer = await asyncio.open_connection(host, port)
        client = cls(reader, writer, max_frame_bytes=max_frame_bytes, obs=obs)
        client._connected(
            await client.request({"op": "hello", "protocol": PROTOCOL_VERSION})
        )
        return client

    async def post(self, record: dict[str, Any]) -> None:
        record, span = self._opening(record)
        self._writer.write(encode_frame(record, limit=self._limit))
        await self._writer.drain()
        self._spans.append(span)

    async def collect(self) -> Any:
        self._expecting()
        reply, _ = await read_frame_async(self._reader, limit=self._limit)
        return self._settle(reply)

    async def request(self, record: dict[str, Any]) -> Any:
        self._idle()
        await self.post(record)
        return await self.collect()

    async def _request(self, record: dict[str, Any], finish=None) -> Any:
        value = await self.request(record)
        return value if finish is None else finish(value)

    async def close(self) -> None:
        try:
            if not self._spans:
                await self.request({"op": "bye"})
        except Exception:
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (OSError, ConnectionError):
            pass
