"""Framed RPC between the coordinator and its partition workers.

The hop is private — a ``socketpair`` to a worker forked from this
process, never stored — so it has its own codec: the length prefix of
:mod:`repro.common.framing` and its reader, a CRC32, then a :mod:`marshal`
dump of the dict (no JSON text, no pickle; a torn, oversized or corrupt
frame is a :class:`PartitionError`).  Tuples and int dict keys cross as
themselves, so the partitioned facade returns what a single engine
returns; a message holding a subclass (``Counter``, a namedtuple) crosses
as JSON would carry it.  The public protocol, the command log and
checkpoints keep :mod:`repro.common.serde`.

Messages are dicts.  A request carries ``{"op": ..., ...operands}`` — for
an engine verb, exactly the record the public wire carries (see
:mod:`repro.common.ops`); a reply is either ``{"ok": True, "value": ...}``
or ``{"ok": False, "error": "<class name>", "message": "...", "retryable":
bool}``.  The reply helpers here are the ones the network front door uses
too.  Error replies are re-raised on the requesting side as the *same*
exception class (resolved by name against :mod:`repro.common.errors`,
falling back to a per-wire default for anything foreign), with the message
prefixed by its origin (``[partition N]``, ``[server]``).

Replies are strictly FIFO per worker: a worker processes requests one at a
time, in arrival order, and the coordinator matches replies to requests by
position.  That ordering is what makes pipelining safe — the coordinator
may post many ingest requests before collecting any replies.
"""

from __future__ import annotations

import json
import marshal
import socket
import struct
import zlib
from pathlib import PurePath
from typing import Any

from ..common.errors import ConnectionClosedError, FrameTooLargeError, PartitionError, error_class
from ..common.framing import HEADER, MAX_FRAME_BYTES, TRACE_KEY, recv_exact
from ..common.ops import UNTRACED_OPS
from ..obs.tracing import NOOP_SPAN
from ..sql.executor import ResultSet

__all__ = [
    "Channel",
    "value_reply",
    "error_reply",
    "respond",
    "open_span",
    "settle",
    "encode_value",
    "decode_value",
]

#: ``marshal`` grows a front-door frame at most 2.5× (a one-digit int: 2
#: bytes with its comma in JSON, 5 here): any accepted request's sub-batch fits
MAX_HOP_BYTES = 3 * MAX_FRAME_BYTES
_CRC = struct.Struct(">I")


def pack(record: Any) -> tuple[bytes, bytes, bytes]:
    """One message as the buffers of its frame: length prefix, CRC32, body."""
    try:  # format 2: no back-references, a lookup per shared row for nothing
        body = marshal.dumps(record, 2)
    except ValueError:  # a subclass (Counter, namedtuple): cross as JSON would
        body = marshal.dumps(json.loads(json.dumps(record)), 2)
    if len(body) > MAX_HOP_BYTES:
        raise FrameTooLargeError(f"refusing a {len(body)}-byte frame (limit {MAX_HOP_BYTES})")
    return HEADER.pack(_CRC.size + len(body)), _CRC.pack(zlib.crc32(body)), body


def unpack(crc: bytes, body: bytes) -> dict[str, Any]:
    """Inverse of :func:`pack`."""
    if crc != _CRC.pack(zlib.crc32(body)):
        raise PartitionError("bad partition frame: checksum mismatch")
    try:
        record = marshal.loads(body)
    except (EOFError, ValueError, TypeError) as exc:
        raise PartitionError(f"bad partition frame: {exc}") from None
    if type(record) is not dict:
        raise PartitionError(f"bad partition frame: a {type(record).__name__}, not a dict")
    return record


class Channel:
    """One framed, ordered, bidirectional message pipe over a socket.

    Maps every wire failure — peer hang-up, torn/oversized/corrupt frame —
    to :class:`PartitionError` (never a bare ``OSError``), since for the
    coordinator any such failure means one thing: the worker is gone."""

    __slots__ = ("_sock",)

    def __init__(self, sock: socket.socket):
        self._sock = sock

    def send(self, record: dict[str, Any]) -> None:
        self.send_packed(pack(record))

    def send_packed(self, buffers: tuple[bytes, bytes, bytes]) -> None:
        """Send a message :func:`pack` has already framed."""
        try:
            sent = self._sock.sendmsg(buffers)
            if sent < sum(map(len, buffers)):  # a signal cut the write short
                self._sock.sendall(b"".join(buffers)[sent:])
        except OSError as exc:
            raise PartitionError(f"worker pipe broken during send: {exc}") from exc

    def recv(self) -> dict[str, Any]:
        try:
            (length,) = HEADER.unpack(recv_exact(self._sock, HEADER.size))
            if length > MAX_HOP_BYTES:  # refused before any body byte is read
                raise PartitionError(f"bad partition frame: {length} bytes announced")
            payload = recv_exact(self._sock, length, mid_frame=True)
        except ConnectionClosedError as exc:
            raise PartitionError(f"worker hung up ({exc})") from exc
        return unpack(payload[: _CRC.size], memoryview(payload)[_CRC.size :])

    def close(self) -> None:
        self._sock.close()


# ---------------------------------------------------------------------------
# Reply construction / consumption
# ---------------------------------------------------------------------------

def value_reply(value: Any) -> dict[str, Any]:
    return {"ok": True, "value": encode_value(value)}


def error_reply(exc: BaseException) -> dict[str, Any]:
    return {
        "ok": False,
        "error": type(exc).__name__,
        "message": str(exc),
        "retryable": bool(getattr(type(exc), "retryable", False)),
    }


def respond(handle, request: dict[str, Any]) -> dict[str, Any]:
    """``handle(request)`` as a wire reply; never raises.

    Engine errors become typed error replies; an *unexpected* exception
    (an engine bug) is still reported by its class name — the requester
    falls back to its wire's default error class — and the serving loop
    stays up."""
    try:
        return value_reply(handle(request))
    except Exception as exc:  # noqa: BLE001 - a serving loop must not die
        return error_reply(exc)


def open_span(obs, prefix: str, request: dict[str, Any], tags=None):
    """Start the ``<prefix>.<op>`` span of one outgoing request — the no-op
    span when observability is off or the op is untraced — and, with
    tracing on, stamp its context into ``request`` so the receiver's spans
    stitch under it.  Detached: pipelined requests finish in FIFO, not
    span, order."""
    op = request.get("op")
    if not obs.enabled or op in UNTRACED_OPS:
        return NOOP_SPAN
    span = obs.tracer.start(f"{prefix}.{op}", tags, detached=True)
    if obs.tracing:
        request[TRACE_KEY] = span.context()
    return span


def settle(reply: dict[str, Any], span, origin: str, fallback: type) -> Any:
    """Close ``span`` on its request's reply and return the decoded value
    — or re-raise an error reply as its original exception class, the
    message prefixed ``[origin]``.  Foreign class names fall back to
    ``fallback`` so a peer can never make the caller raise a non-library
    exception type."""
    ok = bool(reply.get("ok"))
    span.finish(ok=ok)
    if not ok:
        cls = error_class(reply.get("error", ""), fallback)
        raise cls(f"[{origin}] {reply.get('message', 'unknown error')}")
    return decode_value(reply.get("value"))


# ---------------------------------------------------------------------------
# Value codec, shared with the JSON front door: the one engine type that
# crosses a wire — ResultSet — gets an explicit marker envelope (and a
# checkpoint's path travels as its string).
# ---------------------------------------------------------------------------

_RS_MARKER = "__result_set__"


def encode_value(value: Any) -> Any:
    if isinstance(value, ResultSet):
        return {
            _RS_MARKER: 1,
            "columns": list(value.columns),
            "rows": list(value.rows),
            "rowcount": value.rowcount,
        }
    if isinstance(value, PurePath):
        return str(value)
    return value


def decode_value(value: Any) -> Any:
    if isinstance(value, dict) and value.get(_RS_MARKER) == 1:
        return ResultSet(
            value["columns"],
            [tuple(row) for row in value["rows"]],
            value["rowcount"],
        )
    return value
