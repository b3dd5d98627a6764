"""Framed RPC between the coordinator and its partition workers.

The wire protocol is deliberately tiny: every message — request or reply —
is one frame as defined by :mod:`repro.common.framing` (a
:func:`repro.common.serde.encode_record` line, versioned JSON with a CRC32,
prefixed by a 4-byte big-endian length).  Sharing the framing with the
command log and the network front door means the pipe carries exactly the
value domain the engine already guarantees is serialisable (JSON-safe SQL
values), the checksum catches a torn or corrupted frame, and there is no
pickle on the wire — a worker cannot be made to execute arbitrary code by
a malformed frame.

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

import socket
from pathlib import PurePath
from typing import Any

from ..common.errors import PartitionError, error_class
from ..common.framing import (
    TRACE_KEY,
    ConnectionClosedError,
    FrameTooLargeError,
    ProtocolError,
    recv_frame,
    send_frame,
)
from ..common.ops import UNTRACED_OPS
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


class Channel:
    """One framed, ordered, bidirectional message pipe over a socket.

    A thin wrapper over :mod:`repro.common.framing` that maps every wire
    failure — peer hang-up, torn/oversized/corrupt frame — to
    :class:`PartitionError` (never a bare ``OSError``), since for the
    coordinator any such failure means one thing: the worker is gone."""

    __slots__ = ("_sock",)

    def __init__(self, sock: socket.socket):
        self._sock = sock

    def send(self, record: dict[str, Any]) -> None:
        try:
            send_frame(self._sock, record)
        except ConnectionClosedError as exc:
            raise PartitionError(f"worker pipe broken during send: {exc}") from exc

    def recv(self) -> dict[str, Any]:
        try:
            record, _ = recv_frame(self._sock)
        except ConnectionClosedError as exc:
            raise PartitionError(f"worker hung up ({exc})") from exc
        except (FrameTooLargeError, ProtocolError) as exc:
            raise PartitionError(f"bad frame from worker: {exc}") from exc
        return record

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass


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
    """Start the ``<prefix>.<op>`` span of one outgoing request — ``None``
    when observability is off or the op is untraced — and, with tracing on,
    stamp its context into ``request`` so the receiver's spans stitch under
    it.  Detached: pipelined requests finish in FIFO, not span, order."""
    op = request.get("op")
    if not obs.enabled or op in UNTRACED_OPS:
        return None
    span = obs.tracer.start(f"{prefix}.{op}", tags, detached=True)
    if obs.tracing:
        request[TRACE_KEY] = span.context()
    return span


def settle(reply: dict[str, Any], span, origin: str, fallback: type) -> Any:
    """Close ``span`` (if any) on its request's reply and return the decoded
    value — or re-raise an error reply as its original exception class, the
    message prefixed ``[origin]``.  Foreign class names fall back to
    ``fallback`` so a peer can never make the caller raise a non-library
    exception type."""
    ok = bool(reply.get("ok"))
    if span is not None:
        span.finish(ok=ok)
    if not ok:
        cls = error_class(reply.get("error", ""), fallback)
        raise cls(f"[{origin}] {reply.get('message', 'unknown error')}")
    return decode_value(reply.get("value"))


# ---------------------------------------------------------------------------
# Value codec: everything on the wire is JSON; the one engine type that
# crosses it — ResultSet — gets an explicit marker envelope (and a
# checkpoint's path travels as its string).
# ---------------------------------------------------------------------------

_RS_MARKER = "__result_set__"


def encode_value(value: Any) -> Any:
    if isinstance(value, ResultSet):
        return {
            _RS_MARKER: 1,
            "columns": list(value.columns),
            "rows": [list(row) for row in value.rows],
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
