"""Length-prefixed frames: the one wire format of the whole system.

Every message that crosses a process or socket boundary — partition RPC
(:mod:`repro.partition.rpc`) and the network front door
(:mod:`repro.server`) — is one :func:`repro.common.serde.encode_record`
line (versioned JSON with a CRC32), prefixed by a 4-byte big-endian
length.  This module is the single implementation of that framing, with
one set of guards shared by every user:

* **oversized frames** are rejected on both sides: the sender refuses to
  emit a frame beyond ``limit`` (:class:`FrameTooLargeError` before any
  byte is written), and the receiver refuses to read the body of a frame
  whose header announces a length beyond its own limit — a malicious or
  confused peer cannot make either end materialise an unbounded payload;
* **torn frames** — a peer hanging up mid-read — raise
  :class:`ConnectionClosedError` with ``mid_frame=True``, distinct from a
  clean close between frames (``mid_frame=False``), so callers can tell
  "peer finished" from "peer died mid-message";
* **corrupt frames** (checksum mismatch, bad JSON, bad UTF-8, a record
  that is not a JSON object) raise
  :class:`ProtocolError` — the serde CRC turns line noise into a typed,
  catchable failure instead of garbage data.

Blocking-socket helpers (:func:`send_frame`/:func:`recv_frame`) serve the
partition RPC channel and the synchronous client; the asyncio helper
(:func:`read_frame_async`) serves the server's event loop.  Reads return
``(record, frame_bytes)`` so callers can keep byte-level accounting
without re-measuring.
"""

from __future__ import annotations

import asyncio
import socket
import struct
from typing import Any

from .errors import (
    ConnectionClosedError,
    FrameTooLargeError,
    ProtocolError,
    RecoveryError,
)
from .serde import decode_record, encode_record

#: 4-byte big-endian unsigned length prefix.
HEADER = struct.Struct(">I")

#: Reserved request-dict key carrying trace context across a hop.
#: Because every frame is a plain JSON dict, distributed tracing needs no
#: wire-format change: a sender that wants its span to parent the
#: receiver's work puts ``{"trace_id": ..., "span_id": ...}`` under this
#: key (see :meth:`repro.obs.tracing.Span.context`), and the receiver
#: pops it before dispatch and ``activate()``\ s it.  Both the
#: client→server and coordinator→worker hops use exactly this mechanism,
#: which is what lets one ingested batch's trace stitch end to end.
TRACE_KEY = "__trace__"

#: Default per-frame byte ceiling (header excluded).  Generous enough for
#: any sane batch; small enough that one bad frame cannot exhaust memory.
MAX_FRAME_BYTES = 8 * 1024 * 1024


def encode_frame(record: dict[str, Any], *, limit: int = MAX_FRAME_BYTES) -> bytes:
    """Encode one record as a complete frame (header + serde line).

    Encodes fully before returning, so an unserialisable record raises
    without a partial frame ever reaching the wire.

    Raises:
        FrameTooLargeError: the encoded record exceeds ``limit``.
    """
    line = encode_record(record).encode("utf-8")
    if len(line) > limit:
        raise FrameTooLargeError(
            f"refusing to send a {len(line)}-byte frame (limit {limit} bytes)"
        )
    return HEADER.pack(len(line)) + line


def decode_payload(data: bytes) -> dict[str, Any]:
    """Decode one frame body, mapping serde corruption to the wire's
    typed error.

    Raises:
        ProtocolError: checksum mismatch, invalid JSON, invalid UTF-8, or
            a record that is not a JSON object.
    """
    try:
        record = decode_record(data.decode("utf-8"))
    except (RecoveryError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"malformed frame: {exc}") from None
    if not isinstance(record, dict):
        raise ProtocolError(f"malformed frame: a JSON {type(record).__name__}, not an object")
    return record


def _check_announced_length(length: int, limit: int) -> None:
    if length > limit:
        raise FrameTooLargeError(
            f"peer announced a {length}-byte frame (limit {limit} bytes)"
        )


# ---------------------------------------------------------------------------
# Blocking sockets
# ---------------------------------------------------------------------------

def send_frame(
    sock: socket.socket, record: dict[str, Any], *, limit: int = MAX_FRAME_BYTES
) -> int:
    """Write one frame; returns the bytes written.

    Raises:
        FrameTooLargeError: the record encodes beyond ``limit``.
        ConnectionClosedError: the peer is gone (broken pipe/reset).
    """
    data = encode_frame(record, limit=limit)
    try:
        sock.sendall(data)
    except OSError as exc:
        raise ConnectionClosedError(f"connection broken during send: {exc}") from exc
    return len(data)


def recv_frame(
    sock: socket.socket, *, limit: int = MAX_FRAME_BYTES
) -> tuple[dict[str, Any], int]:
    """Read exactly one frame; returns ``(record, frame_bytes)``.

    Raises:
        ConnectionClosedError: clean close before the header
            (``mid_frame=False``) or a tear anywhere after
            (``mid_frame=True``).
        FrameTooLargeError: the header announces a body beyond ``limit``
            (the body is never read).
        ProtocolError: the body fails the serde checksum/JSON checks.
    """
    (length,) = HEADER.unpack(recv_exact(sock, HEADER.size))
    _check_announced_length(length, limit)
    payload = recv_exact(sock, length, mid_frame=True)
    return decode_payload(payload), HEADER.size + length


def recv_exact(sock: socket.socket, n: int, *, mid_frame: bool = False) -> bytes:
    """Read exactly ``n`` bytes from a blocking socket.

    ``mid_frame`` marks reads that are already inside a frame (the body
    after its header), so a close there is always reported as torn.
    """
    chunks: list[bytes] = []
    remaining = n
    while remaining:
        try:
            chunk = sock.recv(remaining)
        except OSError as exc:
            raise ConnectionClosedError(
                f"connection broken during recv: {exc}"
            ) from exc
        if not chunk:
            torn = mid_frame or bool(chunks)
            raise ConnectionClosedError(
                "connection closed mid-frame" if torn else "connection closed",
                mid_frame=torn,
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


# ---------------------------------------------------------------------------
# asyncio streams
# ---------------------------------------------------------------------------

async def read_frame_async(
    reader: asyncio.StreamReader,
    *,
    limit: int = MAX_FRAME_BYTES,
    header_timeout: float | None = None,
) -> tuple[dict[str, Any], int]:
    """Read exactly one frame from an asyncio stream; returns
    ``(record, frame_bytes)``.

    ``header_timeout`` bounds only the wait for the *header* — the idle
    gap between frames — and raises ``TimeoutError`` when it elapses.
    Timing out there is cancellation-safe: ``readexactly`` consumes
    nothing until all requested bytes are buffered, so the caller may
    keep the connection and read again.  Once a header has arrived the
    peer has committed to a frame and the body is read without a timeout.

    Raises:
        TimeoutError: no header arrived within ``header_timeout``.
        ConnectionClosedError | FrameTooLargeError | ProtocolError: as
            :func:`recv_frame`.
    """
    try:
        head = reader.readexactly(HEADER.size)
        if header_timeout is not None:
            head = asyncio.wait_for(head, header_timeout)
        header = await head
    except asyncio.IncompleteReadError as exc:
        torn = bool(exc.partial)
        raise ConnectionClosedError(
            "connection closed mid-frame" if torn else "connection closed",
            mid_frame=torn,
        ) from None
    except (TimeoutError, asyncio.TimeoutError):
        raise  # the idle gap elapsed — NOT a dead peer (3.11+ makes
        # TimeoutError an OSError subclass, so this must precede it)
    except OSError as exc:
        raise ConnectionClosedError(f"connection broken during recv: {exc}") from exc
    (length,) = HEADER.unpack(header)
    _check_announced_length(length, limit)
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise ConnectionClosedError(
            "connection closed mid-frame", mid_frame=True
        ) from None
    except OSError as exc:
        raise ConnectionClosedError(f"connection broken during recv: {exc}") from exc
    return decode_payload(payload), HEADER.size + length
