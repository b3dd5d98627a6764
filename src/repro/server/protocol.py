"""Wire protocol of the network front door.

One frame (see :mod:`repro.common.framing`) = one message.  The protocol
is the partition RPC's request/reply shape lifted onto a public socket:

* the **first** frame on a connection must be a handshake —
  ``{"op": "hello", "protocol": 1}`` — answered with server metadata
  (protocol version, whether the engine is partitioned, frame and
  admission limits); anything else closes the connection;
* after the handshake, every request is ``{"op": ..., ...operands}`` and
  every reply is ``{"ok": True, "value": ...}`` or ``{"ok": False,
  "error": "<class name>", "message": ..., "retryable": bool}``;
* replies are strictly **FIFO**: the server answers requests in arrival
  order (rejections included), so a client may pipeline many requests
  and match replies by position — the same discipline the coordinator
  uses against its partition workers;
* errors cross the wire by class name and are re-raised client-side as
  the same :class:`~repro.common.errors.ReproError` subclass (foreign
  names fall back to :class:`~repro.common.errors.ServerError`), so
  ``except BackpressureError`` works identically in-process and remote.

Engine operations (``OPS`` — the verbs declared in
:mod:`repro.common.ops`, each request record carrying that verb's operands
by name) run one at a time, in arrival order, on the server's event-loop
thread; ``hello``/``ping``/``bye`` are connection-level and never touch
the engine.  ``EXEMPT_OPS`` are engine-dispatched but **exempt** from admission
control: observability must keep working while the server is shedding
load.
"""

from __future__ import annotations

from typing import Any

from ..common.ops import BY_NAME, EXEMPT_OPS
from ..partition.rpc import error_reply, respond, value_reply

#: bump when the frame contents change incompatibly; the handshake
#: rejects clients speaking a different version.
PROTOCOL_VERSION = 1

#: engine operations — run from the server's job FIFO in arrival order.
OPS = frozenset(BY_NAME)

#: connection-level operations handled entirely on the event loop.
CONNECTION_OPS = frozenset({"hello", "ping", "bye"})


def hello_reply(
    *, partitioned: bool, max_frame_bytes: int, max_inflight_per_conn: int
) -> dict[str, Any]:
    return value_reply(
        {
            "protocol": PROTOCOL_VERSION,
            "server": "repro-sstore",
            "partitioned": partitioned,
            "max_frame_bytes": max_frame_bytes,
            "max_inflight_per_conn": max_inflight_per_conn,
        }
    )


__all__ = [
    "PROTOCOL_VERSION",
    "OPS",
    "EXEMPT_OPS",
    "CONNECTION_OPS",
    "value_reply",
    "error_reply",
    "hello_reply",
    "respond",
]
